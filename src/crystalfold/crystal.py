"""Finite crystal graphs and their verification machinery.

A crystal is stored as an explicit labeled digraph: canonical string ids,
integer weight tuples over the coroot pairings, and one lowering map per
color with -1 standing for theta. Everything else (raising maps, string
lengths, Weyl action, extremal elements, simplicity, perfectness) is
derived from the graph and re-verified rather than trusted. Every method
and every map between crystals addresses nodes by index; string ids are
made by the model builders and only rendered for messages and output.
LazyTensor, a tensor product evaluated only where it is asked, addresses
its nodes by tuples of factor indices instead. Both act on batches of
nodes through images, strings_at and weyl_images, the last of both by
one rule, weyl_action; a level, of weights or of eps, is cartan.levels.
"""

from collections import deque
from copy import copy
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice, pairwise, repeat
from math import prod
from operator import add, itemgetter, le, lt, mul, neg, not_, sub

from .cartan import classical_alpha, enumerate_dominant, levels


class VerificationError(RuntimeError):
    """A structural property that should hold by construction failed."""


@dataclass
class Report:
    """Ordered pass/fail stages with witness details."""

    stages: list = field(default_factory=list)

    def add(self, name, ok, detail=""):
        self.stages.append((name, bool(ok), detail))
        return bool(ok)

    def run(self, name, fn):
        """Run fn, recording VerificationError as a failed stage."""
        try:
            fn()
            self.stages.append((name, True, ""))
            return True
        except VerificationError as exc:
            self.stages.append((name, False, str(exc)))
            return False

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.stages)

    def to_text(self):
        out = []
        for name, ok, detail in self.stages:
            line = "%-26s %s" % (name, "pass" if ok else "FAIL")
            if detail and not ok:
                line += "  [" + detail + "]"
            out.append(line)
        return "\n".join(out)


class Crystal:
    """A finite colored crystal graph, addressed by node index.

    ids[k], weights[k] and payloads[k] describe node k, and f[j][k] is its
    color j lowering image, -1 for none. Ids ascend strictly, so index order
    is id order and all derived output is canonical, and every weight has
    one coordinate per color.
    """

    def __init__(self, gcm, comarks, ids, weights, f, payloads):
        if not all(map(str.__lt__, ids, islice(ids, 1, None))):
            k = next(k for k in range(1, len(ids)) if ids[k - 1] >= ids[k])
            raise _out_of_order(ids[k])
        if set(map(len, weights)) - {len(gcm)}:
            k = next(k for k, wt in enumerate(weights) if len(wt) != len(gcm))
            raise ValueError("weight length mismatch at %s" % ids[k])
        self.ids = ids
        self._store(gcm, comarks, weights, f, payloads, list(range(len(weights))))

    def _store(self, gcm, comarks, weights, f, payloads, nodes):
        """Everything but the ids, which a Tensor renders only on demand.

        nodes is list(range(len(self))): the raising maps hold its int
        objects, one per node, and not a new one per edge.
        """
        self.gcm = tuple(tuple(row) for row in gcm)
        self.comarks = tuple(comarks)
        self.ncolors = len(self.gcm)
        self.weights = weights
        self.payloads = payloads
        self.f = f
        self.e = [_inverse(arr, nodes) for arr in f]
        self._derived = [{} for _ in f]
        self._labels = {}

    def __len__(self):
        return len(self.weights)

    def with_color(self, j, row):
        """A copy with row as its color j lowering map.

        Every other color's maps are this crystal's own lists, and so is its
        record in _derived: the dict of what is derived from that color's
        maps (and the shared weights) alone, its walked strings and the
        axiom stages it passed. The twin shares those record objects, so
        what any twin derives for such a color every other one reads too;
        color j gets a fresh record. Component labellings kept by
        components() are shared unless their colors include j.

        Records hold only while no map list is changed in place.
        """
        twin = copy(self)
        twin.f, twin.e = list(self.f), list(self.e)
        twin.f[j], twin.e[j] = row, _inverse(row, range(len(row)))
        twin._derived = list(self._derived)
        twin._derived[j] = {}
        twin._labels = {colors: comp for colors, comp in self._labels.items()
                        if j not in colors}
        return twin

    def id(self, k):
        return self.ids[k]

    def weight(self, k):
        return self.weights[k]

    # -- basic maps ---------------------------------------------------------

    def images(self, word, nodes, lowering=True):
        """The image of every node in nodes under an operator word, as a list.

        First letter first, one pass over the nodes per letter; a node that
        dies is -1, and -1 reads -1 again. No map is copied.
        """
        maps = self.f if lowering else self.e
        for j in word:
            arr = maps[j]
            nodes = [-1 if x == -1 else arr[x] for x in nodes]
        return nodes

    def strings(self, j):
        """eps and phi of every node for color j, as two lists, walked once.

        Fails on a string collision or a cyclic string.
        """
        record = self._derived[j]
        if "strings" in record:
            return record["strings"]
        n = len(self)
        f, e = self.f[j], self.e[j]
        eps = [None] * n
        phi = [None] * n
        for i in range(n):
            if e[i] == -1:
                cur, d = i, 0
                if eps[cur] is not None:
                    raise VerificationError("color %d string collision at %s" % (j, self.id(cur)))
                eps[cur] = 0
                while f[cur] != -1:
                    cur = f[cur]
                    d += 1
                    if eps[cur] is not None:
                        raise VerificationError("color %d string collision at %s" % (j, self.id(cur)))
                    eps[cur] = d
        for i in range(n):
            if f[i] == -1:
                cur, d = i, 0
                phi[cur] = 0
                while e[cur] != -1:
                    cur = e[cur]
                    d += 1
                    phi[cur] = d
        for i in range(n):
            if eps[i] is None or phi[i] is None:
                raise VerificationError("color %d has a cyclic string through %s" % (j, self.id(i)))
        record["strings"] = eps, phi
        return eps, phi

    def eps(self, j, i):
        return self.strings(j)[0][i]

    def phi(self, j, i):
        return self.strings(j)[1][i]

    def eps_tuple(self, i):
        return tuple(self.eps(j, i) for j in range(self.ncolors))

    def phi_tuple(self, i):
        return tuple(self.phi(j, i) for j in range(self.ncolors))

    def strings_at(self, nodes):
        """The eps and phi tuples of every node in nodes, as a list of pairs.

        For a few nodes of a large crystal, where strings(j) would walk
        every string of color j: only the nodes' own strings are walked, one
        step of every live walk at a time. A walk as long as the crystal is
        a cycle; of those, the first by node, raising before lowering, then
        color, is raised.
        """
        nodes = list(nodes)
        lengths, cyclic = [], []
        for rank, maps in enumerate((self.e, self.f)):
            for j, arr in enumerate(maps):
                row = [0] * len(nodes)
                pos, cur, d = range(len(nodes)), nodes, 0
                while pos and d < len(self):
                    cur = list(map(arr.__getitem__, cur))
                    if -1 in cur:
                        live = list(map((-1).__ne__, cur))
                        for k in compress(pos, map(not_, live)):
                            row[k] = d
                        pos, cur = list(compress(pos, live)), list(compress(cur, live))
                    d += 1
                if pos:
                    cyclic.append((pos[0], rank, j))
                lengths.append(row)
        if cyclic:
            k, _, j = min(cyclic)
            raise VerificationError("color %d has a cyclic string through %s" % (j, self.id(nodes[k])))
        return list(zip(zip(*lengths[:self.ncolors]), zip(*lengths[self.ncolors:])))

    # -- axioms -------------------------------------------------------------

    def verify_crystal_axioms(self, report=None):
        """Pairing, weight step and semiregularity, as three report stages.

        Each is decided on whole arrays, a color at a time over that color's
        edge sources and targets; only where a comparison fails are the
        nodes searched for the witness, the first in index order. A color
        whose record (see with_color) holds a pass of a stage is not checked
        again in that stage: it would pass again, so the first failing
        color, and its text, are those of a check of every color.
        """
        report = report if report is not None else Report()
        nodes = range(len(self))
        edges = {}
        columns = list(zip(*self.weights))

        def edges_of(j):
            if j not in edges:
                live = list(map((-1).__ne__, self.f[j]))
                edges[j] = list(compress(nodes, live)), list(compress(self.f[j], live))
            return edges[j]

        def pairing(j):
            # e_j f_j is the identity where f_j is defined; e_j is derived
            # from f_j, so this fails where two sources share a target
            srcs, dsts = edges_of(j)
            back = list(map(self.e[j].__getitem__, dsts))
            if back == srcs:
                return
            seen = {}
            for src, dst in zip(srcs, dsts):
                if dst in seen:
                    raise VerificationError(
                        "color %d: nodes %s and %s share f-target %s"
                        % (j, self.id(seen[dst]), self.id(src), self.id(dst)))
                seen[dst] = src
            raise VerificationError("color %d: raising map does not invert %s"
                                    % (j, self.id(_first_difference(srcs, back, srcs))))

        def weight_step(j):
            srcs, dsts = edges_of(j)
            failing = []
            for col, a in zip(columns, classical_alpha(self.gcm, j)):
                above = list(map(col.__getitem__, srcs))
                if a:
                    above = list(map(a.__rsub__, above))
                below = list(map(col.__getitem__, dsts))
                if below != above:
                    failing.append(_first_difference(srcs, below, above))
            if failing:
                raise VerificationError(
                    "color %d: weight step fails at %s" % (j, self.id(min(failing))))

        def semiregular(j):
            eps, phi = self.strings(j)
            diff = tuple(map(sub, phi, eps))
            if diff != columns[j]:
                raise VerificationError("color %d: phi - eps != weight at %s"
                                        % (j, self.id(_first_difference(nodes, diff, columns[j]))))

        def stage(name, check):
            def each():
                for j, record in enumerate(self._derived):
                    if name not in record:
                        check(j)
                        record[name] = True
            report.run("axiom:" + name, each)

        stage("pairing", pairing)
        stage("weight-step", weight_step)
        stage("semiregular", semiregular)
        return report

    # -- connectivity and decomposition -------------------------------------

    def components(self, colors=None):
        """Connected components under the given colors, as sorted index tuples.

        The labelling, each node's component number, is kept under its
        colors, when they are not all of them, for is_connected (see
        with_color for what a twin shares).

        Each node is joined along its f and e edges. Where f_j is not
        injective, e_j keeps one source per target, so the f_j edges whose
        source it drops are also joined from their targets; a color is
        searched for them only when it has fewer targets than sources.
        """
        colors = frozenset(range(self.ncolors) if colors is None else colors)
        n = len(self)
        rows = [maps[j] for j in colors for maps in (self.f, self.e)]
        dropped = {}  # target -> the sources of its f edges that e drops
        for j in colors:
            f, e = self.f[j], self.e[j]
            if f.count(-1) != e.count(-1):
                for src, dst in enumerate(f):
                    if dst != -1 and e[dst] != src:
                        dropped.setdefault(dst, []).append(src)
        comp = [-1] * n
        out = []
        for start in range(n):
            if comp[start] != -1:
                continue
            tag = len(out)
            stack = [start]
            comp[start] = tag
            members = [start]
            while stack:
                cur = stack.pop()
                for row in rows:
                    nxt = row[cur]
                    if nxt != -1 and comp[nxt] == -1:
                        comp[nxt] = tag
                        members.append(nxt)
                        stack.append(nxt)
                for nxt in dropped.get(cur, ()):
                    if comp[nxt] == -1:
                        comp[nxt] = tag
                        members.append(nxt)
                        stack.append(nxt)
            out.append(tuple(sorted(members)))
        if len(colors) < self.ncolors:
            # a labelling under every color is dropped by every twin
            self._labels[colors] = comp, len(out)
        return out

    def is_connected(self):
        """One component under every color.

        The kept labelling of the most colors is joined through the edges
        of the colors it lacks: its components are merged along every such
        edge, by union-find over their numbers. Without a kept labelling
        every component is labelled from scratch. Both read every edge of
        f, also where a lowering map is not injective.
        """
        if not self._labels:
            return len(self.components()) <= 1
        colors = max(self._labels, key=len)
        comp, count = self._labels[colors]
        pairs = set()  # (component of the source, of the target) per edge
        for j in range(self.ncolors):
            if j not in colors:
                live = list(map((-1).__ne__, self.f[j]))
                pairs.update(zip(compress(comp, live), map(comp.__getitem__, compress(self.f[j], live))))
        root = list(range(count))

        def find(a):
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            return a

        for a, b in pairs:
            a, b = find(a), find(b)
            if a != b:
                root[a] = b
                count -= 1
        return count <= 1

    def highest_nodes(self, colors):
        """The nodes that every e_j with j in colors, a nonempty set, kills, ascending."""
        raising = [self.e[j] for j in colors]
        blank = (-1,) * len(raising)
        return [k for k, up in enumerate(zip(*raising)) if up == blank]

    def highest_weight_decomposition(self, colors):
        """Components under a proper color subset, each with its unique highest node.

        Returns a list of (highest node, weight, component nodes), ascending.
        Zero or several highest nodes in one component is a hard error,
        since the crystals this runs on are supposed to be regular.

        The components are grown by lowering from the highest nodes. When
        every node is reached from exactly one highest node, these lowering
        closures are closed under raising too, so they are the components.
        Otherwise the components are labeled directly and searched for one
        whose highest node is not unique, the witness of the error; a graph
        with a cycle outside every lowering closure may have none.
        """
        colors = tuple(colors)
        lowering = [self.f[j] for j in colors]
        highs = self.highest_nodes(colors)
        owner = [-1] * len(self)
        out = []
        for top in highs:
            owner[top] = top
            members = [top]
            for cur in members:
                for f in lowering:
                    nxt = f[cur]
                    if nxt != -1 and owner[nxt] != top:
                        if owner[nxt] != -1:
                            return self._decomposition_by_components(colors)
                        owner[nxt] = top
                        members.append(nxt)
            members.sort()
            out.append((top, self.weights[top], tuple(members)))
        if -1 in owner:
            return self._decomposition_by_components(colors)
        return out

    def _decomposition_by_components(self, colors):
        """highest_weight_decomposition by labeling the components first."""
        heads = set(self.highest_nodes(colors))
        out = []
        for comp in self.components(colors):
            highs = [k for k in comp if k in heads]
            if len(highs) != 1:
                raise VerificationError(
                    "component of %s has %d highest nodes under colors %r"
                    % (self.id(comp[0]), len(highs), colors))
            out.append((highs[0], self.weights[highs[0]], comp))
        out.sort(key=lambda item: item[0])
        return out

    # -- Weyl action --------------------------------------------------------

    def weyl_images(self, j, nodes):
        """s_j of every node in nodes, as a list, -1 where a step falls off (see weyl_action)."""
        return weyl_action(self, j, nodes, [self.weights[i][j] for i in nodes])

    # -- extremal elements, simplicity, perfectness --------------------------

    def extremal_orbits(self):
        """The orbits under the Weyl operators whose every node has, for
        every color, a vanishing string length on one side, in the order of
        their least node; each orbit in the order of its walk."""
        n = len(self)
        # eps_j * phi_j is 0 exactly where one side of the j-string vanishes
        lengths = [list(map(mul, *self.strings(j))) for j in range(self.ncolors)]
        ok_here = list(map(not_, map(any, zip(*lengths))))
        table = [self.weyl_images(j, range(n)) for j in range(self.ncolors)]
        seen = [False] * n
        orbits = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            k = 0
            while k < len(orbit):
                cur = orbit[k]
                k += 1
                for j, row in enumerate(table):
                    t = row[cur]
                    if t == -1:
                        raise weyl_fall(j)
                    if not seen[t]:
                        seen[t] = True
                        orbit.append(t)
            if all(ok_here[i] for i in orbit):
                orbits.append(orbit)
        return orbits

    def is_simple(self, report=None):
        report = report if report is not None else Report()

        def s1():
            level = levels(self.comarks, zip(*self.weights))
            if any(level):
                raise VerificationError(
                    "nonzero level weight at %s" % self.id(next(compress(range(len(self)), level))))

        extremal = []

        def s2():
            orbits = self.extremal_orbits()
            extremal.extend(sorted(chain.from_iterable(orbits)))
            if not extremal:
                raise VerificationError("no extremal elements")
            if len(orbits) > 1:
                raise VerificationError(
                    "extremal set is %d nodes but one orbit has %d"
                    % (len(extremal), len(orbits[0])))

        def s3():
            counts = {}
            for wt in self.weights:
                counts[wt] = counts.get(wt, 0) + 1
            for k in extremal:
                if counts[self.weights[k]] != 1:
                    raise VerificationError(
                        "extremal weight of %s has multiplicity > 1" % self.id(k))

        report.run("simple:S1", s1)
        report.run("simple:S2", s2)
        report.run("simple:S3", s3)
        return report

    def level_and_minimal(self):
        """The minimal level of eps and the nodes that have it."""
        level = levels(self.comarks, (self.strings(j)[0] for j in range(self.ncolors)))
        lev = min(level)
        return lev, tuple(i for i, l in enumerate(level) if l == lev)

    def is_perfect(self, s, report=None):
        """Level check plus the two minimal-set bijections onto dominant weights."""
        report = report if report is not None else Report()
        lev, bmin = self.level_and_minimal()
        report.add("level", lev == s,
                   "" if lev == s else "computed level %d, expected %d" % (lev, s))
        targets = set()  # filled inside the first bijection stage

        def bijection(kind, table):
            if not targets:
                targets.update(enumerate_dominant(self.comarks, s))
            image = {}
            for i in bmin:
                v = table(i)
                if v not in targets:
                    raise VerificationError(
                        "%s of %s leaves the dominant set" % (kind, self.id(i)))
                if v in image:
                    raise VerificationError(
                        "%s collides on %s and %s" % (kind, self.id(image[v]), self.id(i)))
                image[v] = i
            if len(image) != len(targets):
                raise VerificationError(
                    "%s image covers %d of %d dominant weights"
                    % (kind, len(image), len(targets)))

        report.run("perfect:eps-bijection", lambda: bijection("eps", self.eps_tuple))
        report.run("perfect:phi-bijection", lambda: bijection("phi", self.phi_tuple))
        return report

    # -- export -------------------------------------------------------------

    def to_json(self, datum_ref=""):
        nodes = [{"id": b, "wt": list(self.weights[i]),
                  "payload": self.payloads[i] if isinstance(self.payloads[i], (str, int, type(None))) else str(self.payloads[i])}
                 for i, b in enumerate(self.ids)]
        edges = []
        for j in range(self.ncolors):
            for src, dst in enumerate(self.f[j]):
                if dst != -1:
                    edges.append({"src": self.ids[src], "dst": self.ids[dst], "j": j})
        edges.sort(key=lambda rec: (rec["src"], rec["j"]))
        return {"datum_ref": datum_ref, "nodes": nodes, "edges": edges}

    def to_dot(self, name="crystal"):
        lines = ["digraph \"%s\" {" % name, "  rankdir=TB;"]
        for b in self.ids:
            lines.append("  \"%s\" [label=\"%s\"];" % (b, b))
        for j in range(self.ncolors):
            for src, dst in enumerate(self.f[j]):
                if dst != -1:
                    lines.append("  \"%s\" -> \"%s\" [label=\"%d\"];"
                                 % (self.ids[src], self.ids[dst], j))
        lines.append("}")
        return "\n".join(lines) + "\n"


def weyl_action(crys, j, nodes, charges):
    """s_j of every node in nodes of crys, given its weight at j, m, in charges:
    f_j^m for m at least 0, else e_j^-m, by one crys.images batch per distinct
    nonzero m, so -1 marks a step that falls off."""
    out = list(nodes)
    groups = {}
    for k, m in enumerate(charges):
        if m:
            groups.setdefault(m, []).append(k)
    for m, pos in groups.items():
        for k, t in zip(pos, crys.images((j,) * abs(m), [out[k] for k in pos], m > 0)):
            out[k] = t
    return out


def weyl_fall(j):
    """The error of a Weyl step of color j that falls off the graph."""
    return VerificationError("Weyl step fell off the graph (color %d)" % j)


def _inverse(arr, nodes):
    inv = [-1] * len(arr)
    for src, dst in zip(nodes, arr):
        if dst != -1:
            inv[dst] = src
    return inv


def _out_of_order(node_id):
    return ValueError("node ids collide or are out of order at %s" % node_id)


def pair_ids(left_ids, right_ids):
    """The pair ids, left id + "*" + right id, in pair order, as an iterator."""
    return (x + y for x in [x + "*" for x in left_ids] for y in right_ids)


def pair_order_witness(left_ids, right_ids):
    """The first pair id, in pair order, not above the one before it, or None.

    left_ids is read once, as a stream; right_ids is a sequence. The first
    left id's block of pairs is compared in full, which compares the right
    ids; once they ascend, so do the pairs inside every block, and of each
    later block only its first and last pair are compared.
    """
    left_ids = iter(left_ids)
    first = list(islice(left_ids, 1))
    ends = right_ids[:1] + right_ids[1:][-1:]
    stream = chain(pair_ids(first, right_ids), pair_ids(left_ids, ends))
    return next((y for x, y in pairwise(stream) if x >= y), None)


def _stream_ids(crys):
    """The ids of crys in index order; a Tensor's are rendered and not kept."""
    if isinstance(crys, Tensor):
        return pair_ids(_stream_ids(crys.left), tuple(_stream_ids(crys.right)))
    return crys.ids


class Tensor(Crystal):
    """Tensor product crystal left (x) right, stored by node index.

    Node a * len(right) + b is the pair (a, b) of a left and a right node,
    so divmod(node, len(right)) reads the pair off the node. No per-pair
    object is stored that a reader does not ask for: id(k) renders one pair
    id from the factor ids by pair_ids, ids renders them all on first
    access, each distinct sum of a left and a right weight is one tuple,
    shared by every pair of that weight, and every lowering and raising map
    holds the int objects of one list of the nodes, not a new int per edge.

    Pair order must be id order: pair_order_witness compares the pair ids
    at the ends of each left node's block, rendered from the factors' ids,
    and the first one out of order is refused. A factor that is itself a
    Tensor streams its ids for this and does not keep them.

    The lowering rule: f_j acts on the left factor when phi_j(left) is
    strictly larger than eps_j(right), otherwise on the right factor; the
    derived raising maps then act on the left exactly when phi_j(left) >=
    eps_j(right).
    """

    def __init__(self, left, right):
        if left.gcm != right.gcm or left.comarks != right.comarks:
            raise ValueError("tensor factors live over different data")
        na, nb = len(left), len(right)
        self.left, self.right = left, right
        witness = pair_order_witness(_stream_ids(left), tuple(_stream_ids(right)))
        if witness is not None:
            raise _out_of_order(witness)
        # one row of shared sums per distinct left weight, read by right weight code
        codes = {}
        right_codes = [codes.setdefault(y, len(codes)) for y in right.weights]
        shared, rows = {}, {}
        for x in left.weights:
            if x not in rows:
                rows[x] = [shared.setdefault(w, w) for w in (tuple(map(add, x, y)) for y in codes)]
        weights = tuple(chain.from_iterable(
            map(rows[x].__getitem__, right_codes) for x in left.weights))
        # the rows of pairs (a, .), each with -1 appended, so that every map
        # holds the int objects of nodes and not a new one per edge
        nodes = list(range(na * nb))
        blocks = [nodes[a * nb:(a + 1) * nb] + [-1] for a in range(na)]
        f = []
        for j in range(left.ncolors):
            phi, eps = left.strings(j)[1], right.strings(j)[0]
            fb = right.f[j]
            row = []
            for pa, ta, block in zip(phi, left.f[j], blocks):
                here = map(block.__getitem__, fb)
                if pa == 0:
                    row += here
                else:
                    row += [y if pa <= e else x for x, y, e in zip(blocks[ta], here, eps)]
            f.append(row)
        self._store(left.gcm, left.comarks, weights, f, (None,) * (na * nb), nodes)

    def id(self, k):
        a, b = divmod(k, len(self.right))
        (node_id,) = pair_ids([self.left.id(a)], [self.right.id(b)])
        return node_id

    @cached_property
    def ids(self):
        return tuple(pair_ids(self.left.ids, self.right.ids))

    def at(self, a, b):
        """The node of the pair (left node a, right node b)."""
        return a * len(self.right) + b


def tensor(left, right):
    """Tensor product crystal, left factor first (see Tensor)."""
    return Tensor(left, right)


def tensor_many(parts):
    """Left fold of the binary tensor."""
    cur = parts[0]
    for nxt in parts[1:]:
        cur = tensor(cur, nxt)
    return cur


class LazyTensor:
    """tensor_many(factors), evaluated only at the nodes asked about.

    A node is a tuple of factor node indices. Every operator acts on a
    batch of nodes, as one column of indices per factor, a letter at a
    time: Tensor's signature rule is read off the factors' strings(j)
    lists over whole columns, then each factor's map is indexed where the
    rule puts the letter. Each factor's maps get a sentinel at index -1,
    -1 in f and e and 0 in eps and phi, so a column that reads -1 stays -1,
    and a node is dead exactly when one of its columns is -1. Ids render as
    in tensor_many. Offers what the fold, the string identities and
    branching read: id, weight, images, highest_nodes, strings_at and
    weyl_images; its length is the size of the tensor it stands for.
    """

    def __init__(self, factors):
        self.factors = factors
        self.ncolors = factors[0].ncolors
        strings = [list(map(fac.strings, range(self.ncolors))) for fac in factors]
        self._eps = [[row[j][0] + [0] for row in strings] for j in range(self.ncolors)]
        self._phi = [[row[j][1] + [0] for row in strings] for j in range(self.ncolors)]
        self._f = [[[*fac.f[j], -1] for fac in factors] for j in range(self.ncolors)]
        self._e = [[[*fac.e[j], -1] for fac in factors] for j in range(self.ncolors)]
        self._getters = [itemgetter(k) for k in range(len(factors))]

    def __len__(self):
        return prod(map(len, self.factors))

    def id(self, node):
        return "*".join(fac.ids[a] for fac, a in zip(self.factors, node))

    def weight(self, node):
        return tuple(map(sum, zip(*(fac.weights[a] for fac, a in zip(self.factors, node)))))

    def _columns(self, nodes):
        """The factor columns of a batch of nodes, one per factor."""
        return list(map(list, map(map, self._getters, repeat(nodes))))

    def _act(self, j, cols, lowering):
        """f_j (e_j unless lowering) on the node columns cols, as new columns.

        On prefix (x) factor k, the letter acts on factor k when phi_j of
        the prefix is at most eps_j of factor k (below it, for e_j), and
        otherwise where it acts on the prefix; phi_j of the longer prefix is
        phi_j of factor k plus max(0, phi_j(prefix) - eps_j(factor k)).
        """
        eps, phi = self._eps[j], self._phi[j]
        here = le if lowering else lt
        p = list(map(phi[0].__getitem__, cols[0]))
        slot = repeat(0)  # the factor each node's letter acts on; True is 1
        for k in range(1, len(cols)):
            e = list(map(eps[k].__getitem__, cols[k]))
            if k == 1:
                slot = list(map(here, p, e))
            else:
                slot = [k if h else s for h, s in zip(map(here, p, e), slot)]
            if k + 1 < len(cols):
                p = list(map(add, map(phi[k].__getitem__, cols[k]), map(max, repeat(0), map(sub, p, e))))
        maps = (self._f if lowering else self._e)[j]
        return [[arr[x] if s == k else x for x, s in zip(col, slot)]
                for k, (col, arr) in enumerate(zip(cols, maps))]

    def images(self, word, nodes, lowering=True):
        """The image of every node in nodes under an operator word, as a list.

        First letter first, a letter on every node at once; -1 for a node
        that dies.
        """
        cols = self._columns(nodes)
        for j in word:
            cols = self._act(j, cols, lowering)
        out = list(zip(*cols))
        for col in cols:
            if -1 in col:
                for k in compress(range(len(col)), map((-1).__eq__, col)):
                    out[k] = -1
        return out

    def highest_nodes(self, colors):
        """The nodes that every e_j with j in colors kills, in index order.

        Grown factor by factor from the empty prefix, whose phi is zero: a
        killed prefix stays killed followed by node b of the next factor
        when eps_j(b) <= phi_j(prefix) for every j, and phi_j of the longer
        prefix is then phi_j(prefix) + phi_j(b) - eps_j(b).
        """
        colors = tuple(colors)
        heads = [((), (0,) * len(colors))]  # (killed prefix, its phi over colors)
        for k, fac in enumerate(self.factors):
            eps = [self._eps[j][k] for j in colors]
            phi = [self._phi[j][k] for j in colors]
            strings = [(tuple(e[b] for e in eps), tuple(p[b] for p in phi))
                       for b in range(len(fac))]
            heads = [(node + (b,), tuple(map(add, room, map(sub, pb, eb))))
                     for node, room in heads
                     for b, (eb, pb) in enumerate(strings) if all(map(le, eb, room))]
        return [node for node, _ in heads]

    def strings_at(self, nodes):
        """The eps and phi tuples of every node in nodes, as a list of pairs.

        Folded from the factors' strings, factor by factor: eps_j of prefix
        (x) factor k adds max(0, eps_j(factor k) - phi_j(prefix)) to
        eps_j(prefix), and phi_j is as in the letter rule.
        """
        cols = self._columns(nodes)
        eps_out, phi_out = [], []
        for eps, phi in zip(self._eps, self._phi):
            e = list(map(eps[0].__getitem__, cols[0]))
            p = list(map(phi[0].__getitem__, cols[0]))
            for k in range(1, len(cols)):
                d = list(map(sub, map(eps[k].__getitem__, cols[k]), p))
                e = list(map(add, e, map(max, repeat(0), d)))
                p = list(map(add, map(phi[k].__getitem__, cols[k]), map(max, repeat(0), map(neg, d))))
            eps_out.append(e)
            phi_out.append(p)
        return list(zip(zip(*eps_out), zip(*phi_out)))

    def weyl_images(self, j, nodes):
        """s_j of every node in nodes, as a list, -1 where a step falls off
        (see weyl_action); a node's weight at j sums its factors'."""
        charges = map(sum, zip(*([fac.weights[a][j] for a in col]
                                 for fac, col in zip(self.factors, self._columns(nodes)))))
        return weyl_action(self, j, nodes, charges)


def propagate_map(src, dst, anchors, relabel=None, colors=None, domain=None,
                  weight_map=None, order="dfs"):
    """Extend an anchor assignment to a color-respecting isomorphism.

    Works on node indices: anchors maps src nodes to dst nodes, and the
    result is a list over the src nodes with -1 where nothing was mapped.
    Walks lowering and raising edges outward from the anchors, depth first
    (order="dfs") or breadth first (order="bfs"), with source color j
    matched to destination color relabel[j]. A conflicting image, a string
    that dies on one side only, or an unreached node of domain (all of src
    by default) raises VerificationError. Afterwards every edge between
    mapped nodes is re-checked under the finished map, along with
    injectivity and, when weight_map is given, the weight rule.
    """
    if order not in ("dfs", "bfs"):
        raise ValueError("order must be 'dfs' or 'bfs', not %r" % (order,))
    colors = tuple(range(src.ncolors)) if colors is None else tuple(colors)
    relabel = {j: j for j in colors} if relabel is None else dict(relabel)
    lowering = [(src.f[j], dst.f[relabel[j]], j) for j in colors]
    steps = []
    for j, step in zip(colors, lowering):
        steps += [step, (src.e[j], dst.e[relabel[j]], j)]
    out = [-1] * len(src)
    for x, y in anchors.items():
        out[x] = y
    queue = deque(anchors)
    pop = queue.pop if order == "dfs" else queue.popleft
    while queue:
        x = pop()
        y = out[x]
        for smap, dmap, j in steps:
            nx, ny = smap[x], dmap[y]
            if nx == -1 or ny == -1:
                if nx != ny:
                    raise VerificationError(
                        "string mismatch at %s under color %d" % (src.id(x), j))
                continue
            seen = out[nx]
            if seen == -1:
                out[nx] = ny
                queue.append(nx)
            elif seen != ny:
                raise VerificationError("conflicting images for %s" % src.id(nx))
    domain = range(len(src)) if domain is None else domain
    missing = [x for x in domain if out[x] == -1]
    if missing:
        raise VerificationError(
            "propagation missed %d nodes, first %s" % (len(missing), src.id(missing[0])))
    _recheck_map(src, dst, out, lowering, weight_map)
    return out


def _recheck_map(src, dst, out, lowering, weight_map):
    """Re-check a finished map: injectivity, every lowering edge, the weights.

    lowering holds (src.f[j], dst.f[relabel[j]], j) per color. Checked on
    whole arrays over the mapped nodes, a color at a time; of all failures
    the one at the smallest mapped node is raised, and at that node
    injectivity comes first, then the colors in order, then the weight rule.
    """
    nodes = [x for x, y in enumerate(out) if y != -1]
    images = [out[x] for x in nodes]
    failures = []
    if len(set(images)) != len(images):
        hit = {}
        for x, y in zip(nodes, images):
            if y in hit:
                failures.append((x, 0, "map sends %s and %s to %s"
                                 % (src.id(hit[y]), src.id(x), dst.id(y))))
                break
            hit[y] = x
    # image[t] is the image of the edge target t: -1 (read at index -1) for
    # no edge, -2 for an edge into an unmapped node, which matches nothing
    image = [-2 if y == -1 else y for y in out] + [-1]
    for rank, (smap, dmap, j) in enumerate(lowering, 1):
        lhs = [image[smap[x]] for x in nodes]
        rhs = list(map(dmap.__getitem__, images))
        if lhs != rhs:
            x = _first_difference(nodes, lhs, rhs)
            failures.append((x, rank, "edge re-check failed at %s under color %d"
                             % (src.id(x), j)))
    if weight_map is not None:
        weights = [src.weights[x] for x in nodes]
        twisted = {wt: tuple(weight_map(wt)) for wt in set(weights)}
        lhs = list(map(twisted.__getitem__, weights))
        rhs = list(map(dst.weights.__getitem__, images))
        if lhs != rhs:
            x = _first_difference(nodes, lhs, rhs)
            failures.append((x, len(lowering) + 1, "weight rule fails at %s" % src.id(x)))
    if failures:
        raise VerificationError(min(failures)[2])


def _first_difference(nodes, lhs, rhs):
    return next(x for x, a, b in zip(nodes, lhs, rhs) if a != b)

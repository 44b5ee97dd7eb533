"""Finite crystal graphs and their verification machinery.

A crystal is stored as an explicit labeled digraph: canonical string ids,
integer weight tuples over the coroot pairings, and one lowering map per
color with -1 standing for theta. Everything else (raising maps, string
lengths, Weyl action, extremal elements, simplicity, perfectness) is
derived from the graph and re-verified rather than trusted. Every method
and every map between crystals addresses nodes by index; string ids are
made by the model builders and only rendered for messages and output.
LazyTensor, a tensor product evaluated only where it is asked, addresses
its nodes by tuples of factor indices instead.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice, pairwise
from math import prod
from operator import add, le, sub

from .cartan import classical_alpha, enumerate_dominant


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
        self._eps = {}
        self._phi = {}

    def __len__(self):
        return len(self.weights)

    def id(self, k):
        return self.ids[k]

    def weight(self, k):
        return self.weights[k]

    # -- basic maps ---------------------------------------------------------

    def apply_word(self, word, i, lowering=True):
        """Apply an operator word to node i, first letter first; -1 once it dies."""
        maps = self.f if lowering else self.e
        for j in word:
            i = maps[j][i]
            if i == -1:
                return -1
        return i

    def images(self, word, nodes, lowering=True):
        """apply_word(word, k, lowering) for every k in nodes, as a list.

        Each letter is one lookup over the nodes in a copy of its map that
        ends in -1, so a node that died, -1, reads -1 again.
        """
        maps = self.f if lowering else self.e
        ends = {j: maps[j] + [-1] for j in set(word)}
        for j in word:
            nodes = list(map(ends[j].__getitem__, nodes))
        return nodes

    def _walk_color(self, j):
        """String positions for one color; fails on collisions or cycles."""
        if j in self._eps:
            return
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
        self._eps[j] = eps
        self._phi[j] = phi

    def eps(self, j, i):
        self._walk_color(j)
        return self._eps[j][i]

    def phi(self, j, i):
        self._walk_color(j)
        return self._phi[j][i]

    def eps_tuple(self, i):
        return tuple(self.eps(j, i) for j in range(self.ncolors))

    def phi_tuple(self, i):
        return tuple(self.phi(j, i) for j in range(self.ncolors))

    def own_strings(self, i):
        """eps and phi tuples of node i, walking only its own strings.

        For a few nodes of a large crystal, where _walk_color would walk
        every string; a walk longer than the crystal is a cycle.
        """
        out = []
        for maps in (self.e, self.f):
            lengths = []
            for j, arr in enumerate(maps):
                cur, d = i, 0
                while arr[cur] != -1:
                    cur = arr[cur]
                    d += 1
                    if d == len(self):
                        raise VerificationError(
                            "color %d has a cyclic string through %s" % (j, self.id(i)))
                lengths.append(d)
            out.append(tuple(lengths))
        return tuple(out)

    # -- axioms -------------------------------------------------------------

    def verify_crystal_axioms(self, report=None):
        """Pairing, weight step and semiregularity, as three report stages.

        Each is decided on whole arrays, a color at a time over that color's
        edge sources and targets; only where a comparison fails are the
        nodes searched for the witness, the first in index order.
        """
        report = report if report is not None else Report()
        nodes = range(len(self))
        edges = []
        for f in self.f:
            live = list(map((-1).__ne__, f))
            edges.append((list(compress(nodes, live)), list(compress(f, live))))
        columns = list(zip(*self.weights))

        def pairing():
            # e_j f_j is the identity where f_j is defined; e_j is derived
            # from f_j, so this fails where two sources share a target
            for j, (srcs, dsts) in enumerate(edges):
                back = list(map(self.e[j].__getitem__, dsts))
                if back == srcs:
                    continue
                seen = {}
                for src, dst in zip(srcs, dsts):
                    if dst in seen:
                        raise VerificationError(
                            "color %d: nodes %s and %s share f-target %s"
                            % (j, self.id(seen[dst]), self.id(src), self.id(dst)))
                    seen[dst] = src
                raise VerificationError("color %d: raising map does not invert %s"
                                        % (j, self.id(_first_difference(srcs, back, srcs))))

        def weight_step():
            for j, (srcs, dsts) in enumerate(edges):
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

        def semiregular():
            for j, col in enumerate(columns):
                self._walk_color(j)
                diff = tuple(map(sub, self._phi[j], self._eps[j]))
                if diff != col:
                    raise VerificationError("color %d: phi - eps != weight at %s"
                                            % (j, self.id(_first_difference(nodes, diff, col))))

        report.run("axiom:pairing", pairing)
        report.run("axiom:weight-step", weight_step)
        report.run("axiom:semiregular", semiregular)
        return report

    # -- connectivity and decomposition -------------------------------------

    def components(self, colors=None):
        """Connected components under the given colors, as sorted index tuples."""
        colors = range(self.ncolors) if colors is None else tuple(colors)
        n = len(self)
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
                for j in colors:
                    for nxt in (self.f[j][cur], self.e[j][cur]):
                        if nxt != -1 and comp[nxt] == -1:
                            comp[nxt] = tag
                            members.append(nxt)
                            stack.append(nxt)
            out.append(tuple(sorted(members)))
        return out

    def is_connected(self):
        return len(self.components()) <= 1

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

    def weyl_s(self, j, i):
        m = self.weights[i][j]
        maps = self.f[j] if m >= 0 else self.e[j]
        for _ in range(abs(m)):
            i = maps[i]
            if i == -1:
                raise VerificationError("Weyl step fell off the graph (color %d)" % j)
        return i

    # -- extremal elements, simplicity, perfectness --------------------------

    def extremal_elements(self):
        """Nodes whose full orbit under the Weyl operators has, for every
        color, a vanishing string length on one side."""
        n = len(self)
        ok_here = []
        for i in range(n):
            ok_here.append(all(
                self.eps(j, i) == 0 or self.phi(j, i) == 0
                for j in range(self.ncolors)))
        verdict = [None] * n
        for start in range(n):
            if verdict[start] is not None:
                continue
            orbit = [start]
            seen = {start}
            k = 0
            while k < len(orbit):
                cur = orbit[k]
                k += 1
                for j in range(self.ncolors):
                    t = self.weyl_s(j, cur)
                    if t not in seen:
                        seen.add(t)
                        orbit.append(t)
            good = all(ok_here[i] for i in orbit)
            for i in orbit:
                verdict[i] = good
        return tuple(i for i in range(n) if verdict[i])

    def is_simple(self, report=None):
        report = report if report is not None else Report()

        def s1():
            for i, wt in enumerate(self.weights):
                if sum(c * v for c, v in zip(self.comarks, wt)) != 0:
                    raise VerificationError("nonzero level weight at %s" % self.id(i))

        extremal = []

        def s2():
            extremal.extend(self.extremal_elements())
            if not extremal:
                raise VerificationError("no extremal elements")
            seen = {extremal[0]}
            queue = [extremal[0]]
            while queue:
                cur = queue.pop()
                for j in range(self.ncolors):
                    t = self.weyl_s(j, cur)
                    if t not in seen:
                        seen.add(t)
                        queue.append(t)
            if seen != set(extremal):
                raise VerificationError(
                    "extremal set is %d nodes but one orbit has %d"
                    % (len(extremal), len(seen)))

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
        """The minimal level and the nodes that have it."""
        levels = [0] * len(self)
        for j, c in enumerate(self.comarks):
            self._walk_color(j)
            levels = list(map(add, levels, map(c.__mul__, self._eps[j])))
        lev = min(levels)
        return lev, tuple(i for i, l in enumerate(levels) if l == lev)

    def is_perfect(self, s, report=None):
        """Level check plus the two minimal-set bijections onto dominant weights."""
        report = report if report is not None else Report()
        lev, bmin = self.level_and_minimal()
        report.add("level", lev == s,
                   "" if lev == s else "computed level %d, expected %d" % (lev, s))
        targets = set(enumerate_dominant(self.comarks, s))

        def bijection(kind, table):
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


def _extends_below_star(x, y):
    # y = x + c + rest with c <= "*": then x's pairs need not sort below y's
    return y.startswith(x) and y[len(x)] <= "*"


def _some_id_extends_below_star(crys):
    """Whether some id of crys extends the one before it by a character <= "*".

    A tensor's id does only where an id of one of its factors does, so a
    tensor is answered from its factors and its own ids stay unrendered.
    """
    if isinstance(crys, Tensor):
        return _some_id_extends_below_star(crys.left) or _some_id_extends_below_star(crys.right)
    return any(map(_extends_below_star, crys.ids, islice(crys.ids, 1, None)))


class Tensor(Crystal):
    """Tensor product crystal left (x) right, stored by node index.

    Node a * len(right) + b is the pair (a, b) of a left and a right node,
    so divmod(node, len(right)) reads the pair off the node. No per-pair
    object is stored that a reader does not ask for: id(k) renders one pair
    id from the factor ids by pair_ids, ids renders them all on first
    access, each distinct sum of a left and a right weight is one tuple,
    shared by every pair of that weight, and every lowering and raising map
    holds the int objects of one list of the nodes, not a new int per edge.

    Pair order must be id order. Both factors' ids ascend, so it is unless
    some left id extends the one before it by a character <= "*", which a
    left factor that is itself a Tensor answers from its own factors' ids;
    only then are the pair ids rendered, as a stream, and compared, and the
    first one out of order is refused.

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
        if _some_id_extends_below_star(left):
            for x, y in pairwise(pair_ids(left.ids, right.ids)):
                if x >= y:
                    raise _out_of_order(y)
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
            left._walk_color(j)
            right._walk_color(j)
            fb, eps = right.f[j], right._eps[j]
            row = []
            for pa, ta, block in zip(left._phi[j], left.f[j], blocks):
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

    A node is a tuple of factor node indices. Operators follow Tensor's
    signature rule, read off the factors' cached eps/phi arrays in one pass
    over the factors, and ids render as in tensor_many. Offers the node
    methods the fold, the string identities and branching read: id, weight,
    apply_word, images, highest_nodes, own_strings and weyl_s; its length is
    the size of the tensor it stands for.
    """

    def __init__(self, factors):
        self.factors = factors
        self.ncolors = factors[0].ncolors
        for fac in factors:
            for j in range(self.ncolors):
                fac._walk_color(j)
        self._eps = [[fac._eps[j] for fac in factors] for j in range(self.ncolors)]
        self._phi = [[fac._phi[j] for fac in factors] for j in range(self.ncolors)]

    def __len__(self):
        return prod(map(len, self.factors))

    def id(self, node):
        return "*".join(fac.ids[a] for fac, a in zip(self.factors, node))

    def weight(self, node):
        return tuple(map(sum, zip(*(fac.weights[a] for fac, a in zip(self.factors, node)))))

    def step(self, j, node, lowering=True):
        """f_j of node (e_j unless lowering), -1 for none.

        On prefix (x) factor k, f_j acts on factor k when phi_j of the
        prefix is at most eps_j of factor k (e_j when it is below), and
        otherwise where it acts on the prefix.
        """
        eps, phi = self._eps[j], self._phi[j]
        slot, p = 0, phi[0][node[0]]
        for k in range(1, len(node)):
            e = eps[k][node[k]]
            if p < e or (lowering and p == e):
                slot = k
            p = phi[k][node[k]] + max(0, p - e)
        fac = self.factors[slot]
        t = (fac.f if lowering else fac.e)[j][node[slot]]
        return -1 if t == -1 else node[:slot] + (t,) + node[slot + 1:]

    def apply_word(self, word, node, lowering=True):
        """Apply an operator word to node, first letter first; -1 once it dies."""
        for j in word:
            node = self.step(j, node, lowering)
            if node == -1:
                return -1
        return node

    def images(self, word, nodes, lowering=True):
        """apply_word(word, node, lowering) for every node in nodes, as a list."""
        return [self.apply_word(word, node, lowering) for node in nodes]

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

    def own_strings(self, node):
        """eps and phi tuples of node, folded from the factors' strings."""
        eps_out, phi_out = [], []
        for eps, phi in zip(self._eps, self._phi):
            e, p = eps[0][node[0]], phi[0][node[0]]
            for k in range(1, len(node)):
                er, pr = eps[k][node[k]], phi[k][node[k]]
                e, p = e + max(0, er - p), pr + max(0, p - er)
            eps_out.append(e)
            phi_out.append(p)
        return tuple(eps_out), tuple(phi_out)

    def weyl_s(self, j, node):
        m = sum(fac.weights[a][j] for fac, a in zip(self.factors, node))
        for _ in range(abs(m)):
            node = self.step(j, node, m >= 0)
            if node == -1:
                raise VerificationError("Weyl step fell off the graph (color %d)" % j)
        return node


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
    total = -1 not in out
    nodes = range(len(out)) if total else [x for x, y in enumerate(out) if y != -1]

    def restrict(arr):
        return arr if total else list(map(arr.__getitem__, nodes))

    images = restrict(out)
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
    image = (out if total else [-2 if y == -1 else y for y in out]) + [-1]
    for rank, (smap, dmap, j) in enumerate(lowering, 1):
        lhs = list(map(image.__getitem__, restrict(smap)))
        rhs = list(map(dmap.__getitem__, images))
        if lhs != rhs:
            x = _first_difference(nodes, lhs, rhs)
            failures.append((x, rank, "edge re-check failed at %s under color %d"
                             % (src.id(x), j)))
    if weight_map is not None:
        weights = restrict(src.weights)
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

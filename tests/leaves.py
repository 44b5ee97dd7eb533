"""Test oracles: crystals built from id-keyed dicts, leaf-index columns of a
tensor product, read off its pair node numbers, the pair an exchange sends
a pair to, the color twist tau of one column, the twist sigma of the whole
orbit tensor and its fixed nodes, the energy on B (x) B by the walk over
single nodes, the node-level operators of a Crystal or a
LazyTensor (one letter, a word, the own strings, a Weyl reflection), the
fold walked node by node, the string-identity stages and simple:S1 node
by node, the kernel solver and Weyl product in exact Fractions, Weyl
dimensions by counting monomials, a clear of every package cache, and a
runner of the command line."""

import contextlib
import importlib
import io
import pkgutil
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import crystalfold
from crystalfold import cli
from crystalfold.branching import _positive_roots
from crystalfold.cartan import (
    block, kashiwara_word, omega_star, p_omega_star, p_omega_star_inverse, theta_word)
from crystalfold.crystal import (
    Crystal, LazyTensor, Report, Tensor, VerificationError, propagate_map, tensor_many,
    weyl_fall)
from crystalfold.fixedpoint import HatBundle, _regularity_stages
from crystalfold.intertwine import orbit_factors, orbit_top
from crystalfold.models import classical_highest_node, kr_crystal
from crystalfold.monomial import highest_weight_closure


def crystal_from_edges(gcm, comarks, nodes, f_edges):
    """Crystal from nodes {id: (weight, payload)} and f_edges {color: {src_id: dst_id}}."""
    ids = tuple(sorted(nodes))
    index = {b: k for k, b in enumerate(ids)}
    f = []
    for j in range(len(gcm)):
        arr = [-1] * len(ids)
        for src, dst in f_edges.get(j, {}).items():
            arr[index[src]] = index[dst]
        f.append(arr)
    return Crystal(gcm, comarks, ids, tuple(tuple(nodes[b][0]) for b in ids), f,
                   tuple(nodes[b][1] for b in ids))


def leaf_columns(crys):
    """Per leaf factor, the leaf node index of every node of crys."""
    if not isinstance(crys, Tensor):
        return [list(range(len(crys)))]
    na, nb = len(crys.left), len(crys.right)
    return ([[col[a] for a in range(na) for _ in range(nb)] for col in leaf_columns(crys.left)]
            + [col * na for col in leaf_columns(crys.right)])


def leaf_node(crys, leaves):
    """The node of a left-fold tensor at a tuple of leaf node indices."""
    if len(leaves) == 1:
        return leaves[0]
    return crys.at(leaf_node(crys.left, leaves[:-1]), leaves[-1])


def exchange_pair(rmat, a, b):
    """The pair (c, d) that the exchange rmat sends the pair (a, b) to."""
    return divmod(rmat.codes[a * rmat.n2 + b], rmat.n1)


def compute_tau_omega(datum, i, s):
    """Color-twisted isomorphism from column i to column omega(i).

    Sends the top node to the top node and interchanges color j edges with
    color omega(j) edges; weights transform by the dual twist. Returns the
    mapping as a tuple over source node indices.
    """
    src = kr_crystal(datum, i, s)
    dst = kr_crystal(datum, datum.omega[i], s)
    u_src = classical_highest_node(datum, src, i, s)
    u_dst = classical_highest_node(datum, dst, datum.omega[i], s)
    expect = tuple(omega_star(datum, src.weights[u_src]))
    if dst.weights[u_dst] != expect:
        raise VerificationError("anchor weights disagree for column %d" % i)
    relabel = {j: datum.omega[j] for j in range(datum.size)}
    return tuple(propagate_map(src, dst, {u_src: u_dst},
                               relabel=relabel,
                               weight_map=lambda mu: omega_star(datum, mu)))


@dataclass
class TildeBundle:
    crystal: object
    omega_map: tuple
    top: int


@lru_cache(maxsize=None)
def build_tilde_crystal(datum, i, s):
    """Tensor of the crystals along the orbit of column i, with the twist sigma.

    sigma is the omega-twisted automorphism of the orbit tensor that fixes
    its top node, the one node of weight s times the orbit sum of
    fundamentals. It is propagated from that node, color j to color
    omega(j) and weights through omega_star, depth first and breadth
    first; both results must agree, every edge, injectivity and the weight
    rule are re-checked, and the twist must close at the automorphism
    order.
    """
    crystal = tensor_many(orbit_factors(datum, i, s))
    top = orbit_top(datum, crystal, i, s)

    def twist(order):
        return propagate_map(crystal, crystal, {top: top}, relabel=dict(enumerate(datum.omega)),
                             weight_map=lambda mu: omega_star(datum, mu), order=order)

    mapping = twist("dfs")
    if mapping != twist("bfs"):
        raise VerificationError("twist depends on traversal order for column %d" % i)

    cur = mapping
    for _ in range(datum.order - 1):
        cur = list(map(mapping.__getitem__, cur))
    if cur != list(range(len(crystal))):
        raise VerificationError("twist does not close at order %d" % datum.order)

    return TildeBundle(crystal=crystal, omega_map=tuple(mapping), top=top)


def fixed_nodes(omega_map):
    """The nodes that a twist, given as its map over the nodes, fixes."""
    return [k for k, image in enumerate(omega_map) if image == k]


def energy_walk(prod, anchor):
    """The energy on a binary tensor by a walk over single nodes, as the oracle.

    Each node is popped once, and every edge leaving it, lowering and
    raising, either sets the value at its far end or is checked against
    it, so any path dependence raises instead of returning a skewed table.
    At a pair (a, b), f_0 and e_0 act on a when phi_0(a) > eps_0(b) and when
    phi_0(a) >= eps_0(b): acting on a lowers the energy by one along f_0 and
    raises it by one along e_0, and acting on b does the opposite.
    """
    values = [None] * len(prod)
    values[anchor] = 0
    reached = 1
    queue = [anchor]
    while queue:
        x = queue.pop()
        here = values[x]
        a, b = divmod(x, len(prod.right))
        phi, eps = prod.left.phi(0, a), prod.right.eps(0, b)
        down, up = (-1 if phi > eps else 1), (1 if phi >= eps else -1)
        for j in range(prod.ncolors):
            for y, value, kind in ((prod.f[j][x], here + down if j == 0 else here, "along"),
                                   (prod.e[j][x], here + up if j == 0 else here, "against")):
                if y == -1:
                    continue
                if values[y] is None:
                    values[y] = value
                    reached += 1
                    queue.append(y)
                elif values[y] != value:
                    raise VerificationError("energy is path dependent %s color %d at %s"
                                            % (kind, j, prod.ids[x]))
    if reached != len(prod):
        raise VerificationError(
            "energy walk reached %d of %d nodes" % (reached, len(prod)))
    return values


def lazy_step(lazy, j, node, lowering=True):
    """f_j of one node of a LazyTensor (e_j unless lowering), -1 for none.

    On prefix (x) factor k, f_j acts on factor k when phi_j of the prefix
    is at most eps_j of factor k (e_j when it is below), and otherwise
    where it acts on the prefix.
    """
    strings = [fac.strings(j) for fac in lazy.factors]
    slot, p = 0, strings[0][1][node[0]]
    for k in range(1, len(node)):
        e = strings[k][0][node[k]]
        if p < e or (lowering and p == e):
            slot = k
        p = strings[k][1][node[k]] + max(0, p - e)
    fac = lazy.factors[slot]
    t = (fac.f if lowering else fac.e)[j][node[slot]]
    return -1 if t == -1 else node[:slot] + (t,) + node[slot + 1:]


def apply_word(crys, word, node, lowering=True):
    """An operator word on one node of a Crystal or a LazyTensor, first letter
    first; -1 once it dies."""
    for j in word:
        if isinstance(crys, LazyTensor):
            node = lazy_step(crys, j, node, lowering)
        else:
            node = (crys.f if lowering else crys.e)[j][node]
        if node == -1:
            return -1
    return node


def own_strings(crys, node):
    """eps and phi tuples of one node: a LazyTensor's folded from the factors'
    strings, a Crystal's by walking the node's own strings, where a walk as
    long as the crystal is a cycle."""
    if isinstance(crys, LazyTensor):
        eps_out, phi_out = [], []
        for j in range(crys.ncolors):
            strings = [fac.strings(j) for fac in crys.factors]
            e, p = strings[0][0][node[0]], strings[0][1][node[0]]
            for k in range(1, len(node)):
                er, pr = strings[k][0][node[k]], strings[k][1][node[k]]
                e, p = e + max(0, er - p), pr + max(0, p - er)
            eps_out.append(e)
            phi_out.append(p)
        return tuple(eps_out), tuple(phi_out)
    out = []
    for maps in (crys.e, crys.f):
        lengths = []
        for j, arr in enumerate(maps):
            cur, d = node, 0
            while arr[cur] != -1:
                cur = arr[cur]
                d += 1
                if d == len(crys):
                    raise VerificationError(
                        "color %d has a cyclic string through %s" % (j, crys.id(node)))
            lengths.append(d)
        out.append(tuple(lengths))
    return tuple(out)


def weyl_s(crys, j, node):
    """s_j of one node of a Crystal or a LazyTensor, step by step."""
    m = crys.weight(node)[j]
    for _ in range(abs(m)):
        node = apply_word(crys, (j,), node, m >= 0)
        if node == -1:
            raise weyl_fall(j)
    return node


def fold_by_nodes(datum, parent, top):
    """fold_crystal with its walk node by node, in queue order, as the oracle.

    At each node and folded color the word, its twin and the reversed
    raising word act on that one node, and both images join the queue.
    """
    steps = []
    for jh in range(len(datum.hat_gcm)):
        word = kashiwara_word(datum, jh)
        steps.append((word, tuple(datum.omega[j] for j in word), word[::-1]))
    queue = [top]
    images = {top: None}  # per walked node and folded color: (lowering, raising) image
    for p in queue:
        row = []
        for jh, (word, twin, back) in enumerate(steps):
            down = apply_word(parent, word, p)
            if apply_word(parent, twin, p) != down:
                raise VerificationError(
                    "lowering word for folded color %d leaves the fixed set at %s"
                    % (jh, parent.id(p)))
            up = apply_word(parent, back, p, lowering=False)
            for q in (down, up):
                if q != -1 and q not in images:
                    images[q] = None
                    queue.append(q)
            row.append((down, up))
        images[p] = row
    fixed = tuple(sorted(queue, key=parent.id))
    where = {p: h for h, p in enumerate(fixed)}
    ids = tuple(map(parent.id, fixed))
    weights = []
    for p, b in zip(fixed, ids):
        try:
            weights.append(p_omega_star_inverse(datum, parent.weight(p)))
        except ValueError as exc:
            raise VerificationError("fixed node %s: %s" % (b, exc))
    f = [[-1] * len(fixed) for _ in steps]
    for h, p in enumerate(fixed):
        for jh, ((down, _), row) in enumerate(zip(images[p], f)):
            if down != -1:
                if images[down][jh][1] != p:
                    raise VerificationError(
                        "raising word fails to undo folded color %d at %s" % (jh, ids[h]))
                row[h] = where[down]
    crystal = Crystal(datum.hat_gcm, datum.hat_comarks, ids, tuple(weights), f,
                      (None,) * len(fixed))
    return HatBundle(parent, crystal, fixed)


def eps_orbit_by_nodes(datum, bundle):
    """Stage strings:eps-orbit by the loop over single nodes, as the oracle."""
    hat, parent, fixed = bundle.crystal, bundle.parent, bundle.fixed
    for h, p in enumerate(fixed):
        eps, phi = own_strings(parent, p)
        if p_omega_star(datum, hat.eps_tuple(h)) != eps:
            raise VerificationError("eps tuples disagree at %s" % hat.ids[h])
        if p_omega_star(datum, hat.phi_tuple(h)) != phi:
            raise VerificationError("phi tuples disagree at %s" % hat.ids[h])


def weyl_by_nodes(datum, bundle):
    """Stage strings:weyl by the loop over single nodes, as the oracle."""
    hat, parent, fixed = bundle.crystal, bundle.parent, bundle.fixed
    words = [theta_word(datum, (jh,)) for jh in range(hat.ncolors)]
    for h, p in enumerate(fixed):
        for jh, word in enumerate(words):
            rhs = p
            for j in word:
                rhs = weyl_s(parent, j, rhs)
            if fixed[weyl_s(hat, jh, h)] != rhs:
                raise VerificationError(
                    "folded Weyl operator %d differs at %s" % (jh, hat.ids[h]))


def powered_words_by_nodes(datum, bundle):
    """Stage strings:powered-words by the loop over single nodes, as the oracle.

    Node by node, color by color, lowering before raising, power by power:
    the parent applies the whole word of power m from the fixed node, which
    must land on the fixed node under the m-th folded image, or die with it;
    the first disagreement raises.
    """
    hat, parent, fixed = bundle.crystal, bundle.parent, bundle.fixed
    words = {}  # (color, power) -> the raising word and the lowering word
    for h, p in enumerate(fixed):
        for jh in range(hat.ncolors):
            for lowering, kind, top, maps in ((True, "lowering", hat.phi(jh, h), hat.f[jh]),
                                              (False, "raising", hat.eps(jh, h), hat.e[jh])):
                cur = h
                for m in range(1, top + 2):
                    cur = maps[cur] if cur != -1 else -1
                    if (jh, m) not in words:
                        word = kashiwara_word(datum, jh, m)
                        words[jh, m] = (word[::-1], word)
                    via_word = apply_word(parent, words[jh, m][lowering], p, lowering)
                    if via_word != (fixed[cur] if cur != -1 else -1):
                        raise VerificationError("%s power %d disagrees at %s color %d"
                                                % (kind, m, hat.ids[h], jh))


def hat_level(datum, mu_hat):
    """The level of one folded weight under the folded comarks."""
    return sum(c * v for c, v in zip(datum.hat_comarks, mu_hat))


def level_zero_by_nodes(datum, bundle):
    """Stage strings:level-zero by the loop over single nodes, as the oracle."""
    hat = bundle.crystal
    for k, wt in enumerate(hat.weights):
        if hat_level(datum, wt) != 0:
            raise VerificationError("folded weight off level zero at %s" % hat.ids[k])


def s1_by_nodes(crys):
    """Stage simple:S1 by the loop over single nodes, as the oracle."""
    for i, wt in enumerate(crys.weights):
        if sum(c * v for c, v in zip(crys.comarks, wt)) != 0:
            raise VerificationError("nonzero level weight at %s" % crys.id(i))


def regular_by_components(datum, crys, full=False):
    """The regular:* stages of crys as {name: (ok, detail)}, every subset
    by the component route: they run on a copy with no records, which
    holds no axiom pass, so no subset is certified."""
    bare = Crystal(crys.gcm, crys.comarks, crys.ids, crys.weights, crys.f, crys.payloads)
    report = Report()
    _regularity_stages(report, datum, bare, full)
    return {name: (ok, detail) for name, ok, detail in report.stages}


def kernel_by_fractions(mat, side="right"):
    """positive_primitive_kernel by Gauss-Jordan elimination in Fractions,
    the oracle of the integer solver: same pivots, same errors."""
    size = len(mat)
    if side == "left":
        rows = [[Fraction(mat[j][k]) for j in range(size)] for k in range(size)]
    else:
        rows = [[Fraction(v) for v in row] for row in mat]
    pivots = []
    r = 0
    for col in range(size):
        piv = None
        for rr in range(r, size):
            if rows[rr][col] != 0:
                piv = rr
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][col]
        rows[r] = [v / scale for v in rows[r]]
        for rr in range(size):
            if rr != r and rows[rr][col] != 0:
                factor = rows[rr][col]
                rows[rr] = [v - factor * w for v, w in zip(rows[rr], rows[r])]
        pivots.append(col)
        r += 1
    if r != size - 1:
        raise ValueError("kernel dimension is %d, expected 1" % (size - r))
    free = next(c for c in range(size) if c not in pivots)
    sol = [Fraction(0)] * size
    sol[free] = Fraction(1)
    for row, col in zip(rows, pivots):
        sol[col] = -row[free]
    denom_lcm = 1
    for v in sol:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in sol]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    if ints[free] < 0:
        ints = [-v for v in ints]
    if any(v <= 0 for v in ints):
        raise ValueError("kernel generator not positive: %r" % (ints,))
    return tuple(ints)


def symmetrizer_by_fractions(gcm):
    """d with d[i] * gcm[i][j] == d[j] * gcm[j][i], d = 1 at each component's
    first node, in Fractions."""
    rank = len(gcm)
    d = [None] * rank
    for seed in range(rank):
        if d[seed] is not None:
            continue
        d[seed] = Fraction(1)
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in range(rank):
                if gcm[i][j] and d[j] is None:
                    d[j] = d[i] * Fraction(gcm[i][j], gcm[j][i])
                    stack.append(j)
    for i in range(rank):
        for j in range(rank):
            if d[i] * gcm[i][j] != d[j] * gcm[j][i]:
                raise VerificationError("matrix is not symmetrizable")
    return d


def weyl_product_by_fractions(gcm, lam):
    """The Weyl dimension product in Fractions, root by root, the oracle of
    branching._weyl_product."""
    d = symmetrizer_by_fractions(gcm)
    num = den = Fraction(1)
    for root in _positive_roots(gcm):
        num *= sum(Fraction(c) * dj * (lj + 1) for c, dj, lj in zip(root, d, lam))
        den *= sum(Fraction(c) * dj for c, dj in zip(root, d))
    dim = num / den
    if dim.denominator != 1 or dim <= 0:
        raise VerificationError("dimension product is not a positive integer")
    return int(dim)


def weyl_dimension_by_monomials(datum, coeffs):
    """The monomials that the highest weight closure walk reaches from the
    folded classical weight coeffs, the oracle of branching.weyl_dimension;
    the walk refuses past monomial.MAX_NODES."""
    bgcm = block(datum.hat_gcm, datum.hat_classical_nodes)
    return len(highest_weight_closure(bgcm, tuple(coeffs))[0])


def clear_package_caches():
    """Empty every lru_cache of the package, as a fresh CLI process starts,
    and the twist oracle's."""
    build_tilde_crystal.cache_clear()
    for info in pkgutil.iter_modules(crystalfold.__path__):
        module = importlib.import_module("crystalfold." + info.name)
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@dataclass
class CliResult:
    exit_code: int
    output: str
    exception: BaseException | None


def run_cli(*words):
    """Run cli.main on the words with standard output and error in one
    buffer: the exit code, the text written, and the exception raised (a
    SystemExit on any exit through sys.exit, a raw error, or None)."""
    buf = io.StringIO()
    code, exc = 0, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main(list(words))
        except SystemExit as raised:
            code, exc = raised.code or 0, raised
        except Exception as raised:  # a raw Python error, which the tests refuse
            code, exc = 1, raised
    return CliResult(code, buf.getvalue(), exc)

"""Maps between rectangle crystals: pair exchange and energy; the orbit tensor.

The exchange is grown from a single anchor by edge propagation and then
re-verified on every edge, so a wrong anchor or a broken model cannot
produce a silently wrong intertwiner; every energy step is re-checked on
every color 0 edge. The orbit tensor's columns and top node are read here;
the twist of the orbit tensor is never built. Maps are integer arrays over
node indices; string ids are rendered only for messages and output.
"""

from dataclasses import dataclass
from itertools import product
from operator import add, ne

from .cartan import ScopeError, pi_tilde_weight
from .crystal import VerificationError, propagate_map, tensor
from .models import classical_highest_node, kr_crystal


@dataclass(frozen=True)
class Exchange:
    """A combinatorial R matrix B1 (x) B2 -> B2 (x) B1 on leaf node indices.

    codes[a * n2 + b] = c * n1 + d says that the pair (a, b) goes to the
    pair (c, d), with n1 = |B1| and n2 = |B2|: both sides are pair codes,
    the node numbers of the two Tensors.
    """

    codes: tuple
    n1: int
    n2: int

    def apply_at(self, columns, pos):
        """Leaf-index columns with the exchange applied at slots pos, pos + 1."""
        codes, n1, n2 = self.codes, self.n1, self.n2
        merged = [codes[a * n2 + b] for a, b in zip(columns[pos], columns[pos + 1])]
        return (columns[:pos] + [[c // n1 for c in merged], [c % n1 for c in merged]]
                + columns[pos + 2:])


def compute_r_matrix(datum, left_spec, right_spec):
    """Exchange isomorphism between a tensor pair and its flip.

    Anchored at the pair of top nodes. The propagation is run depth first
    and breadth first, and both results must agree, which pins the map down
    independently of traversal details; the first keeps every weight.
    """
    i1, s1 = left_spec
    i2, s2 = right_spec
    b1 = kr_crystal(datum, i1, s1)
    b2 = kr_crystal(datum, i2, s2)
    forward = tensor(b1, b2)
    backward = tensor(b2, b1)
    u1 = classical_highest_node(datum, b1, i1, s1)
    u2 = classical_highest_node(datum, b2, i2, s2)
    anchors = {forward.at(u1, u2): backward.at(u2, u1)}
    first = propagate_map(forward, backward, anchors, weight_map=lambda wt: wt)
    second = propagate_map(forward, backward, anchors, order="bfs")
    if first != second:
        raise VerificationError(
            "exchange map depends on traversal order for %r %r" % (left_spec, right_spec))
    return Exchange(codes=tuple(first), n1=len(b1), n2=len(b2))


# -- energy -----------------------------------------------------------------

def energy_steps(prod):
    """Energy change along f_0 and along e_0 at every node of a binary tensor.

    Returns the lists (down, up) over the nodes. An operator that acts on
    the left factor, f_0 when phi_0(left) > eps_0(right) and e_0 when
    phi_0(left) >= eps_0(right), lowers the energy by one along f_0 and
    raises it by one along e_0; acting on the right factor does the
    opposite. The steps read a pair only through phi_0 of its left node and
    eps_0 of its right node, so the pairs of one left node form one row per
    phi_0.
    """
    eps = prod.right.strings(0)[0]
    rows = {}
    down, up = [], []
    for phi in prod.left.strings(0)[1]:
        if phi not in rows:
            rows[phi] = ([-1 if phi > x else 1 for x in eps],
                         [1 if phi >= x else -1 for x in eps])
        d, u = rows[phi]
        down += d
        up += u
    return down, up


def energy_on_tensor(prod, anchor):
    """Integer energy on a binary tensor, zero at the anchor node.

    Returns a list over the nodes: one value per classical component, with
    every color-0 edge checked. The classical components (colors 1..n) are
    the lowering closures of highest_weight_decomposition, and every
    classical raising edge must stay inside its component, so every other
    color keeps the value flat. A walk over the components along color 0,
    from the anchor's, sets each component's value by the steps of
    energy_steps; a component it cannot reach raises. Then every color 0
    edge, lowering and raising, is compared with those steps, so any path
    dependence raises instead of returning a skewed table.
    """
    classical = range(1, prod.ncolors)
    parts = [members for _, _, members in prod.highest_weight_decomposition(classical)]
    comp = [0] * len(prod)
    for c, members in enumerate(parts):
        for k in members:
            comp[k] = c
    # label[-1], read for a missing edge, is len(parts): no component
    label = comp + [len(parts)]
    for j in classical:
        e = prod.e[j]
        if sum(map(ne, map(label.__getitem__, e), comp)) != e.count(-1):
            k = next(k for k, y in enumerate(e) if y != -1 and comp[y] != comp[k])
            raise VerificationError("color %d raising edge leaves its classical component at %s"
                                    % (j, prod.id(k)))

    down, up = energy_steps(prod)
    f0, e0 = prod.f[0], prod.e[0]
    value = [None] * len(parts) + [0]
    value[comp[anchor]] = 0
    queue = [comp[anchor]]
    unset = len(parts) - 1
    while queue and unset:
        c = queue.pop()
        here = value[c]
        for k in parts[c]:
            for t, step in ((label[f0[k]], down[k]), (label[e0[k]], up[k])):
                if value[t] is None:
                    value[t] = here + step
                    queue.append(t)
                    unset -= 1
    if unset:
        reached = sum(len(members) for members, v in zip(parts, value) if v is not None)
        raise VerificationError("energy walk reached %d of %d nodes" % (reached, len(prod)))

    values = list(map(value.__getitem__, comp))
    # a missing edge reads None, which no value plus a step equals
    ends = values + [None]
    for kind, targets, steps in (("along", f0, down), ("against", e0, up)):
        if sum(map(ne, map(ends.__getitem__, targets), map(add, values, steps))) != targets.count(-1):
            k = next(k for k, y in enumerate(targets)
                     if y != -1 and values[y] != values[k] + steps[k])
            raise VerificationError("energy is path dependent %s color 0 at %s"
                                    % (kind, prod.id(k)))
    return values


# -- the orbit tensor -------------------------------------------------------

def orbit_column(datum, i, col, s):
    """The width-s column crystal of col, a column in the orbit of column i.

    A refusal at a column other than i names the orbit and the requested
    column i.
    """
    try:
        return kr_crystal(datum, col, s)
    except ScopeError as exc:
        if col == i:
            raise
        raise ScopeError("%s; it is in the orbit %s of the requested column %d"
                         % (exc, datum.orbit(i), i)) from None


def orbit_factors(datum, i, s):
    """The width-s column crystals along the orbit of column i, in orbit
    order, each through orbit_column."""
    if i not in datum.classical_nodes:
        raise ScopeError("column %d is not a classical node" % i)
    return [orbit_column(datum, i, col, s) for col in datum.orbit(i)]


def orbit_top(datum, crystal, i, s):
    """The one node of the orbit tensor crystal of weight s times pi-tilde."""
    target = tuple(s * v for v in pi_tilde_weight(datum, i))
    count = crystal.weights.count(target)
    if count != 1:
        raise VerificationError("%d candidates for the top node of the orbit tensor" % count)
    return crystal.weights.index(target)


def verify_yang_baxter(datum, spec1, spec2, spec3):
    """Braid identity for the three pairwise exchange maps, on every triple."""
    crystals = [kr_crystal(datum, i, s) for i, s in (spec1, spec2, spec3)]
    r12 = compute_r_matrix(datum, spec1, spec2)
    r13 = compute_r_matrix(datum, spec1, spec3)
    r23 = compute_r_matrix(datum, spec2, spec3)
    triples = [list(col) for col in zip(*product(*(range(len(c)) for c in crystals)))]
    lhs = r23.apply_at(r13.apply_at(r12.apply_at(triples, 0), 1), 0)
    rhs = r12.apply_at(r13.apply_at(r23.apply_at(triples, 1), 0), 1)
    if lhs != rhs:
        bad = [k for k in range(len(triples[0]))
               if any(x[k] != y[k] for x, y in zip(lhs, rhs))]
        raise VerificationError("braid identity fails at %s" % min(
            "*".join(c.ids[col[k]] for c, col in zip(crystals, triples)) for k in bad))
    return True

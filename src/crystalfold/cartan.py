"""Affine Cartan data for the folding construction.

Four diagram-automorphism cases are supported, tagged a, b, c, d:

  a: parent A_{2n-1}^(1) (cycle of 2n nodes), omega(j) = -j mod 2n,
     folds to D_{n+1}^(2)
  b: parent A_{2n}^(1) (cycle of 2n+1 nodes), omega(j) = -j mod 2n+1,
     folds to A_{2n}^(2)
  c: parent D_{n+1}^(1), omega swaps the two tail nodes n, n+1,
     folds to A_{2n-1}^(2)
  d: parent D_4^(1) with the center numbered 1, omega cycles the outer
     classical nodes 2 -> 3 -> 4 -> 2, folds to D_4^(3)

All weights are plain integer tuples of coefficients over the fundamental
weights, indexed by the node set; levels are computed from comarks.
Arithmetic is exact throughout, in plain ints: the kernel solver
eliminates without fractions.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm
from operator import add


class ScopeError(ValueError):
    """Input outside the supported construction scope."""


def _gcm_from_edges(size, edges):
    """Simply-laced generalized Cartan matrix from an undirected edge list."""
    a = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j in edges:
        a[i][j] = -1
        a[j][i] = -1
    return tuple(tuple(row) for row in a)


def check_gcm(a):
    """Assert the generalized Cartan matrix shape conditions."""
    size = len(a)
    for i in range(size):
        if len(a[i]) != size:
            raise ValueError("matrix not square")
        if a[i][i] != 2:
            raise ValueError("diagonal entry not 2 at %d" % i)
        for j in range(size):
            if i != j and a[i][j] > 0:
                raise ValueError("positive off-diagonal at (%d,%d)" % (i, j))
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise ValueError("zero pattern not symmetric at (%d,%d)" % (i, j))


def positive_primitive_kernel(mat, side="right"):
    """One-dimensional kernel of an affine GCM as a positive primitive integer vector.

    side="right" solves mat @ x = 0 (marks), side="left" solves x @ mat = 0
    (comarks). Raises if the kernel dimension is not exactly one or the
    primitive generator is not strictly positive.

    Fraction-free Gauss-Jordan elimination, after Bareiss (Math. Comp. 22,
    1968): a row is cleared by a multiple of the pivot row, p * row - q *
    pivot row, and divided by the gcd of its entries, so every entry stays
    an exact int and every row a nonzero multiple of its rational one.
    """
    size = len(mat)
    if side == "left":
        rows = [[mat[j][k] for j in range(size)] for k in range(size)]
    else:
        rows = [list(row) for row in mat]
    pivots = []
    r = 0
    for col in range(size):
        piv = next((rr for rr in range(r, size) if rows[rr][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        for rr in range(size):
            q = rows[rr][col]
            if rr != r and q:
                row = [p * v - q * w for v, w in zip(rows[rr], rows[r])]
                g = gcd(*row) or 1
                rows[rr] = [v // g for v in row]
        pivots.append(col)
        r += 1
    if r != size - 1:
        raise ValueError("kernel dimension is %d, expected 1" % (size - r))
    free = next(c for c in range(size) if c not in pivots)
    # row r reads p x_col + q x_free = 0; x_free is the lcm of the pivots
    ints = [0] * size
    ints[free] = lcm(*(row[col] for row, col in zip(rows, pivots)))
    for row, col in zip(rows, pivots):
        ints[col] = -row[free] * ints[free] // row[col]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if any(v <= 0 for v in ints):
        raise ValueError("kernel generator not positive: %r" % (ints,))
    return tuple(ints)


@dataclass(frozen=True)
class FoldingDatum:
    """Parent affine Cartan datum plus its diagram automorphism and folded data.

    gcm rows are indexed by coroots and columns by simple roots, so
    gcm[j][k] is the pairing of alpha_k with h_j. Weight tuples follow the
    same node order. The folded (hat) side is indexed by orbit
    representatives, which always come out as 0..n here.
    """

    case: str
    n: int
    gcm: tuple
    omega: tuple
    order: int
    marks: tuple
    comarks: tuple
    reps: tuple
    c_vals: tuple
    hat_gcm: tuple
    hat_marks: tuple
    hat_comarks: tuple
    parent_name: str
    hat_name: str
    # per node: its orbit, from the node in application order, and the
    # orbit's representative; both follow from omega
    orbits: tuple = field(compare=False, repr=False)
    rep_of: tuple = field(compare=False, repr=False)

    @property
    def size(self):
        return len(self.gcm)

    @property
    def classical_nodes(self):
        return tuple(range(1, len(self.gcm)))

    @property
    def hat_classical_nodes(self):
        return tuple(range(1, len(self.reps)))

    def orbit(self, j):
        """The omega-orbit of node j, starting at j, in application order.

        A j that is not a node (a negative one would wrap the tuple index)
        is refused.
        """
        if not 0 <= j < len(self.orbits):
            raise ScopeError("node %d has no orbit of at most %d nodes" % (j, self.order))
        return self.orbits[j]

    def rep(self, j):
        return min(self.orbit(j))


def _orbit_walk(omega, j):
    out = [j]
    while omega[out[-1]] != j:
        out.append(omega[out[-1]])
    return tuple(out)


def _parent_shape(case, n):
    if case == "a":
        if n < 2:
            raise ScopeError("case (a) needs n >= 2")
        size = 2 * n
        edges = [(k, (k + 1) % size) for k in range(size)]
        omega = tuple((-j) % size for j in range(size))
        return size, edges, omega, "A_%d^(1)" % (size - 1), "D_%d^(2)" % (n + 1)
    if case == "b":
        if n < 1:
            raise ScopeError("case (b) needs n >= 1")
        size = 2 * n + 1
        edges = [(k, (k + 1) % size) for k in range(size)]
        omega = tuple((-j) % size for j in range(size))
        return size, edges, omega, "A_%d^(1)" % (size - 1), "A_%d^(2)" % (2 * n)
    if case == "c":
        if n < 3:
            raise ScopeError("case (c) needs n >= 3")
        size = n + 2
        edges = [(0, 2), (1, 2)]
        edges += [(k, k + 1) for k in range(2, n - 1)]
        edges += [(n - 1, n), (n - 1, n + 1)]
        omega = list(range(size))
        omega[n], omega[n + 1] = n + 1, n
        return size, edges, tuple(omega), "D_%d^(1)" % (n + 1), "A_%d^(2)" % (2 * n - 1)
    if case == "d":
        if n != 3:
            raise ScopeError("case (d) is defined for n = 3 only")
        edges = [(0, 1), (1, 2), (1, 3), (1, 4)]
        omega = (0, 1, 3, 4, 2)
        return 5, edges, omega, "D_4^(1)", "D_4^(3)"
    raise ScopeError("unknown case %r" % (case,))


@lru_cache(maxsize=None)
def make_datum(case, n=3):
    """Build the folding datum for one case.

    Everything derived (marks, comarks, orbit data, the folded matrix and
    its marks/comarks) is computed from first principles and validated;
    nothing is table-driven.
    """
    size, edges, omega, parent_name, hat_name = _parent_shape(case, n)
    gcm = _gcm_from_edges(size, edges)
    check_gcm(gcm)
    if omega[0] != 0:
        raise ValueError("automorphism must fix node 0")
    for j in range(size):
        for k in range(size):
            if gcm[omega[j]][omega[k]] != gcm[j][k]:
                raise ValueError("automorphism does not preserve the matrix")
    order = 1
    perm = omega
    ident = tuple(range(size))
    while perm != ident:
        perm = tuple(omega[p] for p in perm)
        order += 1
    marks = positive_primitive_kernel(gcm, "right")
    comarks = positive_primitive_kernel(gcm, "left")
    if comarks[0] != 1:
        raise ValueError("node 0 comark expected to be 1")
    orbits = tuple(_orbit_walk(omega, j) for j in range(size))
    rep_of = tuple(map(min, orbits))
    # orbit representatives: minimum of each orbit, ascending
    reps = tuple(sorted(set(rep_of)))
    if reps != tuple(range(len(reps))):
        raise ValueError("orbit representatives expected to be 0..%d" % (len(reps) - 1))

    def c_entry(i, j):
        return sum(gcm[i][k] for k in orbits[j])

    c_vals = tuple(c_entry(j, j) for j in reps)
    for pos, j in enumerate(reps):
        if c_vals[pos] not in (1, 2):
            raise ValueError("c value out of range at node %d" % j)
    hat = []
    for i in reps:
        row = []
        for pos, j in enumerate(reps):
            num = 2 * c_entry(i, j)
            if num % c_vals[pos] != 0:
                raise ValueError("folded entry not integral at (%d,%d)" % (i, j))
            row.append(num // c_vals[pos])
        hat.append(tuple(row))
    hat_gcm = tuple(hat)
    check_gcm(hat_gcm)
    hat_marks = positive_primitive_kernel(hat_gcm, "right")
    hat_comarks = positive_primitive_kernel(hat_gcm, "left")
    if hat_comarks[0] != 1:
        raise ValueError("folded node 0 comark expected to be 1")
    return FoldingDatum(
        case=case, n=n, gcm=gcm, omega=omega, order=order,
        marks=marks, comarks=comarks,
        reps=reps, c_vals=c_vals, hat_gcm=hat_gcm,
        hat_marks=hat_marks, hat_comarks=hat_comarks,
        parent_name=parent_name, hat_name=hat_name, orbits=orbits, rep_of=rep_of,
    )


# ---------------------------------------------------------------------------
# weight arithmetic

def classical_alpha(gcm, j):
    """The classical image of the simple root alpha_j: column j of the matrix."""
    return tuple(row[j] for row in gcm)


def levels(comarks, weights):
    """The level of every weight in weights: the sum over the colors of the
    comark times that color's column of weights, a whole column at a time."""
    out = [0] * len(weights)
    for c, col in zip(comarks, zip(*weights)):
        out = list(map(add, out, map(c.__mul__, col)))
    return out


def omega_star(datum, mu):
    """Pull a weight through the automorphism: coefficient j moves to omega(j)."""
    out = [0] * datum.size
    for j, v in enumerate(mu):
        out[datum.omega[j]] = v
    return tuple(out)


def p_omega_star(datum, mu_hat):
    """Embed an orbit-side weight: each hat fundamental maps to its orbit sum."""
    if len(mu_hat) != len(datum.reps):
        raise ValueError("expected %d coefficients" % len(datum.reps))
    return tuple(map(mu_hat.__getitem__, datum.rep_of))


def p_omega_star_inverse(datum, mu):
    """Inverse embedding; rejects weights not constant on omega-orbits."""
    if tuple(map(mu.__getitem__, datum.rep_of)) != tuple(mu):
        # some coefficient differs from its representative's: name the
        # first orbit, in representative order, where they differ
        for j in datum.reps:
            orb = datum.orbits[j]
            if len({mu[k] for k in orb}) > 1:
                raise ValueError(
                    "weight not omega*-fixed: coefficients differ on orbit %r" % (orb,))
    return tuple(map(mu.__getitem__, datum.reps))


def pi_weight(datum, i):
    """Level-zero fundamental weight of the parent at node i (zero for i = 0)."""
    out = [0] * datum.size
    if i != 0:
        out[i] = 1
        out[0] = -datum.comarks[i]
    return tuple(out)


def pi_tilde_weight(datum, i):
    """Orbit sum of level-zero fundamentals; zero for i = 0."""
    out = [0] * datum.size
    if i != 0:
        for k in datum.orbit(i):
            out[k] += 1
            out[0] -= datum.comarks[k]
    return tuple(out)


def enumerate_dominant(comarks, lev):
    """All nonnegative coefficient tuples of the given level; finite since comarks > 0.

    The tuples are grown a coefficient at a time, each prefix keeping the
    level it has left, so no prefix overshoots the level; they come in
    lexicographic order.
    """
    partial = [((), lev)]
    for c in comarks:
        partial = [(head + (v,), left - c * v)
                   for head, left in partial for v in range(left // c + 1)]
    return [head for head, left in partial if left == 0]


def block(gcm, nodes):
    """Submatrix of the GCM on a subset of nodes, in the given order."""
    return tuple(tuple(gcm[i][j] for j in nodes) for i in nodes)


# ---------------------------------------------------------------------------
# words in the folded generators

def _expand_weyl(datum, jhat):
    if jhat not in datum.reps:
        raise ValueError("index %r is not an orbit representative" % (jhat,))
    orb = datum.orbit(jhat)
    if datum.c_vals[jhat] == 1:
        return (jhat, datum.omega[jhat], jhat)
    return orb


def theta_word(datum, word):
    """Expand a word in folded reflections into parent simple reflections."""
    out = []
    for jhat in word:
        out.extend(_expand_weyl(datum, jhat))
    return tuple(out)


def kashiwara_word(datum, jhat, m=1):
    """Parent-operator word realizing the m-th power of a folded operator.

    c = 2 orbits commute, so each orbit member appears m times; the c = 1
    orbit (case b, node n) needs the doubled middle block.
    """
    if jhat not in datum.reps:
        raise ValueError("index %r is not an orbit representative" % (jhat,))
    orb = datum.orbit(jhat)
    if datum.c_vals[jhat] == 1:
        j, wj = jhat, datum.omega[jhat]
        return (j,) * m + (wj,) * (2 * m) + (j,) * m
    out = []
    for j in orb:
        out.extend([j] * m)
    return tuple(out)

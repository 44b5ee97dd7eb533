"""Restriction of folded crystals to their classical subalgebra.

A folded crystal decomposes under the node-0-deleted index set into
highest weight components. This module extracts that decomposition two
independent ways, compares it with the closed product formulas where one
exists, and cross-checks cardinalities against Weyl dimensions.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import mul

from .cartan import ScopeError, block, omega_star
from .crystal import LazyTensor, Report, VerificationError
from .fixedpoint import build_hat_crystal
from .intertwine import orbit_factors


@dataclass(frozen=True)
class BranchingResult:
    """Sorted (coefficients, multiplicity, dimension) triples plus the total.

    Coefficients are taken over the folded classical nodes in index order.
    """

    components: tuple
    total: int

    def multiset(self):
        return {coeffs: mult for coeffs, mult, _ in self.components}

    def to_json(self):
        return {
            "components": [
                {"weight": list(coeffs), "mult": mult, "dim": dim}
                for coeffs, mult, dim in self.components],
            "total": self.total,
        }

    def to_text(self):
        lines = ["%-20s %5s %7s" % ("weight", "mult", "dim")]
        for coeffs, mult, dim in self.components:
            lines.append("%-20s %5d %7d" % (",".join(map(str, coeffs)), mult, dim))
        lines.append("total %d" % self.total)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Weyl dimensions

def _symmetrizer(gcm):
    # d[i] * gcm[i][j] == d[j] * gcm[j][i]; any positive scaling works, so
    # every entry found so far is scaled to make the next one an int
    rank = len(gcm)
    d = [0] * rank
    for seed in range(rank):
        if d[seed]:
            continue
        d[seed] = 1
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in range(rank):
                if gcm[i][j] and not d[j]:
                    d = [v * abs(gcm[j][i]) for v in d]
                    d[j] = d[i] * gcm[i][j] // gcm[j][i]
                    stack.append(j)
    for i in range(rank):
        for j in range(rank):
            if d[i] * gcm[i][j] != d[j] * gcm[j][i]:
                raise VerificationError("matrix is not symmetrizable")
    return d


def _positive_roots(gcm):
    """Positive roots in simple-root coordinates, by reflection closure."""
    rank = len(gcm)
    simple = [tuple(int(k == j) for k in range(rank)) for j in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                pairing = sum(gcm[i][j] * c[j] for j in range(rank))
                img = list(c)
                img[i] -= pairing
                img = tuple(img)
                if min(img) >= 0 and any(img) and img not in roots:
                    roots.add(img)
                    nxt.append(img)
                    if len(roots) > 10000:
                        raise VerificationError(
                            "root system does not close up; matrix is not finite type")
        frontier = nxt
    return sorted(roots)


@lru_cache(maxsize=None)
def _weyl_factors(gcm):
    """The part of the Weyl product that depends on the matrix only: per
    positive root, its coefficients scaled by the symmetrizer, and the
    product of their sums, the pairings of rho."""
    d = _symmetrizer(gcm)
    rows = tuple(tuple(map(mul, root, d)) for root in _positive_roots(gcm))
    return rows, prod(map(sum, rows))


def _weyl_product(gcm, lam):
    """The Weyl dimension of lam, an exact integer quotient of products."""
    rows, den = _weyl_factors(gcm)
    shifted = [v + 1 for v in lam]
    dim, rest = divmod(prod(sum(map(mul, row, shifted)) for row in rows), den)
    if rest or dim <= 0:
        raise VerificationError("dimension product is not a positive integer")
    return dim


def weyl_dimension(datum, coeffs):
    """Dimension of the folded classical irreducible with the given highest weight.

    The Weyl product formula, _weyl_product, so nothing is built: branch_hat
    compares it with the size of every component it decomposes, and the
    tests compare it with the monomials the highest weight closure walk
    reaches.
    """
    if len(coeffs) != len(datum.hat_classical_nodes):
        raise ValueError("expected %d coefficients" % len(datum.hat_classical_nodes))
    if min(coeffs, default=0) < 0:
        raise ValueError("weight is not dominant: %r" % (coeffs,))
    return _weyl_product(block(datum.hat_gcm, datum.hat_classical_nodes), tuple(coeffs))


# ---------------------------------------------------------------------------
# computed decomposition

def branch_hat(datum, i, s):
    """Decompose the folded crystal over its classical nodes.

    The highest nodes are computed twice: the heads of the folded classical
    components, and the folded nodes over the parent's classically-highest
    nodes, among the parent nodes that the walk from the top node found
    fixed by the twist. Any disagreement is a hard failure.
    """
    hat = build_hat_crystal(datum, i, s)
    jset = datum.hat_classical_nodes
    decomp = hat.crystal.highest_weight_decomposition(jset)
    route1 = [h for h, _, _ in decomp]
    upstairs = set(hat.parent.highest_nodes(datum.classical_nodes))
    route2 = [h for h, p in enumerate(hat.fixed) if p in upstairs]
    if route1 != route2:
        raise VerificationError(
            "highest weight characterizations disagree: %d folded-highest vs "
            "%d fixed classically-highest" % (len(route1), len(route2)))

    counts = Counter()
    sizes = {}
    for _, wt, comp in decomp:
        coeffs = tuple(wt[j] for j in jset)
        counts[coeffs] += 1
        sizes.setdefault(coeffs, set()).add(len(comp))
    components = []
    for coeffs in sorted(counts):
        dim = weyl_dimension(datum, coeffs)
        if sizes[coeffs] != {dim}:
            raise VerificationError(
                "component of weight %r has size %r, dimension oracle says %d"
                % (coeffs, sorted(sizes[coeffs]), dim))
        components.append((coeffs, counts[coeffs], dim))
    total = len(hat.crystal)
    if sum(m * d for _, m, d in components) != total:
        raise VerificationError("component dimensions do not add up to the size")
    return BranchingResult(components=tuple(components), total=total)


# ---------------------------------------------------------------------------
# closed formulas

def _branch_support(case, n, i):
    """Which fundamental coefficients may be nonzero, and whether their sum
    must equal the width exactly (True) or only be bounded by it (False)."""
    if case == "a":
        if i < n:
            return tuple(range(1, i + 1)), False
        return (n,), True
    if case == "b":
        return tuple(range(1, i + 1)), False
    if case == "c":
        if i % 2:
            return tuple(range(1, i + 1, 2)), True
        return tuple(range(2, i + 1, 2)), False
    if case == "d":
        if i == 1:
            return (1,), False
        raise ScopeError("no closed formula in scope")
    raise ScopeError("no formula table for case %r" % case)


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def expected_branching(datum, i, s):
    """The closed-form decomposition as {coefficients: 1}, ascending, or
    ScopeError where none exists."""
    support, exact = _branch_support(datum.case, datum.n, i)
    jset = datum.hat_classical_nodes
    weights = []
    totals = range(s, s + 1) if exact else range(s + 1)
    for tot in totals:
        for combo in _compositions(tot, len(support)):
            coeffs = [0] * len(jset)
            for pos, val in zip(support, combo):
                coeffs[jset.index(pos)] = val
            weights.append(tuple(coeffs))
    return dict.fromkeys(sorted(set(weights)), 1)


def expected_size(datum, i, s):
    """Size of the closed-form decomposition by the Weyl product formula, or
    ScopeError where none exists.

    The triality leg's decomposition has no {coefficients: 1} form, but the
    D_4^(3) Q-system at the center (Hatayama, Kuniba, Okado, Takagi and
    Tsuboi, Contemp. Math. 248, 1999) gives its size from the center
    column's sizes C_t: C_s^2 - C_{s+1} C_{s-1}.
    """
    if (datum.case, i) == ("d", 2):
        below, here, above = (expected_size(datum, 1, t) for t in (s - 1, s, s + 1))
        return here * here - above * below
    bgcm = block(datum.hat_gcm, datum.hat_classical_nodes)
    return sum(_weyl_product(bgcm, coeffs) for coeffs in expected_branching(datum, i, s))


def multiplicity_free_gate(datum, i, s):
    """Whether the classical decomposition of the orbit tensor is multiplicity-free.

    The heads are the classical highest nodes of the orbit tensor, read off
    a LazyTensor of the orbit's columns, which is never built. When their
    weights are distinct, each weight names one highest node, so the
    highest nodes that the twist fixes must be those whose weight the
    automorphism fixes. The fixed ones are read off the walked hat, as the
    parent nodes under its classical highest nodes, and compared by weight;
    any mismatch is a hard failure.
    """
    tilde = LazyTensor(orbit_factors(datum, i, s))
    mults = Counter(map(tilde.weight, tilde.highest_nodes(datum.classical_nodes)))
    gate = all(v == 1 for v in mults.values())
    if gate:
        hat = build_hat_crystal(datum, i, s)
        node_fixed = {hat.parent.weight(hat.fixed[h])
                      for h in hat.crystal.highest_nodes(datum.hat_classical_nodes)}
        weight_fixed = {wt for wt in mults if omega_star(datum, wt) == wt}
        if node_fixed != weight_fixed:
            raise VerificationError(
                "fixed-weight characterization fails: %d node-fixed vs "
                "%d weight-fixed heads" % (len(node_fixed), len(weight_fixed)))
    return gate


def verify_branching(datum, i, s):
    """Full branching report for one instance."""
    report = Report()
    state = {}

    def compute():
        state["got"] = branch_hat(datum, i, s)
    report.run("branch:dual-route", compute)
    if "got" not in state:
        return report
    got = state["got"]

    try:
        gate = multiplicity_free_gate(datum, i, s)
        report.add("branch:weight-fixed", True,
                   "" if gate else "not multiplicity-free upstairs; check skipped")
    except VerificationError as exc:
        report.add("branch:weight-fixed", False, str(exc))

    try:
        want = expected_branching(datum, i, s)
        report.add("branch:expected", got.multiset() == want,
                   "computed %r vs formula %r" % (got.multiset(), want)
                   if got.multiset() != want else "")
    except ScopeError as exc:
        report.add("branch:expected", True, str(exc))

    report.add("branch:cardinality",
               sum(m * d for _, m, d in got.components) == got.total,
               "total %d" % got.total)
    return report

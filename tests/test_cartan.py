"""Root-system bookkeeping tests.

The expected folded matrices, marks, and comarks below are hand
transcriptions from the standard affine tables, kept independent of the
code that computes them by folding.
"""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from crystalfold.cartan import (
    ScopeError,
    block,
    classical_alpha,
    enumerate_dominant,
    kashiwara_word,
    make_datum,
    omega_star,
    p_omega_star,
    p_omega_star_inverse,
    pi_tilde_weight,
    pi_weight,
    positive_primitive_kernel,
    theta_word,
)
from crystalfold.cli import SCOPE_INSTANCES
from leaves import hat_level, kernel_by_fractions


def level(datum, mu):
    return sum(c * v for c, v in zip(datum.comarks, mu))


def weyl_reflect(gcm, j, mu):
    """Simple reflection on a weight tuple: mu - mu[j] * alpha_j."""
    mj = mu[j]
    return tuple(v - mj * gcm[k][j] for k, v in enumerate(mu))


ALL_DATA = [("a", 2), ("a", 3), ("b", 1), ("b", 2), ("c", 3), ("d", 3)]

# hand-transcribed twisted affine tables: matrix, marks, comarks, name
EXPECTED_FOLDED = {
    ("a", 2): (
        [[2, -2, 0], [-1, 2, -1], [0, -2, 2]],
        (1, 1, 1), (1, 2, 1), "D_3^(2)"),
    ("a", 3): (
        [[2, -2, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
        (1, 1, 1, 1), (1, 2, 2, 1), "D_4^(2)"),
    ("b", 1): (
        [[2, -4], [-1, 2]],
        (2, 1), (1, 2), "A_2^(2)"),
    ("b", 2): (
        [[2, -2, 0], [-1, 2, -2], [0, -1, 2]],
        (2, 2, 1), (1, 2, 2), "A_4^(2)"),
    ("c", 3): (
        [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -2], [0, 0, -1, 2]],
        (1, 1, 2, 1), (1, 1, 2, 2), "A_5^(2)"),
    ("d", 3): (
        [[2, -1, 0], [-1, 2, -3], [0, -1, 2]],
        (1, 2, 1), (1, 2, 3), "D_4^(3)"),
}


@pytest.mark.parametrize("case,n", ALL_DATA)
def test_folded_matrix_matches_named_type(case, n):
    datum = make_datum(case, n)
    mat, marks, comarks, name = EXPECTED_FOLDED[(case, n)]
    assert [list(r) for r in datum.hat_gcm] == mat
    assert datum.hat_marks == marks
    assert datum.hat_comarks == comarks
    assert datum.hat_name == name


@pytest.mark.parametrize("case,n", ALL_DATA)
def test_parent_invariants(case, n):
    datum = make_datum(case, n)
    size = datum.size
    # null root: sum_j marks[j] a[k][j] = 0 for every k
    for k in range(size):
        assert sum(datum.marks[j] * datum.gcm[k][j] for j in range(size)) == 0
    # central element: sum_j comarks[j] a[j][k] = 0 for every k
    for k in range(size):
        assert sum(datum.comarks[j] * datum.gcm[j][k] for j in range(size)) == 0
    # same two identities on the folded side
    for k in range(len(datum.reps)):
        assert sum(datum.hat_marks[j] * datum.hat_gcm[k][j]
                   for j in range(len(datum.reps))) == 0
        assert sum(datum.hat_comarks[j] * datum.hat_gcm[j][k]
                   for j in range(len(datum.reps))) == 0
    assert datum.omega[0] == 0
    perm = datum.omega
    for _ in range(datum.order - 1):
        perm = tuple(datum.omega[p] for p in perm)
    assert perm == tuple(range(size))


def test_parent_marks_are_classical_tables():
    assert make_datum("a", 2).marks == (1, 1, 1, 1)
    assert make_datum("b", 2).marks == (1, 1, 1, 1, 1)
    assert make_datum("c", 3).marks == (1, 1, 2, 1, 1)
    assert make_datum("d", 3).marks == (1, 2, 1, 1, 1)
    assert make_datum("d", 3).comarks == (1, 2, 1, 1, 1)


@pytest.mark.parametrize("case,n", ALL_DATA)
def test_c_values(case, n):
    datum = make_datum(case, n)
    for j in datum.reps:
        expected = 1 if (case == "b" and j == n) else 2
        assert datum.c_vals[j] == expected


def test_orbits():
    datum = make_datum("a", 2)
    assert datum.orbit(1) == (1, 3)
    assert datum.orbit(2) == (2,)
    assert datum.reps == (0, 1, 2)
    d4 = make_datum("d", 3)
    assert d4.orbit(2) == (2, 3, 4)
    assert d4.order == 3
    assert d4.reps == (0, 1, 2)
    dc = make_datum("c", 3)
    assert dc.orbit(3) == (3, 4)
    assert dc.reps == (0, 1, 2, 3)
    # a negative node would wrap the tuple index; neither it nor a node past
    # the diagram has an orbit
    for d in (datum, d4, dc):
        with pytest.raises(ScopeError, match="no orbit of at most %d nodes" % d.order):
            d.orbit(-1)
        with pytest.raises(ScopeError, match="no orbit of at most %d nodes" % d.order):
            d.orbit(d.size)


def test_scope_errors():
    with pytest.raises(ScopeError, match="unknown case 'e'"):
        make_datum("e", 6)
    with pytest.raises(ScopeError):
        make_datum("a", 1)
    with pytest.raises(ScopeError):
        make_datum("c", 2)
    with pytest.raises(ScopeError):
        make_datum("d", 4)


def test_classical_alpha_reads_columns():
    datum = make_datum("a", 2)
    # alpha_1 pairs to 2 at h_1 and -1 at the two cycle neighbors
    assert classical_alpha(datum.gcm, 1) == (-1, 2, -1, 0)
    for case, n in ALL_DATA:
        d = make_datum(case, n)
        for j in range(d.size):
            assert level(d, classical_alpha(d.gcm, j)) == 0
        for j in range(len(d.reps)):
            assert hat_level(d, classical_alpha(d.hat_gcm, j)) == 0
        # marks combination of columns vanishes
        combo = [0] * d.size
        for j in range(d.size):
            col = classical_alpha(d.gcm, j)
            combo = [x + d.marks[j] * y for x, y in zip(combo, col)]
        assert all(v == 0 for v in combo)


def test_p_omega_star_basis():
    datum = make_datum("a", 2)
    assert p_omega_star(datum, (0, 1, 0)) == (0, 1, 0, 1)
    assert p_omega_star(datum, (1, 0, 0)) == (1, 0, 0, 0)
    assert p_omega_star_inverse(datum, (0, 1, 0, 1)) == (0, 1, 0)
    assert p_omega_star_inverse(datum, (0, 0, 0, 0)) == (0, 0, 0)
    with pytest.raises(ValueError, match="orbit"):
        p_omega_star_inverse(datum, (0, 1, 0, 0))


@pytest.mark.parametrize("case,n", ALL_DATA)
def test_p_omega_star_identities(case, n):
    datum = make_datum(case, n)
    m = len(datum.reps)
    for jhat in range(m):
        basis = tuple(1 if k == jhat else 0 for k in range(m))
        lifted = p_omega_star(datum, basis)
        # level preservation
        assert level(datum, lifted) == hat_level(datum, basis)
        # round trip
        assert p_omega_star_inverse(datum, lifted) == basis
        # lifted hat simple root = (2/c_j) * orbit sum of parent simple roots
        lifted_alpha = p_omega_star(datum, classical_alpha(datum.hat_gcm, jhat))
        factor = 2 // datum.c_vals[jhat]
        acc = [0] * datum.size
        for k in datum.orbit(jhat):
            col = classical_alpha(datum.gcm, k)
            acc = [x + factor * y for x, y in zip(acc, col)]
        assert lifted_alpha == tuple(acc)
    # fundamental level-zero weights map to their orbit sums
    for i in datum.reps:
        hat_pi = [0] * m
        if i != 0:
            hat_pi[i], hat_pi[0] = 1, -datum.hat_comarks[i]
        assert p_omega_star(datum, tuple(hat_pi)) == pi_tilde_weight(datum, i)
        assert level(datum, pi_weight(datum, i)) == 0
        assert hat_level(datum, tuple(hat_pi)) == 0


def test_omega_star_moves_coefficients():
    datum = make_datum("d", 3)
    mu = (5, 4, 1, 2, 3)
    assert omega_star(datum, mu) == (5, 4, 3, 1, 2)


def test_words():
    b1 = make_datum("b", 1)
    assert theta_word(b1, (1,)) == (1, 2, 1)
    assert kashiwara_word(b1, 1) == (1, 2, 2, 1)
    assert kashiwara_word(b1, 1, 2) == (1, 1, 2, 2, 2, 2, 1, 1)
    a2 = make_datum("a", 2)
    assert theta_word(a2, (1,)) == (1, 3)
    assert kashiwara_word(a2, 1, 3) == (1, 1, 1, 3, 3, 3)
    d4 = make_datum("d", 3)
    assert theta_word(d4, (2,)) == (2, 3, 4)
    assert kashiwara_word(d4, 0) == (0,)
    assert kashiwara_word(d4, 1) == (1,)
    assert kashiwara_word(d4, 2) == (2, 3, 4)
    with pytest.raises(ValueError):
        kashiwara_word(d4, 3)
    assert theta_word(d4, (0, 2)) == (0, 2, 3, 4)


@given(st.sampled_from(ALL_DATA), st.data())
def test_weyl_reflection_involution(case_n, data):
    datum = make_datum(*case_n)
    mu = tuple(data.draw(st.integers(-4, 4)) for _ in range(datum.size))
    j = data.draw(st.integers(0, datum.size - 1))
    assert weyl_reflect(datum.gcm, j, weyl_reflect(datum.gcm, j, mu)) == mu
    # reflections preserve level
    assert level(datum, weyl_reflect(datum.gcm, j, mu)) == level(datum, mu)


def test_enumerate_dominant():
    b1 = make_datum("b", 1)
    # folded comarks (1, 2): exactly one dominant weight of level 1
    assert enumerate_dominant(b1.hat_comarks, 1) == [(1, 0)]
    assert sorted(enumerate_dominant(b1.hat_comarks, 2)) == [(0, 1), (2, 0)]
    a2 = make_datum("a", 2)
    # parent comarks all 1 on four nodes
    assert len(enumerate_dominant(a2.comarks, 1)) == 4


def _dominant_by_filter(comarks, lev):
    """The product-and-filter enumeration, kept as the oracle of the pruned one."""
    ranges = [range(lev // c + 1) for c in comarks]
    return [combo for combo in product(*ranges)
            if sum(c * v for c, v in zip(comarks, combo)) == lev]


# every datum of the scope instances and of the wide folds
DOMINANT_DATA = sorted(set(ALL_DATA) | {(c, n) for c, n, _, _ in SCOPE_INSTANCES}
                       | {("c", 5), ("c", 6), ("c", 7)})


@pytest.mark.parametrize("case,n", DOMINANT_DATA)
def test_enumerate_dominant_matches_the_filtered_product(case, n):
    datum = make_datum(case, n)
    for comarks in (datum.comarks, datum.hat_comarks):
        for lev in range(6):
            assert enumerate_dominant(comarks, lev) == _dominant_by_filter(comarks, lev)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(0, 8))
def test_enumerate_dominant_matches_the_filtered_product_on_a_grid(comarks, lev):
    comarks = tuple(comarks)
    assert enumerate_dominant(comarks, lev) == _dominant_by_filter(comarks, lev)


def test_block_submatrix():
    dc = make_datum("c", 3)
    assert block(dc.hat_gcm, (1, 2, 3)) == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    d4 = make_datum("d", 3)
    assert block(d4.hat_gcm, (1, 2)) == ((2, -3), (-1, 2))


def test_kernel_solver_rejects_finite_type():
    with pytest.raises(ValueError):
        positive_primitive_kernel(((2, -1), (-1, 2)), "right")


# every datum the cases build up to rank 10
KERNEL_DATUMS = ([("a", n) for n in range(2, 9)] + [("b", n) for n in range(1, 9)]
                 + [("c", n) for n in range(3, 9)] + [("d", 3)])


@pytest.mark.parametrize("case,n", KERNEL_DATUMS)
def test_integer_kernel_matches_the_fraction_solver_on_every_datum(case, n):
    datum = make_datum(case, n)
    for gcm, marks, comarks in ((datum.gcm, datum.marks, datum.comarks),
                                (datum.hat_gcm, datum.hat_marks, datum.hat_comarks)):
        assert marks == kernel_by_fractions(gcm, "right")
        assert comarks == kernel_by_fractions(gcm, "left")


@pytest.mark.parametrize("mat,text", [
    (((2, -1), (-1, 2)), "kernel dimension is 0, expected 1"),
    (((2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2)),
     "kernel dimension is 2, expected 1"),
    (((2, -2, 0), (-2, 2, 0), (0, 0, 2)), "kernel generator not positive: [1, 1, 0]"),
])
@pytest.mark.parametrize("side", ["right", "left"])
def test_integer_kernel_refuses_with_the_fraction_solver_texts(mat, text, side):
    for solver in (positive_primitive_kernel, kernel_by_fractions):
        with pytest.raises(ValueError) as caught:
            solver(mat, side)
        assert str(caught.value) == text


def _kernel_outcome(solver, mat, side):
    try:
        return solver(mat, side)
    except ValueError as exc:
        return "raised: %s" % exc


@given(st.data(), st.sampled_from(["right", "left"]))
def test_integer_kernel_matches_the_fraction_solver_on_any_matrix(data, side):
    # mostly singular: one row is an integer combination of the others, so
    # the solution path runs and not only the rank count
    size = data.draw(st.integers(1, 5))
    row = st.lists(st.integers(-4, 2), min_size=size, max_size=size)
    mat = data.draw(st.lists(row, min_size=size - 1, max_size=size - 1))
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=size - 1, max_size=size - 1))
    dependent = [sum(c * r[k] for c, r in zip(coeffs, mat)) for k in range(size)]
    mat.insert(data.draw(st.integers(0, size - 1)),
               data.draw(st.one_of(st.just(dependent), row)))
    assert (_kernel_outcome(positive_primitive_kernel, mat, side)
            == _kernel_outcome(kernel_by_fractions, mat, side))

"""Branching decompositions against hand-computed component tables.

Dimension oracles below are classical: B_2 has irreducibles of dimension
1, 4, 5, 10, 14, 16 at the small dominant weights; C_3 gives 6, 14, 21;
the triple-fold block gives 7, 14, 27; the rank one block gives s + 1.
"""

import pytest
from hypothesis import given, strategies as st

from crystalfold import branching
from crystalfold.branching import (
    BranchingResult, _weyl_product, branch_hat, expected_branching, expected_size,
    multiplicity_free_gate, verify_branching, weyl_dimension)
from crystalfold.cartan import ScopeError, block, enumerate_dominant, make_datum
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import Crystal, VerificationError
from crystalfold.fixedpoint import HatBundle, build_hat_crystal
from crystalfold.intertwine import orbit_factors
from crystalfold.models import classical_highest_node
from leaves import (
    build_tilde_crystal, fixed_nodes, weyl_dimension_by_monomials, weyl_product_by_fractions)

A2 = make_datum("a", 2)
A3 = make_datum("a", 3)
B1 = make_datum("b", 1)
B2 = make_datum("b", 2)
C3 = make_datum("c", 3)
D3 = make_datum("d", 3)


@pytest.mark.parametrize("datum,coeffs,dim", [
    (A2, (0, 0), 1), (A2, (1, 0), 5), (A2, (0, 1), 4),
    (A2, (2, 0), 14), (A2, (1, 1), 16), (A2, (0, 2), 10),
    (B1, (0,), 1), (B1, (1,), 2), (B1, (4,), 5),
    (B2, (1, 0), 4), (B2, (0, 1), 5), (B2, (2, 0), 10), (B2, (1, 1), 16),
    (C3, (1, 0, 0), 6), (C3, (0, 1, 0), 14), (C3, (0, 0, 1), 14),
    (C3, (2, 0, 0), 21),
    (D3, (1, 0), 7), (D3, (2, 0), 27), (D3, (0, 1), 14),
    (A3, (0, 0, 1), 8), (A3, (0, 0, 2), 35), (A3, (1, 0, 0), 7),
])
def test_weyl_dimension_both_routes(datum, coeffs, dim):
    assert weyl_dimension(datum, coeffs) == dim
    assert weyl_dimension_by_monomials(datum, coeffs) == dim
    assert _weyl_product(block(datum.hat_gcm, datum.hat_classical_nodes), coeffs) == dim


# the hat classical block of every datum the cases build up to rank 10
BLOCK_DATUMS = [make_datum(case, n) for case, ns in
                (("a", range(2, 9)), ("b", range(1, 9)), ("c", range(3, 9)), ("d", (3,)))
                for n in ns]


def _hat_block(datum):
    return block(datum.hat_gcm, datum.hat_classical_nodes)


@pytest.mark.parametrize("datum", BLOCK_DATUMS, ids=lambda d: "%s%d" % (d.case, d.n))
def test_integer_weyl_product_matches_fractions_up_to_level_3(datum):
    bgcm = _hat_block(datum)
    weights = [wt[1:] for lev in range(4) for wt in enumerate_dominant(datum.hat_comarks, lev)]
    assert len(weights) > len(bgcm)
    for coeffs in weights:
        assert _weyl_product(bgcm, coeffs) == weyl_product_by_fractions(bgcm, coeffs)


@given(st.sampled_from(BLOCK_DATUMS).flatmap(lambda datum: st.tuples(
    st.just(datum), st.lists(st.integers(0, 6), min_size=len(datum.hat_classical_nodes),
                             max_size=len(datum.hat_classical_nodes)))))
def test_integer_weyl_product_matches_fractions_on_a_grid(case):
    datum, coeffs = case
    bgcm = _hat_block(datum)
    assert _weyl_product(bgcm, coeffs) == weyl_product_by_fractions(bgcm, coeffs)


def test_weyl_dimension_counts_the_monomials_of_every_branched_weight(monkeypatch):
    # every highest weight that branch_hat meets on the scope and on the
    # wide folds of case c: the Weyl product is the monomial count
    met = set()
    dimension = branching.weyl_dimension
    monkeypatch.setattr(branching, "weyl_dimension",
                        lambda datum, coeffs: met.add((datum, coeffs)) or dimension(datum, coeffs))
    for case, n, i, s in SCOPE_INSTANCES + [("c", 6, 1, 5), ("c", 7, 1, 4), ("c", 5, 1, 4)]:
        branch_hat(make_datum(case, n), i, s)
    assert len(met) > len(SCOPE_INSTANCES)
    for datum, coeffs in met:
        assert dimension(datum, coeffs) == weyl_dimension_by_monomials(datum, coeffs)


def test_weyl_dimension_rejects_bad_weights():
    with pytest.raises(ValueError):
        weyl_dimension(A2, (-1, 0))
    with pytest.raises(ValueError):
        weyl_dimension(A2, (1, 0, 0))


@pytest.mark.parametrize("datum,i,s,table,total", [
    (A2, 1, 1, {(0, 0): 1, (1, 0): 1}, 6),
    (A2, 1, 2, {(0, 0): 1, (1, 0): 1, (2, 0): 1}, 20),
    (A2, 2, 1, {(0, 1): 1}, 4),
    (A2, 2, 2, {(0, 2): 1}, 10),
    (B1, 1, 1, {(0,): 1, (1,): 1}, 3),
    (B1, 1, 2, {(0,): 1, (1,): 1, (2,): 1}, 6),
    (B2, 1, 1, {(0, 0): 1, (1, 0): 1}, 5),
    (B2, 2, 1, {(0, 0): 1, (1, 0): 1, (0, 1): 1}, 10),
    (C3, 1, 1, {(1, 0, 0): 1}, 6),
    (C3, 1, 2, {(2, 0, 0): 1}, 21),
    (C3, 3, 1, {(1, 0, 0): 1, (0, 0, 1): 1}, 20),
    (D3, 1, 1, {(0, 0): 1, (1, 0): 1}, 8),
    (D3, 1, 2, {(0, 0): 1, (1, 0): 1, (2, 0): 1}, 35),
])
def test_branch_tables(datum, i, s, table, total):
    got = branch_hat(datum, i, s)
    assert got.multiset() == table
    assert got.total == total
    assert expected_branching(datum, i, s) == table
    assert expected_size(datum, i, s) == total


def test_expected_branching_wider_instance():
    assert expected_branching(B2, 2, 2) == {
        (0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert expected_size(B2, 2, 2) == 1 + 4 + 5 + 10 + 16 + 14


def test_no_formula_for_branched_middle():
    with pytest.raises(ScopeError, match="no closed formula"):
        expected_branching(D3, 2, 1)


def test_leg_sizes_by_the_q_relation():
    # C_s^2 - C_{s+1} C_{s-1} over the center column's sizes C_t = 1, 8,
    # 35, 112, 294 at t = 0..4
    assert [expected_size(D3, 1, t) for t in range(5)] == [1, 8, 35, 112, 294]
    assert [expected_size(D3, 2, s) for s in range(1, 5)] == [29, 329, 2254, 11172]


def test_leg_q_relation_counts_the_twists_fixed_nodes():
    # the oracle: the nodes that the twist of the three-leg orbit tensor fixes
    tilde = build_tilde_crystal(D3, 2, 1)
    assert len(fixed_nodes(tilde.omega_map)) == expected_size(D3, 2, 1) == 29


@pytest.mark.parametrize("datum,i,s", [
    (A2, 1, 1), (A2, 2, 1), (B1, 1, 2), (C3, 3, 1), (D3, 1, 1),
])
def test_gate_is_true_on_products_of_distinct_columns(datum, i, s):
    assert multiplicity_free_gate(datum, i, s) is True


def test_gate_reads_the_walked_hat(monkeypatch):
    # the width-1 hat forged in for (a,3,2,2): its 3 classical highest nodes
    # are not the 6 weight-fixed heads of the orbit tensor at width 2
    forged = build_hat_crystal(A3, 2, 1)
    monkeypatch.setattr(branching, "build_hat_crystal", lambda *args: forged)
    with pytest.raises(VerificationError, match="^fixed-weight characterization fails: "
                                                "3 node-fixed vs 6 weight-fixed heads$"):
        multiplicity_free_gate(A3, 2, 2)


def test_gate_reads_its_own_orbit_tensor(monkeypatch):
    # the width-1 columns forged in for (a,3,2,2): the 6 classical highest
    # nodes of the real hat are not the 3 weight-fixed heads at width 1
    forged = orbit_factors(A3, 2, 1)
    monkeypatch.setattr(branching, "orbit_factors", lambda *args: forged)
    with pytest.raises(VerificationError, match="^fixed-weight characterization fails: "
                                                "6 node-fixed vs 3 weight-fixed heads$"):
        multiplicity_free_gate(A3, 2, 2)


def test_verify_branching_stages():
    report = verify_branching(A2, 1, 1)
    assert report.ok, report.to_text()
    assert [n for n, _, _ in report.stages] == [
        "branch:dual-route", "branch:weight-fixed", "branch:expected",
        "branch:cardinality"]
    bgcm = block(A2.hat_gcm, A2.hat_classical_nodes)
    for coeffs, _, dim in branch_hat(A2, 1, 1).components:
        assert _weyl_product(bgcm, coeffs) == dim


def test_verify_branching_without_formula():
    report = verify_branching(D3, 2, 1)
    assert report.ok, report.to_text()
    stage = dict((n, d) for n, _, d in report.stages)
    assert "no closed formula" in stage["branch:expected"]


def test_branching_result_serialization():
    got = branch_hat(A2, 1, 1)
    assert isinstance(got, BranchingResult)
    js = got.to_json()
    assert js["total"] == 6
    assert js["components"][0] == {"weight": [0, 0], "mult": 1, "dim": 1}
    text = got.to_text()
    assert "total 6" in text and "1,0" in text


def test_branch_hat_routes_must_agree(monkeypatch):
    # (c,3,1,1) folds the vector column itself; a color 1 edge into its top
    # node leaves the one folded-highest node with no classically-highest
    # node upstairs
    bundle = build_hat_crystal(C3, 1, 1)
    col = bundle.parent
    f = [list(row) for row in col.f]
    f[1][f[1].index(-1)] = classical_highest_node(C3, col, 1, 1)
    bad = Crystal(col.gcm, col.comarks, col.ids, col.weights, f, col.payloads)
    monkeypatch.setattr(branching, "build_hat_crystal",
                        lambda *args: HatBundle(bad, bundle.crystal, bundle.fixed))
    with pytest.raises(VerificationError) as err:
        branch_hat(C3, 1, 1)
    assert str(err.value) == ("highest weight characterizations disagree: "
                              "1 folded-highest vs 0 fixed classically-highest")

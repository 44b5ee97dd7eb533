"""Graph-level behavior: axioms, tensor rule, Weyl action, decomposition."""

import json

import pytest
from hypothesis import given, strategies as st

from crystalfold.cartan import make_datum, weyl_reflect
from crystalfold.crystal import (
    Crystal, Report, VerificationError, graphs_equal, propagate_map, tensor,
    tensor_many)
from crystalfold.models import kr_crystal
from crystalfold.monomial import highest_weight_crystal

SL2 = ((2,),)
SL3 = ((2, -1), (-1, 2))
SL4 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))

B2_SL2 = highest_weight_crystal(SL2, (1,))
B3_SL2 = highest_weight_crystal(SL2, (2,))
V_SL3 = highest_weight_crystal(SL3, (1, 0))
ADJ_SL3 = highest_weight_crystal(SL3, (1, 1))
V_SL4 = highest_weight_crystal(SL4, (1, 0, 0))
COV_SL4 = highest_weight_crystal(SL4, (0, 0, 1))

POOL = [B2_SL2, B3_SL2, V_SL3, ADJ_SL3, V_SL4]


def crystal_to_dicts(crys):
    nodes = {b: (crys.weights[i], crys.payloads[i]) for i, b in enumerate(crys.ids)}
    f_edges = {}
    for j in range(crys.ncolors):
        f_edges[j] = {crys.ids[src]: crys.ids[dst]
                      for src, dst in enumerate(crys.f[j]) if dst != -1}
    return nodes, f_edges


def test_axioms_pass_on_pool():
    for crys in POOL:
        report = crys.verify_crystal_axioms()
        assert report.ok, report.to_text()


def test_duplicated_target_fails_pairing_with_witness():
    nodes, f_edges = crystal_to_dicts(B3_SL2)
    srcs = sorted(f_edges[0])
    # point a second source at an existing target
    a, b = srcs[0], srcs[1]
    f_edges[0][b] = f_edges[0][a]
    bad = Crystal.from_edges(SL2, (1,), nodes, f_edges)
    report = bad.verify_crystal_axioms()
    name, ok, detail = report.stages[0]
    assert name == "axiom:pairing" and not ok
    assert f_edges[0][a] in detail


def test_deleted_edge_breaks_semiregularity():
    nodes, f_edges = crystal_to_dicts(B3_SL2)
    victim = sorted(f_edges[0])[0]
    del f_edges[0][victim]
    bad = Crystal.from_edges(SL2, (1,), nodes, f_edges)
    report = bad.verify_crystal_axioms()
    assert not report.ok
    failed = [name for name, ok, _ in report.stages if not ok]
    assert "axiom:semiregular" in failed


def test_wrong_weight_breaks_weight_step():
    nodes, f_edges = crystal_to_dicts(V_SL3)
    victim = sorted(nodes)[0]
    wt, payload = nodes[victim]
    nodes[victim] = (tuple(v + 1 for v in wt), payload)
    bad = Crystal.from_edges(SL3, (1, 1), nodes, f_edges)
    assert not bad.verify_crystal_axioms().ok


def test_report_text_marks_failures():
    report = Report()
    report.add("axiom:pairing", True)
    report.add("level", False, "computed level 2, expected 1")
    text = report.to_text()
    assert "pass" in text and "FAIL" in text and "expected 1" in text
    assert report.failures() == [("level", "computed level 2, expected 1")]


# -- tensor product ---------------------------------------------------------

def test_tensor_sl2_clebsch_gordan():
    prod = tensor(B2_SL2, B2_SL2)
    assert len(prod) == 4
    assert prod.verify_crystal_axioms().ok
    comps = prod.components()
    assert sorted(len(c) for c in comps) == [1, 3]
    # the singlet is highest-tensor-lowest under this convention
    singlet = [c for c in comps if len(c) == 1][0][0]
    left, right = prod.ids[singlet].split("*")
    assert B2_SL2.phi(0, B2_SL2.ids.index(left)) == 1
    assert B2_SL2.eps(0, B2_SL2.ids.index(right)) == 1


def test_tensor_string_statistics():
    """eps and phi of a pair obey the max formulas factorwise."""
    for left, right in [(B2_SL2, B3_SL2), (V_SL3, ADJ_SL3), (V_SL4, COV_SL4)]:
        prod = tensor(left, right)
        assert prod.verify_crystal_axioms().ok
        for a, x in enumerate(left.ids):
            for b, y in enumerate(right.ids):
                pair = prod.ids.index(x + "*" + y)
                for j in range(left.ncolors):
                    wa = left.weights[a][j]
                    assert prod.eps(j, pair) == max(
                        left.eps(j, a), right.eps(j, b) - wa)
                    assert prod.phi(j, pair) == max(
                        right.phi(j, b), left.phi(j, a) + right.weights[b][j])


@given(st.data())
def test_tensor_statistics_random_pairs(data):
    left = data.draw(st.sampled_from(POOL))
    right = data.draw(st.sampled_from(POOL))
    if left.gcm != right.gcm:
        return
    prod = tensor(left, right)
    x = data.draw(st.sampled_from(left.ids))
    y = data.draw(st.sampled_from(right.ids))
    j = data.draw(st.integers(min_value=0, max_value=left.ncolors - 1))
    a, b = left.ids.index(x), right.ids.index(y)
    pair = prod.ids.index(x + "*" + y)
    assert prod.eps(j, pair) == max(left.eps(j, a), right.eps(j, b) - left.weights[a][j])
    assert prod.phi(j, pair) == max(right.phi(j, b), left.phi(j, a) + right.weights[b][j])


def test_tensor_associativity_exact_graphs():
    for parts in [(B2_SL2, B3_SL2, B2_SL2), (V_SL3, V_SL3, V_SL3)]:
        a, b, c = parts
        lhs = tensor(tensor(a, b), c)
        rhs = tensor(a, tensor(b, c))
        assert graphs_equal(lhs, rhs)
        assert lhs.ids == rhs.ids


def test_tensor_many_folds_left():
    prod = tensor_many([B2_SL2, B2_SL2, B2_SL2])
    assert len(prod) == 8
    assert len(prod.factors) == 3
    assert all(b.count("*") == 2 for b in prod.ids)


def test_tensor_rejects_mixed_data():
    with pytest.raises(ValueError):
        tensor(B2_SL2, V_SL3)


def test_tensor_allows_composite_leaf_ids():
    """Factor boundaries are tracked by count, not by parsing the ids."""
    nodes = {"x*y": ((0,), None)}
    leaf = Crystal.from_edges(SL2, (1,), nodes, {})
    prod = tensor(leaf, leaf)
    assert prod.ids == ("x*y*x*y",)
    assert len(prod.factors) == 2


def reference_tensor(left, right):
    """The string-keyed construction: ids a*b and the signature rule per id."""
    nodes = {}
    f_edges = {j: {} for j in range(left.ncolors)}
    for a, x in enumerate(left.ids):
        for b, y in enumerate(right.ids):
            wt = tuple(p + q for p, q in zip(left.weights[a], right.weights[b]))
            nodes[x + "*" + y] = (wt, None)
            for j in range(left.ncolors):
                if left.phi(j, a) > right.eps(j, b):
                    ta, tb = left.f[j][a], b
                else:
                    ta, tb = a, right.f[j][b]
                if ta != -1 and tb != -1:
                    f_edges[j][x + "*" + y] = left.ids[ta] + "*" + right.ids[tb]
    return Crystal.from_edges(left.gcm, left.comarks, nodes, f_edges)


def assert_same_graph(prod, ref):
    assert prod.ids == ref.ids
    assert prod.weights == ref.weights
    for j in range(ref.ncolors):
        assert prod.f[j] == ref.f[j]
        assert prod.e[j] == ref.e[j]


def test_index_tensor_matches_reference_cyclic_columns():
    a2 = make_datum("a", 2)
    left, right = kr_crystal(a2, 1, 1), kr_crystal(a2, 3, 1)
    prod = tensor(left, right)
    assert isinstance(prod.node_at, range)
    assert_same_graph(prod, reference_tensor(left, right))
    for k in range(len(prod)):
        a, b = prod.left_of[k], prod.right_of[k]
        assert prod.ids[k] == left.ids[a] + "*" + right.ids[b]
        assert prod.at(a, b) == k


def test_index_tensor_matches_reference_center_columns():
    d3 = make_datum("d", 3)
    left, right = kr_crystal(d3, 1, 2), kr_crystal(d3, 1, 1)
    prod = tensor(left, right)
    assert_same_graph(prod, reference_tensor(left, right))
    for k in range(len(prod)):
        assert prod.at(prod.left_of[k], prod.right_of[k]) == k


def test_index_tensor_sorts_when_pair_order_is_not_id_order():
    # "x y" extends "x" by a blank, which sorts below "*"
    leaf = Crystal.from_edges(SL2, (1,), {"x": ((1,), None), "x y": ((-1,), None)},
                              {0: {"x": "x y"}})
    prod = tensor(leaf, leaf)
    assert prod.ids == ("x y*x", "x y*x y", "x*x", "x*x y")
    assert not isinstance(prod.node_at, range)
    assert_same_graph(prod, reference_tensor(leaf, leaf))
    for k in range(len(prod)):
        assert prod.at(prod.left_of[k], prod.right_of[k]) == k


def test_index_tensor_rejects_colliding_ids():
    left = Crystal.from_edges(SL2, (1,), {"x": ((0,), None), "x*y": ((0,), None)}, {})
    right = Crystal.from_edges(SL2, (1,), {"y*z": ((0,), None), "z": ((0,), None)}, {})
    with pytest.raises(ValueError, match="collide"):
        tensor(left, right)


def test_index_tensor_many_matches_reference():
    parts = [V_SL3, ADJ_SL3, V_SL3]
    prod = tensor_many(parts)
    assert_same_graph(prod, reference_tensor(reference_tensor(V_SL3, ADJ_SL3), V_SL3))
    columns = prod.leaf_columns()
    assert prod.locate(columns) == list(range(len(prod)))
    for k, b in enumerate(prod.ids):
        assert b == "*".join(c.ids[col[k]] for c, col in zip(parts, columns))


def test_littlewood_richardson_fixture():
    """Standard times dual standard splits into a trivial and an adjoint part."""
    prod = tensor(V_SL4, COV_SL4)
    decomp = prod.highest_weight_decomposition(range(3))
    weights = sorted(wt for _, wt, _ in decomp)
    assert weights == [(0, 0, 0), (1, 0, 1)]
    sizes = sorted(len(comp) for _, _, comp in decomp)
    assert sizes == [1, 15]


def test_cyclic_string_is_rejected_by_both_walks():
    loop = Crystal.from_edges(SL2, (1,), {"a": ((0,), None), "b": ((0,), None)},
                              {0: {"a": "b", "b": "a"}})
    with pytest.raises(VerificationError, match="cyclic string through a"):
        loop.own_strings(0)
    with pytest.raises(VerificationError, match="cyclic string"):
        loop.eps(0, 0)


def test_ids_must_ascend():
    with pytest.raises(ValueError, match="out of order at a"):
        Crystal(SL2, (1,), ("b", "a"), ((0,), (0,)), [[-1, -1]], (None, None))


def test_decomposition_requires_unique_highest():
    nodes = {"a": ((0, 0), None), "b": ((0, 0), None), "c": ((0, 0), None)}
    f_edges = {0: {"a": "b"}, 1: {"c": "b"}}
    weird = Crystal.from_edges(SL3, (1, 1), nodes, f_edges)
    with pytest.raises(VerificationError, match="highest"):
        weird.highest_weight_decomposition((0, 1))


# -- Weyl action and extremal nodes -----------------------------------------

def test_weyl_involution_and_weight_law():
    for crys in POOL:
        for b in range(len(crys)):
            for j in range(crys.ncolors):
                image = crys.weyl_s(j, b)
                assert crys.weyl_s(j, image) == b
                assert crys.weights[image] == weyl_reflect(crys.gcm, j, crys.weights[b])


@given(st.data())
def test_weyl_word_reversal(data):
    crys = data.draw(st.sampled_from(POOL))
    b = crys.ids.index(data.draw(st.sampled_from(crys.ids)))
    word = data.draw(st.lists(
        st.integers(min_value=0, max_value=crys.ncolors - 1), max_size=6))
    there = crys.weyl_word(word, b)
    assert crys.weyl_word(tuple(reversed(word)), there) == b


def test_extremal_chain():
    ext = B3_SL2.extremal_elements()
    assert len(ext) == 2
    assert sorted(B3_SL2.weights[b] for b in ext) == [(-2,), (2,)]


def test_extremal_adjoint_excludes_zero_weights():
    ext = ADJ_SL3.extremal_elements()
    assert len(ext) == 6
    assert all(ADJ_SL3.weights[b] != (0, 0) for b in ext)


def test_extremal_standard_is_everything():
    assert set(V_SL3.extremal_elements()) == set(range(len(V_SL3)))


# -- serialization ----------------------------------------------------------

def test_json_shape_and_determinism():
    doc = V_SL3.to_json(datum_ref="demo")
    again = V_SL3.to_json(datum_ref="demo")
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert doc["datum_ref"] == "demo"
    assert len(doc["nodes"]) == 3 and len(doc["edges"]) == 2
    assert all(set(rec) == {"src", "dst", "j"} for rec in doc["edges"])


def test_dot_output_labels_colors():
    text = ADJ_SL3.to_dot(name="adj")
    assert text.startswith("digraph")
    assert '[label="0"]' in text and '[label="1"]' in text


def test_graphs_equal_negative():
    assert not graphs_equal(V_SL3, ADJ_SL3)
    assert graphs_equal(V_SL3, V_SL3)


# -- propagation --------------------------------------------------------------

ADJ_TOP = "m:Y0,0^1 Y1,0^1"


def test_propagate_orders_agree():
    a2 = make_datum("a", 2)
    b1, b3 = kr_crystal(a2, 1, 1), kr_crystal(a2, 3, 1)
    forward, backward = tensor(b1, b3), tensor(b3, b1)
    u1 = b1.ids.index("t:1")
    u3 = b3.ids.index("t:1|2|3")
    anchors = {forward.at(u1, u3): backward.at(u3, u1)}
    dfs = propagate_map(forward, backward, anchors, order="dfs")
    bfs = propagate_map(forward, backward, anchors, order="bfs")
    assert dfs == bfs
    assert sorted(dfs) == list(range(len(backward)))
    with pytest.raises(ValueError):
        propagate_map(forward, backward, anchors, order="random")


@pytest.mark.parametrize("order,witness", [
    ("dfs", "string mismatch at m:Y0,0^1 Y1,1^-1 Y1,2^-1 under color 1"),
    ("bfs", "string mismatch at m:Y1,0^1 Y1,2^-1 under color 1"),
])
def test_propagate_corrupted_edge_witness(order, witness):
    nodes, f_edges = crystal_to_dicts(ADJ_SL3)
    del f_edges[1][sorted(f_edges[1])[-1]]
    bad = Crystal.from_edges(SL3, (1, 1), nodes, f_edges)
    top = ADJ_SL3.ids.index(ADJ_TOP)
    with pytest.raises(VerificationError) as exc:
        propagate_map(ADJ_SL3, bad, {top: bad.ids.index(ADJ_TOP)}, order=order)
    assert str(exc.value) == witness


def test_propagate_missed_domain_witness():
    top = ADJ_SL3.ids.index(ADJ_TOP)
    with pytest.raises(VerificationError) as exc:
        propagate_map(ADJ_SL3, ADJ_SL3, {top: top}, colors=(0,))
    assert str(exc.value) == "propagation missed 6 nodes, first m:Y0,0^1 Y0,1^-1"
    subset = [k for k in range(len(ADJ_SL3)) if k != top][:3]
    with pytest.raises(VerificationError) as exc:
        propagate_map(ADJ_SL3, ADJ_SL3, {top: top}, colors=(1,), domain=subset)
    assert str(exc.value) == "propagation missed 2 nodes, first m:Y0,0^1 Y0,1^-1"

"""Graph-level behavior: axioms, tensor rule, Weyl action, decomposition."""

import copy
import gc
import itertools
import json
import re
import tracemalloc
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from crystalfold import crystal, fixedpoint
from crystalfold.cartan import classical_alpha, make_datum
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import (
    Crystal, LazyTensor, Report, Tensor, VerificationError, _recheck_map, propagate_map,
    tensor, tensor_many, weyl_fall)
from crystalfold.fixedpoint import build_hat_crystal, fold_crystal
from crystalfold.intertwine import energy_on_tensor, orbit_factors, orbit_top
from crystalfold.models import classical_highest_node, kr_crystal
from crystalfold.monomial import highest_weight_crystal
from leaves import crystal_from_edges, leaf_columns, tensor_rows_by_pairs, weyl_s

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
    bad = crystal_from_edges(SL2, (1,), nodes, f_edges)
    report = bad.verify_crystal_axioms()
    name, ok, detail = report.stages[0]
    assert name == "axiom:pairing" and not ok
    assert f_edges[0][a] in detail


def test_deleted_edge_breaks_semiregularity():
    nodes, f_edges = crystal_to_dicts(B3_SL2)
    victim = sorted(f_edges[0])[0]
    del f_edges[0][victim]
    bad = crystal_from_edges(SL2, (1,), nodes, f_edges)
    report = bad.verify_crystal_axioms()
    assert not report.ok
    failed = [name for name, ok, _ in report.stages if not ok]
    assert "axiom:semiregular" in failed


def test_wrong_weight_breaks_weight_step():
    nodes, f_edges = crystal_to_dicts(V_SL3)
    victim = sorted(nodes)[0]
    wt, payload = nodes[victim]
    nodes[victim] = (tuple(v + 1 for v in wt), payload)
    bad = crystal_from_edges(SL3, (1, 1), nodes, f_edges)
    assert not bad.verify_crystal_axioms().ok


def test_report_text_marks_failures():
    report = Report()
    report.add("axiom:pairing", True)
    report.add("level", False, "computed level 2, expected 1")
    text = report.to_text()
    assert "pass" in text and "FAIL" in text and "expected 1" in text
    assert not report.ok


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
        assert_same_graph(lhs, rhs)


def test_tensor_many_folds_left():
    prod = tensor_many([B2_SL2, B2_SL2, B2_SL2])
    assert len(prod) == 8
    assert len(leaf_columns(prod)) == 3
    assert all(b.count("*") == 2 for b in prod.ids)


def test_tensor_rejects_mixed_data():
    with pytest.raises(ValueError):
        tensor(B2_SL2, V_SL3)


def test_tensor_allows_composite_leaf_ids():
    """Factor boundaries are tracked by count, not by parsing the ids."""
    nodes = {"x*y": ((0,), None)}
    leaf = crystal_from_edges(SL2, (1,), nodes, {})
    prod = tensor(leaf, leaf)
    assert prod.ids == ("x*y*x*y",)
    assert len(leaf_columns(prod)) == 2


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
    return crystal_from_edges(left.gcm, left.comarks, nodes, f_edges)


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
    assert_same_graph(prod, reference_tensor(left, right))
    for k in range(len(prod)):
        a, b = divmod(k, len(right))
        assert prod.ids[k] == left.ids[a] + "*" + right.ids[b]
        assert prod.at(a, b) == k


def test_index_tensor_matches_reference_center_columns():
    d3 = make_datum("d", 3)
    left, right = kr_crystal(d3, 1, 2), kr_crystal(d3, 1, 1)
    prod = tensor(left, right)
    assert_same_graph(prod, reference_tensor(left, right))
    for k in range(len(prod)):
        assert prod.at(*divmod(k, len(right))) == k


def test_index_tensor_refuses_when_pair_order_is_not_id_order():
    # "x y" extends "x" by a blank, which sorts below "*", so the pair
    # x y*x sorts below x*x y, which comes before it in pair order
    leaf = crystal_from_edges(SL2, (1,), {"x": ((1,), None), "x y": ((-1,), None)},
                              {0: {"x": "x y"}})
    with pytest.raises(ValueError, match="^node ids collide or are out of order at x y\\*x$"):
        tensor(leaf, leaf)


def test_index_tensor_rejects_colliding_ids():
    left = crystal_from_edges(SL2, (1,), {"x": ((0,), None), "x*y": ((0,), None)}, {})
    right = crystal_from_edges(SL2, (1,), {"y*z": ((0,), None), "z": ((0,), None)}, {})
    with pytest.raises(ValueError, match="collide"):
        tensor(left, right)


def test_index_tensor_many_matches_reference():
    parts = [V_SL3, ADJ_SL3, V_SL3]
    prod = tensor_many(parts)
    assert_same_graph(prod, reference_tensor(reference_tensor(V_SL3, ADJ_SL3), V_SL3))
    columns = leaf_columns(prod)
    for k, b in enumerate(prod.ids):
        # the leaf indices locate the node again
        assert prod.at(prod.left.at(columns[0][k], columns[1][k]), columns[2][k]) == k
        assert b == "*".join(c.ids[col[k]] for c, col in zip(parts, columns))


# -- a Tensor stores no per-pair object a reader does not ask for ----------------

def eager_ids(crys):
    if not isinstance(crys, Tensor):
        return list(crys.ids)
    return [x + "*" + y for x in eager_ids(crys.left) for y in crys.right.ids]


def eager_weights(crys):
    if not isinstance(crys, Tensor):
        return list(crys.weights)
    return [tuple(map(add, x, y)) for x in eager_weights(crys.left) for y in crys.right.weights]


def _pair_tensor(c, n, i, s):
    crys = kr_crystal(make_datum(c, n), i, s)
    return tensor(crys, crys)


def _parity_cases():
    """The orbit tensor of every scope instance, or B (x) B where the orbit is one column."""
    cases = []
    for c, n, i, s in SCOPE_INSTANCES + [("c", 4, 1, 3)]:
        if len(make_datum(c, n).orbit(i)) > 1:
            build, kind = lambda c=c, n=n, i=i, s=s: tensor_many(
                orbit_factors(make_datum(c, n), i, s)), "orbit"
        else:
            build, kind = lambda c=c, n=n, i=i, s=s: _pair_tensor(c, n, i, s), "pair"
        cases.append(pytest.param(build, id="%s-%s-%d-%d-%d" % (kind, c, n, i, s)))
    return cases


@pytest.mark.parametrize("build", _parity_cases())
def test_pair_ids_and_shared_weights_match_the_eager_tensor(build):
    prod = build()
    ids = eager_ids(prod)
    assert list(map(prod.id, range(len(prod)))) == ids
    assert "ids" not in vars(prod)
    assert prod.ids == tuple(ids)
    weights = eager_weights(prod)
    assert list(map(prod.weight, range(len(prod)))) == weights
    assert "weights" not in vars(prod)
    assert prod.weights == tuple(weights)
    # pairs of equal weight share one tuple, and the maps one int per node
    assert len(set(map(id, prod.weights))) == len(set(prod.weights))
    assert len({id(k) for row in prod.f + prod.e for k in row if k != -1}) <= len(prod)


def test_readers_of_the_pair_tensor_render_no_ids():
    # (d,3,1,2) is a one-column orbit, so B (x) B is the pair tensor that
    # tensor compatibility folds, from its top pair
    datum = make_datum("d", 3)
    crys = kr_crystal(datum, 1, 2)
    top = orbit_top(datum, crys, 1, 2)
    prod = _pair_tensor("d", 3, 1, 2)
    assert len(prod) == len(crys) ** 2
    energy_on_tensor(prod, prod.at(top, top))
    assert len(fold_crystal(datum, prod, prod.at(top, top))) > 1
    assert "ids" not in vars(prod)
    assert "weights" not in vars(prod)


@pytest.mark.parametrize("datum, i, s", [(make_datum("a", 2), 1, 2), (make_datum("c", 3), 1, 1)])
def test_tensor_compatibility_renders_no_pair_weights(monkeypatch, datum, i, s):
    # the parent pair, of the orbit tensor, and the pair of folded crystals
    built = []

    def recording(left, right):
        built.append(tensor(left, right))
        return built[-1]

    monkeypatch.setattr(fixedpoint, "tensor", recording)
    assert fixedpoint.verify_tensor_compatibility(datum, (i, s), (i, s)).ok
    assert len(built) == 2
    for prod in built:
        assert "weights" not in vars(prod)


@pytest.mark.parametrize("build", _parity_cases())
def test_pick_list_rows_match_the_per_pair_rule(build):
    prod = build()
    assert prod.f == tensor_rows_by_pairs(prod.left, prod.right)


@pytest.mark.parametrize("left, right", [
    pair for pair in itertools.product(POOL, POOL) if pair[0].gcm == pair[1].gcm])
def test_pick_list_rows_match_the_per_pair_rule_on_the_pool(left, right):
    assert tensor(left, right).f == tensor_rows_by_pairs(left, right)


def test_tensor_memory_holds_no_per_pair_objects():
    # over 50 MB held when every pair kept its id and its own weight tuple,
    # and 31 MB when every edge also kept its own int in each map
    crys = kr_crystal(make_datum("d", 3), 1, 2)
    for j in range(crys.ncolors):
        crys.eps(j, 0)
    gc.collect()
    tracemalloc.start()
    try:
        prod = tensor(crys, crys)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(prod) == 108241
    assert held <= 20e6, "tensor(B, B) of (d,3,1,2) holds %.1f MB" % (held / 1e6)


def _eager_order_witness(left, right):
    """The first pair id not above the one before it, or None, and the pair ids."""
    ids = [x + "*" + y for x in left.ids for y in right.ids]
    return next((y for x, y in zip(ids, ids[1:]) if x >= y), None), ids


def _leaf(ids):
    return crystal_from_edges(SL2, (1,), {b: ((0,), None) for b in ids}, {})


def _rendered_pairs(monkeypatch):
    """The pair ids that pair_ids renders from now on, in order."""
    rendered = []
    render = crystal.pair_ids

    def recording(left_ids, right_ids):
        for pair in render(left_ids, right_ids):
            rendered.append(pair)
            yield pair

    monkeypatch.setattr(crystal, "pair_ids", recording)
    return rendered


@pytest.mark.parametrize("right_ids, witness", [
    (("a", "b"), None),  # x*b sorts below x*y*a
    (("y*z", "z"), "x*y*y*z"),  # x*z sorts above x*y*y*z
    (("a", "y*a"), "x*y*a"),  # x*y*a, the last pair of x, is the first pair of x*y
])
def test_pair_order_runs_the_full_check_when_a_left_id_extends_by_star(
        monkeypatch, right_ids, witness):
    left, right = _leaf(("x", "x*y")), _leaf(right_ids)
    assert _eager_order_witness(left, right)[0] == witness
    rendered = _rendered_pairs(monkeypatch)
    if witness is None:
        tensor(left, right)
    else:
        with pytest.raises(ValueError, match="^node ids collide or are out of order at %s$"
                           % re.escape(witness)):
            tensor(left, right)
    # the first block in full, then the next block's ends, stopping at the witness
    assert len(rendered) <= 4 and rendered[-1] == (witness or "x*y*" + right_ids[-1])


@given(st.lists(st.text(alphabet=" *+xy", max_size=3), min_size=1, max_size=4, unique=True),
       st.lists(st.text(alphabet=" *+xy", max_size=3), min_size=1, max_size=4, unique=True))
def test_pair_order_verdict_matches_the_eager_check(left_ids, right_ids):
    left, right = _leaf(left_ids), _leaf(right_ids)
    witness, ids = _eager_order_witness(left, right)
    extends = any(y.startswith(x) and y[len(x)] <= "*"
                  for x, y in zip(left.ids, left.ids[1:]))
    # without such a left id, pair order is id order
    assert extends or witness is None
    if witness is None:
        prod = tensor(left, right)
        assert prod.ids == tuple(ids)
        assert list(map(prod.id, range(len(prod)))) == ids
    else:
        with pytest.raises(ValueError) as info:
            tensor(left, right)
        assert str(info.value) == "node ids collide or are out of order at %s" % witness


def test_pair_order_skips_the_full_check_otherwise(monkeypatch):
    rendered = _rendered_pairs(monkeypatch)
    prod = tensor(_leaf(("x", "x+y", "y")), _leaf(("a", "b", "c")))
    # the pairs inside a block ascend with the right ids, so past the first
    # block only each block's first and last pair is rendered
    assert rendered == ["x*a", "x*b", "x*c", "x+y*a", "x+y*c", "y*a", "y*c"]
    assert "ids" not in vars(prod)


_ANY_IDS = st.lists(st.text(alphabet=" *+xy", max_size=3), max_size=4)


@given(_ANY_IDS, _ANY_IDS)
def test_pair_order_witness_is_the_eager_first_pair_out_of_order(left_ids, right_ids):
    # any id lists, ascending or not, with repeats or empty
    ids = [x + "*" + y for x in left_ids for y in right_ids]
    witness = next((y for x, y in zip(ids, ids[1:]) if x >= y), None)
    assert crystal.pair_order_witness(left_ids, right_ids) == witness
    assert crystal.pair_order_witness(iter(left_ids), tuple(right_ids)) == witness


def test_pairing_a_tensor_leaves_its_ids_unrendered():
    # the 100-node orbit tensor of (a,2,1,2) is decided from its factors' ids
    orbit = tensor_many(orbit_factors(make_datum("a", 2), 1, 2))
    assert len(orbit) == 100
    pair = tensor(orbit, orbit)
    assert "ids" not in vars(orbit)
    assert list(map(pair.id, range(len(pair)))) == eager_ids(pair)


_ID_LISTS = st.lists(st.text(alphabet=" *+xy", max_size=2), min_size=1, max_size=3, unique=True)


@given(_ID_LISTS, _ID_LISTS, _ID_LISTS)
def test_pair_order_after_a_tensor_left_factor_matches_the_eager_check(a_ids, b_ids, right_ids):
    try:
        left = tensor(_leaf(a_ids), _leaf(b_ids))
    except ValueError:
        return
    right = _leaf(right_ids)
    ids = [x + "*" + y for x in eager_ids(left) for y in right.ids]
    witness = next((y for x, y in zip(ids, ids[1:]) if x >= y), None)
    if witness is None:
        prod = tensor(left, right)
        assert list(map(prod.id, range(len(prod)))) == ids
    else:
        with pytest.raises(ValueError) as info:
            tensor(left, right)
        assert str(info.value) == "node ids collide or are out of order at %s" % witness


def test_littlewood_richardson_fixture():
    """Standard times dual standard splits into a trivial and an adjoint part."""
    prod = tensor(V_SL4, COV_SL4)
    decomp = prod.highest_weight_decomposition(range(3))
    weights = sorted(wt for _, wt, _ in decomp)
    assert weights == [(0, 0, 0), (1, 0, 1)]
    sizes = sorted(len(comp) for _, _, comp in decomp)
    assert sizes == [1, 15]


def test_images_read_a_copy_with_a_mutated_map():
    # images derives nothing it keeps: after the column has served a whole
    # fold, a copy of it with one lowering and one raising entry killed is
    # read as mutated, and the column itself is read as before
    datum = make_datum("c", 3)
    (col,) = orbit_factors(datum, 1, 1)
    nodes = list(range(len(col))) + [-1]
    fold_crystal(datum, col, classical_highest_node(datum, col, 1, 1))
    before = {lowering: col.images((1,), nodes, lowering) for lowering in (True, False)}
    bad = copy.copy(col)
    bad.f, bad.e = [list(row) for row in col.f], [list(row) for row in col.e]
    x = next(k for k in range(len(col)) if col.f[1][k] != -1)
    y = next(k for k in range(len(col)) if col.e[1][k] != -1)
    bad.f[1][x] = bad.e[1][y] = -1
    for lowering, z in ((True, x), (False, y)):
        want = list(before[lowering])
        want[z] = -1
        assert bad.images((1,), nodes, lowering) == want != before[lowering]
        assert col.images((1,), nodes, lowering) == before[lowering]


def test_cyclic_string_is_rejected_by_the_string_walk():
    loop = crystal_from_edges(SL2, (1,), {"a": ((0,), None), "b": ((0,), None)},
                              {0: {"a": "b", "b": "a"}})
    message = "^color 0 has a cyclic string through a$"
    with pytest.raises(VerificationError, match=message):
        loop.strings(0)
    # both readers of the strings raise from the one walk, strings(0)
    with pytest.raises(VerificationError, match=message):
        loop.strings_at([0])
    with pytest.raises(VerificationError, match=message):
        loop.eps(0, 0)


def test_ids_must_ascend():
    with pytest.raises(ValueError, match="out of order at a"):
        Crystal(SL2, (1,), ("b", "a"), ((0,), (0,)), [[-1, -1]], (None, None))


def reference_decomposition(crys, colors):
    """Components by union-find over the lowering edges, then each searched
    for its one highest node; the oracle of highest_weight_decomposition."""
    colors = tuple(colors)
    root = list(range(len(crys)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for j in colors:
        for src, dst in enumerate(crys.f[j]):
            if dst != -1:
                root[find(src)] = find(dst)
    comps = {}
    for k in range(len(crys)):
        comps.setdefault(find(k), []).append(k)
    out = []
    for comp in sorted(comps.values()):
        highs = [k for k in comp if all(crys.e[j][k] == -1 for j in colors)]
        if len(highs) != 1:
            raise VerificationError("component of %s has %d highest nodes under colors %r"
                                    % (crys.ids[comp[0]], len(highs), colors))
        out.append((highs[0], crys.weights[highs[0]], tuple(comp)))
    return sorted(out)


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES + [("c", 6, 1, 5)])
def test_decomposition_matches_the_component_reference(case, n, i, s, monkeypatch):
    hat = build_hat_crystal(make_datum(case, n), i, s).crystal

    def unused(self, colors):
        raise AssertionError("the lowering walk fell back to labeling components")

    # on a regular crystal the walk from the highest nodes decides alone
    monkeypatch.setattr(Crystal, "_decomposition_by_components", unused)
    for size in range(1, min(3, hat.ncolors)):  # proper subsets of size <= 2
        for sub in itertools.combinations(range(hat.ncolors), size):
            assert hat.highest_weight_decomposition(sub) == reference_decomposition(hat, sub)


def _decomposition_failure(crys, colors):
    with pytest.raises(VerificationError) as got:
        crys.highest_weight_decomposition(colors)
    with pytest.raises(VerificationError) as want:
        reference_decomposition(crys, colors)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_decomposition_requires_unique_highest():
    nodes = {"a": ((0, 0), None), "b": ((0, 0), None), "c": ((0, 0), None)}
    f_edges = {0: {"a": "b"}, 1: {"c": "b"}}
    weird = crystal_from_edges(SL3, (1, 1), nodes, f_edges)
    assert (_decomposition_failure(weird, (0, 1))
            == "component of a has 2 highest nodes under colors (0, 1)")


def test_decomposition_without_a_highest_node():
    # f_0 a = b and f_1 b = a: each node is raised by the other
    loop = crystal_from_edges(SL3, (1, 1), {"a": ((0, 0), None), "b": ((0, 0), None)},
                              {0: {"a": "b"}, 1: {"b": "a"}})
    assert (_decomposition_failure(loop, (0, 1))
            == "component of a has 0 highest nodes under colors (0, 1)")
    assert loop.highest_weight_decomposition((0,)) == reference_decomposition(loop, (0,))


def test_decomposition_of_a_cyclic_component():
    # h lowers into z, which the color 0 cycle y <-> w also reaches under
    # color 1: one highest node, though the cycle is not below it
    nodes = {b: ((0, 0), None) for b in "hwyz"}
    cyclic = crystal_from_edges(SL3, (1, 1), nodes,
                                {0: {"h": "z", "y": "w", "w": "y"}, 1: {"y": "z"}})
    got = cyclic.highest_weight_decomposition((0, 1))
    assert got == reference_decomposition(cyclic, (0, 1)) == [(0, (0, 0), (0, 1, 2, 3))]
    assert (_decomposition_failure(cyclic, (0,))
            == "component of w has 0 highest nodes under colors (0,)")


# -- Weyl action and extremal nodes -----------------------------------------

def test_weyl_involution_and_weight_law():
    for crys in POOL:
        for b in range(len(crys)):
            for j in range(crys.ncolors):
                image = weyl_s(crys, j, b)
                assert weyl_s(crys, j, image) == b
                # the simple reflection: wt - wt[j] * alpha_j
                wt = crys.weights[b]
                assert crys.weights[image] == tuple(
                    v - wt[j] * a for v, a in zip(wt, classical_alpha(crys.gcm, j)))


def weyl_word(crys, word, b):
    """Apply simple Weyl operators along the word, first letter first."""
    for j in word:
        b = weyl_s(crys, j, b)
    return b


@given(st.data())
def test_weyl_word_reversal(data):
    crys = data.draw(st.sampled_from(POOL))
    b = crys.ids.index(data.draw(st.sampled_from(crys.ids)))
    word = data.draw(st.lists(
        st.integers(min_value=0, max_value=crys.ncolors - 1), max_size=6))
    there = weyl_word(crys, word, b)
    assert weyl_word(crys, tuple(reversed(word)), there) == b


@st.composite
def string_crystals(draw, gcm):
    """Up to five nodes, each color a random set of disjoint strings, and
    random weights that need not agree with them, so a Weyl step may fall
    off."""
    n = draw(st.integers(1, 5))
    f = []
    for _ in gcm:
        order = draw(st.permutations(range(n)))
        row = [-1] * n
        for a, b, joined in zip(order, order[1:], draw(st.lists(st.booleans(), min_size=n))):
            if joined:
                row[a] = b
        f.append(row)
    weights = tuple(draw(st.lists(st.tuples(*[st.integers(-3, 3)] * len(gcm)),
                                  min_size=n, max_size=n)))
    return Crystal(gcm, (1,) * len(gcm), tuple(map(str, range(n))), weights, f, (None,) * n)


def weyl_or_fall(crys, j, node):
    """weyl_s, with -1 where it raises weyl_fall."""
    try:
        return weyl_s(crys, j, node)
    except VerificationError as exc:
        assert str(exc) == str(weyl_fall(j))
        return -1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([SL2, SL3]).flatmap(
    lambda gcm: st.lists(string_crystals(gcm), min_size=1, max_size=3)))
@example([Crystal(SL2, (1,), ("0",), ((2,),), [[-1]], (None,))])
def test_weyl_images_equal_the_node_steps_where_steps_fall_off(factors):
    # every color and node of each crystal, and of their LazyTensor
    for crys in factors:
        nodes = range(len(crys))
        for j in range(crys.ncolors):
            assert crys.weyl_images(j, nodes) == [weyl_or_fall(crys, j, k) for k in nodes]
    lazy = LazyTensor(factors)
    nodes = list(itertools.product(*(range(len(fac)) for fac in factors)))
    for j in range(lazy.ncolors):
        assert lazy.weyl_images(j, nodes) == [weyl_or_fall(lazy, j, node) for node in nodes]


def test_extremal_chain():
    (ext,) = B3_SL2.extremal_orbits()
    assert len(ext) == 2
    assert sorted(B3_SL2.weights[b] for b in ext) == [(-2,), (2,)]


def test_extremal_adjoint_excludes_zero_weights():
    (ext,) = ADJ_SL3.extremal_orbits()
    assert len(ext) == 6
    assert all(ADJ_SL3.weights[b] != (0, 0) for b in ext)


def test_extremal_standard_is_everything():
    (ext,) = V_SL3.extremal_orbits()
    assert sorted(ext) == list(range(len(V_SL3)))


def test_two_extremal_orbits_fail_simple_s2():
    # two sl2 strings of length 2: each is one extremal orbit
    nodes = {b: ((1 if b in "ac" else -1,), None) for b in "abcd"}
    two = crystal_from_edges(SL2, (1,), nodes, {0: {"a": "b", "c": "d"}})
    assert two.extremal_orbits() == [[0, 1], [2, 3]]
    assert two.is_simple().stages[1] == (
        "simple:S2", False, "extremal set is 4 nodes but one orbit has 2")
    assert checks_by_arrays(two, 1) == checks_by_loops(fresh(two), 1)


# -- whole-array checks against the per-node loops ---------------------------

def axioms_by_loops(crys):
    """verify_crystal_axioms as per-node loops, the oracle of the whole-array check."""
    report = Report()

    def pairing():
        for j in range(crys.ncolors):
            seen = {}
            for src, dst in enumerate(crys.f[j]):
                if dst == -1:
                    continue
                if dst in seen:
                    raise VerificationError(
                        "color %d: nodes %s and %s share f-target %s"
                        % (j, crys.ids[seen[dst]], crys.ids[src], crys.ids[dst]))
                seen[dst] = src
            for src, dst in enumerate(crys.f[j]):
                if dst != -1 and crys.e[j][dst] != src:
                    raise VerificationError(
                        "color %d: raising map does not invert %s" % (j, crys.ids[src]))

    def weight_step():
        for j in range(crys.ncolors):
            alpha = classical_alpha(crys.gcm, j)
            for src, dst in enumerate(crys.f[j]):
                if dst == -1:
                    continue
                expect = tuple(w - a for w, a in zip(crys.weights[src], alpha))
                if crys.weights[dst] != expect:
                    raise VerificationError(
                        "color %d: weight step fails at %s" % (j, crys.ids[src]))

    def semiregular():
        for j in range(crys.ncolors):
            for i in range(len(crys.ids)):
                if crys.phi(j, i) - crys.eps(j, i) != crys.weights[i][j]:
                    raise VerificationError(
                        "color %d: phi - eps != weight at %s" % (j, crys.ids[i]))

    report.run("axiom:pairing", pairing)
    report.run("axiom:weight-step", weight_step)
    report.run("axiom:semiregular", semiregular)
    return report


def level_by_loops(crys):
    """level_and_minimal as a per-node sum, the oracle of the whole-array sum."""
    levels = [sum(c * crys.eps(j, i) for j, c in enumerate(crys.comarks))
              for i in range(len(crys.ids))]
    lev = min(levels)
    return lev, tuple(i for i, v in enumerate(levels) if v == lev)


def extremal_by_loops(crys):
    """extremal_orbits with its "eps_j = 0 or phi_j = 0 for every j" mask
    read node by node and color by color, the oracle of the mask on whole
    strings(j) columns."""
    n = len(crys)
    ok_here = [all(crys.eps(j, i) == 0 or crys.phi(j, i) == 0 for j in range(crys.ncolors))
               for i in range(n)]
    table = [crys.weyl_images(j, range(n)) for j in range(crys.ncolors)]
    seen, orbits = set(), []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for cur in orbit:
            for j, row in enumerate(table):
                t = row[cur]
                if t == -1:
                    raise weyl_fall(j)
                if t not in seen:
                    seen.add(t)
                    orbit.append(t)
        if all(ok_here[i] for i in orbit):
            orbits.append(orbit)
    return orbits


def simple_and_perfect_by_loops(crys, s):
    """is_simple and is_perfect of crys, which this rewires to the per-node
    level sum and extremal mask, as (stages or the raised message) for each."""
    crys.level_and_minimal = lambda: level_by_loops(crys)
    crys.extremal_orbits = lambda: extremal_by_loops(crys)
    return outcome(crys.is_simple), outcome(lambda: crys.is_perfect(s))


def outcome(check):
    try:
        return check().stages
    except VerificationError as exc:
        return "raised: %s" % exc


def checks_by_arrays(crys, s):
    return (outcome(crys.verify_crystal_axioms), outcome(crys.is_simple),
            outcome(lambda: crys.is_perfect(s)))


def checks_by_loops(crys, s):
    """checks_by_arrays on the per-node loops; crys must be a fresh copy."""
    return (outcome(lambda: axioms_by_loops(crys)),) + simple_and_perfect_by_loops(crys, s)


def fresh(crys, f=None, weights=None):
    """A copy of crys with no cached strings, optionally with other f or weights."""
    return Crystal(crys.gcm, crys.comarks, crys.ids,
                   crys.weights if weights is None else tuple(weights),
                   [list(row) for row in (crys.f if f is None else f)], crys.payloads)


# (crystal, width for is_perfect): the pool at level 1, and a scope hat
CHECKED = [(crys, 1) for crys in POOL] + [
    (build_hat_crystal(make_datum("b", 2), 2, 2).crystal, 2)]


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES)
def test_whole_array_checks_match_the_loops_on_scope(case, n, i, s):
    datum = make_datum(case, n)
    for crys in (build_hat_crystal(datum, i, s).crystal, kr_crystal(datum, i, s)):
        crys = fresh(crys)
        assert checks_by_arrays(crys, s) == checks_by_loops(fresh(crys), s)
        assert crys.level_and_minimal() == level_by_loops(crys)


def corrupted(crys, kind, j, k, value):
    """crys with one corruption at color j and node k, as (f, weights):
    f_j k set to value ("edge"), weight coordinate j of k moved by value
    ("weight"), or k's color j string closed into a cycle ("cycle")."""
    f = [list(row) for row in crys.f]
    weights = list(crys.weights)
    if kind == "edge":
        f[j][k] = value
    elif kind == "weight":
        weights[k] = tuple(v + value if c == j else v for c, v in enumerate(weights[k]))
    else:
        # its tail lowers to its head
        head = tail = k
        while crys.e[j][head] != -1:
            head = crys.e[j][head]
        while crys.f[j][tail] != -1:
            tail = crys.f[j][tail]
        f[j][tail] = head
    return f, weights


@given(st.data())
def test_whole_array_checks_match_the_loops_on_corruptions(data):
    crys, s = data.draw(st.sampled_from(CHECKED))
    n = len(crys)
    kind = data.draw(st.sampled_from(["edge", "weight", "cycle"]))
    j = data.draw(st.integers(0, crys.ncolors - 1))
    k = data.draw(st.integers(0, n - 1))
    value = (data.draw(st.integers(-1, n - 1)) if kind == "edge"
             else data.draw(st.sampled_from([-2, -1, 1, 2])))
    f, weights = corrupted(crys, kind, j, k, value)
    assert (checks_by_arrays(fresh(crys, f, weights), s)
            == checks_by_loops(fresh(crys, f, weights), s))


def test_perfect_stages_enumerate_the_dominant_weights_once(monkeypatch):
    # inside the first bijection stage, so that its time is the stage's
    crys, s = CHECKED[-1]
    running, calls = [], []
    run, enumerate_dominant = Report.run, crystal.enumerate_dominant

    def timed_run(report, name, fn):
        running.append(name)
        try:
            return run(report, name, fn)
        finally:
            running.pop()

    def counted(comarks, lev):
        calls.append(tuple(running))
        return enumerate_dominant(comarks, lev)

    monkeypatch.setattr(Report, "run", timed_run)
    monkeypatch.setattr(crystal, "enumerate_dominant", counted)
    stages = fresh(crys).is_perfect(s).stages
    assert [name for name, ok, _ in stages if ok] == [
        "level", "perfect:eps-bijection", "perfect:phi-bijection"]
    assert calls == [("perfect:eps-bijection",)]


@pytest.mark.parametrize("j", [0, 1])
def test_a_cyclic_string_names_its_color_and_node_in_simple_s2(j):
    # the scope hat of CHECKED, with the color j string through node 0
    # closed; S1 reads no string, so S2 is the first stage to walk one
    crys, _ = CHECKED[-1]
    f, weights = corrupted(crys, "cycle", j, 0, None)
    got = fresh(crys, f, weights).is_simple().stages
    want = simple_and_perfect_by_loops(fresh(crys, f, weights), 2)[0]
    assert got == want
    assert got[1][:2] == ("simple:S2", False)
    assert re.fullmatch("color %d has a cyclic string through .+" % j, got[1][2])


@pytest.mark.parametrize("kind", ["edge", "weight", "cycle"])
@pytest.mark.parametrize("at", ["first", "last"])
def test_axiom_witnesses_match_the_loops_at_the_ends(kind, at):
    # every checked crystal, corrupted at its first or last color and node;
    # an edge goes to the node at the other end, or away if it already does
    for crys, _ in CHECKED:
        n = len(crys)
        j, k = (0, 0) if at == "first" else (crys.ncolors - 1, n - 1)
        value = 1 if kind != "edge" else (-1 if crys.f[j][k] == n - 1 - k else n - 1 - k)
        f, weights = corrupted(crys, kind, j, k, value)
        got = fresh(crys, f, weights).verify_crystal_axioms().stages
        assert got == axioms_by_loops(fresh(crys, f, weights)).stages


def test_weight_step_names_the_smaller_source_over_the_columns():
    # color 0 over sl3 steps by alpha_0 = (2, -1): a -> b is wrong in
    # coordinate 1 only, c -> d in coordinate 0 only
    crys = crystal_from_edges(SL3, (1, 1), {
        "a": ((1, 0), None), "b": ((-1, 0), None),
        "c": ((2, 0), None), "d": ((1, 1), None)}, {0: {"a": "b", "c": "d"}})
    stages = crys.verify_crystal_axioms().stages
    assert stages == axioms_by_loops(fresh(crys)).stages
    assert stages[1] == ("axiom:weight-step", False, "color 0: weight step fails at a")


def test_pairing_names_the_first_failing_color():
    # both colors send two sources to d; color 1's pair is the smaller
    nodes = {b: ((0, 0), None) for b in "abcd"}
    crys = crystal_from_edges(SL3, (1, 1), nodes,
                              {0: {"b": "d", "c": "d"}, 1: {"a": "d", "b": "d"}})
    stages = crys.verify_crystal_axioms().stages
    assert stages == axioms_by_loops(fresh(crys)).stages
    assert stages[0] == ("axiom:pairing", False, "color 0: nodes b and c share f-target d")


def test_checks_where_weights_disagree_with_strings():
    # the top of the sl2 3-string claims weight 0, so s_0 fixes it and
    # sends the bottom two steps up to it; its string says 2
    top = B3_SL2.weights.index((2,))
    bottom = B3_SL2.weights.index((-2,))
    weights = [(0,) if k == top else wt for k, wt in enumerate(B3_SL2.weights)]
    bad = fresh(B3_SL2, weights=weights)
    assert sorted(itertools.chain(*bad.extremal_orbits())) == sorted((top, bottom))
    assert checks_by_arrays(bad, 2) == checks_by_loops(fresh(bad), 2)
    # and a weight whose Weyl step falls off the graph fails S2 with that message
    middle = B3_SL2.weights.index((0,))
    weights = [(2,) if k == middle else wt for k, wt in enumerate(B3_SL2.weights)]
    bad = fresh(B3_SL2, weights=weights)
    assert checks_by_arrays(bad, 2) == checks_by_loops(fresh(bad), 2)
    assert checks_by_arrays(bad, 2)[1][1] == (
        "simple:S2", False, "Weyl step fell off the graph (color 0)")


def test_weight_step_fails_where_every_string_matches_its_weight():
    # f_0 a = b over sl3 and no color 1 edge: each string agrees with the
    # weights, yet the step leaves coordinate 1 at 0 where alpha_0 gives +1
    crys = crystal_from_edges(SL3, (1, 1), {"a": ((1, 0), None), "b": ((-1, 0), None)},
                              {0: {"a": "b"}})
    stages = crys.verify_crystal_axioms().stages
    assert stages == axioms_by_loops(fresh(crys)).stages
    assert stages[1] == ("axiom:weight-step", False, "color 0: weight step fails at a")
    assert stages[2] == ("axiom:semiregular", True, "")


def twin_mutant(crys, j, stage):
    """Color j of crys, an axiom-checked crystal, broken so that the given
    stage is the first to fail: a second source sent to the target of the
    first edge ("pairing"), that edge sent up to the head of its own string
    instead ("weight-step"), or that edge deleted ("semiregular")."""
    row = list(crys.f[j])
    x = next(k for k, y in enumerate(row) if y != -1)
    if stage == "pairing":
        row[next(k for k in range(len(row)) if k != x)] = row[x]
    elif stage == "weight-step":
        head = x
        while crys.e[j][head] != -1:
            head = crys.e[j][head]
        row[x] = head
    else:
        row[x] = -1
    return row


@pytest.mark.parametrize("stage", ["pairing", "weight-step", "semiregular"])
def test_a_twin_rechecks_the_color_it_replaces(stage):
    # the checked crystal's records hold a pass of every stage for every
    # color; its twin keeps them for the other colors only, so it checks
    # the mutant color and fails with the text of a crystal sharing nothing
    for crys, _ in CHECKED:
        crys = fresh(crys)
        assert crys.verify_crystal_axioms().ok
        for j in range(crys.ncolors):
            if crys.f[j].count(-1) == len(crys):
                continue
            row = twin_mutant(crys, j, stage)
            got = crys.with_color(j, row).verify_crystal_axioms().stages
            want = fresh(crys, f=crys.f[:j] + [row] + crys.f[j + 1:]).verify_crystal_axioms().stages
            assert got == want
            assert [name for name, ok, _ in got if not ok][0] == "axiom:" + stage
            assert got[[name for name, _, _ in got].index("axiom:" + stage)][2].startswith(
                "color %d: " % j)
        assert crys.verify_crystal_axioms().ok


@given(st.data())
def test_connectivity_from_shared_labels_matches_a_fresh_labelling(data):
    # a labelling kept under some colors, then color j replaced by a row
    # that deletes edges (which may split), adds edges (which may merge),
    # or is drawn at random, injective as the pairing axiom requires or
    # not: the twin joins the labelling it still shares, and both agree
    # with union-find over every f edge
    crys, _ = data.draw(st.sampled_from(CHECKED + [(kr_crystal(make_datum("d", 3), 1, 1), 1)]))
    crys = fresh(crys)
    n = len(crys)
    crys.components(data.draw(st.sets(st.integers(0, crys.ncolors - 1))))
    j = data.draw(st.integers(0, crys.ncolors - 1))
    kind = data.draw(st.sampled_from(["split", "merge", "random", "any"]))
    row = list(crys.f[j])
    if kind == "split":
        for k in data.draw(st.sets(st.integers(0, n - 1), max_size=4)):
            row[k] = -1
    elif kind == "merge":
        sources = [k for k in range(n) if row[k] == -1]
        targets = [k for k in range(n) if crys.e[j][k] == -1]
        picks = data.draw(st.permutations(targets))
        for k, t in zip(sources, picks[:data.draw(st.integers(0, 4))]):
            row[k] = t
    elif kind == "random":
        row = data.draw(st.permutations(range(n)))
        for k in data.draw(st.sets(st.integers(0, n - 1))):
            row[k] = -1
    else:
        row = data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    twin = crys.with_color(j, row)
    scratch = fresh(twin)
    assert twin.is_connected() == scratch.is_connected() == (len(scratch.components()) <= 1)
    assert scratch.is_connected() == (_pieces_by_union_find(twin) == 1)


def _pieces_by_union_find(crys):
    root = list(range(len(crys)))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for row in crys.f:
        for src, dst in enumerate(row):
            if dst != -1:
                root[find(src)] = find(dst)
    return sum(root[k] == k for k in range(len(crys)))


def test_components_join_the_f_edges_that_the_derived_e_drops():
    # f_0 sends every node of a 3-node sl2 crystal to node 0, and the derived
    # e_0 keeps the last source, 2: node 1 is joined through its own f edge
    crys = Crystal(((2,),), (1,), ("a", "b", "c"), ((0,),) * 3, [[0, 0, 0]], (None,) * 3)
    assert crys.e[0] == [2, -1, -1]
    assert crys.components() == [(0, 1, 2)] and crys.is_connected()
    # two colors, a -> c and b -> c of color 0, c -> d of color 1: connected
    # from scratch, and from a labelling kept under color 1 joined through
    # the edges of color 0
    maps = [[2, 2, -1, -1], [-1, -1, 3, -1]]
    crys = Crystal(((2, 0), (0, 2)), (1, 1), ("a", "b", "c", "d"), ((0, 0),) * 4, maps,
                   (None,) * 4)
    assert crys.components((0,)) == [(0, 1, 2), (3,)]
    assert crys.components() == [(0, 1, 2, 3)]
    crys = Crystal(crys.gcm, crys.comarks, crys.ids, crys.weights, maps, crys.payloads)
    assert crys.components((1,)) == [(0,), (1,), (2, 3)]
    assert crys.is_connected()


def test_connectivity_from_shared_labels_sees_a_split_and_a_merge():
    # the branch-point column of D_4^(3) at width 1 is two classical
    # components, 1 + 28 nodes, joined only by color 0
    crys = fresh(kr_crystal(make_datum("d", 3), 1, 1))
    assert sorted(map(len, crys.components((1, 2, 3, 4)))) == [1, 28]
    split = crys.with_color(0, [-1] * len(crys))
    assert not split.is_connected() and crys.with_color(0, crys.f[0]).is_connected()
    assert list(split._labels) == [frozenset((1, 2, 3, 4))]


def test_a_weight_of_the_wrong_length_is_refused_at_construction():
    # an extra coordinate at the middle node, whose monomial id holds "^"
    middle = B3_SL2.weights.index((0,))
    weights = [(0, 7) if k == middle else wt for k, wt in enumerate(B3_SL2.weights)]
    message = "weight length mismatch at %s" % B3_SL2.ids[middle]
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        fresh(B3_SL2, weights=weights)


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
    bad = crystal_from_edges(SL3, (1, 1), nodes, f_edges)
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


# -- the re-check after propagation, against the per-node loop ----------------

def recheck_oracle(src, dst, out, lowering, weight_map):
    """The per-node re-check loop that propagate_map ran before it went a
    color at a time: nodes in index order, and at each node injectivity,
    then the colors in order, then the weight rule."""
    hit = [-1] * len(dst)
    for x, y in enumerate(out):
        if y == -1:
            continue
        if hit[y] != -1:
            raise VerificationError(
                "map sends %s and %s to %s" % (src.ids[hit[y]], src.ids[x], dst.ids[y]))
        hit[y] = x
        for smap, dmap, j in lowering:
            fx, fy = smap[x], dmap[y]
            if fx == -1 and fy == -1:
                continue
            if fx == -1 or fy == -1 or out[fx] != fy:
                raise VerificationError(
                    "edge re-check failed at %s under color %d" % (src.ids[x], j))
        if weight_map is not None:
            if tuple(weight_map(src.weights[x])) != dst.weights[y]:
                raise VerificationError("weight rule fails at %s" % src.ids[x])


def failure(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except VerificationError as exc:
        return str(exc)
    return None


def lowering_of(src, dst, colors):
    return [(src.f[j], dst.f[j], j) for j in colors]


def with_f(crys, changes):
    """A copy of crys whose f arrays differ at {(color, node): target}."""
    f = [list(row) for row in crys.f]
    for (j, k), t in changes.items():
        f[j][k] = t
    return Crystal(crys.gcm, crys.comarks, crys.ids, crys.weights, f, crys.payloads)


def two_copies(crys):
    """The disjoint union of two copies of crys, ids prefixed a: and b:."""
    nodes, f_edges = crystal_to_dicts(crys)
    both = {p + b: node for p in ("a:", "b:") for b, node in nodes.items()}
    edges = {j: {p + x: p + y for p in ("a:", "b:") for x, y in row.items()}
             for j, row in f_edges.items()}
    return crystal_from_edges(crys.gcm, crys.comarks, both, edges)


ADJ_FORK = next(k for k in range(len(ADJ_SL3))
                if ADJ_SL3.f[0][k] != -1 and ADJ_SL3.f[1][k] != -1)


@pytest.mark.parametrize("order", ["dfs", "bfs"])
def test_propagate_duplicated_image_matches_the_oracle(order):
    src = two_copies(ADJ_SL3)
    top = ADJ_SL3.ids.index(ADJ_TOP)
    anchors = {src.ids.index("a:" + ADJ_TOP): top, src.ids.index("b:" + ADJ_TOP): top}
    out = [k % len(ADJ_SL3) for k in range(len(src))]
    expect = failure(recheck_oracle, src, ADJ_SL3, out, lowering_of(src, ADJ_SL3, (0, 1)), None)
    assert expect == "map sends a:%s and b:%s to %s" % ((ADJ_SL3.ids[0],) * 3)
    assert failure(propagate_map, src, ADJ_SL3, anchors, order=order) == expect


@pytest.mark.parametrize("order", ["dfs", "bfs"])
def test_propagate_bad_weight_matches_the_oracle(order):
    top = ADJ_SL3.ids.index(ADJ_TOP)

    def skewed(wt):
        return (9, 9) if wt == (0, 0) else wt

    out = list(range(len(ADJ_SL3)))
    expect = failure(recheck_oracle, ADJ_SL3, ADJ_SL3, out,
                     lowering_of(ADJ_SL3, ADJ_SL3, (0, 1)), skewed)
    first_zero = ADJ_SL3.weights.index((0, 0))
    assert expect == "weight rule fails at %s" % ADJ_SL3.ids[first_zero]
    assert failure(propagate_map, ADJ_SL3, ADJ_SL3, {top: top},
                   weight_map=skewed, order=order) == expect


@pytest.mark.parametrize("colors", [(0, 1), (1, 0)])
def test_recheck_wrong_edges_at_two_colors_of_one_node(colors):
    # edges that propagation has already matched cannot fail the re-check,
    # so the re-check is driven directly with a map that disagrees with dst
    x = ADJ_FORK
    dst = with_f(ADJ_SL3, {(0, x): ADJ_SL3.f[1][x], (1, x): ADJ_SL3.f[0][x]})
    out = list(range(len(ADJ_SL3)))
    lowering = lowering_of(ADJ_SL3, dst, colors)
    expect = failure(recheck_oracle, ADJ_SL3, dst, out, lowering, None)
    assert expect == "edge re-check failed at %s under color %d" % (ADJ_SL3.ids[x], colors[0])
    assert failure(_recheck_map, ADJ_SL3, dst, out, lowering, None) == expect


@pytest.mark.parametrize("side", ["src", "dst"])
def test_recheck_edge_dead_on_one_side(side):
    x = ADJ_FORK
    cut = with_f(ADJ_SL3, {(1, x): -1})
    src, dst = (cut, ADJ_SL3) if side == "src" else (ADJ_SL3, cut)
    out = list(range(len(ADJ_SL3)))
    lowering = lowering_of(src, dst, (0, 1))
    expect = failure(recheck_oracle, src, dst, out, lowering, None)
    assert expect == "edge re-check failed at %s under color 1" % ADJ_SL3.ids[x]
    assert failure(_recheck_map, src, dst, out, lowering, None) == expect


def test_recheck_partial_map_whose_edge_leaves_the_domain():
    x = ADJ_FORK
    y = ADJ_SL3.f[1][x]
    dst = with_f(ADJ_SL3, {(1, x): -1})
    lowering = lowering_of(ADJ_SL3, dst, (0, 1))
    # x maps, its color 1 target does not, and dst has no color 1 edge there:
    # lhs and rhs would both read -1, yet the edge leaves the mapped set
    out = [k if k in (x, ADJ_SL3.f[0][x]) else -1 for k in range(len(ADJ_SL3))]
    assert out[y] == -1
    expect = failure(recheck_oracle, ADJ_SL3, dst, out, lowering, None)
    assert expect == "edge re-check failed at %s under color 1" % ADJ_SL3.ids[x]
    assert failure(_recheck_map, ADJ_SL3, dst, out, lowering, None) == expect
    # the same partial map against the intact dst fails too, as before
    lowering = lowering_of(ADJ_SL3, ADJ_SL3, (0, 1))
    expect = failure(recheck_oracle, ADJ_SL3, ADJ_SL3, out, lowering, None)
    assert expect is not None
    assert failure(_recheck_map, ADJ_SL3, ADJ_SL3, out, lowering, None) == expect


@given(st.data())
def test_recheck_matches_the_oracle_on_random_corruptions(data):
    crys = data.draw(st.sampled_from([ADJ_SL3, V_SL4, B3_SL2]))
    n = len(crys)
    nodes = st.integers(min_value=-1, max_value=n - 1)
    out = list(range(n))
    for k, t in data.draw(st.dictionaries(st.integers(0, n - 1), nodes, max_size=3)).items():
        out[k] = t
    changes = data.draw(st.dictionaries(
        st.tuples(st.integers(0, crys.ncolors - 1), st.integers(0, n - 1)), nodes, max_size=2))
    dst = with_f(crys, changes)
    colors = data.draw(st.permutations(range(crys.ncolors)))
    lowering = lowering_of(crys, dst, colors)
    weight_map = data.draw(st.sampled_from([None, lambda wt: wt, lambda wt: wt[::-1]]))
    assert (failure(_recheck_map, crys, dst, out, lowering, weight_map)
            == failure(recheck_oracle, crys, dst, out, lowering, weight_map))

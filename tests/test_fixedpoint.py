"""Folded crystals: sizes, the headline verification, string identities."""

import copy
import re
from collections import Counter

import pytest

from click.testing import CliRunner

from crystalfold import branching, cli, fixedpoint
from crystalfold.cartan import ScopeError, kashiwara_word, make_datum, p_omega_star_inverse
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import Crystal, LazyTensor, Tensor, VerificationError
from crystalfold.fixedpoint import (
    build_hat_crystal, check_string_identities, fold_crystal,
    verify_main_theorem, verify_tensor_compatibility)
from crystalfold.intertwine import build_tilde_crystal, orbit_factors
from crystalfold.models import classical_highest_node
from leaves import leaf_node, powered_words_by_nodes

A2 = make_datum("a", 2)
A3 = make_datum("a", 3)
B1 = make_datum("b", 1)
B2 = make_datum("b", 2)
C3 = make_datum("c", 3)
D3 = make_datum("d", 3)


@pytest.mark.parametrize("datum,i,s,size", [
    (A2, 1, 1, 6), (B1, 1, 1, 3), (C3, 1, 1, 6), (C3, 1, 2, 21),
    (C3, 3, 1, 20), (D3, 1, 1, 8), (D3, 1, 2, 35), (A3, 3, 2, 35),
])
def test_folded_sizes(datum, i, s, size):
    assert len(build_hat_crystal(datum, i, s).crystal) == size


def test_folded_slice_structure():
    # the fork-symmetric slice of the vector column kills the last pair
    hat = build_hat_crystal(C3, 1, 2).crystal
    assert all(",0|0," in b.replace("v:", ",", 1) or b.count("*") == 0
               for b in hat.ids)
    for b in hat.ids:
        xs, bars = b[2:].split("|")
        assert xs.split(",")[-1] == "0" and bars.split(",")[-1] == "0"


def test_classical_tower_after_folding():
    hat = build_hat_crystal(A2, 1, 1).crystal
    comps = hat.components(colors=(1, 2))
    assert sorted(len(c) for c in comps) == [1, 5]


def test_main_theorem_smallest_instance():
    report = verify_main_theorem(A2, 1, 1)
    assert report.ok, report.to_text()
    names = [name for name, _, _ in report.stages]
    assert names[:4] == ["axiom:pairing", "axiom:weight-step",
                         "axiom:semiregular", "connected"]
    assert all(n.startswith("regular:") for n in names[4:-6])
    assert names[-6:] == ["simple:S1", "simple:S2", "simple:S3", "level",
                          "perfect:eps-bijection", "perfect:phi-bijection"]


@pytest.mark.parametrize("datum,i,s", [
    (B1, 1, 1), (B1, 1, 2), (C3, 1, 1), (D3, 1, 1), (A3, 3, 2),
])
def test_main_theorem_sample(datum, i, s):
    report = verify_main_theorem(datum, i, s)
    assert report.ok, report.to_text()


def test_main_theorem_full_regularity_flag():
    # rank four, so three-element subsets only appear behind the flag
    shallow = verify_main_theorem(A3, 1, 1)
    deep = verify_main_theorem(A3, 1, 1, full_regularity=True)
    assert deep.ok
    assert len(deep.stages) > len(shallow.stages)


@pytest.mark.parametrize("datum,i,s", [
    (A2, 1, 1), (B1, 1, 1), (B2, 2, 1), (C3, 1, 1), (C3, 3, 1), (D3, 1, 1),
])
def test_string_identities(datum, i, s):
    report = check_string_identities(datum, i, s)
    assert report.ok, report.to_text()


def _with_dead_edge(bundle, factor, kind, j, x):
    """bundle.parent with the color j map kind ("f" or "e") of one factor
    killed at node x; the other map is kept, and so are the factors' strings."""
    parent = bundle.parent
    factors = parent.factors if isinstance(parent, LazyTensor) else [parent]
    bad = copy.copy(factors[factor])
    maps = [list(row) for row in getattr(bad, kind)]
    maps[j][x] = -1
    setattr(bad, kind, maps)
    factors = factors[:factor] + [bad] + factors[factor + 1:]
    return LazyTensor(factors) if isinstance(parent, LazyTensor) else bad


def _powered_words_both_ways(monkeypatch, datum, i, s, mutant):
    """The strings:powered-words detail and the oracle's message, "" for a pass."""
    bundle = build_hat_crystal(datum, i, s)
    with monkeypatch.context() as patch:
        patch.setattr(bundle, "parent", _with_dead_edge(bundle, *mutant))
        stages = check_string_identities(datum, i, s).stages
        try:
            powered_words_by_nodes(datum, bundle)
            want = ""
        except VerificationError as exc:
            want = str(exc)
    return [detail for name, _, detail in stages if name == "strings:powered-words"][0], want


@pytest.mark.parametrize("datum,i,s,mutant,message", [
    (C3, 1, 2, (0, "f", 1, "v:1,0,0,0|1,0,0,0"),
     "lowering power 2 disagrees at v:1,0,0,0|0,1,0,0 color 1"),
    (C3, 1, 2, (0, "e", 2, "v:0,1,1,0|0,0,0,0"),
     "raising power 2 disagrees at v:0,0,2,0|0,0,0,0 color 2"),
    (A2, 1, 1, (1, "f", 2, "t:1|2|4"), "lowering power 2 disagrees at t:2*t:1|2|4 color 2"),
    (A2, 1, 1, (0, "e", 0, "t:1"), "raising power 2 disagrees at t:1*t:1|2|3 color 0"),
])
def test_powered_words_name_the_first_failing_power(monkeypatch, datum, i, s, mutant, message):
    # a parent edge killed after the fold: the batches over the nodes and the
    # loop over single nodes name the same node, color, direction and power
    factor, kind, j, node_id = mutant
    col = orbit_factors(datum, i, s)[factor]
    mutant = (factor, kind, j, col.ids.index(node_id))
    assert _powered_words_both_ways(monkeypatch, datum, i, s, mutant) == (message, message)


@pytest.mark.parametrize("datum,i,s", [(C3, 1, 1), (A2, 1, 1), (B1, 1, 2)])
def test_powered_words_agree_with_the_node_loop_on_every_dead_edge(monkeypatch, datum, i, s):
    failed = 0
    for factor, col in enumerate(orbit_factors(datum, i, s)):
        for kind in ("f", "e"):
            for j, row in enumerate(getattr(col, kind)):
                for x in range(len(col)):
                    if row[x] != -1:
                        got, want = _powered_words_both_ways(
                            monkeypatch, datum, i, s, (factor, kind, j, x))
                        assert got == want
                        failed += got != ""
    assert failed > 0


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES)
def test_own_strings_match_the_crystal_wide_walk(case, n, i, s):
    # strings:eps-orbit reads the fixed nodes' own strings; _walk_color,
    # behind eps_tuple and phi_tuple, is the reference
    parent = build_tilde_crystal(make_datum(case, n), i, s).crystal
    for k in range(len(parent)):
        assert parent.own_strings(k) == (parent.eps_tuple(k), parent.phi_tuple(k))


@pytest.mark.parametrize("datum", [A2, C3])
def test_tensor_compatibility_width_one(datum, monkeypatch):
    build_hat_crystal(datum, 1, 1)
    calls = Counter()
    init, fold = Tensor.__init__, fixedpoint.fold_crystal

    def counting_init(self, left, right):
        calls["tensor"] += 1
        init(self, left, right)

    def counting_fold(*args):
        calls["fold"] += 1
        return fold(*args)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(fixedpoint, "fold_crystal", counting_fold)
    report = verify_tensor_compatibility(datum, (1, 1), (1, 1))
    assert report.ok, report.to_text()
    names = [name for name, _, _ in report.stages]
    assert names == ["iso:size", "iso:edges", "iso:eps", "rhat:fixed",
                     "rhat:anchor", "rhat:edges", "energy:zero-edges"]
    # the orbit tensor (none for the one-column orbit of C3, whose parent
    # is the column itself), the parent pair and the pair of folded
    # crystals; the exchange maps the parent pair to itself, and only the
    # parent pair is folded; no cache but the hat's is read
    assert calls == {"tensor": {A2: 3, C3: 2}[datum], "fold": 1}


@pytest.mark.parametrize("datum,spec1,spec2", [
    (A2, (1, 1), (1, 2)), (A2, (1, 1), (2, 1)), (C3, (1, 1), (1, 2)),
    (B1, (1, 1), (1, 2)),
])
def test_tensor_compatibility_refuses_unequal_factors(datum, spec1, spec2):
    before = build_hat_crystal.cache_info().currsize
    with pytest.raises(ScopeError, match="B \\(x\\) B only"):
        verify_tensor_compatibility(datum, spec1, spec2)
    assert build_hat_crystal.cache_info().currsize == before


def test_walked_pairs_other_than_the_hat_pairs_fail_iso_size(monkeypatch):
    # a hat short of its last node: the pair tensor's walk still reaches all
    # 36 fixed pairs, and the report ends at iso:size, since the later
    # stages read the walked fold by the node numbers of hat (x) hat
    hat = build_hat_crystal(A2, 1, 1)
    crys = hat.crystal
    assert crys.ids[-1] == "t:4*t:2|3|4"
    keep = len(crys) - 1
    f = [[t if t < keep else -1 for t in row[:keep]] for row in crys.f]
    short = Crystal(crys.gcm, crys.comarks, crys.ids[:keep], crys.weights[:keep], f,
                    crys.payloads[:keep])
    monkeypatch.setattr(fixedpoint, "build_hat_crystal", lambda *args: fixedpoint.HatBundle(
        parent=hat.parent, crystal=short, fixed=hat.fixed[:keep]))
    report = verify_tensor_compatibility(A2, (1, 1), (1, 1))
    assert report.stages == [("iso:size", False, "25 vs 36 fixed pairs")]


def test_exchange_off_the_fixed_set_ends_the_report(monkeypatch):
    # swap the exchange images of the first fixed pair past the anchor and
    # the first pair that is not fixed: rhat:fixed names the fixed pair, and
    # the stages after it, which read the fixed pairs' images, do not run
    ids = build_hat_crystal(A2, 1, 1).crystal.ids
    fixed_ids = {a + "*" + b for a in ids for b in ids}
    propagate = fixedpoint.propagate_map

    def swapped(src, dst, anchors):
        out = propagate(src, dst, anchors)
        p = next(k for k, b in enumerate(src.ids) if b in fixed_ids and k not in anchors)
        x = next(k for k, b in enumerate(src.ids) if b not in fixed_ids)
        out[p], out[x] = out[x], out[p]
        return out

    monkeypatch.setattr(fixedpoint, "propagate_map", swapped)
    report = verify_tensor_compatibility(A2, (1, 1), (1, 1))
    assert [name for name, _, _ in report.stages] == [
        "iso:size", "iso:edges", "iso:eps", "rhat:fixed"]
    assert report.stages[-1] == (
        "rhat:fixed", False, "exchange moves t:1*t:1|2|3*t:1*t:2|3|4 off the fixed set")


def test_hat_crystal_requires_an_orbit_representative():
    with pytest.raises(ScopeError, match="use i = 1"):
        build_hat_crystal(A2, 3, 1)
    with pytest.raises(ScopeError, match="not a classical node"):
        build_hat_crystal(A2, 0, 1)
    # the parent side still builds every column
    assert len(build_tilde_crystal(A2, 3, 1).crystal) == 16


# -- the walked fold --------------------------------------------------------

# the scope, and the branch requests of the benchmark beyond it
@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES + [("b", 2, 2, 3), ("c", 6, 1, 5)])
def test_walk_equals_the_eager_fold(case, n, i, s):
    # the oracle: sigma's fixed nodes on the whole orbit tensor, folded here
    # without fold_crystal
    datum = make_datum(case, n)
    tilde = build_tilde_crystal(datum, i, s)
    parent = tilde.crystal
    fixed = [k for k, t in enumerate(tilde.omega_map) if t == k]
    where = {p: h for h, p in enumerate(fixed)}
    where[-1] = -1
    f = [[where[parent.apply_word(kashiwara_word(datum, jh), p)] for p in fixed]
         for jh in range(len(datum.hat_gcm))]
    bundle = build_hat_crystal(datum, i, s)
    hat = bundle.crystal
    assert hat.ids == tuple(parent.ids[p] for p in fixed)
    assert hat.weights == tuple(p_omega_star_inverse(datum, parent.weights[p]) for p in fixed)
    assert hat.f == f
    lazy = isinstance(bundle.parent, LazyTensor)
    assert lazy == (len(datum.orbit(i)) > 1)
    assert [leaf_node(parent, p) if lazy else p for p in bundle.fixed] == fixed


@pytest.fixture
def cold_hats():
    build_hat_crystal.cache_clear()
    yield
    build_hat_crystal.cache_clear()


def verify_exit(case, n, i, s):
    res = CliRunner().invoke(cli.main, ["verify", "--case", case, "--n", str(n),
                                        "--i", str(i), "--s", str(s)])
    assert isinstance(res.exception, SystemExit)
    return res.exit_code, res.output


def test_walk_short_of_the_closed_form_fails(monkeypatch, cold_hats):
    size = branching.expected_size
    monkeypatch.setattr(branching, "expected_size", lambda *args: size(*args) + 1)
    message = "walk reached 6 of 7 nodes of the closed form from t:1*t:1|2|3"
    with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
        build_hat_crystal(A2, 1, 1)
    assert verify_exit("a", 2, 1, 1) == (1, "error: %s\n" % message)


def test_walk_short_of_the_twists_fixed_nodes_fails(monkeypatch, cold_hats):
    # the triality leg (d,3,2,1) has no closed form: its walk is counted
    # against the nodes that the twist of the orbit tensor fixes
    fixed_nodes = fixedpoint._fixed_nodes
    monkeypatch.setattr(fixedpoint, "_fixed_nodes", lambda omega: fixed_nodes(omega) + (-1,))
    message = ("walk reached 29 of 30 nodes that the twist fixes from "
               "v:1,0,0,0|0,0,0,0*p:+++-*p:++++")
    with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
        build_hat_crystal(D3, 2, 1)
    assert verify_exit("d", 3, 2, 1) == (1, "error: %s\n" % message)


def test_walk_catches_a_corrupted_factor_edge(monkeypatch, cold_hats):
    # re-point the color 1 edge t:1 -> t:2 of column 1 at t:3: at the top
    # node f_1 f_3 and f_3 f_1 then part
    col, other = orbit_factors(A2, 1, 1)
    f = [list(row) for row in col.f]
    f[1][col.ids.index("t:1")] = col.ids.index("t:3")
    bad = Crystal(col.gcm, col.comarks, col.ids, col.weights, f, col.payloads)
    top = (classical_highest_node(A2, bad, 1, 1), classical_highest_node(A2, other, 3, 1))
    message = "lowering word for folded color 1 leaves the fixed set at t:1*t:1|2|3"
    with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
        fold_crystal(A2, LazyTensor([bad, other]), top)
    monkeypatch.setattr(fixedpoint, "orbit_factors", lambda *args: [bad, other])
    assert verify_exit("a", 2, 1, 1) == (1, "error: %s\n" % message)


def test_walk_catches_a_corrupted_column_edge(monkeypatch, cold_hats):
    # the one-column orbit (c,3,1,1) is walked on the vector column itself;
    # re-point the color 4 edge 4 -> 3bar at 2bar: at the node 3 the folded
    # color 3 word f_3 f_4 then ends at 2bar, its twin f_4 f_3 at 3bar
    (col,) = orbit_factors(C3, 1, 1)
    f = [list(row) for row in col.f]
    f[4][col.ids.index("v:0,0,0,1|0,0,0,0")] = col.ids.index("v:0,0,0,0|0,1,0,0")
    bad = Crystal(col.gcm, col.comarks, col.ids, col.weights, f, col.payloads)
    message = "lowering word for folded color 3 leaves the fixed set at v:0,0,1,0|0,0,0,0"
    with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
        fold_crystal(C3, bad, classical_highest_node(C3, bad, 1, 1))
    monkeypatch.setattr(fixedpoint, "orbit_factors", lambda *args: [bad])
    assert verify_exit("c", 3, 1, 1) == (1, "error: %s\n" % message)


def test_fold_catches_a_raising_word_that_fails_to_undo(monkeypatch, cold_hats):
    # re-point the color 1 edge 1 -> 2 of the (c,3,1,1) column at 1bar, the
    # target of 2bar: both lowering words agree with their twins, but the
    # raising word from 1bar now leads back to 1, not to 2bar
    (col,) = orbit_factors(C3, 1, 1)
    f = [list(row) for row in col.f]
    f[1][col.ids.index("v:1,0,0,0|0,0,0,0")] = col.ids.index("v:0,0,0,0|1,0,0,0")
    bad = Crystal(col.gcm, col.comarks, col.ids, col.weights, f, col.payloads)
    message = "raising word fails to undo folded color 1 at v:0,0,0,0|0,1,0,0"
    with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
        fold_crystal(C3, bad, classical_highest_node(C3, bad, 1, 1))
    monkeypatch.setattr(fixedpoint, "orbit_factors", lambda *args: [bad])
    assert verify_exit("c", 3, 1, 1) == (1, "error: %s\n" % message)


def test_fold_catches_a_weight_off_the_orbits(monkeypatch, cold_hats):
    # move one unit of the weight of the node 3 of the (c,3,1,1) column from
    # color 4 to color 3: the walk is unchanged, the weight cannot fold
    (col,) = orbit_factors(C3, 1, 1)
    k = col.ids.index("v:0,0,1,0|0,0,0,0")
    assert col.weights[k] == (0, 0, -1, 1, 1)
    weights = col.weights[:k] + ((0, 0, -1, 2, 0),) + col.weights[k + 1:]
    bad = Crystal(col.gcm, col.comarks, col.ids, weights, col.f, col.payloads)
    message = ("fixed node v:0,0,1,0|0,0,0,0: weight not omega*-fixed: "
               "coefficients differ on orbit (3, 4)")
    with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
        fold_crystal(C3, bad, classical_highest_node(C3, bad, 1, 1))
    monkeypatch.setattr(fixedpoint, "orbit_factors", lambda *args: [bad])
    assert verify_exit("c", 3, 1, 1) == (1, "error: %s\n" % message)


@pytest.mark.parametrize("datum,i,s,size", [
    (make_datum("a", 5), 2, 2, 1705), (make_datum("b", 3), 3, 2, 490),
    (make_datum("b", 4), 2, 2, 540),
])
def test_walked_instances_beyond_the_scope(datum, i, s, size):
    # parent tensors of 680,625, 240,100 and 291,600 nodes, never built
    assert len(build_hat_crystal(datum, i, s).crystal) == size
    report = verify_main_theorem(datum, i, s)
    assert report.ok, report.to_text()
    strings = check_string_identities(datum, i, s)
    assert strings.ok, strings.to_text()


# -- regularity stages against faulted hats -----------------------------------

def _hat_with_weight(hat, k, weight):
    weights = hat.weights[:k] + (weight,) + hat.weights[k + 1:]
    return Crystal(hat.gcm, hat.comarks, hat.ids, weights, hat.f, hat.payloads)


def _report_on(monkeypatch, crystal):
    bundle = build_hat_crystal(A2, 1, 1)
    monkeypatch.setattr(fixedpoint, "build_hat_crystal", lambda *args: fixedpoint.HatBundle(
        parent=bundle.parent, crystal=crystal, fixed=bundle.fixed))
    return verify_main_theorem(A2, 1, 1)


def _regular(report):
    return {name: (ok, detail) for name, ok, detail in report.stages
            if name.startswith("regular:")}


def test_non_dominant_highest_weight_fails_its_stage(monkeypatch):
    # t:1*t:1|2|3 heads its color 1 string; negating its weight (-2, 1, 0)
    # leaves it there with weight -1
    hat = build_hat_crystal(A2, 1, 1).crystal
    assert hat.ids[0] == "t:1*t:1|2|3" and hat.weights[0] == (-2, 1, 0)
    report = _report_on(monkeypatch, _hat_with_weight(hat, 0, (2, -1, 0)))
    names = [name for name, _, _ in report.stages]
    assert names == [name for name, _, _ in verify_main_theorem(A2, 1, 1).stages]
    regular = _regular(report)
    assert regular["regular:1"] == (False, "restricted component at t:1*t:1|2|3 has "
                                           "the non-dominant highest weight (-1,)")
    assert regular["regular:12"] == (False, "restricted component at t:1*t:1|2|3 has "
                                            "the non-dominant highest weight (-1, 0)")
    assert regular["regular:2"] == (True, "")


def test_moved_weight_below_the_top_fails_regularity(monkeypatch):
    # the color 0 string t:4*t:2|3|4 -> t:1*t:2|3|4 -> t:1*t:1|2|3 has weights
    # 2, 0, -2; moving the middle one to -2 keeps every edge and highest node
    hat = build_hat_crystal(A2, 1, 1).crystal
    assert hat.f[0][5] == 1 and hat.f[0][1] == 0 and hat.weights[1] == (0, 0, 0)
    moved = _hat_with_weight(hat, 1, (-2, 0, 0))
    for sub in ((0,), (0, 1), (0, 2)):
        assert ([top for top, _, _ in moved.highest_weight_decomposition(sub)]
                == [top for top, _, _ in hat.highest_weight_decomposition(sub)])
    witness = "restricted component at %s is not a highest weight crystal"
    assert _regular(_report_on(monkeypatch, moved)) == {
        "regular:0": (False, witness % "t:4*t:2|3|4"),
        "regular:1": (True, ""),
        "regular:2": (True, ""),
        "regular:01": (False, witness % "t:3*t:1|3|4"),
        "regular:02": (False, witness % "t:4*t:2|3|4"),
        "regular:12": (True, ""),
    }

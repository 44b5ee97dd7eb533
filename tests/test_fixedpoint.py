"""Folded crystals: sizes, the headline verification, string identities."""

import copy
import itertools
import re
from collections import Counter

import pytest


from crystalfold import branching, fixedpoint
from crystalfold.cartan import ScopeError, kashiwara_word, make_datum, p_omega_star_inverse
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import Crystal, LazyTensor, Tensor, VerificationError, tensor, tensor_many
from crystalfold.fixedpoint import (
    build_hat_crystal, check_string_identities, fold_crystal,
    verify_main_theorem, verify_tensor_compatibility)
from crystalfold.intertwine import orbit_factors, orbit_top
from crystalfold.models import classical_highest_node
from leaves import (apply_word, build_tilde_crystal, crystal_from_edges, eps_orbit_by_nodes,
                    fixed_nodes, fold_by_nodes, leaf_node, level_zero_by_nodes, own_strings,
                    powered_words_by_nodes, regular_by_components, run_cli, s1_by_nodes,
                    weyl_by_nodes)

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


def _stage_both_ways(monkeypatch, datum, i, s, name, oracle, **patched):
    """The detail of stage name and the oracle's message, "" for a pass, with
    the hat bundle's fields replaced by patched."""
    bundle = build_hat_crystal(datum, i, s)
    with monkeypatch.context() as patch:
        for field, value in patched.items():
            patch.setattr(bundle, field, value)
        stages = check_string_identities(datum, i, s).stages
        try:
            oracle(datum, bundle)
            want = ""
        except VerificationError as exc:
            want = str(exc)
    return [detail for stage, _, detail in stages if stage == name][0], want


def _powered_words_both_ways(monkeypatch, datum, i, s, mutant):
    """The strings:powered-words detail and the oracle's message, "" for a
    pass, with one parent edge killed."""
    parent = _with_dead_edge(build_hat_crystal(datum, i, s), *mutant)
    return _stage_both_ways(monkeypatch, datum, i, s, "strings:powered-words",
                            powered_words_by_nodes, parent=parent)


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


@pytest.mark.parametrize("datum,i,s", [(C3, 1, 1), (A2, 1, 1), (B1, 1, 2), (C3, 1, 2)])
def test_powered_words_agree_with_the_node_loop_on_every_dead_edge(monkeypatch, datum, i, s):
    # a color whose word is one letter stops after power 1 where that power
    # agrees everywhere; a failure at a higher power of such a color is named
    # only because a power 1 failure at a later node made it run every power
    failed = later = 0
    for factor, col in enumerate(orbit_factors(datum, i, s)):
        for kind in ("f", "e"):
            for j, row in enumerate(getattr(col, kind)):
                for x in range(len(col)):
                    if row[x] != -1:
                        got, want = _powered_words_both_ways(
                            monkeypatch, datum, i, s, (factor, kind, j, x))
                        assert got == want
                        failed += got != ""
                        named = re.fullmatch(r"\w+ power (\d+) disagrees at \S+ color (\d+)", got)
                        later += bool(named) and int(named[1]) > 1 and len(
                            kashiwara_word(datum, int(named[2]))) == 1
    assert failed > 0
    assert later > 0 or (datum, s) != (C3, 2)


def _without_edge(bundle, factor, j, x):
    """bundle.parent with the color j edge from node x of one factor taken
    out, and that factor rebuilt, so its raising maps and strings follow."""
    parent = bundle.parent
    factors = parent.factors if isinstance(parent, LazyTensor) else [parent]
    col = factors[factor]
    f = [list(row) for row in col.f]
    f[j][x] = -1
    bad = Crystal(col.gcm, col.comarks, col.ids, col.weights, f, col.payloads)
    factors = factors[:factor] + [bad] + factors[factor + 1:]
    return LazyTensor(factors) if isinstance(parent, LazyTensor) else bad


def _with_dead_hat_edge(hat, kind, j, x):
    """A copy of hat with its color j map kind killed at node x; the other
    map and the strings are kept."""
    bad = copy.copy(hat)
    maps = [list(row) for row in getattr(hat, kind)]
    maps[j][x] = -1
    setattr(bad, kind, maps)
    return bad


@pytest.mark.parametrize("datum,i,s", [(C3, 1, 1), (A2, 1, 1), (B1, 1, 2), (D3, 2, 1)])
@pytest.mark.parametrize("name,oracle", [("strings:eps-orbit", eps_orbit_by_nodes),
                                         ("strings:weyl", weyl_by_nodes)])
def test_batched_stages_name_the_node_loops_witness(monkeypatch, datum, i, s, name, oracle):
    # every one-edge mutant of the parent (a column, or a factor of a
    # LazyTensor), with its strings kept or re-derived, and of the hat: the
    # batched stage and the loop over single nodes name the same node, color
    # and text
    bundle = build_hat_crystal(datum, i, s)
    details = Counter()
    for factor, col in enumerate(orbit_factors(datum, i, s)):
        for kind in ("f", "e", "rebuilt"):
            for j, row in enumerate(col.f if kind == "rebuilt" else getattr(col, kind)):
                for x in range(len(col)):
                    if row[x] != -1:
                        if kind == "rebuilt":
                            parent = _without_edge(bundle, factor, j, x)
                        else:
                            parent = _with_dead_edge(bundle, factor, kind, j, x)
                        got, want = _stage_both_ways(monkeypatch, datum, i, s, name, oracle,
                                                     parent=parent)
                        assert got == want
                        details[re.sub(r" at .*| \(color \d+\)", "", got)] += 1
    hat = bundle.crystal
    for kind in ("f", "e"):
        for j, row in enumerate(getattr(hat, kind)):
            for x in range(len(hat)):
                if row[x] != -1:
                    got, want = _stage_both_ways(monkeypatch, datum, i, s, name, oracle,
                                                 crystal=_with_dead_hat_edge(hat, kind, j, x))
                    assert got == want
                    details[re.sub(r" at .*| \(color \d+\)", "", got)] += 1
    if name == "strings:eps-orbit":
        assert details["eps tuples disagree"] > 0 and details["phi tuples disagree"] > 0
    else:
        assert details["Weyl step fell off the graph"] > 0
        if datum is D3:
            assert details["folded Weyl operator 1 differs"] > 0


def test_weyl_names_the_first_failure_when_the_hat_falls_off(monkeypatch):
    # a dead hat edge, where s_jh of the hat itself falls off, together with
    # a dead parent edge that fails on its own with another text: the first
    # failure by node and color wins, whichever side it is on, and at one
    # node and color the parent's comes first
    bundle = build_hat_crystal(A2, 1, 1)
    hat = bundle.crystal

    def weyl(**patched):
        return _stage_both_ways(monkeypatch, A2, 1, 1, "strings:weyl", weyl_by_nodes, **patched)

    hats = {}
    for kind in ("f", "e"):
        for j, row in enumerate(getattr(hat, kind)):
            for x in range(len(hat)):
                if row[x] != -1:
                    bad = _with_dead_hat_edge(hat, kind, j, x)
                    hats[bad] = weyl(crystal=bad)[0]
    parents = {}
    for factor, col in enumerate(orbit_factors(A2, 1, 1)):
        for kind in ("f", "e"):
            for j, row in enumerate(getattr(col, kind)):
                for x in range(len(col)):
                    if row[x] != -1:
                        bad = _with_dead_edge(bundle, factor, kind, j, x)
                        parents[bad] = weyl(parent=bad)[0]
    winners = Counter()
    for bad_hat, alone in hats.items():
        for bad_parent, other in parents.items():
            if alone and other and alone != other:
                got, want = weyl(crystal=bad_hat, parent=bad_parent)
                assert got == want
                winners["hat" if got == alone else "parent" if got == other else "?"] += 1
    assert winners["hat"] > 0 and winners["parent"] > 0 and winners["?"] == 0


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES)
def test_own_strings_match_the_crystal_wide_walk(case, n, i, s):
    # strings:eps-orbit reads the fixed nodes' own strings in one batch;
    # strings(j), behind eps_tuple and phi_tuple, is the reference, and so
    # is the walk from one node at a time
    parent = build_tilde_crystal(make_datum(case, n), i, s).crystal
    nodes = range(len(parent))
    assert (parent.strings_at(nodes)
            == [(parent.eps_tuple(k), parent.phi_tuple(k)) for k in nodes]
            == [own_strings(parent, k) for k in nodes])


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


@pytest.mark.parametrize("datum", [A2, C3])
def test_eps_columns_name_the_node_loops_witness(monkeypatch, datum):
    # the walked fold with the middle edge of every color cut: iso:edges
    # fails, and iso:eps names the first pair where the eps tuples of
    # hat (x) hat and the walked fold differ, as a loop over pairs does
    hat = build_hat_crystal(datum, 1, 1).crystal
    fold, cut = fixedpoint.fold_crystal, []

    def cutting(*args):
        walked = fold(*args)
        crys = walked.crystal
        f = []
        for row in crys.f:
            sources = [x for x, y in enumerate(row) if y != -1]
            f.append([-1 if x == sources[len(sources) // 2] else y for x, y in enumerate(row)])
        cut.append(Crystal(crys.gcm, crys.comarks, crys.ids, crys.weights, f, crys.payloads))
        return fixedpoint.HatBundle(walked.parent, cut[0], walked.fixed)

    monkeypatch.setattr(fixedpoint, "fold_crystal", cutting)
    stages = {name: (ok, detail)
              for name, ok, detail in verify_tensor_compatibility(datum, (1, 1), (1, 1)).stages}
    lhs = tensor(hat, hat)
    want = next(b for h, b in enumerate(lhs.ids) if lhs.eps_tuple(h) != cut[0].eps_tuple(h))
    assert stages["iso:edges"][0] is False
    assert stages["iso:eps"] == (False, "eps differs at %s" % want)


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
    fixed = fixed_nodes(tilde.omega_map)
    where = {p: h for h, p in enumerate(fixed)}
    where[-1] = -1
    f = [[where[apply_word(parent, kashiwara_word(datum, jh), p)] for p in fixed]
         for jh in range(len(datum.hat_gcm))]
    bundle = build_hat_crystal(datum, i, s)
    hat = bundle.crystal
    assert hat.ids == tuple(parent.ids[p] for p in fixed)
    assert hat.weights == tuple(p_omega_star_inverse(datum, parent.weights[p]) for p in fixed)
    assert hat.f == f
    lazy = isinstance(bundle.parent, LazyTensor)
    assert lazy == (len(datum.orbit(i)) > 1)
    assert [leaf_node(parent, p) if lazy else p for p in bundle.fixed] == fixed


def _fold_request(datum, i, s):
    """The parent and top node that build_hat_crystal folds."""
    factors = orbit_factors(datum, i, s)
    tops = [classical_highest_node(datum, fac, col, s)
            for fac, col in zip(factors, datum.orbit(i))]
    if len(factors) == 1:
        return factors[0], tops[0]
    return LazyTensor(factors), tuple(tops)


def _same_bundle(got, want):
    assert got.fixed == want.fixed
    assert got.crystal.ids == want.crystal.ids
    assert got.crystal.f == want.crystal.f
    assert got.crystal.weights == want.crystal.weights


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES + [
    ("a", 4, 2, 2), ("b", 3, 2, 2), ("c", 6, 1, 5)])
def test_layered_fold_equals_the_node_walk(case, n, i, s):
    # the walk in layers discovers the nodes in the node walk's queue order,
    # so the fixed nodes, ids, edges and weights are the same
    datum = make_datum(case, n)
    parent, top = _fold_request(datum, i, s)
    _same_bundle(fold_crystal(datum, parent, top), fold_by_nodes(datum, parent, top))


@pytest.mark.parametrize("datum", [A2, C3])
def test_layered_fold_equals_the_node_walk_on_a_pair_tensor(datum):
    tilde = tensor_many(orbit_factors(datum, 1, 1))
    pair = tensor(tilde, tilde)
    top = orbit_top(datum, tilde, 1, 1)
    anchor = pair.at(top, top)
    _same_bundle(fold_crystal(datum, pair, anchor), fold_by_nodes(datum, pair, anchor))


@pytest.fixture
def cold_hats():
    build_hat_crystal.cache_clear()
    yield
    build_hat_crystal.cache_clear()


def verify_exit(case, n, i, s):
    res = run_cli("verify", "--case", case, "--n", str(n), "--i", str(i), "--s", str(s))
    assert isinstance(res.exception, SystemExit)
    return res.exit_code, res.output


def test_walk_short_of_the_closed_form_fails(monkeypatch, cold_hats):
    size = branching.expected_size
    monkeypatch.setattr(branching, "expected_size", lambda *args: size(*args) + 1)
    message = "walk reached 6 of 7 nodes of the closed form from t:1*t:1|2|3"
    with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
        build_hat_crystal(A2, 1, 1)
    assert verify_exit("a", 2, 1, 1) == (1, "error: %s\n" % message)


def test_walk_short_of_the_legs_q_relation_fails(monkeypatch, cold_hats):
    # the triality leg (d,3,2,1) is counted by the Q-system from the center
    # column's sizes, and a walk short of that count fails as a closed-form
    # walk does; the patch adds a node at (a,2,1,1) and (d,3,2,1) only, not
    # at the center sizes that the leg's count reads
    size = branching.expected_size
    monkeypatch.setattr(branching, "expected_size", lambda datum, i, s: size(datum, i, s) + (
        (datum.case, i) in (("a", 1), ("d", 2))))
    message = ("walk reached 29 of 30 nodes of the closed form from "
               "v:1,0,0,0|0,0,0,0*p:+++-*p:++++")
    with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
        build_hat_crystal(D3, 2, 1)
    assert verify_exit("d", 3, 2, 1) == (1, "error: %s\n" % message)
    message = "walk reached 6 of 7 nodes of the closed form from t:1*t:1|2|3"
    assert verify_exit("a", 2, 1, 1) == (1, "error: %s\n" % message)


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


def _report_on(monkeypatch, crystal, datum=A2, i=1, s=1):
    bundle = build_hat_crystal(datum, i, s)
    monkeypatch.setattr(fixedpoint, "build_hat_crystal", lambda *args: fixedpoint.HatBundle(
        parent=bundle.parent, crystal=crystal, fixed=bundle.fixed))
    return verify_main_theorem(datum, i, s)


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


# -- the product certificate of the regularity stages -------------------------

def _with_crossed_strings(hat, x, y):
    """hat with the color 0 targets of x and y exchanged."""
    row = list(hat.f[0])
    row[x], row[y] = row[y], row[x]
    return Crystal(hat.gcm, hat.comarks, hat.ids, hat.weights, [row] + hat.f[1:], hat.payloads)


def _crossovers(hat):
    """Every crossing of two color-0 strings at nodes of equal weight and
    eps_0, so of equal phi_0: each keeps every axiom."""
    eps = hat.strings(0)[0]
    sources = [x for x, y in enumerate(hat.f[0]) if y != -1]
    return [_with_crossed_strings(hat, x, y) for x, y in itertools.combinations(sources, 2)
            if hat.weights[x] == hat.weights[y] and eps[x] == eps[y]]


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES)
def test_certified_regularity_matches_the_component_route_on_the_scope(case, n, i, s):
    datum = make_datum(case, n)
    report = verify_main_theorem(datum, i, s)
    assert report.ok, report.to_text()
    assert _regular(report) == regular_by_components(datum, build_hat_crystal(datum, i, s).crystal)


@pytest.mark.parametrize("case,n,i,s,full,certified,subsets", [
    ("c", 6, 1, 5, False, 22, 28), ("c", 7, 1, 4, False, 29, 36), ("c", 5, 1, 4, True, 22, 62),
])
def test_wide_folds_certify_every_single_color_and_orthogonal_pair(
        monkeypatch, case, n, i, s, full, certified, subsets):
    # the folded diagrams of case c are chains: a subset is certified
    # unless two of its colors are adjacent, and only the component route
    # decomposes, once per subset; a silent fall to it changes the count
    datum = make_datum(case, n)
    routed = []
    decompose = Crystal.highest_weight_decomposition
    monkeypatch.setattr(Crystal, "highest_weight_decomposition",
                        lambda crys, colors: routed.append(colors) or decompose(crys, colors))
    regular = _regular(verify_main_theorem(datum, i, s, full_regularity=full))
    monkeypatch.undo()
    assert len(regular) == subsets and len(routed) == subsets - certified
    assert all(any(datum.hat_gcm[a][b] for a, b in itertools.combinations(sub, 2))
               for sub in routed)
    assert regular == regular_by_components(datum, build_hat_crystal(datum, i, s).crystal, full)
    assert all(ok for ok, _ in regular.values())


def _keeps_strings(crys, a, b):
    """eps_b and phi_b are constant along every color a edge."""
    eps, phi = crys.strings(b)
    return all(eps[y] == eps[x] and phi[y] == phi[x] for x, y in enumerate(crys.f[a]) if y != -1)


def test_crossed_strings_keep_the_axioms_and_fail_regularity_by_both_routes():
    # two color-0 strings crossed at nodes of equal weight, eps and phi
    # keep every axiom stage; each such crossing on the scope hats fails
    # some regular:* stage, with the component route's verdict and text.
    # Where two orthogonal colors commute, each keeps the other's strings,
    # as the certificate's argument derives from the axioms
    count = 0
    for case, n, i, s in SCOPE_INSTANCES:
        datum = make_datum(case, n)
        for crossed in _crossovers(build_hat_crystal(datum, i, s).crystal):
            report = crossed.verify_crystal_axioms()
            assert report.ok, report.to_text()
            fixedpoint._regularity_stages(report, datum, crossed, False)
            regular = _regular(report)
            assert not all(ok for ok, _ in regular.values())
            assert regular == regular_by_components(datum, crossed)
            for a, b in itertools.permutations(range(crossed.ncolors), 2):
                if fixedpoint._acts_as_product(crossed, a, b):
                    assert _keeps_strings(crossed, a, b)
            count += 1
    assert count == 266


def test_orthogonal_colors_that_keep_eps_but_do_not_commute_are_not_certified(monkeypatch):
    # on the (c,3,3,1) hat, colors 0 and 1 are orthogonal; crossing the
    # color 0 strings at two nodes of equal weight and eps keeps every
    # axiom and each color's strings along the other's edges, but f_1 f_0
    # and f_0 f_1 part, and the component route finds two highest nodes
    hat = build_hat_crystal(C3, 3, 1).crystal
    assert hat.gcm[0][1] == hat.gcm[1][0] == 0
    crossed = _with_crossed_strings(
        hat, hat.ids.index("p:+-++*p:----"), hat.ids.index("p:--+-*p:+--+"))
    assert _keeps_strings(crossed, 0, 1) and _keeps_strings(crossed, 1, 0)
    assert (crossed.images((0, 1), range(len(hat)))
            != crossed.images((1, 0), range(len(hat))))
    assert _regular(verify_main_theorem(C3, 3, 1))["regular:01"] == (True, "")
    regular = _regular(_report_on(monkeypatch, crossed, C3, 3, 1))
    assert regular["regular:01"] == (
        False, "component of p:+++-*p:+--+ has 2 highest nodes under colors (0, 1)")
    assert regular == regular_by_components(C3, crossed)


def test_a_failed_semiregular_axiom_leaves_regularity_to_the_component_route(monkeypatch):
    # every weight of the (a,2,1,1) hat moved by one unit of color 0 keeps
    # the weight step and the pairing but not semiregularity, so no subset
    # is certified, and every color 0 string reads its weights one unit high
    hat = build_hat_crystal(A2, 1, 1).crystal
    moved = Crystal(hat.gcm, hat.comarks, hat.ids,
                    tuple((w0 + 1, w1, w2) for w0, w1, w2 in hat.weights), hat.f, hat.payloads)
    report = _report_on(monkeypatch, moved)
    assert [name for name, ok, _ in report.stages if name.startswith("axiom:") and not ok] == [
        "axiom:semiregular"]
    regular = _regular(report)
    assert regular["regular:0"] == (
        False, "restricted component at t:2*t:1|2|4 is not a highest weight crystal")
    assert regular == regular_by_components(A2, moved)


def test_a_commuting_pair_that_fails_the_weight_step_is_not_certified():
    # the orthogonal colors 0 and 2 of A2's folded diagram: a --0--> b and
    # c --2--> b commute, as both composites are empty, and every weight is
    # phi - eps, but the color 0 edge moves the color 1 and 2 weights; the
    # one component has the two highest nodes a and c
    crys = crystal_from_edges(A2.hat_gcm, A2.hat_comarks,
                              {"a": ((1, 0, 0), None), "b": ((-1, 0, -1), None),
                               "c": ((0, 0, 1), None)},
                              {0: {"a": "b"}, 2: {"c": "b"}})
    assert fixedpoint._acts_as_product(crys, 0, 2)
    report = crys.verify_crystal_axioms()
    assert [name for name, ok, _ in report.stages if not ok] == ["axiom:weight-step"]
    fixedpoint._regularity_stages(report, A2, crys, False)
    regular = _regular(report)
    assert regular["regular:02"] == (False, "component of a has 2 highest nodes under colors (0, 2)")
    assert regular == regular_by_components(A2, crys)


# -- level zero against faulted hats ------------------------------------------

@pytest.mark.parametrize("datum,i,s", [(A2, 1, 1), (C3, 1, 2), (D3, 2, 1), (B2, 2, 1)])
def test_weights_off_level_zero_fail_s1_and_level_zero_at_the_first(monkeypatch, datum, i, s):
    # one weight, then two, moved by 1 at color 0, whose comark is positive:
    # both stages read the same linear form on the same weights, and the
    # column sums name the node the loop over single nodes names
    hat = build_hat_crystal(datum, i, s).crystal
    for moved in [(len(hat) - 1,), (len(hat) // 2, 1)]:
        bad = hat
        for k in moved:
            wt = bad.weights[k]
            bad = _hat_with_weight(bad, k, (wt[0] + 1,) + wt[1:])
        first = hat.ids[min(moved)]
        got, want = _stage_both_ways(monkeypatch, datum, i, s, "strings:level-zero",
                                     level_zero_by_nodes, crystal=bad)
        assert got == want == "folded weight off level zero at %s" % first
        with pytest.raises(VerificationError) as err:
            s1_by_nodes(bad)
        simple = {name: (ok, detail) for name, ok, detail in bad.is_simple().stages}
        assert simple["simple:S1"] == (False, str(err.value))
        assert str(err.value) == "nonzero level weight at %s" % first

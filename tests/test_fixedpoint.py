"""Folded crystals: sizes, the headline verification, string identities."""

from collections import Counter

import pytest

from crystalfold import fixedpoint
from crystalfold.cartan import ScopeError, make_datum
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import Tensor, VerificationError
from crystalfold.fixedpoint import (
    build_hat_crystal, check_string_identities, fold_crystal,
    verify_main_theorem, verify_tensor_compatibility)
from crystalfold.intertwine import build_tilde_crystal

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


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES)
def test_own_strings_match_the_crystal_wide_walk(case, n, i, s):
    # strings:eps-orbit reads the fixed nodes' own strings; _walk_color,
    # behind eps_tuple and phi_tuple, is the reference
    parent = build_hat_crystal(make_datum(case, n), i, s).tilde.crystal
    for k in range(len(parent)):
        assert parent.own_strings(k) == (parent.eps_tuple(k), parent.phi_tuple(k))


def test_forged_fixed_node_is_rejected():
    bundle = build_tilde_crystal(A2, 1, 1)
    forged = list(bundle.omega_map)
    victim = None
    for k in range(len(bundle.crystal)):
        if forged[k] != k:
            victim = k
            break
    forged[victim] = victim
    with pytest.raises(VerificationError):
        fold_crystal(A2, bundle.crystal, [k for k, t in enumerate(forged) if t == k])


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
    # the parent pair and the pair of folded crystals; the exchange maps
    # the parent pair to itself, and only the parent pair is folded
    assert calls == {"tensor": 2, "fold": 1}


@pytest.mark.parametrize("datum,spec1,spec2", [
    (A2, (1, 1), (1, 2)), (A2, (1, 1), (2, 1)), (C3, (1, 1), (1, 2)),
    (B1, (1, 1), (1, 2)),
])
def test_tensor_compatibility_refuses_unequal_factors(datum, spec1, spec2):
    before = build_hat_crystal.cache_info().currsize
    with pytest.raises(ScopeError, match="B \\(x\\) B only"):
        verify_tensor_compatibility(datum, spec1, spec2)
    assert build_hat_crystal.cache_info().currsize == before


def test_hat_crystal_requires_an_orbit_representative():
    with pytest.raises(ScopeError, match="use i = 1"):
        build_hat_crystal(A2, 3, 1)
    with pytest.raises(ScopeError, match="not a classical node"):
        build_hat_crystal(A2, 0, 1)
    # the parent side still builds every column
    assert len(build_tilde_crystal(A2, 3, 1).crystal) == 16

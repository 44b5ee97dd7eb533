"""Monomial model checks against small hand-computed crystals."""

import pytest

from crystalfold.monomial import (
    _a_term, _as_dict, _as_key, _mul, f_mono, highest_weight_crystal, mono_id,
    mono_weight, weight_multiset)
from leaves import crystal_from_edges

SL2 = ((2,),)
SL3 = ((2, -1), (-1, 2))
SL4 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
G2_BLOCK = ((2, -3), (-1, 2))
B2_BLOCK = ((2, -2), (-1, 2))
C2_BLOCK = ((2, -1), (-2, 2))


def test_sl2_fundamental_chain():
    crys = highest_weight_crystal(SL2, (1,))
    assert len(crys) == 2
    ids = crys.ids
    top = "m:Y0,0^1"
    assert ids[crys.f[0][ids.index(top)]] == "m:Y0,1^-1"
    assert crys.f[0][ids.index("m:Y0,1^-1")] == -1
    assert ids[crys.e[0][ids.index("m:Y0,1^-1")]] == top
    assert crys.weights[ids.index(top)] == (1,)
    assert crys.weights[ids.index("m:Y0,1^-1")] == (-1,)


def test_sl2_three_chain():
    crys = highest_weight_crystal(SL2, (2,))
    assert len(crys) == 3
    assert sorted(crys.weights) == [(-2,), (0,), (2,)]
    mid = crys.weights.index((0,))
    assert crys.eps(0, mid) == 1 and crys.phi(0, mid) == 1


def test_sl3_standard():
    crys = highest_weight_crystal(SL3, (1, 0))
    assert len(crys) == 3
    assert sorted(crys.weights) == [(-1, 1), (0, -1), (1, 0)]
    top = crys.weights.index((1, 0))
    b2 = crys.f[0][top]
    assert crys.weights[b2] == (-1, 1)
    assert crys.f[0][b2] == -1
    b3 = crys.f[1][b2]
    assert crys.weights[b3] == (0, -1)
    assert crys.f[0][b3] == -1 and crys.f[1][b3] == -1


def test_sl3_adjoint_zero_weight_multiplicity():
    crys = highest_weight_crystal(SL3, (1, 1))
    assert len(crys) == 8
    assert sum(1 for w in crys.weights if w == (0, 0)) == 2


@pytest.mark.parametrize("lam,dim", [
    ((1, 0, 0), 4), ((0, 1, 0), 6), ((0, 0, 1), 4),
    ((2, 0, 0), 10), ((1, 0, 1), 15),
])
def test_sl4_dimensions(lam, dim):
    assert len(highest_weight_crystal(SL4, lam)) == dim


def test_g2_block_dimensions():
    # position 0 sits on the short root: its fundamental module has 7 nodes
    assert len(highest_weight_crystal(G2_BLOCK, (1, 0))) == 7
    assert len(highest_weight_crystal(G2_BLOCK, (0, 1))) == 14


def test_axioms_hold_on_samples():
    for gcm, lam in [(SL3, (1, 1)), (SL4, (0, 1, 0)), (G2_BLOCK, (0, 1))]:
        report = highest_weight_crystal(gcm, lam).verify_crystal_axioms()
        assert report.ok, report.to_text()


def test_weight_multiset_sorted_and_sized():
    ws = weight_multiset(SL3, (1, 0))
    assert ws == ((-1, 1), (0, -1), (1, 0))


def test_connectedness():
    assert highest_weight_crystal(SL4, (1, 0, 1)).is_connected()


def test_rejects_bad_weight():
    with pytest.raises(ValueError):
        highest_weight_crystal(SL3, (1, -1))
    with pytest.raises(ValueError):
        highest_weight_crystal(SL3, (1,))


# -- the string-keyed builder, kept as the oracle of the array builder -------

def _color_profile(d, i):
    """Sorted shifts, prefix sums, total weight for one color."""
    ks = sorted(k for (c, k) in d if c == i)
    prefixes = []
    run = 0
    for k in ks:
        run += d[(i, k)]
        prefixes.append(run)
    return ks, prefixes, run


def _f_mono_by_profile(gcm, key, i):
    d = _as_dict(key)
    ks, prefixes, _ = _color_profile(d, i)
    phi = max([0] + prefixes)
    if phi == 0:
        return None
    n_f = ks[prefixes.index(phi)]
    inv = {ik: -e for ik, e in _a_term(gcm, i, n_f).items()}
    return _as_key(_mul(d, inv))


def highest_weight_crystal_from_edges(gcm, lam):
    n = len(gcm)
    start = _as_key({(i, 0): v for i, v in enumerate(lam) if v})
    seen = {start}
    queue = [start]
    f_edges = {j: {} for j in range(n)}
    while queue:
        cur = queue.pop()
        for j in range(n):
            nxt = _f_mono_by_profile(gcm, cur, j)
            if nxt is None:
                continue
            f_edges[j][mono_id(cur)] = mono_id(nxt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    nodes = {mono_id(key): (mono_weight(_as_dict(key), n), mono_id(key)[2:])
             for key in seen}
    return crystal_from_edges(gcm, (1,) * n, nodes, f_edges)


def _dominant(rank, top):
    """Dominant weights of the given rank with coefficient sum at most top."""
    if rank == 0:
        return [()]
    return [(v,) + rest for v in range(top + 1) for rest in _dominant(rank - 1, top - v)]


GRID = ([(SL2, lam) for lam in _dominant(1, 4)]
        + [(gcm, lam) for gcm in (SL3, G2_BLOCK, B2_BLOCK, C2_BLOCK)
           for lam in _dominant(2, 2)]
        + [(SL4, lam) for lam in _dominant(3, 2)])


@pytest.mark.parametrize("gcm,lam", GRID)
def test_array_builder_matches_the_edge_builder(gcm, lam):
    got = highest_weight_crystal(gcm, lam)
    want = highest_weight_crystal_from_edges(gcm, lam)
    assert (got.ids, got.weights, got.payloads, got.f) == (
        want.ids, want.weights, want.payloads, want.f)
    assert weight_multiset(gcm, lam) == tuple(sorted(want.weights))


def test_lowering_acts_at_the_first_maximal_prefix():
    # prefix sums 1, 0, 1 for color 0: the first maximum sits at shift 0
    key = _as_key({(0, 0): 1, (0, 1): -1, (0, 2): 1})
    assert f_mono(SL2, key, 0) == _f_mono_by_profile(SL2, key, 0)
    assert f_mono(SL2, key, 0) == _as_key({(0, 1): -2, (0, 2): 1})


def test_weight_multiset_is_cached_per_block_and_weight():
    weight_multiset.cache_clear()
    first = weight_multiset(SL3, (1, 1))
    assert weight_multiset(SL3, (1, 1)) is first
    assert weight_multiset.cache_info().hits == 1

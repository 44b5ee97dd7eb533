"""Monomial model checks against small hand-computed crystals."""

import pytest

from crystalfold import fixedpoint, monomial
from crystalfold.branching import weyl_dimension
from crystalfold.cartan import make_datum
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import Crystal
from crystalfold.monomial import (
    MAX_NODES, SHIFT_BITS, _lower, _lowering_table, highest_weight_closure,
    highest_weight_crystal, mono_id, mono_weight, weight_multiset)
from leaves import crystal_from_edges, regular_by_components, weyl_dimension_by_monomials

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
    # a disconnected block is checked before it is split into pieces
    for lam in [(1, -1), (1,)]:
        with pytest.raises(ValueError):
            weight_multiset(((2, 0), (0, 2)), lam)


# -- the string-keyed builder, kept as the oracle of the array builder -------
#
# The oracle keeps monomials as (color, shift) keys; the package's coded keys
# are compared with it through _decode.

def _as_key(d):
    return tuple(sorted((ik, e) for ik, e in d.items() if e != 0))


def _encode(key):
    return tuple(((c << SHIFT_BITS) | k, e) for (c, k), e in key)


def _decode(key):
    return tuple(((code >> SHIFT_BITS, code & ((1 << SHIFT_BITS) - 1)), e)
                 for code, e in key)


def _a_term(gcm, i, k):
    """Exponent dict of A_{i,k}, keyed by (color, shift)."""
    out = {(i, k): 1, (i, k + 1): 1}
    for j in range(len(gcm)):
        if j == i or gcm[j][i] == 0:
            continue
        shift = 1 if j > i else 0
        ik = (j, k + shift)
        out[ik] = out.get(ik, 0) + gcm[j][i]
    return out


def _render(key):
    if not key:
        return "m:1"
    return "m:" + " ".join("Y%d,%d^%d" % (c, k, e) for (c, k), e in key)


def _mul(d, factors):
    out = dict(d)
    for ik, e in factors.items():
        out[ik] = out.get(ik, 0) + e
        if out[ik] == 0:
            del out[ik]
    return out


def _weight_of_dict(d, ncolors):
    wt = [0] * ncolors
    for (c, _), e in d.items():
        wt[c] += e
    return tuple(wt)


def _color_profile(d, i):
    """Sorted shifts, prefix sums, total weight for one color."""
    ks = sorted(k for (c, k) in d if c == i)
    prefixes = []
    run = 0
    for k in ks:
        run += d[(i, k)]
        prefixes.append(run)
    return ks, prefixes, run


def f_mono(gcm, key, i):
    """The package's lowering at color i, with the row of its table, on a
    (color, shift) key."""
    out = _lower(_encode(key), i, _lowering_table(gcm)[i])
    return None if out is None else _decode(out)


def _f_mono_by_profile(gcm, key, i):
    d = dict(key)
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
            f_edges[j][_render(cur)] = _render(nxt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    nodes = {_render(key): (_weight_of_dict(dict(key), n), _render(key)[2:])
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
    _closure_matches_the_edge_builder(gcm, lam)


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


# -- the closure walk, which builds no Crystal, against the same oracle -------

@pytest.fixture(scope="module")
def regular_blocks():
    """Every (block, weight) that the regularity stages look up by the
    component route, on the scope hats and on (c,5,1,4) with full
    regularity. The hats' copies with no records are checked, so the
    subsets that a hat's product certificate passes at once, among them
    every disconnected 2-block, are looked up too."""
    seen = set()

    def recording(gcm, lam):
        seen.add((gcm, lam))
        return weight_multiset(gcm, lam)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixedpoint, "weight_multiset", recording)
        for case, n, i, s, full in [*(row + (False,) for row in SCOPE_INSTANCES),
                                    ("c", 5, 1, 4, True)]:
            datum = make_datum(case, n)
            regular_by_components(datum, fixedpoint.build_hat_crystal(datum, i, s).crystal, full)
    return sorted(seen)


def _closure_matches_the_edge_builder(gcm, lam):
    want = highest_weight_crystal_from_edges(gcm, lam)
    keys, _ = highest_weight_closure(gcm, lam)
    assert len(keys) == len(want)
    assert sorted(map(mono_id, keys)) == list(want.ids)
    assert sorted(map(_render, map(_decode, keys))) == list(want.ids)
    assert weight_multiset(gcm, lam) == tuple(sorted(want.weights))
    for key in map(_decode, keys):
        for j in range(len(gcm)):
            assert f_mono(gcm, key, j) == _f_mono_by_profile(gcm, key, j)


def test_closure_matches_the_edge_builder_where_regularity_looks(regular_blocks):
    # the full regularity of (c,5,1,4) reaches rank-4 blocks
    assert any(len(gcm) == 4 for gcm, _ in regular_blocks)
    for gcm, lam in regular_blocks:
        _closure_matches_the_edge_builder(gcm, lam)


def test_multiset_and_dimension_keep_the_guard_and_build_no_crystal(monkeypatch):
    built = []
    init = Crystal.__init__

    def counting(self, *args):
        built.append(args[2])
        init(self, *args)

    monkeypatch.setattr(Crystal, "__init__", counting)
    monkeypatch.setattr(monomial, "MAX_NODES", 5)
    weight_multiset.cache_clear()
    a3 = make_datum("a", 3)  # its folded classical block has rank 3
    with pytest.raises(RuntimeError, match="^crystal walk exceeded 5 nodes$"):
        weight_multiset(SL4, (1, 0, 1))
    with pytest.raises(RuntimeError, match="^crystal walk exceeded 5 nodes$"):
        weyl_dimension_by_monomials(a3, (1, 0, 0))
    # the Weyl product walks nothing, so the guard does not reach it
    assert weyl_dimension(a3, (1, 0, 0)) == 7
    monkeypatch.setattr(monomial, "MAX_NODES", 15)
    assert len(weight_multiset(SL4, (1, 0, 1))) == 15
    assert weyl_dimension_by_monomials(a3, (1, 0, 0)) == 7
    assert built == []


def test_every_shift_fits_below_the_color_bits():
    """A walk starts at shift 0 and each lowering adds at most 1 to the
    largest shift, so no shift reaches MAX_NODES; a shift of 1 << SHIFT_BITS
    would carry into the color bits of its code."""
    assert MAX_NODES < 1 << SHIFT_BITS


# -- the weight multiset of a disconnected block, factored over its pieces ----

def _whole_block_weights(gcm, lam):
    keys, _ = highest_weight_closure(gcm, lam)
    return tuple(sorted(mono_weight(key, len(gcm)) for key in keys))


def test_factored_multiset_matches_the_whole_block_walk(regular_blocks):
    # size-2 subsets of non-adjacent nodes give disconnected blocks
    assert any(gcm[0][1] == 0 for gcm, _ in regular_blocks if len(gcm) == 2)
    for gcm, lam in regular_blocks:
        assert weight_multiset(gcm, lam) == _whole_block_weights(gcm, lam)


# A2 on nodes 0 and 2, node 1 isolated: the pieces interleave
A2_AROUND_A1 = ((2, 0, -1), (0, 2, 0), (-1, 0, 2))
# three pieces: B2 on nodes 0 and 3, A1 on node 1 and A1 on node 2
THREE_PIECES = ((2, 0, 0, -2), (0, 2, 0, 0), (0, 0, 2, 0), (-1, 0, 0, 2))


@pytest.mark.parametrize("gcm,lam", [
    (A2_AROUND_A1, lam) for lam in [(1, 0, 0), (0, 1, 0), (1, 2, 0), (2, 1, 1), (0, 3, 2)]
] + [
    (THREE_PIECES, lam) for lam in [(1, 0, 0, 0), (0, 1, 2, 0), (1, 1, 1, 1), (0, 2, 1, 1)]
])
def test_factored_multiset_matches_the_whole_block_walk_on_synthetic_blocks(gcm, lam):
    assert weight_multiset(gcm, lam) == _whole_block_weights(gcm, lam)


def test_factored_multiset_refuses_a_product_past_the_guard(monkeypatch):
    built = []
    init = Crystal.__init__

    def counting(self, *args):
        built.append(args[2])
        init(self, *args)

    monkeypatch.setattr(Crystal, "__init__", counting)
    a1_a1 = ((2, 0), (0, 2))
    monkeypatch.setattr(monomial, "MAX_NODES", 15)
    weight_multiset.cache_clear()
    with pytest.raises(RuntimeError, match="^crystal walk exceeded 15 nodes$"):
        weight_multiset(a1_a1, (3, 3))
    monkeypatch.setattr(monomial, "MAX_NODES", 16)
    weight_multiset.cache_clear()
    assert len(weight_multiset(a1_a1, (3, 3))) == 16
    assert built == []

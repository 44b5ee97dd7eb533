"""Node models: frozen sizes, operator spot checks, scope gates."""

import pytest

from crystalfold import models
from crystalfold.cartan import ScopeError, make_datum
from crystalfold.crystal import Crystal, VerificationError
from crystalfold.models import (
    _bk_swap, _promote, _promote_inv, _vec_id, _vec_states, _vec_weight,
    _vector_crystal, classical_highest_node, kr_crystal)

A2 = make_datum("a", 2)
A3 = make_datum("a", 3)
B1 = make_datum("b", 1)
B2 = make_datum("b", 2)
C3 = make_datum("c", 3)
D3 = make_datum("d", 3)


@pytest.mark.parametrize("datum,i,s,size", [
    (A2, 1, 1, 4), (A2, 2, 1, 6), (A2, 3, 1, 4),
    (A2, 1, 2, 10), (A2, 2, 2, 20), (A2, 3, 2, 10),
    (B2, 1, 1, 5), (B2, 2, 1, 10), (B2, 3, 1, 10), (B2, 4, 1, 5),
    (B2, 1, 2, 15), (B2, 2, 2, 50), (B2, 3, 2, 50), (B2, 4, 2, 15),
    (A3, 1, 1, 6), (A3, 2, 1, 15), (A3, 3, 1, 20),
    (A3, 1, 2, 21), (A3, 2, 2, 105), (A3, 3, 2, 175),
    (B1, 1, 1, 3), (B1, 2, 1, 3), (B1, 1, 2, 6), (B1, 2, 2, 6),
    (C3, 1, 1, 8), (C3, 1, 2, 35), (C3, 3, 1, 8), (C3, 4, 1, 8),
    (D3, 1, 1, 29), (D3, 1, 2, 329), (D3, 2, 1, 8), (D3, 3, 1, 8), (D3, 4, 1, 8),
])
def test_frozen_sizes(datum, i, s, size):
    assert len(kr_crystal(datum, i, s)) == size


SAMPLE = [
    (A2, 1, 1), (A2, 2, 2), (A3, 3, 1), (B1, 1, 2), (B2, 2, 1),
    (C3, 1, 1), (C3, 1, 2), (C3, 3, 1), (C3, 4, 1),
    (D3, 1, 1), (D3, 1, 2), (D3, 2, 1), (D3, 3, 1), (D3, 4, 1),
]


@pytest.mark.parametrize("datum,i,s", SAMPLE)
def test_axioms_and_connectivity(datum, i, s):
    crys = kr_crystal(datum, i, s)
    report = crys.verify_crystal_axioms()
    assert report.ok, report.to_text()
    assert crys.is_connected()


@pytest.mark.parametrize("datum,i,s", [
    (A2, 1, 1), (A2, 2, 1), (B1, 1, 1), (B2, 1, 2),
    (C3, 1, 2), (C3, 4, 1), (D3, 1, 1), (D3, 1, 2), (D3, 3, 1),
])
def test_simple_and_perfect(datum, i, s):
    crys = kr_crystal(datum, i, s)
    report = crys.is_simple()
    crys.is_perfect(s, report)
    assert report.ok, report.to_text()


def test_cache_returns_same_object():
    assert kr_crystal(A2, 1, 1) is kr_crystal(A2, 1, 1)


# -- tableau family ---------------------------------------------------------

def test_promotion_on_single_boxes():
    # content moves down by one, cyclically
    n = B1.size
    assert _promote(((1,),), n) == ((n,),)
    for v in range(2, n + 1):
        assert _promote(((v,),), n) == ((v - 1,),)


def test_promotion_order():
    for datum, i, s in [(B1, 1, 2), (A2, 2, 1)]:
        n = datum.size
        crys = kr_crystal(datum, i, s)
        for b in crys.ids:
            tab = tuple(tuple(int(v) for v in row.split(","))
                        for row in b[2:].split("|"))
            cur = tab
            for _ in range(n):
                cur = _promote(cur, n)
            assert cur == tab
            assert _promote_inv(_promote(tab, n), n) == tab


def test_bk_is_involution():
    crys = kr_crystal(A2, 2, 2)
    n = A2.size
    for b in crys.ids:
        tab = tuple(tuple(int(v) for v in row.split(","))
                    for row in b[2:].split("|"))
        for t in range(1, n):
            assert _bk_swap(_bk_swap(tab, t), t) == tab


def test_affine_edges_on_single_boxes():
    crys = kr_crystal(B1, 1, 1)
    ids = crys.ids
    assert ids[crys.e[0][ids.index("t:1")]] == "t:3"
    assert ids[crys.f[0][ids.index("t:3")]] == "t:1"
    assert crys.f[0][ids.index("t:1")] == -1


def test_classical_edge_spot_check():
    crys = kr_crystal(A2, 2, 1)
    ids = crys.ids
    assert crys.f[1][ids.index("t:1|2")] == -1
    assert ids[crys.f[2][ids.index("t:1|2")]] == "t:1|3"
    assert ids[crys.e[2][ids.index("t:1|3")]] == "t:1|2"


# -- vector family ----------------------------------------------------------

def test_vector_affine_edge():
    crys = kr_crystal(C3, 1, 1)
    ids = crys.ids
    # the barred first letter shifts to the second letter under color 0
    assert ids[crys.f[0][ids.index("v:0,0,0,0|1,0,0,0")]] == "v:0,1,0,0|0,0,0,0"
    assert ids[crys.e[0][ids.index("v:0,1,0,0|0,0,0,0")]] == "v:0,0,0,0|1,0,0,0"


def test_vector_forbids_mixed_last_slot():
    crys = kr_crystal(C3, 1, 2)
    for b in crys.ids:
        xs, bars = b[2:].split("|")
        assert int(xs.split(",")[-1]) * int(bars.split(",")[-1]) == 0


def test_vector_highest():
    crys = kr_crystal(C3, 1, 2)
    assert crys.ids[classical_highest_node(C3, crys, 1, 2)] == "v:2,0,0,0|0,0,0,0"



def vector_crystal_from_edges(datum, s):
    """The string-keyed builder, kept as the oracle of _vector_crystal."""
    m = datum.n + 1
    states = _vec_states(m, s)
    nodes = {}
    f_edges = {j: {} for j in range(datum.size)}
    for xs, bars in states:
        nodes[_vec_id(xs, bars)] = (_vec_weight(datum, xs, bars), _vec_id(xs, bars)[2:])
    for xs, bars in states:
        bid = _vec_id(xs, bars)
        for j in range(datum.size):
            nxt = models._vec_f(xs, bars, j, m)
            if nxt is None:
                continue
            nx, nb = nxt
            if nx[m - 1] and nb[m - 1]:
                raise VerificationError("lowering left the state space at %s" % bid)
            f_edges[j][bid] = _vec_id(nx, nb)
    return Crystal.from_edges(datum.gcm, datum.comarks, nodes, f_edges)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_vector_arrays_match_the_edge_builder(n, s):
    datum = make_datum("c", n)
    got = _vector_crystal(datum, s)
    want = vector_crystal_from_edges(datum, s)
    assert (got.ids, got.weights, got.payloads, got.f) == (
        want.ids, want.weights, want.payloads, want.f)


def test_vector_lowering_out_of_the_state_space_is_caught(monkeypatch):
    # a lowering that fills the last slot now fills its barred twin too
    step = models._vec_f

    def leaky(xs, bars, j, m):
        out = step(xs, bars, j, m)
        if out is None or not out[0][m - 1]:
            return out
        return out[0], out[1][:m - 1] + (1,)

    monkeypatch.setattr(models, "_vec_f", leaky)
    message = "lowering left the state space at v:0,0,1,0|0,0,0,0"
    with pytest.raises(VerificationError, match="^%s$" % message):
        _vector_crystal(C3, 1)
    with pytest.raises(VerificationError, match="^%s$" % message):
        vector_crystal_from_edges(C3, 1)

# -- fork and branch point families -----------------------------------------

def test_spin_parities():
    odd = kr_crystal(C3, 3, 1)
    even = kr_crystal(C3, 4, 1)
    assert all(b[2:].count("-") % 2 == 1 for b in odd.ids)
    assert all(b[2:].count("-") % 2 == 0 for b in even.ids)
    assert "p:++++" in even.ids
    assert even.ids[classical_highest_node(C3, even, 4, 1)] == "p:++++"
    assert odd.ids[classical_highest_node(C3, odd, 3, 1)] == "p:+++-"


def test_spin_edges():
    even = kr_crystal(C3, 4, 1)
    ids = even.ids
    assert ids[even.f[4][ids.index("p:++++")]] == "p:++--"
    assert ids[even.f[2][ids.index("p:++--")]] == "p:+-+-"
    assert even.f[3][ids.index("p:++--")] == -1
    assert ids[even.e[0][ids.index("p:++++")]] == "p:--++"


def test_center_classical_tower():
    for s, sizes in [(1, [1, 28]), (2, [1, 28, 300])]:
        crys = kr_crystal(D3, 1, s)
        comps = crys.components(colors=(1, 2, 3, 4))
        assert sorted(len(c) for c in comps) == sorted(sizes)


def test_center_zero_color_is_total_enough():
    crys = kr_crystal(D3, 1, 1)
    assert crys.is_connected()
    zero_edges = sum(1 for dst in crys.f[0] if dst != -1)
    assert zero_edges > 0


def test_triple_fork_relabel_weights():
    # branch point carries the doubled zero-node coefficient
    crys = kr_crystal(D3, 2, 1)
    center_wt = crys.weights[classical_highest_node(D3, crys, 2, 1)]
    assert center_wt == (-1, 0, 1, 0, 0)


# -- scope gates ------------------------------------------------------------

def test_scope_errors():
    with pytest.raises(ScopeError):
        kr_crystal(C3, 2, 1)
    with pytest.raises(ScopeError):
        kr_crystal(C3, 3, 2)
    with pytest.raises(ScopeError):
        kr_crystal(D3, 1, 3)
    with pytest.raises(ScopeError):
        kr_crystal(D3, 3, 2)
    with pytest.raises(ScopeError):
        kr_crystal(A2, 4, 1)
    with pytest.raises(ScopeError):
        kr_crystal(A2, 1, 0)

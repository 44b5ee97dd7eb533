"""Node models: frozen sizes, operator spot checks, scope gates."""

import itertools
import json

import pytest

from crystalfold import models
from crystalfold.cartan import ScopeError, block, make_datum
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import Crystal, Report, VerificationError, propagate_map
from crystalfold.models import (
    _bk_swap, _center_candidates, _center_crystal, _center_swap, _promote,
    _spin_id, _spin_weight, _tab_id, _tab_weight, _tableau_crystal, _vec_id,
    _vec_states, _vec_weight, _vector_crystal, affinize, classical_highest_node,
    kr_crystal)
from crystalfold.monomial import highest_weight_crystal
from leaves import crystal_from_edges

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

def _promote_inv(tab, nletters):
    for t in range(nletters - 1, 0, -1):
        tab = _bk_swap(tab, t)
    return tab


def _is_rect_ssyt(rows, nletters):
    height = len(rows)
    width = len(rows[0])
    for r in range(height):
        for c in range(width):
            v = rows[r][c]
            if not 1 <= v <= nletters:
                return False
            if c + 1 < width and rows[r][c + 1] < v:
                return False
            if r + 1 < height and rows[r + 1][c] <= v:
                return False
    return True


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


def tableau_crystal_from_edges(datum, i, s):
    """The string-keyed builder, kept as the oracle of _tableau_crystal:
    every lowered filling re-checked as semistandard, and f_0 applied
    tableau by tableau as promotion, f_1, inverse promotion."""
    nletters = datum.size
    tabs = models._enumerate_rect(nletters, i, s)
    nodes = {}
    f_edges = {j: {} for j in range(nletters)}
    for tab in tabs:
        nodes[_tab_id(tab)] = (_tab_weight(tab, nletters), _tab_id(tab)[2:])
    for tab in tabs:
        bid = _tab_id(tab)
        for t in range(1, nletters):
            down = models._tab_signature_act(tab, t)
            if down is not None:
                if not _is_rect_ssyt(down, nletters):
                    raise VerificationError("lowering broke the filling at %s" % bid)
                f_edges[t][bid] = _tab_id(down)
        shifted = models._tab_signature_act(_promote_inv(tab, nletters), 1)
        if shifted is not None:
            down = _promote(shifted, nletters)
            if not _is_rect_ssyt(down, nletters):
                raise VerificationError("affine lowering broke the filling at %s" % bid)
            f_edges[0][bid] = _tab_id(down)
    return crystal_from_edges(datum.gcm, datum.comarks, nodes, f_edges)


def _scope_tableau_columns():
    cols = set()
    for case, n, i, s in SCOPE_INSTANCES + [("a", 4, 2, 2), ("b", 3, 2, 2)]:
        if case in ("a", "b"):
            datum = make_datum(case, n)
            cols.update((case, n, col, s) for col in datum.orbit(i))
    return sorted(cols) + [("a", 4, 3, 2), ("b", 3, 4, 2), ("a", 3, 1, 4)]


@pytest.mark.parametrize("case,n,i,s", _scope_tableau_columns())
def test_tableau_arrays_match_the_edge_builder(case, n, i, s):
    datum = make_datum(case, n)
    got = json.dumps(_tableau_crystal(datum, i, s).to_json(), sort_keys=True)
    want = json.dumps(tableau_crystal_from_edges(datum, i, s).to_json(), sort_keys=True)
    assert got == want


@pytest.mark.parametrize("datum,i,s,t,uneven,witness", [
    (A2, 2, 1, 2, False, "t:1|2"),
    (A3, 3, 2, 2, True, "t:1,2|2,4|3,5"),  # id order would name t:1,2|2,3|4,4
])
def test_tableau_lowering_out_of_the_fillings_is_caught(
        monkeypatch, datum, i, s, t, uneven, witness):
    # a letter-t lowering that also bumps the last box past the alphabet,
    # only on fillings with an uneven first row when uneven is set; the
    # witness is the first broken filling in enumeration order
    step = models._tab_signature_act

    def leaky(tab, letter):
        out = step(tab, letter)
        if out is None or letter != t or (uneven and len(set(tab[0])) == 1):
            return out
        return out[:-1] + (out[-1][:-1] + (datum.size + 1,),)

    monkeypatch.setattr(models, "_tab_signature_act", leaky)
    message = r"^lowering broke the filling at %s$" % witness.replace("|", r"\|")
    with pytest.raises(VerificationError, match=message):
        _tableau_crystal(datum, i, s)
    with pytest.raises(VerificationError, match=message):
        tableau_crystal_from_edges(datum, i, s)


def test_tableau_promotion_out_of_the_fillings_is_caught(monkeypatch):
    promote = models._promote

    def broken(tab, nletters):
        out = promote(tab, nletters)
        return ((nletters + 1,),) if out == ((1,),) else out

    monkeypatch.setattr(models, "_promote", broken)
    with pytest.raises(VerificationError, match="^promotion broke the filling at t:2$"):
        _tableau_crystal(B1, 1, 1)


def test_tableau_promotion_that_is_not_a_permutation_is_caught(monkeypatch):
    monkeypatch.setattr(models, "_promote", lambda tab, nletters: ((1,),))
    with pytest.raises(VerificationError,
                       match="^promotion is not a permutation of the fillings$"):
        _tableau_crystal(B1, 1, 1)


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
    return crystal_from_edges(datum.gcm, datum.comarks, nodes, f_edges)


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


def spin_crystal_from_edges(datum, parity):
    """The string-keyed builder, kept as the oracle of _spin_crystal."""
    m = datum.n + 1
    states = [signs for signs in itertools.product((1, -1), repeat=m)
              if sum(1 for v in signs if v < 0) % 2 == parity]
    nodes = {}
    f_edges = {j: {} for j in range(datum.size)}
    for signs in states:
        nodes[_spin_id(signs)] = (_spin_weight(datum, signs), _spin_id(signs)[2:])
    for signs in states:
        for j in range(datum.size):
            nxt = models._spin_f(signs, j, m)
            if nxt is not None:
                f_edges[j][_spin_id(signs)] = _spin_id(nxt)
    return crystal_from_edges(datum.gcm, datum.comarks, nodes, f_edges)


@pytest.mark.parametrize("case,n,i", [("c", n, i) for n in (3, 4, 5) for i in (n, n + 1)]
                         + [("d", 3, 3), ("d", 3, 4)])
def test_spin_arrays_match_the_edge_builder(case, n, i):
    datum = make_datum(case, n)
    if case == "c":
        want = spin_crystal_from_edges(datum, 1 if i == n else 0)
    else:
        want = models._relabeled_triple(
            datum, lambda std: spin_crystal_from_edges(std, 1 if i == 3 else 0))
    got = kr_crystal(datum, i, 1)
    assert (json.dumps(got.to_json(), sort_keys=True)
            == json.dumps(want.to_json(), sort_keys=True))


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


# -- the affine completion search of the branch-point column ------------------

def center_crystal_by_matchings(datum, s):
    """The search that propagates every sigma piece once per matching, kept
    as the oracle of _center_crystal, which propagates each piece once."""
    block_gcm = block(datum.gcm, (1, 2, 3, 4))
    nodes = {}
    f_edges = {j: {} for j in range(datum.size)}
    for k in range(s + 1):
        part = highest_weight_crystal(block_gcm, (k, 0, 0, 0))
        rename = ["c%d:%s" % (k, b[2:]) for b in part.ids]
        for b, wt, payload in zip(rename, part.weights, part.payloads):
            nodes[b] = (affinize(datum.comarks, wt), (k, payload))
        for pos in range(4):
            for src, dst in enumerate(part.f[pos]):
                if dst != -1:
                    f_edges[pos + 1][rename[src]] = rename[dst]
    partial = crystal_from_edges(datum.gcm, datum.comarks, nodes, f_edges)
    comps = partial.components(colors=(1, 3, 4))
    heads, matchings = _center_candidates(partial, comps)
    survivors = []
    for matching in matchings:
        sigma = [-1] * len(partial)
        try:
            for k, pick in matching.items():
                image = models.propagate_map(
                    partial, partial, {heads[k]: heads[pick]},
                    colors=(1, 3, 4), domain=comps[k], weight_map=_center_swap)
                for x in comps[k]:
                    sigma[x] = image[x]
        except VerificationError:
            continue
        mids = [partial.f[2][image] for image in sigma]
        zero = [-1 if mid == -1 else sigma[mid] for mid in mids]
        crys = Crystal(datum.gcm, datum.comarks, partial.ids, partial.weights,
                       [zero] + partial.f[1:], partial.payloads)
        if crys.verify_crystal_axioms().ok and crys.is_connected():
            survivors.append(crys)
    distinct = {tuple(crys.f[0]): crys for crys in survivors}
    if len(distinct) > 1:
        kept = {tuple(crys.f[0]): crys for crys in distinct.values()
                if crys.is_simple().ok and crys.is_perfect(s).ok}
        if len(kept) != 1:
            raise VerificationError(
                "%d affine completions survive at width %d" % (len(kept), s))
        distinct = kept
    if not distinct:
        raise VerificationError("no affine completion verifies at width %d" % s)
    return next(iter(distinct.values()))


def _traced_build(monkeypatch, build, datum, s, refuse=lambda anchors: False):
    """build(datum, s) as its to_json or raised message, the stage list of
    every Report made meanwhile in creation order, and the number of
    propagate_map calls; a call whose anchors refuse accepts fails."""
    reports = []
    calls = []
    init = Report.__init__

    def recording(report, *args, **kwargs):
        init(report, *args, **kwargs)
        reports.append(report)

    def counting(src, dst, anchors, **kwargs):
        calls.append(1)
        if refuse(anchors):
            raise VerificationError("refused")
        return propagate_map(src, dst, anchors, **kwargs)

    highest_weight_crystal.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(Report, "__init__", recording)
        patch.setattr(models, "propagate_map", counting)
        try:
            doc = json.dumps(build(datum, s).to_json(), sort_keys=True)
        except VerificationError as exc:
            doc = "raised: %s" % exc
    return doc, [list(report.stages) for report in reports], len(calls)


@pytest.mark.parametrize("s,most,oracle_calls", [(1, 7, 10), (2, 27, 240)])
def test_center_search_propagates_each_piece_once(monkeypatch, s, most, oracle_calls):
    got = _traced_build(monkeypatch, _center_crystal, D3, s)
    want = _traced_build(monkeypatch, center_crystal_by_matchings, D3, s)
    assert got[0] == want[0] and not got[0].startswith("raised")
    assert got[1] == want[1] and len(got[1]) > 0
    assert want[2] == oracle_calls
    assert got[2] <= most


@pytest.mark.parametrize("s,head,image,outcome", [
    (1, 0, 0, "{"), (1, 0, 20, "raised: no affine completion verifies"),
    (2, 47, 119, "{"), (2, 20, 20, "raised: 0 affine completions survive"),
    (2, 0, 305, "raised: 0 affine completions survive"),
    (2, 56, 178, "raised: no affine completion verifies"),
])
def test_center_search_skips_a_failed_piece_in_every_matching(
        monkeypatch, s, head, image, outcome):
    # no piece fails on the scope data, so one is refused: the piece of the
    # component of node head that sends it to node image
    def refuse(anchors):
        return anchors == {head: image}

    got = _traced_build(monkeypatch, _center_crystal, D3, s, refuse)
    want = _traced_build(monkeypatch, center_crystal_by_matchings, D3, s, refuse)
    assert got[:2] == want[:2]
    assert got[0].startswith(outcome)

"""Node models: frozen sizes, operator spot checks, scope gates."""

import dataclasses
import itertools
import json
import pathlib
import re

import pytest

from crystalfold import models
from crystalfold.cartan import ScopeError, block, make_datum
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import Crystal, Report, VerificationError, propagate_map
from crystalfold.fixedpoint import verify_main_theorem
from crystalfold.intertwine import orbit_factors
from crystalfold.models import (
    _center_candidates, _center_crystal, _center_swap, _spin_crystal, _tableau_crystal,
    _vec_states, _vector_crystal, classical_highest_node, kr_crystal)
from crystalfold.monomial import highest_weight_crystal
from leaves import clear_package_caches, crystal_from_edges

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

# The filling-by-filling tableau operators, kept as the oracle of the
# whole-array builders in models: the signature rule on the column reading
# word, and promotion as Bender-Knuth swaps on the fillings themselves.

def _enumerate_rect_by_growth(nletters, i, s):
    """All semistandard fillings of the i by s rectangle, column by column."""
    cols = list(itertools.combinations(range(1, nletters + 1), i))
    out = []

    def grow(chosen):
        if len(chosen) == s:
            out.append(tuple(tuple(col[r] for col in chosen) for r in range(i)))
            return
        floor = chosen[-1] if chosen else None
        for col in cols:
            if floor is None or all(a <= b for a, b in zip(floor, col)):
                grow(chosen + [col])

    grow([])
    return out


def _reading_cells(i, s):
    # rightmost column first, top to bottom inside a column
    return [(r, c) for c in range(s - 1, -1, -1) for r in range(i)]


def _tab_signature_act(tab, t):
    """Apply the letter-t lowering operator, None at the end."""
    i, s = len(tab), len(tab[0])
    stack = []
    for r, c in _reading_cells(i, s):
        v = tab[r][c]
        if v == t:
            stack.append((r, c))
        elif v == t + 1 and stack:
            stack.pop()
    if not stack:
        return None
    r, c = stack[0]
    rows = [list(row) for row in tab]
    rows[r][c] = t + 1
    return tuple(tuple(row) for row in rows)


def _bk_swap(tab, t):
    """Exchange free occurrences of t and t+1 row by row."""
    i, s = len(tab), len(tab[0])
    rows = [list(row) for row in tab]
    for r in range(i):
        free = []
        for c in range(s):
            v = rows[r][c]
            if v == t:
                below = rows[r + 1][c] if r + 1 < i else None
                if below != t + 1:
                    free.append(c)
            elif v == t + 1:
                above = rows[r - 1][c] if r > 0 else None
                if above != t:
                    free.append(c)
        if not free:
            continue
        a = sum(1 for c in free if rows[r][c] == t)
        b = len(free) - a
        for k, c in enumerate(free):
            rows[r][c] = t if k < b else t + 1
    return tuple(tuple(row) for row in rows)


def _promote(tab, nletters):
    for t in range(1, nletters):
        tab = _bk_swap(tab, t)
    return tab


def _promote_inv(tab, nletters):
    for t in range(nletters - 1, 0, -1):
        tab = _bk_swap(tab, t)
    return tab


def _tab_id(tab):
    return "t:" + "|".join(",".join(str(v) for v in row) for row in tab)


def _tab_weight(tab, nletters):
    counts = [0] * (nletters + 1)
    for row in tab:
        for v in row:
            counts[v] += 1
    wt = [counts[nletters] - counts[1]]
    for t in range(1, nletters):
        wt.append(counts[t] - counts[t + 1])
    return tuple(wt)


def _row_contents(tab, nletters):
    return [[row.count(a) for a in range(1, nletters + 1)] for row in tab]


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
    tabs = _enumerate_rect_by_growth(nletters, i, s)
    nodes = {}
    f_edges = {j: {} for j in range(nletters)}
    for tab in tabs:
        nodes[_tab_id(tab)] = (_tab_weight(tab, nletters), _tab_id(tab)[2:])
    for tab in tabs:
        bid = _tab_id(tab)
        for t in range(1, nletters):
            down = _tab_signature_act(tab, t)
            if down is not None:
                if not _is_rect_ssyt(down, nletters):
                    raise VerificationError("lowering broke the filling at %s" % bid)
                f_edges[t][bid] = _tab_id(down)
        shifted = _tab_signature_act(_promote_inv(tab, nletters), 1)
        if shifted is not None:
            down = _promote(shifted, nletters)
            if not _is_rect_ssyt(down, nletters):
                raise VerificationError("affine lowering broke the filling at %s" % bid)
            f_edges[0][bid] = _tab_id(down)
    return crystal_from_edges(datum.gcm, datum.comarks, nodes, f_edges)


def _rect_size(nletters, i, s):
    """The number of fillings, by the hook-content formula."""
    num = den = 1
    for r in range(i):
        for c in range(s):
            num *= nletters + c - r
            den *= (i - r) + (s - c) - 1
    return num // den


TABLEAU_COLUMNS = [
    (case, n, i, s)
    for case, ns in (("a", (2, 3, 4)), ("b", (1, 2, 3))) for n in ns
    for i in range(1, make_datum(case, n).size) for s in (1, 2, 3)
    if _rect_size(make_datum(case, n).size, i, s) <= 2000]


def _scope_tableau_columns():
    cols = set()
    for case, n, i, s in SCOPE_INSTANCES + [("a", 4, 2, 2), ("b", 3, 2, 2)]:
        if case in ("a", "b"):
            datum = make_datum(case, n)
            cols.update((case, n, col, s) for col in datum.orbit(i))
    return cols | {("a", 4, 3, 2), ("b", 3, 4, 2), ("a", 3, 1, 4)}


@pytest.mark.parametrize("case,n,i,s", sorted(_scope_tableau_columns() | set(TABLEAU_COLUMNS)))
def test_tableau_arrays_match_the_edge_builder(case, n, i, s):
    # past the middle, kr_crystal twists the column's partner
    datum = make_datum(case, n)
    got = json.dumps(kr_crystal(datum, i, s).to_json(), sort_keys=True)
    want = json.dumps(tableau_crystal_from_edges(datum, i, s).to_json(), sort_keys=True)
    assert got == want


@pytest.mark.parametrize("datum,i,s,t,uneven,witness", [
    (A2, 2, 1, 2, False, "t:1|2"),
    (A3, 3, 2, 2, True, "t:1,2|2,4|3,5"),  # id order would name t:1,2|2,3|4,4
])
def test_tableau_lowering_out_of_the_fillings_is_caught(
        monkeypatch, datum, i, s, t, uneven, witness):
    # a letter-t lowering that also turns a 1 of the top row into t + 1,
    # only on fillings with an uneven first row when uneven is set; the
    # witness is the first broken filling in enumeration order. In the
    # rules, each guard of color t gets a leaky twin ahead of it.
    rules_of = models._tableau_lowering

    def leaky_rules(rows, letter, radix):
        rules = rules_of(rows, letter, radix)
        if letter != t:
            return rules
        top = rows[0]
        leaks = [ones > 0 and not (uneven and max(counts) == radix - 1)
                 for ones, counts in zip(top[0], zip(*top))]
        leak = radix ** t - 1  # one box of the top row from letter 1 to letter t + 1
        return [rule for guard, delta in rules
                for rule in ((list(map(all, zip(guard, leaks))), delta + leak), (guard, delta))]

    step = _tab_signature_act

    def leaky(tab, letter):
        out = step(tab, letter)
        if out is None or letter != t or out[0][0] != 1 or (uneven and len(set(tab[0])) == 1):
            return out
        return (tuple(sorted(out[0][1:] + (t + 1,))),) + out[1:]

    monkeypatch.setattr(models, "_tableau_lowering", leaky_rules)
    monkeypatch.setitem(globals(), "_tab_signature_act", leaky)
    message = r"^lowering broke the filling at %s$" % witness.replace("|", r"\|")
    with pytest.raises(VerificationError, match=message):
        _tableau_crystal(datum, i, s)
    with pytest.raises(VerificationError, match=message):
        tableau_crystal_from_edges(datum, i, s)


def test_tableau_promotion_out_of_the_fillings_is_caught(monkeypatch):
    # the last Bender-Knuth step drops the box of the filling it ends at 1
    step = models._bk_step

    def broken(rows, lower, t):
        step(rows, lower, t)
        if t == B1.size - 1:
            rows[0][0] = [0] * len(lower[0])

    monkeypatch.setattr(models, "_bk_step", broken)
    with pytest.raises(VerificationError, match="^promotion broke the filling at t:2$"):
        _tableau_crystal(B1, 1, 1)


def test_tableau_promotion_that_is_not_a_permutation_is_caught(monkeypatch):
    def constant(rows, lower, t):
        # every filling ends as the single box 1
        ones = [1] * len(lower[0])
        rows[0][:] = [ones] + [[0] * len(ones) for _ in rows[0][1:]]

    monkeypatch.setattr(models, "_bk_step", constant)
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


@pytest.mark.parametrize("datum,i,s", [(A2, 2, 2), (A3, 3, 2), (B2, 2, 3), (A3, 2, 3)])
def test_bk_steps_on_row_contents_are_the_swaps(datum, i, s):
    nletters = datum.size
    tabs = _enumerate_rect_by_growth(nletters, i, s)
    rows = [[list(col) for col in zip(*letters)]
            for letters in zip(*(_row_contents(tab, nletters) for tab in tabs))]
    lower = [[0] * len(tabs) for _ in range(i)]
    for t in range(1, nletters):
        models._bk_step(rows, lower, t)
        tabs = [_bk_swap(tab, t) for tab in tabs]
        want = [_row_contents(tab, nletters) for tab in tabs]
        got = [[list(counts) for counts in contents] for contents in zip(*(zip(*row) for row in rows))]
        assert got == want
        assert lower == [[sum(contents[r][:t]) for contents in want] for r in range(i)]


@pytest.mark.parametrize("nletters,i,s", [(4, 2, 2), (6, 3, 2), (7, 2, 3), (3, 1, 4)])
def test_fillings_come_in_the_order_of_growth(nletters, i, s):
    # the enumeration order fixes which filling a fault names
    assert models._enumerate_rect(nletters, i, s) == _enumerate_rect_by_growth(nletters, i, s)


def _twist(tab, nletters):
    return tuple(zip(*(models._twist_column(col, nletters) for col in zip(*tab))))


@pytest.mark.parametrize("case,n", [("a", 2), ("a", 3), ("a", 4), ("b", 1), ("b", 2), ("b", 3)])
def test_twist_there_and_back_returns_every_filling(case, n):
    nletters = make_datum(case, n).size
    for i in range(1, nletters):
        for s in (1, 2):
            tabs = _enumerate_rect_by_growth(nletters, i, s)
            there = [_twist(tab, nletters) for tab in tabs]
            assert sorted(there) == sorted(_enumerate_rect_by_growth(nletters, nletters - i, s))
            assert [_twist(tab, nletters) for tab in there] == tabs


@pytest.fixture
def cold_caches():
    clear_package_caches()
    yield
    clear_package_caches()


@pytest.mark.parametrize("case,n,i,s,twin", [("a", 2, 1, 1, 3), ("a", 3, 1, 2, 5), ("b", 2, 1, 2, 4)])
def test_a_twist_whose_colors_skip_omega_is_caught(monkeypatch, cold_caches, case, n, i, s, twin):
    # the twist image built as if omega fixed every color: its weights are
    # its partner's, so no node of the twin carries the twin's top weight
    twisted = models._twisted_column

    def skipping(datum, i_, s_):
        return twisted(dataclasses.replace(datum, omega=tuple(range(datum.size))), i_, s_)

    monkeypatch.setattr(models, "_twisted_column", skipping)
    message = "^0 nodes carry the top weight for column %d width %d$" % (twin, s)
    with pytest.raises(VerificationError, match=message):
        verify_main_theorem(make_datum(case, n), i, s)


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



# -- the per-state oracles of the columns -------------------------------------

def affinize(comarks, classical):
    """Complete classical pairings (indexed from node 1) to a level zero tuple."""
    rest = tuple(classical)
    return (-sum(c * v for c, v in zip(comarks[1:], rest)),) + rest


def _vec_id(xs, bars):
    return ("v:" + ",".join(str(v) for v in xs)
            + "|" + ",".join(str(v) for v in bars))


def _vec_weight(datum, xs, bars):
    m = len(xs)
    mu = [x - b for x, b in zip(xs, bars)]
    pairs = [mu[j - 1] - mu[j] for j in range(1, m)]
    pairs.append(mu[m - 2] + mu[m - 1])
    return affinize(datum.comarks, pairs)


def vec_states_by_cuts(m, s):
    """(xs, bars) of every state, by the cut positions of s boxes into 2m slots."""
    out = []
    for cut in itertools.combinations(range(2 * m + s - 1), 2 * m - 1):
        parts = []
        prev = -1
        for pos in cut + (2 * m + s - 1,):
            parts.append(pos - prev - 1)
            prev = pos
        xs, bars = tuple(parts[:m]), tuple(parts[m:])
        if xs[m - 1] and bars[m - 1]:
            continue
        out.append((xs, bars))
    return out


def _vec_f(xs, bars, j, m):
    xs, bars = list(xs), list(bars)
    if j == 0:
        if bars[1] > xs[1]:
            bars[1] -= 1
            xs[0] += 1
        elif bars[0] >= 1:
            bars[0] -= 1
            xs[1] += 1
        else:
            return None
    elif j < m:
        if bars[j] > xs[j]:
            bars[j] -= 1
            bars[j - 1] += 1
        elif xs[j - 1] >= 1:
            xs[j - 1] -= 1
            xs[j] += 1
        else:
            return None
    else:
        if xs[m - 1] > 0:
            xs[m - 1] -= 1
            bars[m - 2] += 1
        elif xs[m - 2] > 0:
            xs[m - 2] -= 1
            bars[m - 1] += 1
        else:
            return None
    return tuple(xs), tuple(bars)


def _spin_id(signs):
    return "p:" + "".join("+" if v > 0 else "-" for v in signs)


def _spin_weight(datum, signs):
    m = len(signs)
    pairs = [(signs[j - 1] - signs[j]) // 2 for j in range(1, m)]
    pairs.append((signs[m - 2] + signs[m - 1]) // 2)
    return affinize(datum.comarks, pairs)


def _spin_f(signs, j, m):
    signs = list(signs)
    if j == 0:
        if signs[0] < 0 and signs[1] < 0:
            signs[0] = signs[1] = 1
        else:
            return None
    elif j < m:
        if signs[j - 1] > 0 and signs[j] < 0:
            signs[j - 1], signs[j] = -1, 1
        else:
            return None
    else:
        if signs[m - 2] > 0 and signs[m - 1] > 0:
            signs[m - 2] = signs[m - 1] = -1
        else:
            return None
    return tuple(signs)


def _spin_states(m, parity):
    return [signs for signs in itertools.product((1, -1), repeat=m)
            if sum(1 for v in signs if v < 0) % 2 == parity]


def crystal_by_states(datum, states, name, lower, weigh):
    """The per-state builder, kept as the oracle of models._state_crystal:
    name(state) renders its id, lower(state, j) is its color j image or
    None, and weigh(state) its weight; a lowering out of the states names
    the first witness in enumeration order."""
    named = sorted((name(state), state) for state in states)
    index = {state: k for k, (_, state) in enumerate(named)}
    ids = tuple(bid for bid, _ in named)
    f = [[-1] * len(ids) for _ in range(datum.size)]
    for state in states:
        k = index[state]
        for j, row in enumerate(f):
            nxt = lower(state, j)
            if nxt is None:
                continue
            dst = index.get(nxt)
            if dst is None:
                raise VerificationError("lowering left the state space at %s" % ids[k])
            row[k] = dst
    weights = tuple(weigh(state) for _, state in named)
    return Crystal(datum.gcm, datum.comarks, ids, weights, f,
                   tuple(bid[2:] for bid in ids))


def vector_crystal_by_states(datum, s):
    m = datum.n + 1
    return crystal_by_states(datum, vec_states_by_cuts(m, s), lambda state: _vec_id(*state),
                             lambda state, j: _vec_f(*state, j, m),
                             lambda state: _vec_weight(datum, *state))


def spin_crystal_by_states(datum, parity):
    m = datum.n + 1
    return crystal_by_states(datum, _spin_states(m, parity), _spin_id,
                             lambda signs, j: _spin_f(signs, j, m),
                             lambda signs: _spin_weight(datum, signs))


def _arrays(crys):
    return crys.ids, crys.weights, crys.payloads, crys.f


def vector_crystal_from_edges(datum, s):
    """The string-keyed builder, kept as the oracle of _vector_crystal."""
    m = datum.n + 1
    states = vec_states_by_cuts(m, s)
    nodes = {}
    f_edges = {j: {} for j in range(datum.size)}
    for xs, bars in states:
        nodes[_vec_id(xs, bars)] = (_vec_weight(datum, xs, bars), _vec_id(xs, bars)[2:])
    for xs, bars in states:
        bid = _vec_id(xs, bars)
        for j in range(datum.size):
            nxt = _vec_f(xs, bars, j, m)
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
    assert _arrays(_vector_crystal(datum, s)) == _arrays(vector_crystal_from_edges(datum, s))


@pytest.mark.parametrize("n,s", [(n, s) for n in range(3, 8) for s in range(1, 6)] + [(3, 10)])
def test_vector_columns_match_the_state_builder(n, s):
    datum = make_datum("c", n)
    got = _vector_crystal(datum, s)
    assert _arrays(got) == _arrays(vector_crystal_by_states(datum, s))
    assert _vec_states(n + 1, s) == [xs + bars for xs, bars in vec_states_by_cuts(n + 1, s)]
    if s == 10:
        # two-digit ids: id order is not the order of the states as tuples
        by_tuple = [_vec_id(*state) for state in sorted(vec_states_by_cuts(n + 1, s))]
        assert list(got.ids) != by_tuple


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("parity", [0, 1])
def test_spin_columns_match_the_state_builder(n, parity):
    datum = make_datum("c", n)
    assert _arrays(_spin_crystal(datum, parity)) == _arrays(spin_crystal_by_states(datum, parity))


def test_vector_lowering_out_of_the_state_space_is_caught(monkeypatch):
    # a lowering that fills the last slot now fills its barred twin too: in
    # the delta table of the columns, the move from slot m - 2 into slot
    # m - 1 also adds a box to the barred slot m - 1
    build = models._state_crystal

    def leaky_table(datum, digits, radix, lowering, *rest):
        m = len(digits) // 2
        into_last = radix ** (m - 1) - radix ** (m - 2)
        lowering = [[(guard, delta + radix ** (2 * m - 1) if delta == into_last else delta)
                     for guard, delta in rules] for rules in lowering]
        return build(datum, digits, radix, lowering, *rest)

    step = _vec_f

    def leaky(xs, bars, j, m):
        out = step(xs, bars, j, m)
        if out is None or not out[0][m - 1]:
            return out
        return out[0], out[1][:m - 1] + (1,)

    monkeypatch.setattr(models, "_state_crystal", leaky_table)
    monkeypatch.setitem(globals(), "_vec_f", leaky)
    message = "lowering left the state space at v:0,0,1,0|0,0,0,0"
    for build_column in (_vector_crystal, vector_crystal_by_states, vector_crystal_from_edges):
        with pytest.raises(VerificationError, match="^%s$" % message):
            build_column(C3, 1)

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
    states = _spin_states(m, parity)
    nodes = {}
    f_edges = {j: {} for j in range(datum.size)}
    for signs in states:
        nodes[_spin_id(signs)] = (_spin_weight(datum, signs), _spin_id(signs)[2:])
    for signs in states:
        for j in range(datum.size):
            nxt = _spin_f(signs, j, m)
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
        want = models._relabeled_triple(datum, spin_crystal_from_edges(C3, 1 if i == 3 else 0))
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


def _size_or_refusal(build):
    try:
        built = build()
    except ScopeError as exc:
        return str(exc)
    return list(map(len, built)) if isinstance(built, list) else len(built)


def test_refusal_table():
    # every column i from -1 to the datum size at every width s from 0 to 3:
    # the size of kr_crystal and of each orbit_factors column, or the exact
    # ScopeError text, as recorded in kr_refusals.json, "datum,i,s" keyed
    with open(pathlib.Path(__file__).with_name("kr_refusals.json")) as fh:
        want = json.load(fh)
    got = {}
    for case, n in (("a", 2), ("a", 3), ("b", 1), ("b", 2), ("c", 3), ("c", 4), ("d", 3)):
        datum = make_datum(case, n)
        for i, s in itertools.product(range(-1, datum.size + 1), range(4)):
            got["%s%d,%d,%d" % (case, n, i, s)] = [
                _size_or_refusal(lambda: kr_crystal(datum, i, s)),
                _size_or_refusal(lambda: orbit_factors(datum, i, s))]
    assert got == want


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


@pytest.mark.parametrize("s,color,head,candidates", [(1, 1, 5, 2), (2, 4, 12, 16)])
def test_center_search_fails_a_cyclic_classical_string_in_each_candidate(
        monkeypatch, s, color, head, candidates):
    # block c<s> with its color string from node head closed into a cycle:
    # the heads and pieces stand, and every candidate, which shares the
    # classical strings of the one before it, walks the cycle in its own
    # axiom:semiregular stage and fails there with the same text
    clean = highest_weight_crystal

    def closed(gcm, wt):
        part = clean(gcm, wt)
        if wt != (s, 0, 0, 0):
            return part
        f = [list(row) for row in part.f]
        tail = head
        while f[color - 1][tail] != -1:
            tail = f[color - 1][tail]
        f[color - 1][tail] = head
        return Crystal(part.gcm, part.comarks, part.ids, part.weights, f, part.payloads)

    closed.cache_clear = clean.cache_clear
    monkeypatch.setattr(models, "highest_weight_crystal", closed)
    monkeypatch.setitem(globals(), "highest_weight_crystal", closed)
    got = _traced_build(monkeypatch, _center_crystal, D3, s)
    want = _traced_build(monkeypatch, center_crystal_by_matchings, D3, s)
    assert got[:2] == want[:2]
    assert got[0] == "raised: no affine completion verifies at width %d" % s
    semiregular = [stages[2] for stages in got[1]]
    assert len(semiregular) == candidates and len(set(semiregular)) == 1
    name, ok, text = semiregular[0]
    assert (name, ok) == ("axiom:semiregular", False)
    assert re.fullmatch("color %d has a cyclic string through c%d:.+" % (color, s), text)


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


def _checks(crys, s):
    """The axiom, connectivity, simplicity and perfectness verdicts of crys,
    each as its stages or the raised message."""
    out = []
    for check in (crys.verify_crystal_axioms, crys.is_connected, crys.is_simple,
                  lambda: crys.is_perfect(s)):
        try:
            got = check()
        except VerificationError as exc:
            got = "raised: %s" % exc
        out.append(got if isinstance(got, (bool, str)) else got.stages)
    return out


@pytest.mark.parametrize("s,connected", [(1, [False, True]), (2, [False] * 9 + [True] * 3
                                                                   + [False] + [True] * 3)])
def test_center_search_candidates_match_fresh_crystals(monkeypatch, s, connected):
    # every candidate shares the classical colors' records and the (1, 3, 4)
    # labelling with the one before it; a fresh crystal on copies of its
    # arrays shares nothing and must give the same verdicts
    twins = []
    with_color = Crystal.with_color

    def recording(crys, j, row):
        twin = with_color(crys, j, row)
        twins.append(twin)
        return twin

    highest_weight_crystal.cache_clear()
    monkeypatch.setattr(Crystal, "with_color", recording)
    _center_crystal(D3, s)
    got = [_checks(twin, s) for twin in twins]
    want = [_checks(Crystal(twin.gcm, twin.comarks, twin.ids, twin.weights,
                            [list(row) for row in twin.f], twin.payloads), s)
            for twin in twins]
    assert got == want
    assert [checks[1] for checks in got] == connected

"""Node-level models for the rectangle crystals in scope.

Four families: semistandard rectangular tableaux for the cyclic parents,
multiplicity coordinates for the vector column of the simply-branched
parent, sign vectors for its two fork columns, and a monomial-block model
for the branch-point column of the triple fork. Every family produces a
plain Crystal over the parent affine data; nothing downstream depends on
the encoding.
"""

import itertools
from functools import lru_cache

from .cartan import ScopeError, block, make_datum, pi_weight
from .crystal import Crystal, VerificationError, propagate_map


def affinize(comarks, classical):
    """Complete classical pairings (indexed from node 1) to a level zero tuple."""
    rest = tuple(classical)
    zero = -sum(c * v for c, v in zip(comarks[1:], rest))
    return (zero,) + rest


# -- rectangular tableaux (cyclic parents) ----------------------------------

def _enumerate_rect(nletters, i, s):
    """All semistandard fillings of the i by s rectangle."""
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


def _tab_signature_act(tab, t, lower):
    """Apply the letter-t lowering (or raising) operator, None at the end."""
    i, s = len(tab), len(tab[0])
    stack = []
    minus = []
    for r, c in _reading_cells(i, s):
        v = tab[r][c]
        if v == t:
            stack.append((r, c))
        elif v == t + 1:
            if stack:
                stack.pop()
            else:
                minus.append((r, c))
    if lower:
        if not stack:
            return None
        r, c = stack[0]
        new_val = t + 1
    else:
        if not minus:
            return None
        r, c = minus[-1]
        new_val = t
    rows = [list(row) for row in tab]
    rows[r][c] = new_val
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


def _tableau_crystal(datum, i, s):
    """The tableau column on index arrays.

    f_1..f_{n-1} are looked up in the index of the fillings. The affine
    edge is the promotion conjugate f_0 = pr f_1 pr^-1, composed on whole
    arrays from the promotion permutation pr, one _promote per filling.
    """
    nletters = datum.size
    tabs = _enumerate_rect(nletters, i, s)
    named = sorted((_tab_id(tab), tab) for tab in tabs)
    index = {tab: k for k, (_, tab) in enumerate(named)}
    ids = tuple(bid for bid, _ in named)
    f = [[-1] * len(ids) for _ in range(nletters)]
    pr = [-1] * len(ids)
    # in enumeration order, so that a broken filling names the first witness
    for tab in tabs:
        k = index[tab]
        for t in range(1, nletters):
            down = _tab_signature_act(tab, t, lower=True)
            if down is not None:
                if down not in index:
                    raise VerificationError("lowering broke the filling at %s" % ids[k])
                f[t][k] = index[down]
        up = _promote(tab, nletters)
        if up not in index:
            raise VerificationError("promotion broke the filling at %s" % ids[k])
        pr[k] = index[up]
    if len(set(pr)) != len(pr):
        raise VerificationError("promotion is not a permutation of the fillings")
    for src, dst in enumerate(f[1]):
        if dst != -1:
            f[0][pr[src]] = pr[dst]
    weights = tuple(_tab_weight(tab, nletters) for _, tab in named)
    return Crystal(datum.gcm, datum.comarks, ids, weights, f,
                   tuple(bid[2:] for bid in ids))


# -- vector column (simply branched parents) --------------------------------

def _vec_id(xs, bars):
    return ("v:" + ",".join(str(v) for v in xs)
            + "|" + ",".join(str(v) for v in bars))


def _vec_weight(datum, xs, bars):
    m = len(xs)
    mu = [x - b for x, b in zip(xs, bars)]
    pairs = [mu[j - 1] - mu[j] for j in range(1, m)]
    pairs.append(mu[m - 2] + mu[m - 1])
    return affinize(datum.comarks, pairs)


def _vec_states(m, s):
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


def _state_crystal(datum, states, name, lower, weigh):
    """A column on index arrays from its list of states.

    name(state) renders its id, lower(state, j) is its color j image or
    None, and weigh(state) its weight; each id is rendered once.
    """
    named = sorted((name(state), state) for state in states)
    index = {state: k for k, (_, state) in enumerate(named)}
    ids = tuple(bid for bid, _ in named)
    f = [[-1] * len(ids) for _ in range(datum.size)]
    # in enumeration order, so that a lowering out of the states names the first witness
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


def _vector_crystal(datum, s):
    m = datum.n + 1
    return _state_crystal(datum, _vec_states(m, s), lambda state: _vec_id(*state),
                          lambda state, j: _vec_f(*state, j, m),
                          lambda state: _vec_weight(datum, *state))


# -- fork columns as sign vectors -------------------------------------------

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


def _spin_crystal(datum, parity):
    m = datum.n + 1
    states = [signs for signs in itertools.product((1, -1), repeat=m)
              if sum(1 for v in signs if v < 0) % 2 == parity]
    return _state_crystal(datum, states, _spin_id, lambda signs, j: _spin_f(signs, j, m),
                          lambda signs: _spin_weight(datum, signs))


# -- branch-point column of the triple fork ---------------------------------

# color map between the triple-fork numbering (branch point at 1) and the
# simply-branched numbering (branch point at 2)
_TRIPLE_RELABEL = (0, 2, 1, 3, 4)


def _relabeled_triple(datum, builder):
    inner = builder(make_datum("c", 3))
    perm = _TRIPLE_RELABEL
    weights = tuple(tuple(wt[p] for p in perm) for wt in inner.weights)
    return Crystal(datum.gcm, datum.comarks, inner.ids, weights,
                   [inner.f[p] for p in perm], inner.payloads)


def _center_swap(wt):
    # the diagram symmetry exchanging the two short legs of the branch point
    return (wt[2], wt[1], wt[0]) + tuple(wt[3:])


def _center_candidates(partial, comps):
    """All involutive component matchings compatible with the weight twist."""
    raising = [partial.e[j] for j in (1, 3, 4)]
    heads = []
    for comp in comps:
        top = [k for k in comp if all(e[k] == -1 for e in raising)]
        if len(top) != 1:
            raise VerificationError("component without a unique head")
        heads.append(top[0])
    by_wt = {}
    for k, h in enumerate(heads):
        by_wt.setdefault(partial.weights[h], []).append(k)
    targets = []
    for k, h in enumerate(heads):
        cand = by_wt.get(_center_swap(partial.weights[h]), [])
        if not cand:
            raise VerificationError("no mirror component for %s" % partial.ids[h])
        targets.append(cand)
    matchings = []

    def assign(k, current):
        if k == len(heads):
            matchings.append(dict(current))
            return
        if k in current:
            assign(k + 1, current)
            return
        for pick in targets[k]:
            if pick == k:
                current[k] = k
                assign(k + 1, current)
                del current[k]
            elif pick not in current and k in targets[pick]:
                current[k] = pick
                current[pick] = k
                assign(k + 1, current)
                del current[k], current[pick]

    assign(0, {})
    return heads, matchings


def _center_crystal(datum, s):
    """Branch-point column: monomial blocks glued by a diagram symmetry.

    The classical part is a tower of highest weight crystals with weights
    k times the branch-point fundamental, k = 0..s. The affine color is
    conjugate to the color-2 one under the involution sigma exchanging the
    two symmetric legs; sigma itself is pinned down by matching components
    under the remaining colors and, where several matchings are possible,
    by keeping the unique one whose affine graph verifies.
    """
    from .monomial import highest_weight_crystal

    block_gcm = block(datum.gcm, (1, 2, 3, 4))
    ids, weights, payloads = [], [], []
    classical = [[] for _ in range(4)]
    # blocks c0:, c1:, ... in order, each with its indices shifted by base
    for k in range(s + 1):
        part = highest_weight_crystal(block_gcm, (k, 0, 0, 0))
        base = len(ids)
        ids += ["c%d:%s" % (k, b[2:]) for b in part.ids]
        weights += [affinize(datum.comarks, wt) for wt in part.weights]
        payloads += [(k, payload) for payload in part.payloads]
        for row, lowering in zip(classical, part.f):
            row += [-1 if dst == -1 else base + dst for dst in lowering]
    partial = Crystal(datum.gcm, datum.comarks, tuple(ids), tuple(weights),
                      [[-1] * len(ids)] + classical, tuple(payloads))
    comps = partial.components(colors=(1, 3, 4))
    heads, matchings = _center_candidates(partial, comps)
    pieces = {}

    def piece(k, pick):
        # sigma on component k sending its head to the head of pick, or
        # None; matchings share pieces, so each is propagated once
        if (k, pick) not in pieces:
            try:
                pieces[k, pick] = propagate_map(
                    partial, partial, {heads[k]: heads[pick]},
                    colors=(1, 3, 4), domain=comps[k], weight_map=_center_swap)
            except VerificationError:
                pieces[k, pick] = None
        return pieces[k, pick]

    survivors = []
    for matching in matchings:
        sigma = [-1] * len(partial)
        for k, pick in matching.items():
            image = piece(k, pick)
            if image is None:
                break
            for x in comps[k]:
                sigma[x] = image[x]
        else:
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


# -- dispatch ---------------------------------------------------------------

@lru_cache(maxsize=None)
def kr_crystal(datum, i, s):
    """Kirillov-Reshetikhin crystal B^{i,s} over the parent affine data.

    Any classical parent node is accepted so that whole orbits can be
    built; columns without an in-scope model raise ScopeError.
    """
    if s < 1:
        raise ScopeError("width must be positive")
    if datum.case in ("a", "b"):
        if not 1 <= i <= datum.size - 1:
            raise ScopeError("column %d is not a classical node" % i)
        return _tableau_crystal(datum, i, s)
    if datum.case == "c":
        n = datum.n
        if i == 1:
            return _vector_crystal(datum, s)
        if i in (n, n + 1):
            if s != 1:
                raise ScopeError("fork column %d is only available at width 1" % i)
            return _spin_crystal(datum, parity=1 if i == n else 0)
        if 2 <= i <= n - 1:
            raise ScopeError("middle columns of the branched parent are out of scope")
        raise ScopeError("column %d is not a classical node" % i)
    if datum.case == "d":
        if i == 1:
            if s > 2:
                raise ScopeError("branch-point columns are built for widths 1 and 2")
            return _center_crystal(datum, s)
        if i == 2:
            return _relabeled_triple(datum, lambda std: _vector_crystal(std, s))
        if i in (3, 4):
            if s != 1:
                raise ScopeError("fork column %d is only available at width 1" % i)
            parity = 1 if i == 3 else 0
            return _relabeled_triple(datum, lambda std: _spin_crystal(std, parity))
        raise ScopeError("column %d is not a classical node" % i)
    raise ScopeError("no model for case %r" % datum.case)


def classical_highest_node(datum, crys, i, s):
    """The index of the unique node of weight s times the level zero fundamental at i."""
    target = tuple(s * v for v in pi_weight(datum, i))
    hits = [k for k, wt in enumerate(crys.weights) if wt == target]
    if len(hits) != 1:
        raise VerificationError(
            "%d nodes carry the top weight for column %d width %d" % (len(hits), i, s))
    return hits[0]

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
from operator import add, and_, gt, sub

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
            down = _tab_signature_act(tab, t)
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


# -- vector and fork columns on whole arrays --------------------------------

def _state_crystal(datum, digits, radix, lowering, fmt, labels, classical):
    """A column on whole arrays from the digit columns of its states.

    digits holds one column per coordinate, over the states in enumeration
    order, and a state's code is its mixed-radix integer: digit c in place
    radix**c. Its id is fmt % its labels, one column per % field, rendered
    once, and the nodes are the states sorted by id. lowering[j] is color
    j's ordered list of (guard column, code delta), each guard read once:
    the first true guard applies, and no true guard means no image. A delta
    keeps every digit of a state that its guard passes in range, so the
    image is a state exactly when its code is one. classical holds the
    weight columns of colors 1 and up; the affine one is computed from them.
    """
    rendered = [fmt % row for row in zip(*labels)]
    nodes = list(range(len(rendered)))
    order = sorted(nodes, key=rendered.__getitem__)
    codes = [0] * len(nodes)
    for c, col in enumerate(digits):
        codes = list(map(add, codes, map((radix ** c).__mul__, col)))
    position = dict(zip(map(codes.__getitem__, order), nodes))
    position[-1] = -1  # no image
    f, left = [], []
    for rules in lowering:
        targets = [-1] * len(nodes)
        for guard, delta in reversed(rules):
            targets = [code + delta if g else t for code, g, t in zip(codes, guard, targets)]
        row = list(map(position.get, targets))
        if None in row:
            left.append(row.index(None))
        f.append(list(map(row.__getitem__, order)))
    del codes, position, targets, row  # freed before the weights are built
    if left:
        # in enumeration order, so that a lowering out of the states names the first witness
        raise VerificationError("lowering left the state space at %s" % rendered[min(left)])
    zero = [0] * len(nodes)
    for c, col in zip(datum.comarks[1:], classical):
        zero = list(map(sub, zero, map(c.__mul__, col)))
    ids = tuple(map(rendered.__getitem__, order))
    weights = tuple(zip(*(map(col.__getitem__, order) for col in [zero] + classical)))
    return Crystal(datum.gcm, datum.comarks, ids, weights, f,
                   tuple(bid[2:] for bid in ids))


def _vec_states(m, s):
    """The states xs + bars, each with m slots and s boxes in all, whose last
    slot is not filled on both sides, as one flat tuple each.

    The running box counts before each slot but the first ascend weakly,
    so they run through the multisets of 2m - 1 counts up to s.
    """
    out = []
    for cut in itertools.combinations_with_replacement(range(s + 1), 2 * m - 1):
        parts = tuple(map(sub, cut + (s,), (0,) + cut))
        if not (parts[m - 1] and parts[2 * m - 1]):
            out.append(parts)
    return out


def _vector_crystal(datum, s):
    """The vector column: xs[c] and bars[c] are digits c and m + c.

    Every lowering moves one box from one slot to another.
    """
    m = datum.n + 1
    digits = [list(col) for col in zip(*_vec_states(m, s))]
    xs, bars = digits[:m], digits[m:]

    def move(src, dst):
        return (s + 1) ** dst - (s + 1) ** src

    lowering = [[(map(gt, bars[1], xs[1]), move(m + 1, 0)), (bars[0], move(m, 1))]]
    for j in range(1, m):
        lowering.append([(map(gt, bars[j], xs[j]), move(m + j, m + j - 1)),
                         (xs[j - 1], move(j - 1, j))])
    lowering.append([(xs[m - 1], move(m - 1, 2 * m - 2)), (xs[m - 2], move(m - 2, 2 * m - 1))])
    mu = [list(map(sub, x, b)) for x, b in zip(xs, bars)]
    classical = [list(map(sub, mu[j - 1], mu[j])) for j in range(1, m)]
    classical.append(list(map(add, mu[m - 2], mu[m - 1])))
    del mu  # freed before the column is built
    fmt = "v:" + ",".join(["%d"] * m) + "|" + ",".join(["%d"] * m)
    return _state_crystal(datum, digits, s + 1, lowering, fmt, digits, classical)


def _spin_crystal(datum, parity):
    """The fork column of the given parity: digit c is 1 where sign c is minus."""
    m = datum.n + 1
    states = [signs for signs in itertools.product((0, 1), repeat=m) if sum(signs) % 2 == parity]
    minus = [list(col) for col in zip(*states)]
    plus = [list(map((1).__sub__, col)) for col in minus]
    lowering = [[(map(and_, minus[0], minus[1]), -(1 + 2))]]
    for j in range(1, m):
        lowering.append([(map(and_, plus[j - 1], minus[j]), 2 ** (j - 1) - 2 ** j)])
    lowering.append([(map(and_, plus[m - 2], plus[m - 1]), 2 ** (m - 2) + 2 ** (m - 1))])
    classical = [list(map(sub, minus[j], minus[j - 1])) for j in range(1, m)]
    classical.append(list(map(sub, plus[m - 2], minus[m - 1])))
    labels = [list(map("+-".__getitem__, col)) for col in minus]
    return _state_crystal(datum, minus, 2, lowering, "p:" + "%s" * m, labels, classical)


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
    highest = set(partial.highest_nodes((1, 3, 4)))
    heads = []
    for comp in comps:
        top = [k for k in comp if k in highest]
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

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
from operator import add, and_, gt, le, neg, sub

from .cartan import ScopeError, block, levels, make_datum, pi_weight
from .crystal import Crystal, VerificationError, propagate_map
from .monomial import highest_weight_crystal


# -- columns on whole arrays ------------------------------------------------

def _codes(digits, radix):
    """The mixed-radix integer of each state: digit c in place radix**c."""
    codes = [0] * len(digits[0])
    for c, col in enumerate(digits):
        codes = list(map(add, codes, map((radix ** c).__mul__, col)))
    return codes


def _state_arrays(digits, radix, rendered, lowering):
    """The lowering arrays of the states, as index arrays.

    digits holds one column per coordinate, over the states in enumeration
    order, and a state's code is its _codes integer. The nodes are the
    states sorted by their rendered ids. lowering[j] is color j's ordered
    list of (guard column, code delta), each guard read once: the first
    true guard applies, and no true guard means no image. A delta keeps
    every digit of a state that its guard passes in range, so the image is
    a state exactly when its code is one.

    Returns the node order of the states, the node of each code (-1 for no
    image), f in node order, and the enumeration index of the first state
    that some color lowers out of the states, or None.
    """
    codes = _codes(digits, radix)
    order = sorted(range(len(rendered)), key=rendered.__getitem__)
    position = dict(zip(map(codes.__getitem__, order), range(len(order))))
    position[-1] = -1  # no image
    f, left = [], []
    for rules in lowering:
        targets = [-1] * len(codes)
        for guard, delta in reversed(rules):
            targets = [code + delta if g else t for code, g, t in zip(codes, guard, targets)]
        row = list(map(position.get, targets))
        if None in row:
            left.append(row.index(None))
        f.append(list(map(row.__getitem__, order)))
    return order, position, f, min(left, default=None)


def _sorted_column(datum, rendered, order, f, classical):
    """The column whose nodes are the states taken in order, with f in node
    order; rendered holds the ids and classical the weight columns of colors
    1 and up, both in enumeration order. The affine weight completes them
    to level zero."""
    zero = list(map(neg, levels(datum.comarks[1:], classical)))
    ids = tuple(map(rendered.__getitem__, order))
    weights = tuple(zip(*(map(col.__getitem__, order) for col in [zero] + classical)))
    return Crystal(datum.gcm, datum.comarks, ids, weights, f,
                   tuple(bid[2:] for bid in ids))


# -- rectangular tableaux (cyclic parents) ----------------------------------

def _enumerate_rect(nletters, i, s):
    """All semistandard fillings of the i by s rectangle, as tuples of rows,
    in lexicographic order of their column sequences."""
    cols = list(itertools.combinations(range(1, nletters + 1), i))
    chains = [(col,) for col in cols]
    if s > 1:
        right = {a: [b for b in cols if all(map(le, a, b))] for a in cols}
        for _ in range(s - 1):
            chains = [chain + (col,) for chain in chains for col in right[chain[-1]]]
    return [tuple(zip(*chain)) for chain in chains]


def _tab_ids(tabs, i, s):
    """The id of each i by s filling: its rows, each joined by commas,
    joined by bars."""
    fmt = "t:" + "|".join([",".join(["%d"] * s)] * i)
    return [fmt % sum(tab, ()) for tab in tabs]


def _tableau_lowering(rows, t, radix):
    """Color t's ordered (guard column, code delta) rules, one per row.

    rows[r][a - 1] is the column of the counts of letter a in row r, and
    that count is digit r * len(rows[r]) + a - 1 of a filling's code. The
    signature rule, reading the rows from the top, each from its right end,
    lowers the first unmatched t: the rightmost t of the topmost row r that
    holds a t and whose mark m_r, the t's less the t+1's read before its
    t's, is below the mark of every lower row.
    """
    nletters, size = len(rows[0]), len(rows[0][0])
    marks, lead = [], [0] * size
    for row in rows:
        marks.append(list(map(sub, lead, row[t])))
        lead = list(map(add, lead, map(sub, row[t - 1], row[t])))
    # above every mark, which counts at most the i * s boxes
    rules, floor = [], [len(rows) * radix] * size
    for r in range(len(rows) - 1, -1, -1):
        guard = [c > 0 and m < low for c, m, low in zip(rows[r][t - 1], marks[r], floor)]
        place = radix ** (r * nletters + t - 1)
        rules.append((guard, place * radix - place))
        floor = list(map(min, floor, marks[r]))
    return rules[::-1]


def _bk_step(rows, lower, t):
    """The Bender-Knuth step t on row-content columns, in place.

    lower[r] counts the letters below t in row r and comes out counting
    those up to t. A t with a t+1 under it and a t+1 with a t over it stay;
    the free t's and t+1's of each row exchange their numbers.
    """
    size = len(lower[0])
    over = [0] * size  # the t's of the row above with a t+1 under them
    for r, row in enumerate(rows):
        under = [0] * size
        if r + 1 < len(rows):
            # the t+1's of the next row sit under the t's of this one
            reach = map(add, map(add, lower[r + 1], rows[r + 1][t - 1]), rows[r + 1][t])
            under = [x - y if x > y else 0 for x, y in zip(reach, lower[r])]
        ts, ups = row[t - 1], row[t]
        row[t - 1] = list(map(sub, map(add, under, ups), over))
        row[t] = list(map(sub, map(add, over, ts), under))
        lower[r] = list(map(add, lower[r], row[t - 1]))
        over = under


def _tableau_crystal(datum, i, s):
    """The tableau column on whole arrays, from the row contents of its fillings.

    A filling is determined by its row contents, which are its digits in
    _codes. With N letters, f_1..f_{N-1} are the _tableau_lowering rules.
    The affine edge is the promotion conjugate f_0 = pr f_1 pr^-1, with
    promotion the composed Bender-Knuth steps 1, ..., N - 1 on the content
    columns, as one permutation pr of the fillings.
    """
    nletters, radix = datum.size, s + 1
    tabs = _enumerate_rect(nletters, i, s)
    rendered = _tab_ids(tabs, i, s)
    rows = [[[row.count(a) for row in rth] for a in range(1, nletters + 1)]
            for rth in zip(*tabs)]
    # one color's rules at a time; color 0 is composed below
    lowering = (_tableau_lowering(rows, t, radix) if t else [] for t in range(nletters))
    order, position, f, left = _state_arrays(
        [col for row in rows for col in row], radix, rendered, lowering)
    if left is not None:
        # in enumeration order, so that a broken filling names the first witness
        raise VerificationError("lowering broke the filling at %s" % rendered[left])
    promoted, lower = [list(row) for row in rows], [[0] * len(tabs) for _ in rows]
    for t in range(1, nletters):
        _bk_step(promoted, lower, t)
    pr = list(map(position.get, _codes([col for row in promoted for col in row], radix)))
    if None in pr:
        raise VerificationError("promotion broke the filling at %s" % rendered[pr.index(None)])
    pr = list(map(pr.__getitem__, order))
    if len(set(pr)) != len(pr):
        raise VerificationError("promotion is not a permutation of the fillings")
    for src, dst in enumerate(f[1]):
        if dst != -1:
            f[0][pr[src]] = pr[dst]
    counts = [list(map(sum, zip(*letter))) for letter in zip(*rows)]
    classical = [list(map(sub, counts[t - 1], counts[t])) for t in range(1, nletters)]
    return _sorted_column(datum, rendered, order, f, classical)


def _twist_column(col, nletters):
    """phi on one column: its complement in the letters 1..nletters, with
    each letter a sent to nletters + 1 - a."""
    return tuple(nletters + 1 - a for a in range(nletters, 0, -1) if a not in col)


def _twisted_column(datum, i, s):
    """B^{i,s} with N letters, 2i > N, as the twist image of B^{N-i,s} under phi.

    phi sends a filling column by column through _twist_column, keeping
    the column order. It carries color j to omega(j): f'[omega(j)] =
    phi f[j] phi^-1, and wt'(phi b)_t = wt(b)_{omega(t)}.
    """
    nletters, omega = datum.size, datum.omega
    rep = kr_crystal(datum, nletters - i, s)
    tabs = _enumerate_rect(nletters, nletters - i, s)
    phi = {col: _twist_column(col, nletters)
           for col in itertools.combinations(range(1, nletters + 1), nletters - i)}
    # the id of phi of each filling of rep, in rep's node order
    images = _tab_ids([tuple(zip(*map(phi.__getitem__, zip(*tab)))) for _, tab in
                       sorted(zip(_tab_ids(tabs, nletters - i, s), tabs))], i, s)
    order = sorted(range(len(images)), key=images.__getitem__)
    moved = [0] * len(order) + [-1]  # the position of each image, -1 kept
    for k, src in enumerate(order):
        moved[src] = k
    f = [None] * nletters
    for j, row in enumerate(rep.f):
        f[omega[j]] = list(map(moved.__getitem__, map(row.__getitem__, order)))
    columns = list(zip(*rep.weights))
    return _sorted_column(datum, images, order, f, [columns[w] for w in omega[1:]])


# -- vector and fork columns on whole arrays --------------------------------

def _state_crystal(datum, digits, radix, lowering, fmt, labels, classical):
    """A column on whole arrays from the digit columns of its states.

    A state's id is fmt % its labels, one column per % field, rendered once;
    digits and lowering are as in _state_arrays, and classical holds the
    weight columns of colors 1 and up.
    """
    rendered = [fmt % row for row in zip(*labels)]
    order, position, f, left = _state_arrays(digits, radix, rendered, lowering)
    del position  # freed before the weights are built
    if left is not None:
        # in enumeration order, so that a lowering out of the states names the first witness
        raise VerificationError("lowering left the state space at %s" % rendered[left])
    return _sorted_column(datum, rendered, order, f, classical)


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


def _relabeled_triple(datum, inner):
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
    block_gcm = block(datum.gcm, (1, 2, 3, 4))
    ids, weights, payloads = [], [], []
    classical = [[] for _ in range(4)]
    # blocks c0:, c1:, ... in order, each with its indices shifted by base
    for k in range(s + 1):
        part = highest_weight_crystal(block_gcm, (k, 0, 0, 0))
        base = len(ids)
        ids += ["c%d:%s" % (k, b[2:]) for b in part.ids]
        weights += part.weights
        payloads += [(k, payload) for payload in part.payloads]
        for row, lowering in zip(classical, part.f):
            row += [-1 if dst == -1 else base + dst for dst in lowering]
    zero = map(neg, levels(datum.comarks[1:], zip(*weights)))
    weights = tuple((z,) + wt for z, wt in zip(zero, weights))
    partial = Crystal(datum.gcm, datum.comarks, tuple(ids), weights,
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
    # each candidate differs from the one before it in color 0 only, so it
    # shares the classical maps and their records with that one: each
    # classical color is walked and passes each axiom stage once, on the
    # first candidate, and every later one checks color 0 alone; the
    # (1, 3, 4) labelling of comps is shared too, and is_connected joins it
    # through colors 0 and 2
    crys = partial
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
            crys = crys.with_color(0, zero)
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
    built; columns without an in-scope model raise ScopeError. A tableau
    column past the middle is the twist image of its partner, and a leg of
    the triple fork a relabeled column of the simply-branched D4 that shares
    its lowering rows, both built once through this cache.
    """
    if s < 1:
        raise ScopeError("width must be positive")
    if i not in datum.classical_nodes:
        raise ScopeError("column %d is not a classical node" % i)
    if datum.case in ("a", "b"):
        if 2 * i > datum.size:
            return _twisted_column(datum, i, s)
        return _tableau_crystal(datum, i, s)
    if datum.case == "c":
        if i == 1:
            return _vector_crystal(datum, s)
        if i < datum.n:
            raise ScopeError("middle columns of the branched parent are out of scope")
        if s != 1:
            raise ScopeError("fork column %d is only available at width 1" % i)
        return _spin_crystal(datum, parity=1 if i == datum.n else 0)
    if datum.case == "d":
        if i == 1:
            if s > 2:
                raise ScopeError("branch-point columns are built for widths 1 and 2")
            return _center_crystal(datum, s)
        # legs 2, 3 and 4 are columns 1, 3 and 4 of the simply-branched D4
        return _relabeled_triple(datum, kr_crystal(make_datum("c", 3), 1 if i == 2 else i, s))
    raise ScopeError("no model for case %r" % datum.case)


def classical_highest_node(datum, crys, i, s):
    """The index of the unique node of weight s times the level zero fundamental at i."""
    target = tuple(s * v for v in pi_weight(datum, i))
    hits = [k for k, wt in enumerate(crys.weights) if wt == target]
    if len(hits) != 1:
        raise VerificationError(
            "%d nodes carry the top weight for column %d width %d" % (len(hits), i, s))
    return hits[0]

"""Highest weight crystals over finite type data, realized on monomials.

A node is a finite product of generators Y_{i,k} (i a color, k an integer
shift) with integer exponents, keyed as the sorted tuple of (generator
code, exponent), where the code of Y_{i,k} is the int i << SHIFT_BITS | k.
Lowering multiplies by the inverse of a correction term A_{i,k}; the
string statistics are read off prefix sums of the exponents along k.
highest_weight_closure walks the closure under lowering on the monomials
themselves and returns them with the edges between them: weight_multiset
reads their weights and the Weyl dimension counts them, so neither names
a node. highest_weight_crystal assembles the same walk into a plain
Crystal, forgetting the algebra.
"""

from functools import lru_cache
from itertools import product, starmap
from math import prod
from operator import add, itemgetter

from .cartan import block
from .crystal import Crystal

MAX_NODES = 500000

# Y_{i,k} is coded as the int i << SHIFT_BITS | k, so codes sort as (i, k)
# do. Shifts start at 0 and grow by at most 1 per lowering, so every shift
# of a walk is below MAX_NODES < 1 << SHIFT_BITS.
SHIFT_BITS = 20
_SHIFT_MASK = (1 << SHIFT_BITS) - 1


@lru_cache(maxsize=None)
def _lowering_table(gcm):
    """Per color i, the exponents of A_{i,0}^{-1} as (code, exponent).

    A_{i,k} is Y_{i,k} Y_{i,k+1} times Y_{j,k}^{a_ji} for j < i and
    Y_{j,k+1}^{a_ji} for j > i, over the j with a_ji != 0.
    """
    table = []
    for i in range(len(gcm)):
        row = [(i << SHIFT_BITS, -1), (i << SHIFT_BITS | 1, -1)]
        row += [(j << SHIFT_BITS | (j > i), -gcm[j][i])
                for j in range(len(gcm)) if j != i and gcm[j][i]]
        table.append(tuple(row))
    return tuple(table)


def mono_weight(key, ncolors):
    wt = [0] * ncolors
    for code, e in key:
        wt[code >> SHIFT_BITS] += e
    return tuple(wt)


def _lower(key, i, inverse):
    """Lower a monomial at color i; None when the string is exhausted.

    key is the sorted tuple of (code, exponent), so the shifts of color i
    form one run, in ascending order, and the lowering acts at the first
    maximal prefix sum n_f, multiplying by A_{i,0}^{-1} shifted by n_f;
    inverse is the row of _lowering_table for color i.
    """
    low = i << SHIFT_BITS
    high = low + _SHIFT_MASK
    phi = run = 0
    for code, e in key:
        if code < low:
            continue
        if code > high:
            break
        run += e
        if run > phi:
            phi, n_f = run, code - low
    if phi == 0:
        return None
    out = dict(key)
    for code, e in inverse:
        code += n_f
        e += out.get(code, 0)
        if e:
            out[code] = e
        else:
            del out[code]
    return tuple(sorted(out.items()))


def mono_id(key):
    if not key:
        return "m:1"
    return "m:" + " ".join("Y%d,%d^%d" % (code >> SHIFT_BITS, code & _SHIFT_MASK, e)
                           for code, e in key)


def _check_dominant(gcm, lam):
    n = len(gcm)
    if len(lam) != n or any(v < 0 for v in lam):
        raise ValueError("dominant weight of length %d expected" % n)


def highest_weight_closure(gcm, lam):
    """The monomials of the highest weight crystal and its edges.

    gcm and lam must be tuples. Returns the monomial keys, sorted tuples of
    (generator code, exponent), in walk order from the highest one, and the
    edges as (color, source number, target number) in the same numbering.
    A walk past MAX_NODES nodes raises.
    """
    _check_dominant(gcm, lam)
    table = tuple(enumerate(_lowering_table(gcm)))
    start = tuple((i << SHIFT_BITS, v) for i, v in enumerate(lam) if v)
    number = {start: 0}  # monomial key -> its number in walk order
    keys = [start]
    edges = []
    for src, cur in enumerate(keys):
        for j, inverse in table:
            nxt = _lower(cur, j, inverse)
            if nxt is None:
                continue
            dst = number.get(nxt)
            if dst is None:
                if len(keys) >= MAX_NODES:
                    raise RuntimeError("crystal walk exceeded %d nodes" % MAX_NODES)
                dst = number[nxt] = len(keys)
                keys.append(nxt)
            edges.append((j, src, dst))
    return keys, edges


@lru_cache(maxsize=None)
def highest_weight_crystal(gcm, lam):
    """Crystal of the integrable module with the given dominant weight.

    gcm and lam must be tuples. The comarks are all ones, which only
    matters if the caller asks for levels, and a walk past MAX_NODES nodes
    raises.
    """
    n = len(gcm)
    keys, edges = highest_weight_closure(gcm, lam)
    names = [mono_id(key) for key in keys]
    order = sorted(range(len(keys)), key=names.__getitem__)
    where = [0] * len(keys)
    for k, p in enumerate(order):
        where[p] = k
    f = [[-1] * len(keys) for _ in range(n)]
    for j, src, dst in edges:
        f[j][where[src]] = where[dst]
    ids = tuple(map(names.__getitem__, order))
    weights = tuple(mono_weight(keys[p], n) for p in order)
    return Crystal(gcm, (1,) * n, ids, weights, f, tuple(b[2:] for b in ids))


def _connected_pieces(gcm):
    """The node sets of the connected pieces of the diagram, each ascending,
    in the order of their least nodes."""
    seen = set()
    pieces = []
    for root in range(len(gcm)):
        if root in seen:
            continue
        seen.add(root)
        piece = [root]
        for a in piece:
            for b, entry in enumerate(gcm[a]):
                if entry and b not in seen:
                    seen.add(b)
                    piece.append(b)
        pieces.append(tuple(sorted(piece)))
    return pieces


@lru_cache(maxsize=None)
def weight_multiset(gcm, lam):
    """Sorted weights with multiplicity of the highest weight crystal.

    gcm and lam must be tuples, as for highest_weight_closure. A connected
    diagram's weights are read off the monomials of its closure walk,
    without a Crystal being built. A disconnected diagram's crystal is the
    tensor product of its connected pieces' crystals, since their monomials
    use disjoint variables: each piece is looked up here, cached, and their
    weights are combined, refusing a product past MAX_NODES nodes with the
    walk's own error before it is built.
    """
    pieces = _connected_pieces(gcm)
    if len(pieces) == 1:
        n = len(gcm)
        keys, _ = highest_weight_closure(gcm, lam)
        return tuple(sorted(mono_weight(key, n) for key in keys))
    _check_dominant(gcm, lam)
    factors = [weight_multiset(block(gcm, piece), tuple(map(lam.__getitem__, piece)))
               for piece in pieces]
    if prod(map(len, factors)) > MAX_NODES:
        raise RuntimeError("crystal walk exceeded %d nodes" % MAX_NODES)
    weights = factors[0]
    for factor in factors[1:]:
        weights = list(starmap(add, product(weights, factor)))
    order = [node for piece in pieces for node in piece]
    if order != sorted(order):
        weights = map(itemgetter(*map(order.index, range(len(order)))), weights)
    return tuple(sorted(weights))

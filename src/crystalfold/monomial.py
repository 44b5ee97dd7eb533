"""Highest weight crystals over finite type data, realized on monomials.

A node is a finite product of generators Y_{i,k} (i a color, k an integer
shift) with integer exponents. Lowering multiplies by the inverse of a
correction term A_{i,k}; the string statistics are read off prefix sums of
the exponents along k. highest_weight_closure walks the closure under
lowering on the monomials themselves and returns them with the edges
between them: weight_multiset reads their weights and the Weyl dimension
counts them, so neither names a node. highest_weight_crystal assembles
the same walk into a plain Crystal, forgetting the algebra.
"""

from functools import lru_cache

from .crystal import Crystal

MAX_NODES = 500000


def _as_key(d):
    return tuple(sorted((ik, e) for ik, e in d.items() if e != 0))


def _a_term(gcm, i, k):
    """Exponent dict of A_{i,k}."""
    out = {(i, k): 1, (i, k + 1): 1}
    for j in range(len(gcm)):
        if j == i or gcm[j][i] == 0:
            continue
        shift = 1 if j > i else 0
        ik = (j, k + shift)
        out[ik] = out.get(ik, 0) + gcm[j][i]
    return out


@lru_cache(maxsize=None)
def _lowering_table(gcm):
    """Per color i, the exponents of A_{i,0}^{-1} as ((color, shift), exponent)."""
    return tuple(tuple((ik, -e) for ik, e in _a_term(gcm, i, 0).items())
                 for i in range(len(gcm)))


def mono_weight(key, ncolors):
    wt = [0] * ncolors
    for (c, _), e in key:
        wt[c] += e
    return tuple(wt)


def _lower(key, i, inverse):
    """Lower a monomial at color i; None when the string is exhausted.

    key is sorted, as _as_key makes it, so the shifts of color i come in
    ascending order and the lowering acts at the first maximal prefix sum
    n_f, multiplying by A_{i,0}^{-1} shifted by n_f; inverse is the row of
    _lowering_table for color i.
    """
    phi = run = 0
    for (c, k), e in key:
        if c == i:
            run += e
            if run > phi:
                phi, n_f = run, k
    if phi == 0:
        return None
    out = dict(key)
    for (j, k), e in inverse:
        ik = (j, k + n_f)
        e += out.get(ik, 0)
        if e:
            out[ik] = e
        else:
            del out[ik]
    return tuple(sorted(out.items()))


def mono_id(key):
    if not key:
        return "m:1"
    return "m:" + " ".join("Y%d,%d^%d" % (c, k, e) for (c, k), e in key)


def highest_weight_closure(gcm, lam):
    """The monomials of the highest weight crystal and its edges.

    gcm and lam must be tuples. Returns the monomial keys in walk order,
    from the highest one, and the edges as (color, source number, target
    number) in the same numbering. A walk past MAX_NODES nodes raises.
    """
    n = len(gcm)
    if len(lam) != n or any(v < 0 for v in lam):
        raise ValueError("dominant weight of length %d expected" % n)
    table = tuple(enumerate(_lowering_table(gcm)))
    start = _as_key({(i, 0): v for i, v in enumerate(lam) if v})
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


@lru_cache(maxsize=None)
def weight_multiset(gcm, lam):
    """Sorted weights with multiplicity of the highest weight crystal.

    gcm and lam must be tuples, as for highest_weight_closure, whose
    monomials give the weights without a Crystal being built.
    """
    n = len(gcm)
    keys, _ = highest_weight_closure(gcm, lam)
    return tuple(sorted(mono_weight(key, n) for key in keys))

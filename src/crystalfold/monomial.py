"""Highest weight crystals over finite type data, realized on monomials.

A node is a finite product of generators Y_{i,k} (i a color, k an integer
shift) with integer exponents. Lowering multiplies by the inverse of a
correction term A_{i,k}; the string statistics are read off prefix sums of
the exponents along k. The builder walks the closure under lowering and
returns a plain Crystal, forgetting the algebra.
"""

from functools import lru_cache

from .crystal import Crystal

MAX_NODES = 500000


def _as_dict(mono):
    return dict(mono)


def _as_key(d):
    return tuple(sorted((ik, e) for ik, e in d.items() if e != 0))


def _mul(d, factors):
    out = dict(d)
    for ik, e in factors.items():
        out[ik] = out.get(ik, 0) + e
        if out[ik] == 0:
            del out[ik]
    return out


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


def _color_profile(d, i):
    """Sorted shifts, prefix sums, total weight for one color."""
    ks = sorted(k for (c, k) in d if c == i)
    prefixes = []
    run = 0
    for k in ks:
        run += d[(i, k)]
        prefixes.append(run)
    return ks, prefixes, run


def mono_weight(d, ncolors):
    wt = [0] * ncolors
    for (c, _), e in d.items():
        wt[c] += e
    return tuple(wt)


def f_mono(gcm, key, i):
    """Lower a monomial at color i; None when the string is exhausted."""
    d = _as_dict(key)
    ks, prefixes, _ = _color_profile(d, i)
    phi = max([0] + prefixes)
    if phi == 0:
        return None
    n_f = ks[prefixes.index(phi)]
    inv = {ik: -e for ik, e in _a_term(gcm, i, n_f).items()}
    return _as_key(_mul(d, inv))


def e_mono(gcm, key, i):
    """Raise a monomial at color i; None when eps vanishes."""
    d = _as_dict(key)
    ks, prefixes, total = _color_profile(d, i)
    phi = max([0] + prefixes)
    if phi - total == 0:
        return None
    # the largest shift where the prefix still sits at phi
    n_e = None
    for m in range(len(ks) - 1, -1, -1):
        if prefixes[m] == phi:
            n_e = ks[m + 1] - 1
            break
    if n_e is None:
        n_e = ks[0] - 1
    return _as_key(_mul(d, _a_term(gcm, i, n_e)))


def mono_id(key):
    if not key:
        return "m:1"
    return "m:" + " ".join("Y%d,%d^%d" % (c, k, e) for (c, k), e in key)


@lru_cache(maxsize=None)
def highest_weight_crystal(gcm, lam):
    """Crystal of the integrable module with the given dominant weight.

    gcm and lam must be tuples. The comarks are all ones, which only
    matters if the caller asks for levels, and a walk past MAX_NODES nodes
    raises.
    """
    gcm = tuple(tuple(row) for row in gcm)
    n = len(gcm)
    if len(lam) != n or any(v < 0 for v in lam):
        raise ValueError("dominant weight of length %d expected" % n)
    start = _as_key({(i, 0): v for i, v in enumerate(lam) if v})
    seen = {start}
    queue = [start]
    f_edges = {j: {} for j in range(n)}
    while queue:
        cur = queue.pop()
        for j in range(n):
            nxt = f_mono(gcm, cur, j)
            if nxt is None:
                continue
            f_edges[j][mono_id(cur)] = mono_id(nxt)
            if nxt not in seen:
                if len(seen) >= MAX_NODES:
                    raise RuntimeError("crystal walk exceeded %d nodes" % MAX_NODES)
                seen.add(nxt)
                queue.append(nxt)
    nodes = {mono_id(key): (mono_weight(_as_dict(key), n), mono_id(key)[2:])
             for key in seen}
    return Crystal.from_edges(gcm, (1,) * n, nodes, f_edges)


def weight_multiset(gcm, lam):
    """Sorted weights with multiplicity of the highest weight crystal."""
    crys = highest_weight_crystal(tuple(tuple(r) for r in gcm), tuple(lam))
    return tuple(sorted(crys.weights))

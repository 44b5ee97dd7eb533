"""Test oracles: crystals built from id-keyed dicts, leaf-index columns of a
tensor product, read off its pair node numbers, the pair an exchange sends
a pair to, the color twist tau of one column, the energy on B (x) B by the
walk over single nodes, the powered-word check node by node, and a clear
of every package cache."""

import importlib
import pkgutil

import crystalfold
from crystalfold.cartan import kashiwara_word, omega_star
from crystalfold.crystal import Crystal, Tensor, VerificationError, propagate_map
from crystalfold.intertwine import energy_steps
from crystalfold.models import classical_highest_node, kr_crystal


def crystal_from_edges(gcm, comarks, nodes, f_edges):
    """Crystal from nodes {id: (weight, payload)} and f_edges {color: {src_id: dst_id}}."""
    ids = tuple(sorted(nodes))
    index = {b: k for k, b in enumerate(ids)}
    f = []
    for j in range(len(gcm)):
        arr = [-1] * len(ids)
        for src, dst in f_edges.get(j, {}).items():
            arr[index[src]] = index[dst]
        f.append(arr)
    return Crystal(gcm, comarks, ids, tuple(tuple(nodes[b][0]) for b in ids), f,
                   tuple(nodes[b][1] for b in ids))


def leaf_columns(crys):
    """Per leaf factor, the leaf node index of every node of crys."""
    if not isinstance(crys, Tensor):
        return [list(range(len(crys)))]
    na, nb = len(crys.left), len(crys.right)
    return ([[col[a] for a in range(na) for _ in range(nb)] for col in leaf_columns(crys.left)]
            + [col * na for col in leaf_columns(crys.right)])


def leaf_node(crys, leaves):
    """The node of a left-fold tensor at a tuple of leaf node indices."""
    if len(leaves) == 1:
        return leaves[0]
    return crys.at(leaf_node(crys.left, leaves[:-1]), leaves[-1])


def exchange_pair(rmat, a, b):
    """The pair (c, d) that the exchange rmat sends the pair (a, b) to."""
    return divmod(rmat.codes[a * rmat.n2 + b], rmat.n1)


def compute_tau_omega(datum, i, s):
    """Color-twisted isomorphism from column i to column omega(i).

    Sends the top node to the top node and interchanges color j edges with
    color omega(j) edges; weights transform by the dual twist. Returns the
    mapping as a tuple over source node indices.
    """
    src = kr_crystal(datum, i, s)
    dst = kr_crystal(datum, datum.omega[i], s)
    u_src = classical_highest_node(datum, src, i, s)
    u_dst = classical_highest_node(datum, dst, datum.omega[i], s)
    expect = tuple(omega_star(datum, src.weights[u_src]))
    if dst.weights[u_dst] != expect:
        raise VerificationError("anchor weights disagree for column %d" % i)
    relabel = {j: datum.omega[j] for j in range(datum.size)}
    return tuple(propagate_map(src, dst, {u_src: u_dst},
                               relabel=relabel,
                               weight_map=lambda mu: omega_star(datum, mu)))


def energy_walk(prod, anchor):
    """The energy on a binary tensor by a walk over single nodes, as the oracle.

    Each node is popped once, and every edge leaving it, lowering and
    raising, either sets the value at its far end or is checked against
    it, so any path dependence raises instead of returning a skewed table.
    """
    values = [None] * len(prod)
    values[anchor] = 0
    reached = 1
    queue = [anchor]
    while queue:
        x = queue.pop()
        here = values[x]
        down, up = energy_steps(prod, x)
        for j in range(prod.ncolors):
            for y, value, kind in ((prod.f[j][x], here + down if j == 0 else here, "along"),
                                   (prod.e[j][x], here + up if j == 0 else here, "against")):
                if y == -1:
                    continue
                if values[y] is None:
                    values[y] = value
                    reached += 1
                    queue.append(y)
                elif values[y] != value:
                    raise VerificationError("energy is path dependent %s color %d at %s"
                                            % (kind, j, prod.ids[x]))
    if reached != len(prod):
        raise VerificationError(
            "energy walk reached %d of %d nodes" % (reached, len(prod)))
    return values


def powered_words_by_nodes(datum, bundle):
    """Stage strings:powered-words by the loop over single nodes, as the oracle.

    Node by node, color by color, lowering before raising, power by power:
    the parent applies the whole word of power m from the fixed node, which
    must land on the fixed node under the m-th folded image, or die with it;
    the first disagreement raises.
    """
    hat, parent, fixed = bundle.crystal, bundle.parent, bundle.fixed
    words = {}  # (color, power) -> the raising word and the lowering word
    for h, p in enumerate(fixed):
        for jh in range(hat.ncolors):
            for lowering, kind, top, maps in ((True, "lowering", hat.phi(jh, h), hat.f[jh]),
                                              (False, "raising", hat.eps(jh, h), hat.e[jh])):
                cur = h
                for m in range(1, top + 2):
                    cur = maps[cur] if cur != -1 else -1
                    if (jh, m) not in words:
                        word = kashiwara_word(datum, jh, m)
                        words[jh, m] = (word[::-1], word)
                    via_word = parent.apply_word(words[jh, m][lowering], p, lowering)
                    if via_word != (fixed[cur] if cur != -1 else -1):
                        raise VerificationError("%s power %d disagrees at %s color %d"
                                                % (kind, m, hat.ids[h], jh))


def clear_package_caches():
    """Empty every lru_cache of the package, as a fresh CLI process starts."""
    for info in pkgutil.iter_modules(crystalfold.__path__):
        module = importlib.import_module("crystalfold." + info.name)
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()

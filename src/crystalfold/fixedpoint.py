"""Folding: the crystal living on twist-fixed nodes, and its verification.

Every folded crystal is built by one walk, fold_crystal, from a node the
twist fixes. Each folded color acts through a fixed word of parent
operators; a word that its omega-twisted twin does not match, or that its
raising partner fails to undo, is a hard error rather than a skipped edge,
and a weight that is not constant on orbits cannot enter the fold silently.

A column is walked from its top node on the orbit tensor, which is never
built: the column crystal itself for a one-column orbit, a LazyTensor
otherwise. The walk must reach the closed-form size; only the triality legs,
which have no closed form, count the fixed nodes of the twist on the whole
orbit tensor instead, the one place the twist is built. Verification,
branching and tensor compatibility read this one walked hat. Tensor
compatibility walks the pair tensor of the orbit tensor from its top pair
with the same fold, requires the fixed pairs to be the pairs of fixed
nodes, and propagates the exchange on that pair tensor.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .cartan import (
    ScopeError, block, hat_level, kashiwara_word, p_omega_star, p_omega_star_inverse,
    pi_tilde_weight, theta_word)
from .crystal import (
    Crystal, LazyTensor, Report, VerificationError, propagate_map, tensor, tensor_many)
from .intertwine import (
    build_tilde_crystal, energy_on_tensor, energy_steps, orbit_factors, orbit_top)
from .models import classical_highest_node
from .monomial import weight_multiset


def _fixed_nodes(omega_map):
    return tuple(k for k, image in enumerate(omega_map) if image == k)


@dataclass
class HatBundle:
    parent: object  # the crystal that was folded: a column, a LazyTensor or a pair tensor
    crystal: object
    fixed: tuple  # the parent node under each folded node

    def __len__(self):
        return len(self.crystal)


def fold_crystal(datum, parent, top):
    """The crystal on the twist-fixed nodes of parent, walked from top; hard-fails on instability.

    The twist sigma fixes top and sends color j to color omega(j), so
    sigma(f_w b) = f_omega(w) sigma(b): a node reached from a fixed node is
    fixed when the omega-twisted word lands where the word does. The walk
    applies, at every node and folded color, the word, its twin and the
    reversed raising word once, and follows both images. The walked nodes
    are folded in id order: weights must be constant on orbits, and the
    raising image of every folded edge's target must be its source.
    """
    steps = []
    for jh in range(len(datum.hat_gcm)):
        word = kashiwara_word(datum, jh)
        steps.append((word, tuple(datum.omega[j] for j in word), word[::-1]))
    queue = [top]
    images = {top: None}  # per walked node and folded color: (lowering, raising) image
    for p in queue:
        row = []
        for jh, (word, twin, back) in enumerate(steps):
            down = parent.apply_word(word, p)
            if parent.apply_word(twin, p) != down:
                raise VerificationError(
                    "lowering word for folded color %d leaves the fixed set at %s"
                    % (jh, parent.id(p)))
            up = parent.apply_word(back, p, lowering=False)
            for q in (down, up):
                if q != -1 and q not in images:
                    images[q] = None
                    queue.append(q)
            row.append((down, up))
        images[p] = row
    fixed = tuple(sorted(queue, key=parent.id))
    where = {p: h for h, p in enumerate(fixed)}
    ids = tuple(map(parent.id, fixed))
    weights = []
    for p, b in zip(fixed, ids):
        try:
            weights.append(p_omega_star_inverse(datum, parent.weight(p)))
        except ValueError as exc:
            raise VerificationError("fixed node %s: %s" % (b, exc))
    f = [[-1] * len(fixed) for _ in steps]
    for h, p in enumerate(fixed):
        for jh, ((down, _), row) in enumerate(zip(images[p], f)):
            if down != -1:
                if images[down][jh][1] != p:
                    raise VerificationError(
                        "raising word fails to undo folded color %d at %s" % (jh, ids[h]))
                row[h] = where[down]
    crystal = Crystal(datum.hat_gcm, datum.hat_comarks, ids, tuple(weights), f,
                      (None,) * len(fixed))
    return HatBundle(parent, crystal, fixed)


def _require_folded_column(datum, i):
    """Only orbit representatives among the classical nodes are folded columns."""
    if i not in datum.classical_nodes:
        raise ScopeError("column %d is not a classical node" % i)
    if datum.rep(i) != i:
        raise ScopeError(
            "column %d is not an orbit representative: its orbit %s folds to "
            "column %d, so use i = %d" % (i, datum.orbit(i), datum.rep(i), datum.rep(i)))


@lru_cache(maxsize=None)
def build_hat_crystal(datum, i, s):
    """The folded crystal of column i at width s, with its parent.

    The parent is the orbit tensor, never built: the column crystal itself
    for a one-column orbit, a LazyTensor of the orbit's columns otherwise.
    fold_crystal walks its fixed nodes from the top node, and must reach
    the size of the closed-form decomposition, or, where there is none (the
    triality legs), the number of nodes that the twist of the whole orbit
    tensor fixes.
    """
    from .branching import expected_size  # branching imports this module
    _require_folded_column(datum, i)
    factors = orbit_factors(datum, i, s)
    tops = [classical_highest_node(datum, fac, col, s)
            for fac, col in zip(factors, datum.orbit(i))]
    if len(factors) == 1:
        parent, top = factors[0], tops[0]
    else:
        parent, top = LazyTensor(factors), tuple(tops)
    if parent.weight(top) != tuple(s * v for v in pi_tilde_weight(datum, i)):
        raise VerificationError("top node %s is off the top weight" % parent.id(top))
    try:
        total, counted = expected_size(datum, i, s), "nodes of the closed form"
    except ScopeError:
        total = len(_fixed_nodes(build_tilde_crystal(datum, i, s).omega_map))
        counted = "nodes that the twist fixes"
    hat = fold_crystal(datum, parent, top)
    if len(hat) != total:
        raise VerificationError("walk reached %d of %d %s from %s"
                                % (len(hat), total, counted, parent.id(top)))
    return hat


# -- the headline verification ----------------------------------------------

def _regularity_stages(report, datum, hat, full):
    rank = len(datum.hat_gcm)
    subsets = []
    for size in range(1, rank):
        if not full and size > 2:
            break
        subsets.extend(itertools.combinations(range(rank), size))
    for sub in subsets:
        name = "regular:" + "".join(str(j) for j in sub)

        def stage(sub=sub):
            blockg = block(datum.hat_gcm, sub)
            if len(sub) == 1:
                restricted = [(wt[sub[0]],) for wt in hat.weights]
            else:
                restricted = list(map(itemgetter(*sub), hat.weights))
            for top, _, comp in hat.highest_weight_decomposition(sub):
                lam = restricted[top]
                if min(lam) < 0:
                    raise VerificationError(
                        "restricted component at %s has the non-dominant highest weight %r"
                        % (hat.ids[top], lam))
                got = tuple(sorted(map(restricted.__getitem__, comp)))
                if got != weight_multiset(blockg, lam):
                    raise VerificationError(
                        "restricted component at %s is not a highest weight crystal"
                        % hat.ids[top])

        report.run(name, stage)


def verify_main_theorem(datum, i, s, full_regularity=False):
    """Axioms, connectedness, regularity, simplicity, level, perfectness.

    The folded crystal must be a simple crystal that is perfect of level
    equal to the width; every stage reports independently.
    """
    bundle = build_hat_crystal(datum, i, s)
    hat = bundle.crystal
    report = Report()
    hat.verify_crystal_axioms(report)
    connected = hat.is_connected()
    report.add("connected", connected, "" if connected else "folded graph splits")
    _regularity_stages(report, datum, hat, full_regularity)
    hat.is_simple(report)
    hat.is_perfect(s, report)
    return report


# -- string statistics against the parent -----------------------------------

def check_string_identities(datum, i, s):
    """Folded string data read off the parent in four independent ways."""
    bundle = build_hat_crystal(datum, i, s)
    hat = bundle.crystal
    parent = bundle.parent
    fixed = bundle.fixed
    report = Report()

    def eps_orbit():
        for h, p in enumerate(fixed):
            eps, phi = parent.own_strings(p)
            if p_omega_star(datum, hat.eps_tuple(h)) != eps:
                raise VerificationError("eps tuples disagree at %s" % hat.ids[h])
            if p_omega_star(datum, hat.phi_tuple(h)) != phi:
                raise VerificationError("phi tuples disagree at %s" % hat.ids[h])

    def powered_words():
        # one batch per color, direction and power m, over the folded nodes
        # whose string reaches power m - 1; each parent node applies the whole
        # word of power m. Of all failures the first by node, color,
        # direction (lowering first) and power is raised.
        for jh in range(hat.ncolors):
            hat.phi(jh, 0)  # walks every string of color jh, refusing a cycle
        ends = fixed + (-1,)
        failures = []
        for jh in range(hat.ncolors):
            for rank, (kind, maps) in enumerate((("lowering", hat.f[jh]), ("raising", hat.e[jh]))):
                steps = maps + [-1]
                nodes = cur = range(len(hat))  # cur: the nodes' images at power m - 1
                m = 1
                while nodes:
                    word = kashiwara_word(datum, jh, m)
                    cur = list(map(steps.__getitem__, cur))
                    want = list(map(ends.__getitem__, cur))
                    got = parent.images(word if rank == 0 else word[::-1],
                                        list(map(fixed.__getitem__, nodes)), rank == 0)
                    if got != want:
                        h = next(h for h, a, b in zip(nodes, got, want) if a != b)
                        failures.append((h, jh, rank, m, kind))
                    alive = list(map((-1).__ne__, cur))
                    nodes = list(itertools.compress(nodes, alive))
                    cur = list(itertools.compress(cur, alive))
                    m += 1
        if failures:
            h, jh, _, m, kind = min(failures)
            raise VerificationError("%s power %d disagrees at %s color %d"
                                    % (kind, m, hat.ids[h], jh))

    def weyl_match():
        words = [theta_word(datum, (jh,)) for jh in range(hat.ncolors)]
        for h, p in enumerate(fixed):
            for jh, word in enumerate(words):
                rhs = p
                for j in word:
                    rhs = parent.weyl_s(j, rhs)
                if fixed[hat.weyl_s(jh, h)] != rhs:
                    raise VerificationError(
                        "folded Weyl operator %d differs at %s" % (jh, hat.ids[h]))

    def level_zero():
        for k, wt in enumerate(hat.weights):
            if hat_level(datum, wt) != 0:
                raise VerificationError("folded weight off level zero at %s" % hat.ids[k])

    report.run("strings:eps-orbit", eps_orbit)
    report.run("strings:powered-words", powered_words)
    report.run("strings:weyl", weyl_match)
    report.run("strings:level-zero", level_zero)
    return report


# -- tensor compatibility, exchange, energy ---------------------------------

def verify_tensor_compatibility(datum, spec1, spec2):
    """The folded tensor equals the fold of the tensor, edge for edge.

    The fold of the tensor is walked on the pair tensor of the orbit tensor
    from the pair of top nodes, by the same fold_crystal as every hat, and
    its fixed pairs must be the pairs of fixed nodes, in id order. Also drags the pair exchange and the energy down to the folded side:
    the exchange must keep fixed nodes fixed and commute with every folded
    edge, and the energy inherited through the identification must satisfy
    the folded difference relations across all affine edges. The local
    energy rule used here holds for a crystal tensored with itself only, so
    both factors are one crystal and the exchange maps the pair tensor to
    itself: it is propagate_map(pair, pair, {anchor: anchor}), whose source
    is its target. It is therefore the identity wherever it is defined, and
    propagate_map raises unless it is defined on every pair, so the rhat:*
    stages are a named check that B~ (x) B~ is connected.
    """
    if spec1 != spec2:
        raise ScopeError(
            "tensor compatibility is checked on B (x) B only: the local energy "
            "rule does not hold for the unequal factors %r and %r" % (spec1, spec2))
    i, s = spec1
    hat = build_hat_crystal(datum, i, s)
    tilde = tensor_many(orbit_factors(datum, i, s))
    pair = tensor(tilde, tilde)
    top = orbit_top(datum, tilde, i, s)
    anchor = pair.at(top, top)  # fixed by the twist and by the exchange
    walked = fold_crystal(datum, pair, anchor)
    folded, fixed = walked.crystal, walked.fixed
    where = {p: h for h, p in enumerate(fixed)}
    lhs = tensor(hat.crystal, hat.crystal)
    report = Report()

    # the later stages read folded by the node numbers of lhs
    if not report.add("iso:size", lhs.ids == folded.ids,
                      "%d vs %d fixed pairs" % (len(lhs), len(folded))):
        return report

    def edges():
        for jh in range(lhs.ncolors):
            if lhs.f[jh] != folded.f[jh]:
                for src, dst in enumerate(lhs.f[jh]):
                    if folded.f[jh][src] != dst:
                        raise VerificationError(
                            "edge sets differ at %s color %d" % (lhs.ids[src], jh))

    def eps_match():
        for h, b in enumerate(lhs.ids):
            if lhs.eps_tuple(h) != folded.eps_tuple(h):
                raise VerificationError("eps differs at %s" % b)

    report.run("iso:edges", edges)
    report.run("iso:eps", eps_match)

    # exchange of the parent pair with itself, restricted to fixed nodes
    exchange = propagate_map(pair, pair, {anchor: anchor})

    def fixed_closed():
        for p in fixed:
            if exchange[p] not in where:
                raise VerificationError(
                    "exchange moves %s off the fixed set" % pair.id(p))

    if not report.run("rhat:fixed", fixed_closed):
        return report  # rhat:edges reads where at the image of every fixed pair
    report.add("rhat:anchor", exchange[anchor] == anchor, "anchor moved")

    def rhat_edges():
        for h, p in enumerate(fixed):
            for jh in range(folded.ncolors):
                down = folded.f[jh][h]
                image_down = folded.f[jh][where[exchange[p]]]
                if (down == -1) != (image_down == -1):
                    raise VerificationError(
                        "folded exchange breaks a string at %s color %d" % (folded.ids[h], jh))
                if down != -1 and exchange[fixed[down]] != fixed[image_down]:
                    raise VerificationError(
                        "folded exchange misroutes color %d at %s" % (jh, folded.ids[h]))

    report.run("rhat:edges", rhat_edges)

    energy = energy_on_tensor(pair, anchor)

    def folded_energy():
        for h, p in enumerate(fixed):
            down_step, up_step = energy_steps(lhs, h)
            down = folded.f[0][h]
            if down != -1 and energy[fixed[down]] - energy[p] != down_step:
                raise VerificationError(
                    "lowering energy relation fails at %s" % folded.ids[h])
            up = folded.e[0][h]
            if up != -1 and energy[fixed[up]] - energy[p] != up_step:
                raise VerificationError(
                    "raising energy relation fails at %s" % folded.ids[h])
            for jh in range(1, folded.ncolors):
                down = folded.f[jh][h]
                if down != -1 and energy[fixed[down]] != energy[p]:
                    raise VerificationError(
                        "energy moves along folded color %d at %s" % (jh, folded.ids[h]))

    report.run("energy:zero-edges", folded_energy)
    return report

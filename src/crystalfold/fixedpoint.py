"""Folding: the crystal living on twist-fixed nodes, and its verification.

The folded graph keeps exactly the nodes the twist fixes. Each folded
color acts through a fixed word of parent operators; a word that ends
anywhere outside the fixed set, or that its raising partner fails to
undo, is a hard error rather than a skipped edge. Weights fold through
the orbit-constant check, so a node whose parent weight is not constant
on orbits cannot enter the folded crystal silently.

An orbit of two or more columns with a closed-form decomposition is
folded by a walk from the top node on a lazy orbit tensor, which never
builds the tensor or the twist: fixedness is checked along the walk's
words, and the walk must reach the closed-form size. Every other column
folds the twist-fixed nodes of the whole orbit tensor. Branching, tensor
compatibility and the exchange read the whole orbit tensor and its twist
themselves.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .cartan import (
    ScopeError, block, hat_level, kashiwara_word, p_omega_star,
    p_omega_star_inverse, pi_tilde_weight, theta_word)
from .crystal import Crystal, LazyTensor, Report, VerificationError, propagate_map, tensor
from .intertwine import build_tilde_crystal, energy_on_tensor, energy_steps, orbit_factors
from .models import classical_highest_node
from .monomial import weight_multiset


def _fixed_nodes(omega_map):
    return tuple(k for k, image in enumerate(omega_map) if image == k)


def fold_crystal(datum, crystal, fixed):
    """Fixed-node crystal over the folded data; hard-fails on instability.

    fixed lists the nodes of crystal that the twist fixes, ascending.
    """
    if not fixed:
        raise VerificationError("the twist fixes no nodes")
    where = {p: h for h, p in enumerate(fixed)}
    ids = crystal.ids
    weights = []
    for p in fixed:
        try:
            weights.append(p_omega_star_inverse(datum, crystal.weights[p]))
        except ValueError as exc:
            raise VerificationError("fixed node %s: %s" % (ids[p], exc))
    f = [[-1] * len(fixed) for _ in datum.hat_gcm]
    for h, p in enumerate(fixed):
        for jh, row in enumerate(f):
            word = kashiwara_word(datum, jh)
            down = crystal.apply_word(word, p)
            if down == -1:
                continue
            if down not in where:
                raise VerificationError(
                    "lowering word for folded color %d leaves the fixed set at %s"
                    % (jh, ids[p]))
            if crystal.apply_word(tuple(reversed(word)), down, lowering=False) != p:
                raise VerificationError(
                    "raising word fails to undo folded color %d at %s" % (jh, ids[p]))
            row[h] = where[down]
    return Crystal(datum.hat_gcm, datum.hat_comarks, tuple(map(ids.__getitem__, fixed)),
                   tuple(weights), f, (None,) * len(fixed))


@dataclass
class HatBundle:
    parent: object  # the orbit tensor: a Crystal, or a LazyTensor after a walk
    crystal: object
    fixed: tuple  # the parent node under each folded node


def _require_folded_column(datum, i):
    """Only orbit representatives among the classical nodes are folded columns."""
    if i not in datum.classical_nodes:
        raise ScopeError("column %d is not a classical node" % i)
    if datum.rep(i) != i:
        raise ScopeError(
            "column %d is not an orbit representative: its orbit %s folds to "
            "column %d, so use i = %d" % (i, datum.orbit(i), datum.rep(i), datum.rep(i)))


def walk_fold(datum, i, s, factors, total):
    """The fold grown from the top node u on the lazy orbit tensor.

    The twist sigma fixes u and sends color j to color omega(j), so
    sigma(f_w b) = f_omega(w) sigma(b): a node reached from a fixed node
    is fixed when the omega-twisted word lands where the word does. That
    check runs at every node and folded color, lowering edges are undone by
    their raising words, weights must be constant on orbits, and the walk,
    which follows lowering and raising words, must reach exactly total
    nodes, the size of the closed-form decomposition.
    """
    parent = LazyTensor(factors)
    top = tuple(classical_highest_node(datum, fac, col, s)
                for fac, col in zip(factors, datum.orbit(i)))
    if parent.weight(top) != tuple(s * v for v in pi_tilde_weight(datum, i)):
        raise VerificationError("top node %s is off the top weight" % parent.id(top))
    words = [kashiwara_word(datum, jh) for jh in range(len(datum.hat_gcm))]
    twins = [tuple(datum.omega[j] for j in word) for word in words]
    lower = {}  # node -> its lowering image under each folded color
    queue = [top]
    seen = {top}
    for p in queue:
        row = []
        for jh, (word, twin) in enumerate(zip(words, twins)):
            down = parent.apply_word(word, p)
            if parent.apply_word(twin, p) != down:
                raise VerificationError(
                    "lowering word for folded color %d leaves the fixed set at %s"
                    % (jh, parent.id(p)))
            back = word[::-1]
            if down != -1 and parent.apply_word(back, down, lowering=False) != p:
                raise VerificationError(
                    "raising word fails to undo folded color %d at %s" % (jh, parent.id(p)))
            row.append(down)
            for q in (down, parent.apply_word(back, p, lowering=False)):
                if q != -1 and q not in seen:
                    seen.add(q)
                    queue.append(q)
        lower[p] = row
    if len(queue) != total:
        raise VerificationError("walk reached %d of %d nodes of the closed form from %s"
                                % (len(queue), total, parent.id(top)))
    fixed = tuple(sorted(queue, key=parent.id))
    ids = tuple(map(parent.id, fixed))
    weights = []
    for p, b in zip(fixed, ids):
        try:
            weights.append(p_omega_star_inverse(datum, parent.weight(p)))
        except ValueError as exc:
            raise VerificationError("fixed node %s: %s" % (b, exc))
    where = {p: h for h, p in enumerate(fixed)}
    where[-1] = -1  # no edge
    f = [[where[lower[p][jh]] for p in fixed] for jh in range(len(words))]
    crystal = Crystal(datum.hat_gcm, datum.hat_comarks, ids, tuple(weights), f,
                      (None,) * len(fixed))
    return HatBundle(parent=parent, crystal=crystal, fixed=fixed)


@lru_cache(maxsize=None)
def build_hat_crystal(datum, i, s):
    """The folded crystal of column i at width s, with its parent.

    An orbit of two or more columns with a closed-form decomposition is
    folded by walk_fold, without building the orbit tensor; any other
    column folds the fixed nodes of the twist on the whole orbit tensor.
    """
    _require_folded_column(datum, i)
    factors = orbit_factors(datum, i, s)
    if len(factors) > 1:
        from .branching import expected_size  # branching imports this module
        try:
            total = expected_size(datum, i, s)
        except ScopeError:  # no closed form to check the walk against
            pass
        else:
            return walk_fold(datum, i, s, factors, total)
    tilde = build_tilde_crystal(datum, i, s)
    fixed = _fixed_nodes(tilde.omega_map)
    return HatBundle(parent=tilde.crystal, crystal=fold_crystal(datum, tilde.crystal, fixed),
                     fixed=fixed)


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
    report.add("connected", hat.is_connected(),
               "" if hat.is_connected() else "folded graph splits")
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
        for h, p in enumerate(fixed):
            for jh in range(hat.ncolors):
                top = hat.phi(jh, h)
                cur = h
                for m in range(1, top + 2):
                    cur = hat.f[jh][cur] if cur != -1 else -1
                    via_word = parent.apply_word(kashiwara_word(datum, jh, m), p)
                    if via_word != (fixed[cur] if cur != -1 else -1):
                        raise VerificationError(
                            "lowering power %d disagrees at %s color %d" % (m, hat.ids[h], jh))
                top = hat.eps(jh, h)
                cur = h
                for m in range(1, top + 2):
                    cur = hat.e[jh][cur] if cur != -1 else -1
                    via_word = parent.apply_word(
                        tuple(reversed(kashiwara_word(datum, jh, m))), p, lowering=False)
                    if via_word != (fixed[cur] if cur != -1 else -1):
                        raise VerificationError(
                            "raising power %d disagrees at %s color %d" % (m, hat.ids[h], jh))

    def weyl_match():
        for h, p in enumerate(fixed):
            for jh in range(hat.ncolors):
                lhs = fixed[hat.weyl_s(jh, h)]
                rhs = parent.weyl_word(theta_word(datum, (jh,)), p)
                if lhs != rhs:
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

def _pair_twist(pair, omega):
    """The twist of B (x) B, factorwise from the twist omega of B."""
    return [pair.at(omega[a], omega[b]) for a, b in zip(pair.left_of, pair.right_of)]


def verify_tensor_compatibility(datum, spec1, spec2):
    """The folded tensor equals the fold of the tensor, edge for edge.

    Also drags the pair exchange and the energy down to the folded side:
    the exchange must keep fixed nodes fixed and commute with every folded
    edge, and the energy inherited through the identification must satisfy
    the folded difference relations across all affine edges. The local
    energy rule used here holds for a crystal tensored with itself only, so
    both factors are one crystal and the exchange maps the pair tensor to
    itself.
    """
    if spec1 != spec2:
        raise ScopeError(
            "tensor compatibility is checked on B (x) B only: the local energy "
            "rule does not hold for the unequal factors %r and %r" % (spec1, spec2))
    hat = build_hat_crystal(datum, *spec1)
    tilde = build_tilde_crystal(datum, *spec1)
    pair = tensor(tilde.crystal, tilde.crystal)
    omega_pair = _pair_twist(pair, tilde.omega_map)
    fixed = _fixed_nodes(omega_pair)
    folded = fold_crystal(datum, pair, fixed)
    lhs = tensor(hat.crystal, hat.crystal)
    report = Report()

    report.add("iso:size", lhs.ids == folded.ids,
               "%d vs %d fixed pairs" % (len(lhs), len(folded)))

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
    anchor = pair.at(tilde.top, tilde.top)
    exchange = propagate_map(pair, pair, {anchor: anchor})

    def fixed_closed():
        for p in fixed:
            image = exchange[p]
            if omega_pair[image] != image:
                raise VerificationError(
                    "exchange moves %s off the fixed set" % pair.ids[p])

    report.run("rhat:fixed", fixed_closed)
    report.add("rhat:anchor", exchange[anchor] == anchor, "anchor moved")

    def rhat_edges():
        where = {p: h for h, p in enumerate(fixed)}
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

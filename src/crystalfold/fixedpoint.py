"""Folding: the crystal living on twist-fixed nodes, and its verification.

Every folded crystal is built by one walk, fold_crystal, from a node the
twist fixes. Each folded color acts through a fixed word of parent
operators; a word that its omega-twisted twin does not match, or that its
raising partner fails to undo, is a hard error rather than a skipped edge,
and a weight that is not constant on orbits cannot enter the fold silently.

A column is walked from its top node on the orbit tensor, which is never
built: the column crystal itself for a one-column orbit, a LazyTensor
otherwise; nor is the twist. The walk must reach the closed-form size,
which for the triality legs the Q-system reads off the center column's.
Verification, branching and tensor compatibility read this one walked hat.
Tensor compatibility walks the pair tensor of the orbit tensor from its top
pair with the same fold, requires the fixed pairs to be the pairs of fixed
nodes, and propagates the exchange on that pair tensor.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .cartan import (
    ScopeError, block, kashiwara_word, levels, p_omega_star, p_omega_star_inverse,
    pi_tilde_weight, theta_word)
from .crystal import (
    Crystal, LazyTensor, Report, VerificationError, propagate_map, tensor, tensor_many,
    weyl_fall)
from .intertwine import energy_on_tensor, energy_steps, orbit_factors, orbit_top
from .models import classical_highest_node
from .monomial import weight_multiset


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
    is breadth first, a layer at a time: each folded color's word, its twin
    (where that is another word) and the reversed raising word act once on
    the whole layer through parent.images, and both images of every node
    join the next layer in queue order, so nodes are discovered as a
    node-by-node queue would find them. Of the layer's twins that part, the
    first by node, then color, is raised. The walked nodes are folded in id
    order: weights must be constant on orbits, and the raising image of
    every folded edge's target must be its source. The parent's weights are
    read once, as columns over the fixed nodes: every coordinate's column
    must be its orbit representative's, and the representatives' columns
    are the folded weights; only where some column differs are the nodes
    searched for the first one off the orbits.
    """
    steps = []
    for jh in range(len(datum.hat_gcm)):
        word = kashiwara_word(datum, jh)
        steps.append((word, tuple(datum.omega[j] for j in word), word[::-1]))
    queue, layer = [top], [top]
    images = {top: None}  # per walked node and folded color: (lowering, raising) image
    while layer:
        downs, ups, parted = [], [], []
        for jh, (word, twin, back) in enumerate(steps):
            down = parent.images(word, layer)
            twins = down if twin == word else parent.images(twin, layer)
            if twins != down:
                parted.append((next(k for k, (a, b) in enumerate(zip(down, twins)) if a != b), jh))
            downs.append(down)
            ups.append(parent.images(back, layer, lowering=False))
        if parted:
            k, jh = min(parted)
            raise VerificationError(
                "lowering word for folded color %d leaves the fixed set at %s"
                % (jh, parent.id(layer[k])))
        found = []
        for p, row in zip(layer, zip(*map(zip, downs, ups))):
            for q in itertools.chain.from_iterable(row):
                if q != -1 and q not in images:
                    images[q] = None
                    found.append(q)
            images[p] = row
        queue += found
        layer = found
    fixed = tuple(sorted(queue, key=parent.id))
    where = {p: h for h, p in enumerate(fixed)}
    ids = tuple(map(parent.id, fixed))
    columns = list(zip(*map(parent.weight, fixed)))
    if list(map(columns.__getitem__, datum.rep_of)) != columns:
        for p, b in zip(fixed, ids):
            try:
                p_omega_star_inverse(datum, parent.weight(p))
            except ValueError as exc:
                raise VerificationError("fixed node %s: %s" % (b, exc))
    weights = tuple(zip(*map(columns.__getitem__, datum.reps)))
    f = [[-1] * len(fixed) for _ in steps]
    for h, p in enumerate(fixed):
        for jh, ((down, _), row) in enumerate(zip(images[p], f)):
            if down != -1:
                if images[down][jh][1] != p:
                    raise VerificationError(
                        "raising word fails to undo folded color %d at %s" % (jh, ids[h]))
                row[h] = where[down]
    crystal = Crystal(datum.hat_gcm, datum.hat_comarks, ids, weights, f,
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
    expected_size, the size of the closed-form decomposition.
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
    total = expected_size(datum, i, s)
    hat = fold_crystal(datum, parent, top)
    if len(hat) != total:
        raise VerificationError("walk reached %d of %d nodes of the closed form from %s"
                                % (len(hat), total, parent.id(top)))
    return hat


# -- the headline verification ----------------------------------------------

def _acts_as_product(hat, a, b):
    """Colors a and b are orthogonal, both Cartan entries 0, and commute:
    f_b f_a = f_a f_b as whole maps, -1 reading -1."""
    if hat.gcm[a][b] or hat.gcm[b][a]:
        return False
    fa, fb = hat.f[a], hat.f[b]
    return list(map([*fb, -1].__getitem__, fa)) == list(map([*fa, -1].__getitem__, fb))


def _regularity_stages(report, datum, hat, full):
    """One stage regular:S per color subset S of one or two colors, of any
    proper size when full: every component of the restriction to S is a
    highest weight crystal of the block of S.

    A subset passes at once, by a product certificate, when each of its
    colors has passed axiom:weight-step and axiom:semiregular (its record
    says so, see Crystal.with_color) and every two of its colors are
    orthogonal and commute (_acts_as_product). Then:

    - a color's restriction is a sum of strings: the semiregular pass walked
      them, and that walk fails on a cycle and on two sources of one target,
      so the color also passes axiom:pairing; a string of length L heads at
      a node with eps 0, and by semiregularity its weights phi - eps are
      L, L - 2, ..., -L, those of the crystal of highest weight L;
    - for two such colors a, b and y = f_a x, commuting gives f_b^m y =
      f_a f_b^m x, so phi_b(y) <= phi_b(x), and y = f_b^k f_a e_b^k x for
      k = eps_b(x), so eps_b(y) >= eps_b(x); the weight step at the zero
      entry keeps phi_b - eps_b, so both are equalities: each color's eps
      and phi are constant along the other's edges;
    - so the component of a node h whose every eps is 0 is the grid of the
      nodes prod_j f_j^k_j h, 0 <= k_j <= phi_j(h), with h its one highest
      node and restricted weights (lambda_j - 2 k_j): the weight multiset
      of the block 2 I, a product of strings (the a_ij = 0 case of
      Stembridge's local axioms). Raising one color after another reaches
      such an h from every node.

    So the component route below passes on a certified subset: regular:j
    can fail only where an axiom stage for color j failed, and regular:S of
    two or more colors only there or where two of its colors do not
    commute. Orthogonality only spares comparing maps that cannot commute:
    by the same inequalities, an adjacent pair that commutes has no edges.
    A grid has no more nodes than the hat, so certifying skips no MAX_NODES
    refusal of the oracle below that many nodes. Every other subset is
    decomposed into components, and each component's sorted restricted
    weights must be the monomial oracle's weight multiset of its restricted
    highest weight. Pair results are shared by the subsets.
    """
    rank = len(datum.hat_gcm)
    subsets = []
    for size in range(1, rank):
        if not full and size > 2:
            break
        subsets.extend(itertools.combinations(range(rank), size))
    passed = ["weight-step" in record and "semiregular" in record for record in hat._derived]
    pairs = {}  # (a, b), a < b -> _acts_as_product(hat, a, b)

    def certified(sub):
        if not all(map(passed.__getitem__, sub)):
            return False
        for pair in itertools.combinations(sub, 2):
            if pair not in pairs:
                pairs[pair] = _acts_as_product(hat, *pair)
            if not pairs[pair]:
                return False
        return True

    for sub in subsets:
        name = "regular:" + "".join(str(j) for j in sub)

        def stage(sub=sub):
            if certified(sub):
                return
            blockg = block(datum.hat_gcm, sub)
            if len(sub) == 1:
                restricted = [(wt[sub[0]],) for wt in hat.weights]
            else:
                restricted = list(map(itemgetter(*sub), hat.weights))
            wanted = {}  # restricted highest weight -> its weight multiset
            for top, _, comp in hat.highest_weight_decomposition(sub):
                lam = restricted[top]
                want = wanted.get(lam)
                if want is None:
                    if min(lam) < 0:
                        raise VerificationError(
                            "restricted component at %s has the non-dominant highest weight %r"
                            % (hat.ids[top], lam))
                    want = wanted[lam] = weight_multiset(blockg, lam)
                got = tuple(sorted(map(restricted.__getitem__, comp)))
                if got != want:
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
    """Folded string data read off the parent in four independent ways.

    Each stage reads the parent on batches of fixed nodes: strings_at,
    images and weyl_images act on every fixed node at once, and a stage
    that fails names the witness a loop over single nodes would name.
    """
    bundle = build_hat_crystal(datum, i, s)
    hat = bundle.crystal
    parent = bundle.parent
    fixed = bundle.fixed
    report = Report()

    def eps_orbit():
        # the parent's strings at every fixed node in one batch, which
        # raises a cyclic parent string before the hat's strings are read;
        # p_omega_star reads hat color rep_of[t] for parent color t, so the
        # parent's eps row, then phi row, of each color t over the fixed
        # nodes must be the hat's row of color rep_of[t]. Only where some
        # row differs are the nodes searched for the witness.
        got = parent.strings_at(fixed)
        columns = list(map(hat.strings, range(hat.ncolors)))
        for side, per_node in enumerate(zip(*got)):
            hat_rows = [tuple(col[side]) for col in columns]
            if list(zip(*per_node)) != list(map(hat_rows.__getitem__, datum.rep_of)):
                break
        else:
            return
        hat_eps = zip(*(eps for eps, _ in columns))
        hat_phi = zip(*(phi for _, phi in columns))
        for h, (eps, phi), e, p in zip(itertools.count(), got, hat_eps, hat_phi):
            if p_omega_star(datum, e) != eps:
                raise VerificationError("eps tuples disagree at %s" % hat.ids[h])
            if p_omega_star(datum, p) != phi:
                raise VerificationError("phi tuples disagree at %s" % hat.ids[h])

    def powered_words():
        """One batch per color, direction and power m, over the folded nodes
        whose string reaches power m - 1; each parent node applies the whole
        word of power m. Of all failures the first by node, color, direction
        (lowering first) and power is raised.

        A color whose word is one letter j stops after power 1 when that
        power agrees at every node: power m is then j m times, and images
        applies a word a letter at a time, as the folded side steps its map
        m times, so power m at a node is power 1 at the node that power
        m - 1 reached, and by induction every power agrees, the death at
        phi + 1 included. The argument uses no crystal axiom. A color that
        fails at power 1 runs every power, so the first failure is the one
        a run of every power names; a longer word runs every power, whose
        higher powers test that its letters commute.
        """
        for jh in range(hat.ncolors):
            hat.strings(jh)  # walks every string of color jh, refusing a cycle
        ends = fixed + (-1,)
        failures = []
        for jh in range(hat.ncolors):
            one_letter = len(kashiwara_word(datum, jh)) == 1
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
                    elif one_letter and m == 1:
                        break  # power 1 agreed everywhere, and so does every power
                    alive = list(map((-1).__ne__, cur))
                    nodes = list(itertools.compress(nodes, alive))
                    cur = list(itertools.compress(cur, alive))
                    m += 1
        if failures:
            h, jh, _, m, kind = min(failures)
            raise VerificationError("%s power %d disagrees at %s color %d"
                                    % (kind, m, hat.ids[h], jh))

    def weyl_match():
        # one batch per folded color over the fixed nodes, a parent
        # reflection at a time; of all failures the first by node, then
        # color, is raised, and at one node and color a parent step that
        # falls off comes before a folded one
        failures = []
        for jh in range(hat.ncolors):
            rhs, fell = list(fixed), {}
            for j in theta_word(datum, (jh,)):
                live = [h for h, q in enumerate(rhs) if q != -1]
                for h, q in zip(live, parent.weyl_images(j, [rhs[h] for h in live])):
                    rhs[h] = q
                    if q == -1:
                        fell[h] = j
            for h, (q, t) in enumerate(zip(rhs, hat.weyl_images(jh, range(len(hat))))):
                if q == -1 or t == -1 or fixed[t] != q:
                    failures.append((h, jh, fell[h] if q == -1 else jh if t == -1 else None))
                    break
        if failures:
            h, jh, fall = min(failures)
            if fall is not None:
                raise weyl_fall(fall)
            raise VerificationError("folded Weyl operator %d differs at %s" % (jh, hat.ids[h]))

    def level_zero():
        """Every folded weight has level 0 under datum.hat_comarks.

        fold_crystal builds the hat with datum.hat_comarks as its comarks, so
        this is the linear form of simple:S1 on the same weights: neither
        stage can fail without the other, and both name the first node off
        level zero. It stays a stage of its own, as every report lists it.
        """
        level = levels(datum.hat_comarks, hat.weights)
        if any(level):
            raise VerificationError("folded weight off level zero at %s"
                                    % hat.ids[next(itertools.compress(range(len(hat)), level))])

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
    its fixed pairs must be the pairs of fixed nodes, in id order. Also
    drags the pair exchange and the energy down to the folded side: the
    exchange must keep fixed nodes fixed and commute with every folded
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
        # one eps column per color, every color of lhs walked before any of
        # folded; the witness is the first node where any color differs
        want = [lhs.strings(jh)[0] for jh in range(lhs.ncolors)]
        got = [folded.strings(jh)[0] for jh in range(folded.ncolors)]
        differ = [next(h for h, (a, b) in enumerate(zip(x, y)) if a != b)
                  for x, y in zip(want, got) if x != y]
        if differ:
            raise VerificationError("eps differs at %s" % lhs.ids[min(differ)])

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
        down_steps, up_steps = energy_steps(lhs)
        for h, p in enumerate(fixed):
            down = folded.f[0][h]
            if down != -1 and energy[fixed[down]] - energy[p] != down_steps[h]:
                raise VerificationError(
                    "lowering energy relation fails at %s" % folded.ids[h])
            up = folded.e[0][h]
            if up != -1 and energy[fixed[up]] - energy[p] != up_steps[h]:
                raise VerificationError(
                    "raising energy relation fails at %s" % folded.ids[h])
            for jh in range(1, folded.ncolors):
                down = folded.f[jh][h]
                if down != -1 and energy[fixed[down]] != energy[p]:
                    raise VerificationError(
                        "energy moves along folded color %d at %s" % (jh, folded.ids[h]))

    report.run("energy:zero-edges", folded_energy)
    return report

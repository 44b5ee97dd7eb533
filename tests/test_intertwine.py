"""Twist maps, exchange maps, orbit tensors, and the energy table."""

import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import leaves
from crystalfold import fixedpoint, intertwine
from crystalfold.branching import verify_branching
from crystalfold.cartan import make_datum, pi_tilde_weight
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import (
    Crystal, LazyTensor, Tensor, VerificationError, tensor, tensor_many)
from crystalfold.fixedpoint import build_hat_crystal, verify_tensor_compatibility
from crystalfold.intertwine import (
    compute_r_matrix, energy_on_tensor, orbit_factors, verify_yang_baxter)
from crystalfold.models import classical_highest_node, kr_crystal
from leaves import (apply_word, build_tilde_crystal, clear_package_caches, compute_tau_omega,
                    energy_walk, exchange_pair, lazy_step, leaf_columns, leaf_node,
                    node_strings, own_strings, run_cli, weyl_s)

A2 = make_datum("a", 2)
A3 = make_datum("a", 3)
B1 = make_datum("b", 1)
C3 = make_datum("c", 3)
D3 = make_datum("d", 3)


# -- twist maps -------------------------------------------------------------

def test_tau_round_trip_between_columns():
    there = compute_tau_omega(A2, 1, 1)
    back = compute_tau_omega(A2, 3, 1)
    src = kr_crystal(A2, 1, 1)
    assert len(there) == len(src) and -1 not in there
    for k in range(len(src)):
        assert back[there[k]] == k


def test_tau_on_fixed_column_swaps_fork_letters():
    tau = compute_tau_omega(C3, 1, 1)
    crys = kr_crystal(C3, 1, 1)
    assert crys.ids[tau[crys.ids.index("v:0,0,0,1|0,0,0,0")]] == "v:0,0,0,0|0,0,0,1"
    assert crys.ids[tau[crys.ids.index("v:1,0,0,0|0,0,0,0")]] == "v:1,0,0,0|0,0,0,0"
    assert any(t != k for k, t in enumerate(tau))


def test_tau_triple_fork_center_has_order_three():
    tau = compute_tau_omega(D3, 1, 1)
    assert any(t != k for k, t in enumerate(tau))
    for k in range(len(tau)):
        assert tau[tau[tau[k]]] == k


def test_tau_cycles_the_fork_legs():
    t2 = compute_tau_omega(D3, 2, 1)
    t3 = compute_tau_omega(D3, 3, 1)
    t4 = compute_tau_omega(D3, 4, 1)
    for k in range(len(kr_crystal(D3, 2, 1))):
        assert t4[t3[t2[k]]] == k


# -- exchange maps ----------------------------------------------------------

def test_r_matrix_inverts():
    fwd = compute_r_matrix(A2, (1, 1), (2, 1))
    rev = compute_r_matrix(A2, (2, 1), (1, 1))
    for a in range(fwd.n1):
        for b in range(fwd.n2):
            assert exchange_pair(rev, *exchange_pair(fwd, a, b)) == (a, b)


def test_r_matrix_equal_factors_is_identity():
    rmap = compute_r_matrix(A2, (1, 1), (1, 1))
    assert all(exchange_pair(rmap, a, b) == (a, b)
               for a in range(rmap.n1) for b in range(rmap.n2))


def test_r_matrix_anchor():
    rmap = compute_r_matrix(A2, (1, 1), (3, 1))
    b1 = kr_crystal(A2, 1, 1)
    b3 = kr_crystal(A2, 3, 1)
    u1 = classical_highest_node(A2, b1, 1, 1)
    u3 = classical_highest_node(A2, b3, 3, 1)
    assert exchange_pair(rmap, u1, u3) == (u3, u1)


def test_r_matrix_refuses_a_moved_weight_at_the_first_pair(monkeypatch):
    # one non-top node of the right column carries a weight off by 7, with
    # every edge kept: the exchange propagates as before, and the pairs
    # whose weight it no longer keeps are read off the true exchange
    rmap = compute_r_matrix(A2, (1, 1), (2, 1))
    b1, col = kr_crystal(A2, 1, 1), kr_crystal(A2, 2, 1)
    k = next(k for k in range(len(col)) if k != classical_highest_node(A2, col, 2, 1))
    weights = list(col.weights)
    weights[k] = (weights[k][0] + 7,) + weights[k][1:]
    moved = Crystal(col.gcm, col.comarks, col.ids, tuple(weights), col.f, col.payloads)
    monkeypatch.setattr(intertwine, "kr_crystal",
                        lambda datum, i, s: moved if (i, s) == (2, 1) else kr_crystal(datum, i, s))
    forward, backward = tensor(b1, moved), tensor(moved, b1)
    first = next(x for x, y in enumerate(rmap.codes)
                 if forward.weights[x] != backward.weights[y])
    with pytest.raises(VerificationError,
                       match="^weight rule fails at %s$" % re.escape(forward.id(first))):
        compute_r_matrix(A2, (1, 1), (2, 1))


def test_yang_baxter_cyclic_parent():
    assert verify_yang_baxter(A2, (1, 1), (2, 1), (3, 1))


def test_yang_baxter_triple_fork_legs():
    assert verify_yang_baxter(D3, (2, 1), (3, 1), (4, 1))


def test_exchange_apply_at_slots():
    rmap = compute_r_matrix(A2, (1, 1), (2, 1))
    pairs = [(a, b) for a in range(rmap.n1) for b in range(rmap.n2)]
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    images = [exchange_pair(rmap, a, b) for a, b in pairs]
    spare = [9] * len(pairs)
    assert rmap.apply_at([lefts, rights, spare], 0) == [
        [c for c, _ in images], [d for _, d in images], spare]
    assert rmap.apply_at([spare, lefts, rights], 1) == [
        spare, [c for c, _ in images], [d for _, d in images]]


# -- energy -----------------------------------------------------------------

def _square(datum, i, s):
    """B (x) B of column i at width s, and its top pair."""
    crys = kr_crystal(datum, i, s)
    u = classical_highest_node(datum, crys, i, s)
    prod = tensor(crys, crys)
    return prod, prod.at(u, u)


def _component_energies(datum, i, s):
    prod, anchor = _square(datum, i, s)
    table = energy_on_tensor(prod, anchor)
    out = {}
    for comp in prod.components(colors=range(1, datum.size)):
        vals = {table[k] for k in comp}
        assert len(vals) == 1, "energy must be flat on classical components"
        out[len(comp)] = vals.pop()
    return table, out


def test_energy_square_column_pair():
    table, comps = _component_energies(B1, 1, 1)
    assert comps == {6: 0, 3: -1}
    assert min(table) == -1 and max(table) == 0


def test_energy_first_column_pair_cyclic():
    _, comps = _component_energies(A2, 1, 1)
    assert comps == {10: 0, 6: -1}


def test_energy_vector_pair_branched():
    _, comps = _component_energies(C3, 1, 1)
    assert comps == {35: 0, 28: -1, 1: -2}


def test_energy_anchor_is_zero():
    crys = kr_crystal(A2, 1, 1)
    prod = tensor(crys, crys)
    u = classical_highest_node(A2, crys, 1, 1)
    table = energy_on_tensor(prod, prod.at(u, u))
    assert table[prod.ids.index(crys.ids[u] + "*" + crys.ids[u])] == 0
    assert len(table) == len(prod)


def test_energy_path_dependence_is_caught():
    crys = kr_crystal(A2, 1, 1)
    u = classical_highest_node(A2, crys, 1, 1)
    prod = tensor(crys, crys)
    anchor = prod.at(u, u)
    table = energy_on_tensor(prod, anchor)
    # re-point one color 0 edge at the anchor, from a node whose true
    # target has nonzero energy; the raising arrays still hold the old edge
    x = next(k for k, y in enumerate(prod.f[0]) if y != -1 and table[y] != 0)
    prod.f[0][x] = anchor
    with pytest.raises(VerificationError,
                       match="energy is path dependent (along|against) color 0 at"):
        energy_on_tensor(prod, anchor)


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES + [("c", 4, 1, 3)])
def test_energy_equals_the_node_walk(case, n, i, s):
    # (c,4,1,3) is the 44,100-node table of the energy benchmark requests
    prod, anchor = _square(make_datum(case, n), i, s)
    assert energy_on_tensor(prod, anchor) == energy_walk(prod, anchor)


def test_energy_equals_the_node_walk_on_the_compatibility_pair(monkeypatch):
    tables = []

    def both(prod, anchor):
        table = energy_on_tensor(prod, anchor)
        tables.append((len(prod), table == energy_walk(prod, anchor)))
        return table

    monkeypatch.setattr(fixedpoint, "energy_on_tensor", both)
    report_ok(verify_tensor_compatibility(A2, (1, 2), (1, 2)))
    assert tables == [(10000, True)]


@pytest.mark.parametrize("maps,message", [
    # the lowering closures of two classical highest nodes meet
    ("f", "component of .* has 2 highest nodes under colors"),
    ("e", "color 1 raising edge leaves its classical component at "),
])
def test_energy_classical_edge_into_another_component_is_caught(maps, message):
    # re-point one color 1 edge into the other classical component, whose
    # energy differs, and leave the inverse array stale
    prod, anchor = _square(A2, 1, 1)
    table = energy_on_tensor(prod, anchor)
    arr = getattr(prod, maps)[1]
    x = next(k for k, y in enumerate(arr) if y != -1)
    arr[x] = next(k for k in range(len(prod)) if table[k] != table[x])
    with pytest.raises(VerificationError, match=message):
        energy_on_tensor(prod, anchor)
    with pytest.raises(VerificationError, match="energy is path dependent"):
        energy_walk(prod, anchor)


def test_energy_unreached_component_is_caught():
    # without color 0 only the anchor's classical component, 10 of the 16
    # pairs, is reachable
    prod, anchor = _square(A2, 1, 1)
    prod.f[0][:] = prod.e[0][:] = [-1] * len(prod)
    for energy in (energy_on_tensor, energy_walk):
        with pytest.raises(VerificationError, match="^energy walk reached 10 of 16 nodes$"):
            energy(prod, anchor)


# -- orbit tensors ----------------------------------------------------------

def test_tilde_two_column_orbit():
    bundle = build_tilde_crystal(A2, 1, 1)
    assert len(bundle.crystal) == 16
    assert bundle.crystal.ids[bundle.top] == "t:1*t:1|2|3"
    assert bundle.crystal.weights[bundle.top] == (-2, 1, 0, 1)
    assert bundle.omega_map[bundle.top] == bundle.top
    values = set(bundle.omega_map)
    assert len(values) == len(bundle.crystal)


def test_tilde_single_column_orbit():
    bundle = build_tilde_crystal(C3, 1, 2)
    assert len(bundle.crystal) == 35
    assert any(t != k for k, t in enumerate(bundle.omega_map))
    target = tuple(2 * v for v in pi_tilde_weight(C3, 1))
    assert bundle.crystal.weights[bundle.top] == target


def test_tilde_fixed_middle_column():
    bundle = build_tilde_crystal(A3, 3, 1)
    assert len(bundle.crystal) == 20
    assert bundle.crystal is kr_crystal(A3, 3, 1)


def test_tilde_triple_fork_legs():
    bundle = build_tilde_crystal(D3, 2, 1)
    assert len(bundle.crystal) == 512
    assert len(leaf_columns(bundle.crystal)) == 3
    assert bundle.omega_map[bundle.top] == bundle.top


def test_tilde_center_column():
    bundle = build_tilde_crystal(D3, 1, 1)
    assert len(bundle.crystal) == 29
    omega = bundle.omega_map
    for k in range(len(bundle.crystal)):
        assert omega[omega[omega[k]]] == k


# -- the twist against the tau-then-R composition ------------------------------

def twist_by_tau_and_r(datum, i, s, crystal):
    """The twist composed from parts: tau on every factor, then exchanges
    that walk the wrapped-around last factor back to the front, then the
    node of each tuple of leaf indices."""
    orbit = datum.orbit(i)
    columns = [[tau[x] for x in leaf] for tau, leaf in zip(
        [compute_tau_omega(datum, col, s) for col in orbit], leaf_columns(crystal))]
    for pos in range(len(orbit) - 2, -1, -1):
        rmat = compute_r_matrix(datum, (orbit[pos + 1], s), (orbit[0], s))
        columns = rmat.apply_at(columns, pos)
    node = {leaves: k for k, leaves in enumerate(zip(*leaf_columns(crystal)))}
    return [node[leaves] for leaves in zip(*columns)]


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES)
def test_twist_equals_tau_then_r_on_the_scope(case, n, i, s):
    datum = make_datum(case, n)
    bundle = build_tilde_crystal(datum, i, s)
    assert list(bundle.omega_map) == twist_by_tau_and_r(datum, i, s, bundle.crystal)


@pytest.fixture
def calls(monkeypatch):
    """Cold package caches, then a count of tensors, R matrices and propagated maps."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    clear_package_caches()
    monkeypatch.setattr(Tensor, "__init__", counting("tensor", Tensor.__init__))
    monkeypatch.setattr(intertwine, "compute_r_matrix",
                        counting("r_matrix", intertwine.compute_r_matrix))
    for module in (intertwine, fixedpoint, leaves):
        monkeypatch.setattr(module, "propagate_map",
                            counting("propagate_map", module.propagate_map))
    return counts


def cli_ok(*words):
    res = run_cli(*words)
    assert res.exit_code == 0, res.output


def report_ok(report):
    assert report.ok, report.to_text()


@pytest.mark.parametrize("call,built", [
    # the orbit (2, 4) has a closed form, so the fold walks a lazy tensor
    pytest.param(lambda: build_hat_crystal(A3, 2, 2), {}, id="hat-a-3-2-2"),
    # the twist oracle: the tableau columns of case a build no tensors of
    # their own, so the one tensor is the orbit tensor B(2,2) (x) B(4,2),
    # and the twist is propagated depth first and breadth first
    pytest.param(lambda: build_tilde_crystal(A3, 2, 2), {"tensor": 1, "propagate_map": 2},
                 id="tilde-a-3-2-2"),
    # build --target tilde prints that tensor and builds no twist
    pytest.param(lambda: cli_ok("build", "--target", "tilde", "--case", "a", "--n", "3",
                                "--i", "2", "--s", "2"),
                 {"tensor": 1}, id="cli-build-tilde-a-3-2-2"),
    # the one-column orbit (c,3,1,1) has a closed form, so verify walks the
    # vector column itself
    pytest.param(lambda: cli_ok("verify", "--case", "c", "--n", "3", "--i", "1", "--s", "1"),
                 {}, id="cli-verify-c-3-1-1"),
    # the triality leg (d,3,2,1) is counted by the Q-system from the center
    # column's closed form, so its walk builds no tensor and no twist either
    pytest.param(lambda: build_hat_crystal(D3, 2, 1), {}, id="hat-d-3-2-1"),
    pytest.param(lambda: cli_ok("verify", "--case", "d", "--n", "3", "--i", "2", "--s", "1"),
                 {}, id="cli-verify-d-3-2-1"),
    pytest.param(lambda: cli_ok("branch", "--case", "d", "--n", "3", "--i", "2", "--s", "1"),
                 {}, id="cli-branch-d-3-2-1"),
    pytest.param(lambda: cli_ok("build", "--target", "hat", "--case", "d", "--n", "3",
                                "--i", "2", "--s", "1"),
                 {}, id="cli-build-hat-d-3-2-1"),
    # branch reads both highest node routes off the walked hat of the orbit
    # (2, 4), on the lazy orbit tensor
    pytest.param(lambda: cli_ok("branch", "--case", "a", "--n", "3", "--i", "2", "--s", "2"),
                 {}, id="cli-branch-a-3-2-2"),
    # the multiplicity gate reads the classical highest nodes of the orbit
    # tensor off a lazy tensor, and the fixed ones off the walked hat
    pytest.param(lambda: report_ok(verify_branching(A3, 2, 2)), {},
                 id="verify-branching-a-3-2-2"),
    # the triality leg's walk and gate read lazy tensors only
    pytest.param(lambda: report_ok(verify_branching(D3, 2, 1)), {},
                 id="verify-branching-d-3-2-1"),
    # the orbit tensor, the parent pair and the pair of folded crystals, and
    # one map: the exchange of the parent pair with itself
    pytest.param(lambda: report_ok(verify_tensor_compatibility(A2, (1, 1), (1, 1))),
                 {"tensor": 3, "propagate_map": 1}, id="tensor-compatibility-a-2-1-1"),
])
def test_tensors_and_maps_built_per_request(calls, call, built):
    call()
    assert calls == built


@pytest.mark.parametrize("case,n,i,s", SCOPE_INSTANCES + [
    ("a", 4, 2, 2), ("b", 3, 2, 2), ("b", 2, 2, 3)])
def test_highest_nodes_are_the_heads_of_the_orbit_tensor(case, n, i, s):
    datum = make_datum(case, n)
    classical = datum.classical_nodes
    factors = orbit_factors(datum, i, s)
    eager = tensor_many(factors)
    heads = [top for top, _, _ in eager.highest_weight_decomposition(classical)]
    killed = [k for k in range(len(eager))
              if all(eager.e[j][k] == -1 for j in classical)]
    assert eager.highest_nodes(classical) == heads == killed
    lazy = LazyTensor(factors)
    nodes = lazy.highest_nodes(classical)
    assert sorted(leaf_node(eager, node) for node in nodes) == heads
    assert (Counter(map(lazy.weight, nodes))
            == Counter(eager.weights[k] for k in heads))


@pytest.mark.parametrize("case,n,i,s", [inst for inst in SCOPE_INSTANCES
                                        if len(make_datum(*inst[:2]).orbit(inst[2])) > 1])
def test_lazy_tensor_matches_the_orbit_tensor(case, n, i, s):
    # every node in one batch, against the node-level oracle and the built
    # orbit tensor
    datum = make_datum(case, n)
    factors = orbit_factors(datum, i, s)
    lazy = LazyTensor(factors)
    eager = build_tilde_crystal(datum, i, s).crystal
    assert len(lazy) == len(eager)
    nodes = list(product(*(range(len(fac)) for fac in factors)))
    ks = [leaf_node(eager, node) for node in nodes]

    def leaf_batch(batch):
        return [-1 if node == -1 else leaf_node(eager, node) for node in batch]

    assert ([(lazy.id(node), lazy.weight(node)) for node in nodes]
            == [(eager.ids[k], eager.weights[k]) for k in ks])
    assert (node_strings(lazy.strings_at(nodes)) == [own_strings(lazy, node) for node in nodes]
            == node_strings(eager.strings_at(ks)) == [own_strings(eager, k) for k in ks])
    for j in range(eager.ncolors):
        for lowering, maps in ((True, eager.f), (False, eager.e)):
            images = lazy.images((j,), nodes, lowering)
            assert images == [lazy_step(lazy, j, node, lowering) for node in nodes]
            assert leaf_batch(images) == [maps[j][k] for k in ks]
        weyl = lazy.weyl_images(j, nodes)
        assert weyl == [weyl_s(lazy, j, node) for node in nodes]
        assert leaf_batch(weyl) == eager.weyl_images(j, ks) == [weyl_s(eager, j, k) for k in ks]


# two-factor orbits, and the three-factor orbit of the triality leg
BATCHED_ORBITS = [("a", 2, 1, 1), ("a", 3, 2, 1), ("b", 2, 1, 2), ("c", 3, 3, 1),
                  ("d", 3, 2, 1)]


@pytest.mark.parametrize("case,n,i,s", BATCHED_ORBITS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lazy_batches_equal_the_node_loop(case, n, i, s, data):
    # random batches, empty, single and with repeats, under random words of
    # up to four letters, which may kill a node midway and then keep acting
    datum = make_datum(case, n)
    lazy = LazyTensor(orbit_factors(datum, i, s))
    node = st.tuples(*(st.integers(0, len(fac) - 1) for fac in lazy.factors))
    nodes = data.draw(st.one_of(st.just([]), st.lists(node, max_size=1),
                                st.lists(node, max_size=12).map(lambda xs: xs + xs[:3])))
    word = data.draw(st.lists(st.integers(0, lazy.ncolors - 1), max_size=4))
    lowering = data.draw(st.booleans())
    assert (lazy.images(word, nodes, lowering)
            == [apply_word(lazy, word, node, lowering) for node in nodes])
    assert node_strings(lazy.strings_at(nodes)) == [own_strings(lazy, node) for node in nodes]
    j = word[0] if word else 0
    assert lazy.weyl_images(j, nodes) == [weyl_s(lazy, j, node) for node in nodes]

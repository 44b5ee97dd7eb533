"""Acceptance suite: one test per headline criterion, timed where promised.

Each test ends by printing a single pass line; pytest -v adds its own
verdict per criterion as well. Builders share caches, so the suite runs
the heavy constructions once.
"""

import time

import pytest

from crystalfold.branching import verify_branching
from crystalfold.cartan import make_datum, p_omega_star
from crystalfold.cli import SCOPE_INSTANCES
from crystalfold.crystal import Report, tensor
from crystalfold.fixedpoint import (check_string_identities,
                                    verify_main_theorem,
                                    verify_tensor_compatibility)
from crystalfold.intertwine import compute_r_matrix, energy_on_tensor, verify_yang_baxter
from crystalfold.models import classical_highest_node, kr_crystal
from leaves import compute_tau_omega

A2 = make_datum("a", 2)
A3 = make_datum("a", 3)
B1 = make_datum("b", 1)
B2 = make_datum("b", 2)
C3 = make_datum("c", 3)
D3 = make_datum("d", 3)
ALL_DATA = (A2, A3, B1, B2, C3, D3)

# parent columns for model validity: every one-column crystal in scope
MODEL_INSTANCES = (
    [(A2, i, s) for i in (1, 2, 3) for s in (1, 2)]
    + [(B2, i, s) for i in (1, 2, 3, 4) for s in (1, 2)]
    + [(A3, i, s) for i in (1, 2, 3, 4, 5) for s in (1, 2)]
    + [(C3, 1, 1), (C3, 1, 2)]
    + [(C3, 3, 1), (C3, 4, 1), (D3, 1, 1)])


def test_criterion_1_model_validity():
    start = time.monotonic()
    for datum, i, s in MODEL_INSTANCES:
        crys = kr_crystal(datum, i, s)
        report = Report()
        crys.verify_crystal_axioms(report)
        crys.is_simple(report)
        crys.is_perfect(s, report)
        assert report.ok, "(%s,%d,%d,%d)\n%s" % (
            datum.case, datum.n, i, s, report.to_text())
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "model validity took %.1fs" % elapsed
    print("CRITERION 1 model validity: PASS (%.2fs)" % elapsed)


def test_criterion_2_main_theorem():
    start = time.monotonic()
    for case, n, i, s in SCOPE_INSTANCES:
        report = verify_main_theorem(make_datum(case, n), i, s)
        assert report.ok, "(%s,%d,%d,%d)\n%s" % (case, n, i, s, report.to_text())
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, "main theorem sweep took %.1fs" % elapsed
    print("CRITERION 2 main theorem: PASS (%.2fs)" % elapsed)


def test_criterion_3_branching_agreement():
    for case, n, i, s in SCOPE_INSTANCES:
        report = verify_branching(make_datum(case, n), i, s)
        assert report.ok, "(%s,%d,%d,%d)\n%s" % (case, n, i, s, report.to_text())
        stages = {name: detail for name, _, detail in report.stages}
        if (case, i) == ("d", 2):
            assert "no closed formula" in stages["branch:expected"]
        else:
            assert stages["branch:expected"] == ""
    print("CRITERION 3 branching agreement: PASS")


def test_criterion_4_weyl_compatibility():
    for case, n, i, s in SCOPE_INSTANCES:
        report = check_string_identities(make_datum(case, n), i, s)
        assert report.ok, "(%s,%d,%d,%d)\n%s" % (case, n, i, s, report.to_text())
        names = [name for name, _, _ in report.stages]
        for wanted in ("strings:eps-orbit", "strings:powered-words",
                       "strings:weyl"):
            assert wanted in names
    print("CRITERION 4 weyl compatibility: PASS")


def test_criterion_5_intertwiner_suite():
    # tau and R verify every edge and both queue orders internally
    assert len(compute_tau_omega(C3, 3, 1)) == 8
    assert len(compute_r_matrix(A2, (1, 1), (3, 1)).codes) == 16
    verify_yang_baxter(D3, (2, 1), (3, 1), (4, 1))

    for datum, table in ((A2, {10: 0, 6: -1}), (C3, {35: 0, 28: -1, 1: -2})):
        crys = kr_crystal(datum, 1, 1)
        top = classical_highest_node(datum, crys, 1, 1)
        prod = tensor(crys, crys)
        values = energy_on_tensor(prod, prod.at(top, top))
        seen = {}
        for comp in prod.components(colors=datum.classical_nodes):
            vals = {values[k] for k in comp}
            assert len(vals) == 1, "energy not classically flat"
            seen[len(comp)] = vals.pop()
        assert seen == table
    print("CRITERION 5 intertwiner suite: PASS")


def test_criterion_6_fixed_point_tensor():
    for datum in (A2, C3):
        report = verify_tensor_compatibility(datum, (1, 1), (1, 1))
        assert report.ok, report.to_text()
        names = [name for name, _, _ in report.stages]
        assert names == ["iso:size", "iso:edges", "iso:eps", "rhat:fixed",
                         "rhat:anchor", "rhat:edges", "energy:zero-edges"]
    print("CRITERION 6 fixed point tensor: PASS")


def test_criterion_7_structural_constants():
    names = {("a", 2): "D_3^(2)", ("a", 3): "D_4^(2)", ("b", 1): "A_2^(2)",
             ("b", 2): "A_4^(2)", ("c", 3): "A_5^(2)", ("d", 3): "D_4^(3)"}
    for datum in ALL_DATA:
        assert datum.hat_name == names[(datum.case, datum.n)]
        for pos, rep in enumerate(datum.reps):
            orb = datum.orbit(rep)
            c = datum.c_vals[pos]
            # the two in the orbit sums is scaled away exactly when c is one
            assert (c == 1) == (datum.case == "b" and rep == datum.n)
            # central elements correspond under the orbit projection
            assert datum.hat_comarks[pos] == sum(datum.comarks[k] for k in orb)
            # folded simple roots pull back to scaled orbit sums of roots
            hat_alpha = tuple(datum.hat_gcm[k][pos]
                              for k in range(len(datum.reps)))
            pulled = p_omega_star(datum, hat_alpha)
            summed = tuple(
                sum(datum.gcm[row][k] for k in orb) * 2 // c
                for row in range(datum.size))
            assert pulled == summed, (datum.case, datum.n, rep)
    print("CRITERION 7 structural constants: PASS")

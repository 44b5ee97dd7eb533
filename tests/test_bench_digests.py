"""Byte for byte guard: benchmark workloads against their digests.

perfbench/run.py hashes every output, Report stage list and folded graph
of a workload and compares them with perfbench/expected.json, so a changed
output fails here, before the benchmark runs. smoke and scope are small;
orbit-verify folds (b,3,2,2) and (a,4,2,2) by the layered walk on a lazy
orbit tensor, whose operators act on whole factor columns, and its hat
digests were recorded from the eager fold of the whole orbit tensor, node
by node; wide-fold is the one workload with vector columns of width 4
and 5 and with --full-regularity, so its digests, recorded from the
string-keyed builders, guard the array-built vector columns, the monomial
oracle and the regularity stages; parent-full is the one workload that
checks tensor compatibility and the energy beyond width 1. The branch
digests of parent-full and wide-fold were recorded from the twist of the
whole orbit tensor, so they guard branch, which reads the walked hat alone,
against that eager route. Likewise the scope digests of the branching
reports and the parent-full digests of tensor compatibility were recorded
when the twist of the whole orbit tensor backed the multiplicity gate and
the fixed pairs of B (x) B, so they guard both, which now read the walked
hat and build no twist. The benchmark's
self-test runs the smoke workload traced and untraced, so every traced
layer, the fold on a lazy parent among them, runs in the suite.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["smoke", "scope", "orbit-verify", "wide-fold",
                                      "parent-full"])
def test_workload_matches_recorded_digests(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-2000:]
    assert proc.stdout.startswith("selftest ok:"), proc.stdout[-2000:]

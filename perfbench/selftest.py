"""Self-test of the benchmark on the tiny smoke workload.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that untraced and traced runs print identical digests and every
metric of BENCHMARK.json with its unit, and that a corrupted expected digest
is counted as a failed request. Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

import run
import tracing


def _invoke(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    digests = next(json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("digests "))
    return digests, json.loads(lines[-1])


def _check_metrics(result, declared, label):
    printed = {name: rec["unit"] for name, rec in result["metrics"].items()}
    want = {rec["name"]: rec["unit"] for rec in declared}
    if printed != want:
        raise AssertionError("%s metrics differ from BENCHMARK.json: %r vs %r"
                             % (label, sorted(printed.items()), sorted(want.items())))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError("%s run failed: %r" % (label, result))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(tracing.METRICS):
        raise AssertionError("per_layer of BENCHMARK.json differs from tracing.METRICS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.E2E_METRICS):
        raise AssertionError("end_to_end of BENCHMARK.json differs from run.E2E_METRICS")

    plain_digests, plain = _invoke(0)
    traced_digests, traced = _invoke(1)
    _check_metrics(plain, spec["end_to_end"], "untraced")
    _check_metrics(traced, spec["per_layer"], "traced")
    if plain_digests != traced_digests:
        raise AssertionError("traced and untraced digests differ")

    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    victim = run.WORKLOADS["smoke"][0]
    record = dict(expected[victim])
    record["output"] = ("0" if record["output"][0] != "0" else "1") + record["output"][1:]
    expected[victim] = record
    lines = []
    result = run.measure("smoke", 0, 0.0, False, expected, log=lines.append)
    passes = result["attempted"] // len(run.WORKLOADS["smoke"])
    if result["failed"] != passes or result["correct"]:
        raise AssertionError("corrupted digest not counted: %r" % result)
    if result["metrics"]["ok_ratio"]["value"] >= 1.0:
        raise AssertionError("corrupted digest left ok_ratio at 1")
    if not any(line.startswith("FAILED " + victim) for line in lines):
        raise AssertionError("corrupted digest not reported")
    print("selftest ok: %d smoke requests, %d per-layer metrics, digests match"
          % (len(plain_digests), len(traced["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the crystalfold fold pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload orbit-verify --seed 1 --seconds 30 --trace 0

Every request runs in this process with every package cache cleared first,
because a CLI user pays the cache fills on each invocation. Passes over the
workload's requests repeat, in an order drawn from --seed, until --seconds
would be exceeded. Each request's output, Report stages and, after a verify,
folded graph are hashed and checked against perfbench/expected.json.

--trace 0 prints the end-to-end metrics: setup_s, the median of fresh
interpreters' start-up to a ready CLI with the workload's data built;
pass_s, the sum over the requests of each one's median cold time; the peak
RSS of this process; and the share of requests that passed. Both times are
wall times scaled to a reference CPU speed sampled while they run (see
speed.py), because a shared host slows the same code by up to 1.6 times for
seconds at a time; the log lines give the raw wall times too.

--trace 1 alternates untraced and traced passes, both timed in raw wall
time, and prints the per-layer metrics of tracing.py, including the tracing
overhead, and writes the spans of its last traced pass to .perfbench/.

    python3 perfbench/run.py --record    # rewrite expected.json

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import json
import os
import pkgutil
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import speed  # noqa: E402
import tracing  # noqa: E402

# A request is a crystalfold command line, run in-process through cli.main,
# or "lib <function> <case> <n> <i,s>..." for a library entry point.
WORKLOADS = {
    # CI and acceptance traffic: 22 small instances per sweep, and the only
    # spin columns; caches are shared inside a sweep, as the CLI shares them.
    "scope": (
        "verify --all-scope",
        "branch --all-scope",
    ),
    # Parent tensors of 38,416 and 112,896 nodes folded to under 1%:
    # tensor, R matrix and twist take over 90% of the time.
    "orbit-verify": (
        "verify --case b --n 3 --i 2 --s 2",
        "verify --case a --n 4 --i 2 --s 2",
    ),
    # Column 1 is fork-fixed, so the parent is one KR crystal with no tensor
    # or R matrix; verification stages, monomial oracle and branching dominate.
    "wide-fold": (
        "verify --case c --n 6 --i 1 --s 5",
        "branch --case c --n 6 --i 1 --s 5",
        "verify --case c --n 7 --i 1 --s 4",
        "verify --full-regularity --case c --n 5 --i 1 --s 4",
    ),
    # Maps between whole parent tensors, which a lazy fold cannot skip, and
    # the JSON rendering of large maps. Equal widths only.
    "parent-full": (
        "branch --case b --n 2 --i 2 --s 3",
        "rmatrix --format json --case a --n 3 --i 1 --s 4",
        "energy --format json --case c --n 4 --i 1 --s 3",
        "energy --format json --case d --n 3 --i 1 --s 2",
        "lib verify_tensor_compatibility c 5 1,2 1,2",
        "lib verify_tensor_compatibility a 2 1,2 1,2",
        "lib verify_yang_baxter a 3 1,2 2,1 5,2",
    ),
    # Tiny list for selftest.py; not part of BENCHMARK.json.
    "smoke": (
        "verify --case a --n 2 --i 1 --s 1",
        "branch --case a --n 2 --i 1 --s 1",
        "rmatrix --format json --case a --n 2 --i 1 --s 1",
        "energy --format json --case a --n 2 --i 1 --s 1",
        "lib verify_tensor_compatibility a 2 1,1 1,1",
        "lib verify_yang_baxter a 2 1,1 2,1 1,1",
    ),
}

E2E_METRICS = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "share"),
)

SETUP_PROBES = 9

# A fresh interpreter importing the CLI and building the workload's data;
# it prints the factor that scales its wall time to the reference speed.
PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import speed
with speed.SpeedProbe() as probe:
    import crystalfold.cli
    from crystalfold.cartan import make_datum
    for arg in sys.argv[3:]:
        case, n = arg.split(":")
        make_datum(case, int(n))
print("ready %r" % probe.scaled(1.0, 0, probe.mark()), flush=True)
"""


class BenchError(RuntimeError):
    """The benchmark itself cannot run or its preconditions fail."""


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _flags(rid):
    words = rid.split()
    return {words[k]: words[k + 1] for k in range(len(words) - 1)
            if words[k].startswith("--") and not words[k + 1].startswith("--")}


class Bench:
    """The imported package, its caches, and the request runner."""

    def __init__(self, expected):
        init = os.path.join(SRC, "crystalfold", "__init__.py")
        if not os.path.isfile(init):
            raise BenchError("no package source at %s" % init)
        sys.path.insert(0, SRC)
        import crystalfold
        if os.path.dirname(os.path.abspath(crystalfold.__file__)) != os.path.dirname(init):
            raise BenchError("crystalfold imported from %s" % crystalfold.__file__)
        self.modules = [importlib.import_module("crystalfold." + info.name)
                        for info in pkgutil.iter_modules(crystalfold.__path__)]
        self.caches = self._discover_caches()
        self.expected = expected
        self.report_cls = self._find("Report")
        self.scope = self._find("SCOPE_INSTANCES")
        self.build_hat = self._find("build_hat_crystal")
        self.make_datum = self._find("make_datum")
        # one capture buffer for every request: click caches a text wrapper
        # per sys.stdout object and never frees it, so a new buffer per
        # request would leak every output
        self.out = io.StringIO()
        self.cli_main = importlib.import_module("crystalfold.cli").main
        self.reports = []

    def _find(self, name):
        for mod in self.modules:
            if name in mod.__dict__:
                return mod.__dict__[name]
        raise BenchError("the package defines no %s" % name)

    def _discover_caches(self):
        """Every object with cache_clear in a package module or its classes."""
        found = {}
        for mod in self.modules:
            owners = [mod.__dict__] + [vars(v) for v in mod.__dict__.values()
                                       if isinstance(v, type)
                                       and v.__module__ == mod.__name__]
            for space in owners:
                for val in space.values():
                    val = getattr(val, "__func__", val)
                    if (callable(getattr(val, "cache_clear", None))
                            and getattr(val, "__module__", "").startswith("crystalfold")):
                        name = "%s.%s" % (val.__module__.rpartition(".")[2],
                                          val.__qualname__)
                        found[name] = val
        return found

    @contextlib.contextmanager
    def capturing_reports(self):
        """Collect every Report the package creates, in creation order.

        Each is paired with whether a failed stage fails the request. A
        Report made inside the module defining Report is the default of a
        crystal check called without one: its caller reads the outcome and
        may expect a failure, as the affine-completion search in models
        does. Every other Report is a stage list that ends in the output.
        """
        orig = self.report_cls.__init__
        home = self.report_cls.__module__

        def init(report, *args, **kwargs):
            orig(report, *args, **kwargs)
            creator = sys._getframe(1).f_globals.get("__name__")
            self.reports.append((report, creator != home))
        self.report_cls.__init__ = init
        try:
            yield
        finally:
            self.report_cls.__init__ = orig

    def datums(self, requests):
        """(case, n) pairs a workload's requests build."""
        pairs = set()
        for rid in requests:
            words = rid.split()
            if words[0] == "lib":
                pairs.add((words[2], int(words[3])))
            elif "--all-scope" in words:
                pairs.update((c, n) for c, n, _, _ in self.scope)
            else:
                flags = _flags(rid)
                pairs.add((flags["--case"], int(flags.get("--n", 3))))
        return sorted(pairs)

    def _instances(self, rid):
        """(case, n, i, s) folded by a verify request, else nothing."""
        words = rid.split()
        if words[0] != "verify":
            return []
        if "--all-scope" in words:
            return list(self.scope)
        flags = _flags(rid)
        return [(flags["--case"], int(flags.get("--n", 3)),
                 int(flags.get("--i", 1)), int(flags.get("--s", 1)))]

    def _call(self, rid):
        """Run one request; returns (exit code, output, error or None)."""
        words = rid.split()
        if words[0] != "lib":
            self.out.seek(0)
            self.out.truncate()
            code, err = 0, None
            with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.out):
                try:
                    self.cli_main.main(args=words, prog_name="crystalfold")
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                except Exception as exc:  # a raised error is a failed request
                    code, err = 1, exc
            return code, self.out.getvalue(), err
        # looked up per call, so that a traced pass calls the wrappers
        fn = self._find(words[1])
        make_datum = self._find("make_datum")
        specs = [tuple(int(v) for v in w.split(",")) for w in words[4:]]
        try:
            out = fn(make_datum(words[2], int(words[3])), *specs)
        except Exception as exc:  # a raised error is a failed request
            return 1, "", exc
        if isinstance(out, self.report_cls):
            return 0, out.to_text() + "\n", None
        return 0, repr(out) + "\n", None

    def run_request(self, rid, tracer=None, probe=None):
        """One cold request.

        Returns ((wall seconds, scaled seconds), digests, failure or None,
        cache [hits, misses], failed Report stages). Without a speed probe
        the scaled seconds are the wall seconds.
        """
        for cache in self.caches.values():
            cache.cache_clear()
        warm = [name for name, cache in self.caches.items()
                if cache.cache_info().hits or cache.cache_info().currsize]
        if warm:
            raise BenchError("package caches not cold: %s" % ", ".join(warm))
        gc.collect()
        self.reports = []
        top = "lib" if rid.startswith("lib ") else "cli"
        span = tracer.request(rid, top) if tracer else contextlib.nullcontext()
        first = probe.mark() if probe else 0
        start = time.perf_counter()
        with span:
            code, output, err = self._call(rid)
        elapsed = time.perf_counter() - start
        scaled = probe.scaled(elapsed, first, probe.mark()) if probe else elapsed
        stats = {name: cache.cache_info()[:2] for name, cache in self.caches.items()}

        stages = [[list(st[:3]) for st in rep.stages] for rep, _ in self.reports]
        failed_stages = sum(1 for rep, counts in self.reports if counts
                            for st in rep.stages if not st[1])
        digests = {"output": _sha("%d\n%s" % (code, output)),
                   "stages": _sha(json.dumps(stages))}
        hats = [self.build_hat(self.make_datum(c, n), i, s).crystal.to_json()
                for c, n, i, s in self._instances(rid)]
        if hats:
            digests["hat"] = _sha(json.dumps(hats, sort_keys=True))

        failure = None
        if err is not None:
            failure = "raised %s: %s" % (type(err).__name__, err)
        elif code != 0:
            failure = "exit code %d" % code
        elif failed_stages:
            failure = "%d failed Report stages" % failed_stages
        elif self.expected is not None and self.expected.get(rid) != digests:
            failure = "digest mismatch"
        return (elapsed, scaled), digests, failure, stats, failed_stages


def probe_setup(datums):
    """Seconds from spawning a fresh interpreter until it could serve, raw
    and scaled to the reference speed."""
    args = [sys.executable, "-c", PROBE, SRC, HERE] + ["%s:%d" % d for d in datums]
    start = time.perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    words = line.split()
    if len(words) != 2 or words[0] != "ready" or proc.returncode != 0:
        raise BenchError("set-up probe failed with exit code %s" % proc.returncode)
    return elapsed, elapsed * float(words[1])


def run_pass(bench, order, tracer, seen, per_request, log, probe=None):
    """One pass over the requests in order; returns (wall seconds, scaled
    seconds, failed, layer metrics when traced). seen keeps each request's
    first digests; per_request collects each one's scaled seconds."""
    stats = {}
    failed = failed_stages = 0
    wall = scaled = 0.0
    if tracer:
        tracer.begin_pass()
    with tracer.installed() if tracer else contextlib.nullcontext():
        for rid in order:
            (req_wall, req_scaled), dig, failure, req_stats, bad = \
                bench.run_request(rid, tracer, probe)
            wall += req_wall
            scaled += req_scaled
            per_request[rid].append(req_scaled)
            failed_stages += bad
            for name, (hits, misses) in req_stats.items():
                acc = stats.setdefault(name, [0, 0])
                acc[0] += hits
                acc[1] += misses
            if seen.setdefault(rid, dig) != dig:
                failure = failure or "digest differs between passes"
            if failure:
                failed += 1
                log("FAILED %s: %s" % (rid, failure))
    return wall, scaled, failed, tracer.end_pass(stats, failed_stages) if tracer else None


def measure(workload, seed, seconds, trace, expected, log=print):
    """Run one workload; returns the result object of the last output line.

    Passes repeat while the next one, as long as the longest so far, still
    fits in the given seconds; there is at least one pass, and with trace
    at least one untraced and one traced pass, alternating. Untraced runs
    scale their times to the reference speed of speed.py; traced runs report
    wall times.
    """
    requests = WORKLOADS[workload]
    bench = Bench(expected)
    setup = [] if trace else [probe_setup(bench.datums(requests))
                              for _ in range(SETUP_PROBES)]
    tracer = tracing.Tracer(bench.modules, bench.report_cls) if trace else None
    probe = None if trace else speed.SpeedProbe()
    rng = random.Random(seed)
    untraced, untraced_wall, traced, layer_rows = [], [], [], []
    per_request = {rid: [] for rid in requests}
    digests = {}
    attempted = failed = 0
    start = time.perf_counter()
    with bench.capturing_reports(), probe or contextlib.nullcontext():
        while True:
            traced_pass = trace and len(untraced) > len(traced)
            order = list(requests)
            rng.shuffle(order)
            wall, pass_s, bad, row = run_pass(bench, order,
                                              tracer if traced_pass else None,
                                              digests, per_request, log, probe)
            attempted += len(order)
            failed += bad
            if traced_pass:
                traced.append(pass_s)
                layer_rows.append(row)
            else:
                untraced.append(pass_s)
                untraced_wall.append(wall)
            done = time.perf_counter() - start
            if (untraced and (traced or not trace)
                    and done + max(untraced_wall + traced) > seconds):
                break

    log("workload %s seed %d trace %d" % (workload, seed, trace))
    log("passes untraced %d traced %d, pass_s %s, wall %s"
        % (len(untraced), len(traced), " ".join("%.4f" % p for p in untraced),
           " ".join("%.4f" % p for p in untraced_wall)))
    for rid in requests:
        log("request %-55s median %.4f s over %d"
            % (rid, statistics.median(per_request[rid]), len(per_request[rid])))
    log("digests " + json.dumps(digests, sort_keys=True))
    if trace:
        metrics = {name: (statistics.median(row[name] for row in layer_rows), unit)
                   for name, unit in tracing.METRICS}
        base = statistics.median(untraced)
        metrics["trace.pass_s"] = (statistics.median(traced), "s")
        metrics["trace.untraced_pass_s"] = (base, "s")
        metrics["trace.overhead_s"] = (metrics["trace.pass_s"][0] - base, "s")
        os.makedirs(TRACE_DIR, exist_ok=True)
        out = os.path.join(TRACE_DIR, "trace-%s-seed%d.json.gz" % (workload, seed))
        with gzip.open(out, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": tracer.spans}, fh)
        log("spans of the last traced pass, %d, written to %s"
            % (len(tracer.spans), os.path.relpath(out, ROOT)))
    else:
        log("setup_s %s, wall %s" % (" ".join("%.4f" % v for _, v in setup),
                                      " ".join("%.4f" % v for v, _ in setup)))
        metrics = {
            "setup_s": (statistics.median(v for _, v in setup), "s"),
            "pass_s": (sum(statistics.median(v) for v in per_request.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "share"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": val, "unit": unit}
                        for name, (val, unit) in metrics.items()}}


def record():
    """Hash every request of every workload at the current commit."""
    bench = Bench(None)
    table = {}
    with bench.capturing_reports():
        for rid in sorted({r for reqs in WORKLOADS.values() for r in reqs}):
            (elapsed, _), dig, failure, _, _ = bench.run_request(rid)
            if failure:
                raise BenchError("%s: %s" % (rid, failure))
            table[rid] = dig
            print("%-55s %.3f s" % (rid, elapsed), flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump(table, fh, sort_keys=True, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current code")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        with open(EXPECTED) as fh:
            expected = json.load(fh)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         expected, log=lambda line: print(line, flush=True))
    except (BenchError, OSError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

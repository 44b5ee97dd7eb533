"""Spans and counters recorded around the package's public functions.

Everything here acts from outside the package. Each traced function is
rebound in every package module that holds it, so calls made through
``from .crystal import tensor`` style names are traced too, and every
``Report.run`` call becomes a stage span. Spans stay in memory as
(name, start, end, parent, request) rows until the run writes them out.
"""

import contextlib
import functools
import sys
import time
from collections import Counter

# Traced functions, named by the module that defines them. A function that a
# later change moves to another module is still found by its bare name, and
# keeps its metric name. build_hat_crystal, expected_branching and
# verify_branching have no metric of their own; they are traced so that their
# time is not charged to their callers' self time.
TRACED = (
    "cartan.make_datum",
    "models.kr_crystal",
    "crystal.tensor",
    "crystal.propagate_map",
    "intertwine.compute_tau_omega",
    "intertwine.compute_r_matrix",
    "intertwine.build_tilde_crystal",
    "intertwine.energy_on_tensor",
    "intertwine.verify_yang_baxter",
    "fixedpoint.fold_crystal",
    "fixedpoint.build_hat_crystal",
    "fixedpoint.verify_main_theorem",
    "fixedpoint.check_string_identities",
    "fixedpoint.verify_tensor_compatibility",
    "monomial.highest_weight_crystal",
    "monomial.weight_multiset",
    "branching.branch_hat",
    "branching.multiplicity_free_gate",
    "branching.weyl_dimension",
    "branching.expected_branching",
    "branching.verify_branching",
)

LAYERS = ("cartan", "models", "crystal", "intertwine", "fixedpoint",
          "monomial", "branching", "cli")


def _edges(crys):
    return sum(len(row) - row.count(-1) for row in crys.f)


# Sizes read off a call's arguments and result, only when the call built
# something (an uncached call, or a cache miss).
SIZES = {
    "models.kr_crystal": lambda args, out: {"nodes": len(out)},
    "crystal.tensor": lambda args, out: {"nodes": len(out), "edges": _edges(out)},
    "crystal.propagate_map": lambda args, out: {"mapped": len(out)},
    "intertwine.build_tilde_crystal": lambda args, out: {"nodes": len(out.crystal)},
    "intertwine.energy_on_tensor": lambda args, out: {"nodes": len(out)},
    "fixedpoint.fold_crystal": lambda args, out: {"kept": len(out),
                                                  "parent": len(args[1])},
}

# The per-layer metrics a traced run prints, with their units.
METRICS = (
    ("cartan.make_datum.s", "s"),
    ("models.kr_crystal.s", "s"),
    ("models.kr_crystal.calls", "count"),
    ("models.kr_crystal.hit_ratio", "share"),
    ("models.kr_crystal.nodes", "count"),
    ("crystal.tensor.s", "s"),
    ("crystal.tensor.calls", "count"),
    ("crystal.tensor.nodes", "count"),
    ("crystal.tensor.edges", "count"),
    ("crystal.propagate_map.s", "s"),
    ("crystal.propagate_map.calls", "count"),
    ("crystal.propagate_map.mapped", "count"),
    ("intertwine.compute_tau_omega.s", "s"),
    ("intertwine.compute_r_matrix.s", "s"),
    ("intertwine.compute_r_matrix.calls", "count"),
    ("intertwine.compute_r_matrix.hit_ratio", "share"),
    ("intertwine.build_tilde_crystal.self_s", "s"),
    ("intertwine.build_tilde_crystal.nodes", "count"),
    ("intertwine.energy_on_tensor.s", "s"),
    ("intertwine.energy_on_tensor.nodes", "count"),
    ("intertwine.verify_yang_baxter.s", "s"),
    ("fixedpoint.fold_crystal.s", "s"),
    ("fixedpoint.fold_crystal.kept_ratio", "share"),
    ("fixedpoint.verify_main_theorem.self_s", "s"),
    ("fixedpoint.check_string_identities.s", "s"),
    ("fixedpoint.verify_tensor_compatibility.self_s", "s"),
    ("crystal.stage.axiom.s", "s"),
    ("crystal.stage.simple.s", "s"),
    ("crystal.stage.perfect.s", "s"),
    ("fixedpoint.stage.regular.s", "s"),
    ("monomial.highest_weight_crystal.s", "s"),
    ("monomial.highest_weight_crystal.hit_ratio", "share"),
    ("monomial.weight_multiset.calls", "count"),
    ("branching.branch_hat.self_s", "s"),
    ("branching.multiplicity_free_gate.s", "s"),
    ("branching.weyl_dimension.s", "s"),
    ("report.failed_stages", "count"),
) + tuple((layer + ".self_s", "s") for layer in LAYERS) + (
    ("intertwine_tensor.share", "share"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_s", "s"),
)

# Share of request time spent inside these spans, children included: the
# part a tensor-free fold could remove.
_SHARE_PREFIXES = ("intertwine.", "crystal.tensor")


def find_defined(modules, bare):
    """(module, object) where a package module defines ``bare``, or None."""
    for mod in modules:
        obj = mod.__dict__.get(bare)
        if obj is not None and getattr(obj, "__module__", None) == mod.__name__:
            return mod, obj
    return None


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters while installed; summarises one pass."""

    def __init__(self, modules, report_cls):
        self.modules = modules
        self.report_cls = report_cls
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._request = None

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        info = getattr(fn, "cache_info", None)
        sizes = SIZES.get(name)

        def traced(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            misses = info().misses if info else 0
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[name + ".calls"] += 1
            if sizes and (info is None or info().misses > misses):
                for key, val in sizes(args, out).items():
                    self.counts[name + "." + key] += val
            return out
        return functools.update_wrapper(traced, fn)

    def _stage_run(self, orig):
        def run(report, name, fn):
            if self._request is None:
                return orig(report, name, fn)
            caller = sys._getframe(1).f_globals.get("__name__", "").rpartition(".")[2]
            idx = self._open("%s.stage.%s" % (caller, name.split(":")[0]))
            try:
                return orig(report, name, fn)
            finally:
                self._close(idx)
        return run

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name in every package module, then restore."""
        undo = []
        try:
            for name in TRACED:
                found = find_defined(self.modules, name.rpartition(".")[2])
                if found is None:
                    continue
                orig = found[1]
                wrapper = self._wrap(name, orig)
                for mod in self.modules:
                    for attr, val in list(mod.__dict__.items()):
                        if val is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
            orig_run = self.report_cls.run
            undo.append((self.report_cls, "run", orig_run))
            self.report_cls.run = self._stage_run(orig_run)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    @contextlib.contextmanager
    def request(self, rid, name):
        """Top-level span for one request; nested spans carry its id."""
        self._request = rid
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._request = None

    def begin_pass(self):
        """Drop the previous pass's spans and counts; spans holds one pass."""
        self.spans = []
        self.counts = Counter()

    def end_pass(self, cache_stats, failed_stages):
        """Per-layer metrics of the spans and counts since begin_pass.

        cache_stats maps a cache name to summed [hits, misses] over the
        pass's requests.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        total = Counter()
        self_time = Counter()
        layer_self = Counter()
        covered = 0.0
        requests = 0.0
        in_share = [name.startswith(_SHARE_PREFIXES) for name, *_ in spans]
        for k, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - child[k]
            self_time[name] += own
            layer_self[name.partition(".")[0]] += own
            same, shared = False, False
            up = parent
            while up is not None:
                row = spans[up]
                same = same or row[0] == name
                shared = shared or in_share[up]
                up = row[3]
            if not same:
                total[name] += dur
            if in_share[k] and not shared:
                covered += dur
            if parent is None:
                requests += dur
        out = {}
        for metric, _ in METRICS:
            head, _, field = metric.rpartition(".")
            if field == "s":
                out[metric] = total[head]
            elif field == "self_s":
                out[metric] = self_time[head] if head not in LAYERS else layer_self[head]
            elif field == "hit_ratio":
                hits, misses = cache_stats.get(head, (0, 0))
                out[metric] = _ratio(hits, hits + misses)
            elif field == "kept_ratio":
                out[metric] = _ratio(self.counts[head + ".kept"],
                                     self.counts[head + ".parent"])
            else:
                out[metric] = self.counts[metric]
        out["report.failed_stages"] = failed_stages
        out["intertwine_tensor.share"] = _ratio(covered, requests)
        return out

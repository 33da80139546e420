"""Span tracing for the ethsim benchmark.

Wrappers from this file are installed around the public functions of every
ethsim module for the traced invocations of a run, and removed again for the
untraced ones.  ``from .linalg import partial_trace`` copies the binding into
the importing module, so a wrapper replaces every module global that holds
the original function, not only the defining module's; methods are patched
on their class.  Spans stay in memory and are reduced to per-layer metrics
when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

# (span name, defining module, attribute path).  Layers are the modules.
TARGETS = (
    ("linalg.partial_trace", "ethsim.linalg", "partial_trace"),
    ("linalg.operator_norm", "ethsim.linalg", "operator_norm"),
    ("linalg.hermitian_eig", "ethsim.linalg", "hermitian_eig"),
    ("algebra.commutant", "ethsim.algebra", "commutant"),
    ("algebra.relative_commutant", "ethsim.algebra", "relative_commutant"),
    ("algebra.intersect_spans", "ethsim.algebra", "intersect_spans"),
    ("algebra.center", "ethsim.algebra", "center"),
    ("algebra.contains", "ethsim.algebra", "contains"),
    ("algebra.minimal_projections", "ethsim.algebra", "minimal_projections"),
    ("states.State.validate", "ethsim.states", "State.__post_init__"),
    ("states.collapse", "ethsim.states", "collapse"),
    ("states.detect_event", "ethsim.states", "detect_event"),
    ("states.centralizer_of_state", "ethsim.states", "centralizer_of_state"),
    ("states.incoherence_residual", "ethsim.states", "incoherence_residual"),
    ("chain.ChainModel.detect_event_reduced", "ethsim.chain", "ChainModel.detect_event_reduced"),
    ("chain.embed_future_block", "ethsim.chain", "embed_future_block"),
    ("chain.ChainModel.algebra_at", "ethsim.chain", "ChainModel.algebra_at"),
    ("chain.ChainModel.nesting_report", "ethsim.chain", "ChainModel.nesting_report"),
    ("chain.ChainModel.init", "ethsim.chain", "ChainModel.__init__"),
    ("histories.sample_history", "ethsim.histories", "sample_history"),
    ("histories.enumerate_tree", "ethsim.histories", "enumerate_tree"),
    ("histories.check_sum_rule", "ethsim.histories", "check_sum_rule"),
    ("histories.history_measure", "ethsim.histories", "history_measure"),
    ("histories.relative_entropy_vs_reversed", "ethsim.histories", "relative_entropy_vs_reversed"),
    ("indirect.ndm_experiment", "ethsim.indirect", "ndm_experiment"),
    ("indirect.run_ndm_protocol", "ethsim.indirect", "run_ndm_protocol"),
    ("indirect.weak_measurement_trajectory", "ethsim.indirect", "weak_measurement_trajectory"),
    ("indirect.sector_transition_matrix", "ethsim.indirect", "sector_transition_matrix"),
    (
        "indirect.NdmScenario.exact_pointer_distributions",
        "ethsim.indirect",
        "NdmScenario.exact_pointer_distributions",
    ),
    ("trace.fingerprint", "ethsim.trace", "fingerprint"),
    ("trace.TraceRecord.to_line", "ethsim.trace", "TraceRecord.to_line"),
    ("scenario.resolve_scenario", "ethsim.scenario", "resolve_scenario"),
    ("scenario.build_model", "ethsim.scenario", "build_model"),
    ("scenario.build_ndm", "ethsim.scenario", "build_ndm"),
    ("cli.main", "ethsim.cli", "main"),
)

# One probe interaction; counted (steps, branched), not spanned, so the
# protocol spans keep the partial traces as their direct children.
STEP_COUNTER = ("ethsim.indirect", "_measurement_step")

# Percentile ladder for tail latencies; the highest level with at least
# ``TAIL_MIN_BEYOND`` samples above it is reported.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# Spans whose per-call durations are reported as p50 and tail latencies.
LATENCY_SPANS = ("histories.sample_history", "indirect.run_ndm_protocol")

# Spans whose busy time counts as indirect-measurement protocol time.
PROTOCOL_SPANS = ("indirect.run_ndm_protocol", "indirect.weak_measurement_trajectory")


class Span(NamedTuple):
    sid: int
    name: str
    parent: int | None
    invocation: int
    start: float
    end: float
    ok: bool


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0  # id of the traced invocation; the caller advances it
        self.steps = 0
        self.branched = 0
        self.algebra_at_calls = 0
        self.algebra_at_hits = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._returned: dict = {}
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(sid, name, parent, self.invocation, start, end, ok))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count_step(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.steps += 1
            self.branched += bool(out.branched)
            return out

        return counted

    def _algebra_at_result(self, args, snapshot):
        """A hit is a snapshot already returned for that model and t."""
        key = (id(args[0]), args[1])
        self.algebra_at_calls += 1
        if self._returned.get(key) is snapshot:
            self.algebra_at_hits += 1
        else:
            self._returned[key] = snapshot

    def end_invocation(self):
        self._returned.clear()

    # -- installation --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attr in TARGETS:
            hook = self._algebra_at_result if name == "chain.ChainModel.algebra_at" else None
            self._patch(module, attr, lambda fn, n=name, h=hook: self.wrap(n, fn, h))
        self._patch(*STEP_COUNTER, self._count_step)

    def _patch(self, module: str, attr: str, make):
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._patches.append((cls, meth, orig))
            return
        orig = getattr(owner, attr)
        wrapper = make(orig)
        for mod in consumer_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()


def consumer_modules():
    """Every loaded ethsim module, the package namespace included."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ethsim" or name.startswith("ethsim."))
    ]


# ---------------------------------------------------------------------------
# reduction


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus its children's durations.

    Spans come from nested wrappers in synchronous code, so children of one
    span never overlap and end before their parent does.
    """
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - children[s.sid] for s in spans}


def tail_percentile(values):
    """(level, value) of the highest ladder percentile with enough samples beyond it."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    for level in TAIL_LEVELS:
        if round(n * (100.0 - level), 6) >= 100.0 * TAIL_MIN_BEYOND:
            return level, float(np.percentile(values, level))
    return 50.0, float(np.percentile(values, 50.0))


def per_layer_metrics(tracer: Tracer, invocations: int, extra: dict) -> dict:
    """Per-layer metrics, per traced invocation; ``extra`` holds values measured
    outside the spans (event ratio, tracing overhead)."""
    inv = max(1, invocations)
    selfs = self_times(tracer.spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    ok = defaultdict(int)
    durations = defaultdict(list)
    for s in tracer.spans:
        calls[s.name] += 1
        ok[s.name] += s.ok
        busy[s.name] += s.end - s.start
        own[s.name] += selfs[s.sid]
        durations[s.name].append(1e3 * (s.end - s.start))
    out = {}
    for name, _, _ in TARGETS:
        out[f"{name}.calls"] = (calls[name] / inv, "count")
        out[f"{name}.self_s"] = (own[name] / inv, "s")
    mp = "algebra.minimal_projections"
    out[f"{mp}.attempts_per_success"] = (calls[mp] / ok[mp] if ok[mp] else 0.0, "ratio")
    hits = tracer.algebra_at_hits / tracer.algebra_at_calls if tracer.algebra_at_calls else 0.0
    out["chain.algebra_at.hit_ratio"] = (hits, "ratio")
    for name in LATENCY_SPANS:
        level, tail = tail_percentile(durations[name])
        p50 = float(np.percentile(durations[name], 50.0)) if durations[name] else 0.0
        out[f"{name}.p50_ms"] = (p50, "ms")
        out[f"{name}.tail_ms"] = (tail, "ms")
        out[f"{name}.tail_pct"] = (level, "%")
    out["histories.actual_event_ratio"] = (extra["actual_event_ratio"], "ratio")
    protocol_s = sum(busy[n] for n in PROTOCOL_SPANS)
    out["indirect.step_us"] = (1e6 * protocol_s / tracer.steps if tracer.steps else 0.0, "us")
    out["indirect.branch_ratio"] = (tracer.branched / tracer.steps if tracer.steps else 0.0, "ratio")
    out["bench.trace_overhead"] = (extra["trace_overhead"], "ratio")
    return out

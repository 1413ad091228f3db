"""Span tracer that wraps the package's public functions from outside.

Each wrapped function records a span (name, start, end, parent span,
operation id) in memory; ``write`` dumps them once, at the end of a run.
Functions are patched at every name they are looked up under: a module
that did ``from .hhl import run_hhl`` holds its own reference, so it is
patched too. Per-layer metrics are derived from the spans afterwards:
a span's self time is its duration minus that of its direct children.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import hhlsim
from hhlsim import analysis, circuit, cli, compiled2x2, hhl, qstate, selftest


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict | None = None


def _ops(args, kwargs, result) -> dict:
    return {"ops": len(result.ops)}


def _branches(args, kwargs, result) -> dict:
    return {"branches": len(result)}


def _shots(args, kwargs, result) -> dict:
    return {"shots": args[2] if len(args) > 2 else kwargs["shots"]}


def _accepted(args, kwargs, result) -> dict:
    return {"accepted": result.z.accepted + result.x.accepted + result.y.accepted,
            "shots": 3 * result.shots}


# (span name, [(module, attribute it is looked up under)], attributes of the span)
PATCHES = (
    ("circuit.depolarize", [(circuit, "depolarize")], None),
    ("circuit.post_select", [(circuit, "post_select")], None),
    ("circuit.post_select_dm", [(circuit, "post_select_dm")], None),
    ("circuit.enumerate_branches", [(circuit, "enumerate_branches")], _branches),
    ("circuit.sample_shots", [(circuit, "sample_shots")], _shots),
    ("qstate.partial_trace", [(qstate, "partial_trace"), (circuit, "partial_trace"),
                              (analysis, "partial_trace"), (selftest, "partial_trace")], None),
    ("hhl.run_hhl", [(hhl, "run_hhl"), (analysis, "run_hhl"), (cli, "run_hhl"),
                     (selftest, "run_hhl"), (hhlsim, "run_hhl")], None),
    ("hhl.validate", [(hhl, "validate")], None),
    ("hhl.phase_estimation_circuit", [(hhl, "phase_estimation_circuit")], _ops),
    ("hhl.reciprocal_rotation_circuit", [(hhl, "reciprocal_rotation_circuit")], _ops),
    ("compiled2x2.run_compiled", [(compiled2x2, "run_compiled"), (hhlsim, "run_compiled")], None),
    ("analysis.problem_shot_estimates", [(analysis, "problem_shot_estimates")], _accepted),
    ("analysis.shot_estimates", [(analysis, "shot_estimates")], _accepted),
    ("analysis.sampled_success", [(analysis, "sampled_success")], None),
    ("analysis.build_pauli_report", [(analysis, "build_pauli_report")], None),
    ("analysis.noise_sweep", [(analysis, "noise_sweep")], None),
    ("selftest.run_selftest", [(selftest, "run_selftest"), (cli, "run_selftest")], None),
)
BUILD_SPANS = ("hhl.validate", "hhl.phase_estimation_circuit", "hhl.reciprocal_rotation_circuit")
ESTIMATE_SPANS = ("analysis.problem_shot_estimates", "analysis.shot_estimates")
# the instance whose stage op counts are reported, as labelled by the sv-hhl workload
COUNTED_OP = ("sv-hhl", "2x2-b3@7")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[tuple[str, str]] = []  # (workload, label) by operation id
        self._stack: list[int] = []
        self._op: int | None = None
        self._paused = False
        self._mem_widths: set[int] = set()

    def _begin(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def wrap_run(self, fn):
        """``circuit.run``, tagged with backend, width and gate count.

        The first statevector run at each width executes under tracemalloc
        for the allocation peak; its time is left out of the gate rates.
        """
        def wrapper(c, input, noise=None, seed=0):
            if self._paused:
                return fn(c, input, noise, seed)
            backend = "dm" if noise is not None or np.ndim(input) == 2 else "sv"
            attrs = {"backend": backend, "qubits": c.qubits,
                     "gates": sum(1 for op in c.ops if not isinstance(op, circuit.Measure))}
            measure = backend == "sv" and c.qubits not in self._mem_widths
            if measure:
                self._mem_widths.add(c.qubits)
                tracemalloc.start()
            span = self._begin("circuit.run")
            try:
                return fn(c, input, noise, seed)
            finally:
                self._end(span)
                if measure:
                    attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.attrs = attrs

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function; restore the originals on exit."""
        saved = [(circuit, "run", circuit.run)]
        circuit.run = self.wrap_run(circuit.run)
        try:
            for name, sites, attrs in PATCHES:
                module, attr = sites[0]
                if not hasattr(module, attr):
                    continue
                wrapped = self.wrap(name, getattr(module, attr), attrs)
                for module, attr in sites:
                    if hasattr(module, attr):
                        saved.append((module, attr, getattr(module, attr)))
                        setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def operation(self, workload: str, label: str):
        """One benchmark operation: the root span its layer spans hang from."""
        self._op = len(self.ops)
        self.ops.append((workload, label))
        span = self._begin("op")
        try:
            yield
        finally:
            self._end(span)
            self._op = None

    @contextlib.contextmanager
    def paused(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                op = None if s.op is None else self.ops[s.op]
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, op, s.attrs]) + "\n")


def _safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; absent layers read 0."""
    spans = tr.spans
    dur = [s.end - s.start for s in spans]
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    own = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def self_s(name: str) -> float:
        return sum(own[i] for i in by_name[name])

    m: dict[str, float] = {}
    runs = [i for i in by_name["circuit.run"] if "peak_alloc" not in spans[i].attrs]
    for backend, widths in (("sv", (4, 8, 9, 10)), ("dm", (5, 6, 7))):
        for q in widths:
            hit = [i for i in runs if spans[i].attrs["backend"] == backend and spans[i].attrs["qubits"] == q]
            m[f"circuit.run.{backend}.us_per_gate.q{q}"] = 1e6 * _safe_div(
                sum(dur[i] for i in hit), sum(spans[i].attrs["gates"] for i in hit))
    m["circuit.run.sv.peak_alloc_mb"] = max(
        (s.attrs["peak_alloc"] for s in spans if s.attrs and "peak_alloc" in s.attrs), default=0) / 2**20

    stage = dict.fromkeys(("pe", "rotation", "uncompute", "postselect", "build"), 0.0)
    for i in by_name["hhl.run_hhl"]:
        kids = children[i]
        for key, c in zip(("pe", "rotation", "uncompute"), [c for c in kids if spans[c].name == "circuit.run"]):
            stage[key] += dur[c]
        stage["postselect"] += sum(dur[c] for c in kids if spans[c].name == "circuit.post_select")
        stage["build"] += sum(dur[c] for c in kids if spans[c].name in BUILD_SPANS)
    for key in ("pe", "rotation", "uncompute", "postselect"):
        m[f"hhl.stage.{key}_s"] = stage[key]
    m["hhl.build_s"] = stage["build"]
    for name in ("hhl.phase_estimation_circuit", "hhl.reciprocal_rotation_circuit"):
        counted = [spans[i].attrs["ops"] for i in by_name[name]
                   if spans[i].op is not None and tr.ops[spans[i].op] == COUNTED_OP]
        m[f"{name}.ops"] = counted[0] if counted else 0

    m["circuit.depolarize.calls"] = len(by_name["circuit.depolarize"])
    m["circuit.depolarize.self_s"] = self_s("circuit.depolarize")
    m["qstate.partial_trace.self_s"] = self_s("qstate.partial_trace")
    m["circuit.post_select_dm.self_s"] = self_s("circuit.post_select_dm")

    m["circuit.enumerate_branches.calls"] = len(by_name["circuit.enumerate_branches"])
    m["circuit.enumerate_branches.self_s"] = self_s("circuit.enumerate_branches")
    m["circuit.enumerate_branches.branches"] = sum(
        spans[i].attrs["branches"] for i in by_name["circuit.enumerate_branches"])
    m["circuit.sample_shots.self_s"] = self_s("circuit.sample_shots")
    m["circuit.sample_shots.ns_per_shot"] = 1e9 * _safe_div(
        m["circuit.sample_shots.self_s"], sum(spans[i].attrs["shots"] for i in by_name["circuit.sample_shots"]))

    # pipeline simulations per shot estimate: enumerate_branches calls under
    # each outermost estimate span
    def outer_estimate(i: int) -> int | None:
        found = None
        while i is not None:
            if spans[i].name in ESTIMATE_SPANS:
                found = i
            i = spans[i].parent
        return found

    estimates = [i for name in ESTIMATE_SPANS for i in by_name[name] if outer_estimate(i) == i]
    per_estimate = defaultdict(int)
    for i in by_name["circuit.enumerate_branches"]:
        top = outer_estimate(i)
        if top is not None:
            per_estimate[top] += 1
    m["analysis.pipeline_runs_per_estimate"] = _safe_div(sum(per_estimate.values()), len(estimates))
    m["analysis.herald_accept_ratio"] = _safe_div(
        sum(spans[i].attrs["accepted"] for i in estimates), sum(spans[i].attrs["shots"] for i in estimates))
    m["analysis.self_s"] = sum(own[i] for i, s in enumerate(spans) if s.name.startswith("analysis."))
    m["compiled2x2.run_compiled.self_s"] = self_s("compiled2x2.run_compiled")

    cli_ops: dict[str, list[float]] = defaultdict(list)
    for i in by_name["op"]:
        workload, label = tr.ops[spans[i].op]
        if workload == "cli":
            cli_ops[label].append(dur[i])
    for label, times in sorted(cli_ops.items()):
        m[f"cli.main_s.{label}"] = statistics.median(times)
    m["selftest.run_selftest_s"] = statistics.median(
        [dur[i] for i in by_name["selftest.run_selftest"]] or [0.0])
    return m

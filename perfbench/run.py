"""Closed-loop benchmark of hhl-sim: one caller, one operation at a time.

    python3 perfbench/run.py --workload sv-hhl --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

An untraced run (--trace 0) reports the end-to-end metrics of
BENCHMARK.json, its times scaled to a reference host speed (see
hostspeed.py); a traced run (--trace 1) reports its per-layer metrics.
The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. A copy of it, with the environment record and the run
details, is written to .perfbench_out/results/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread unless the caller chose: on a two-core machine a second
# thread fights the interpreter for a core and makes small-matrix timings
# noisy. The environment record states the count in force.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from workloads import OUT_DIR, WIDTH_CAPS, WORKLOADS  # noqa: E402

SETUP_PROBES = 15
SETUP_KERNELS = 3  # calibration kernels on each side of a setup probe
IMPORT_PROBES = 3


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def min_samples(tail_p: float) -> int:
    """Fewest samples that leave ten beyond the ``tail_p`` percentile."""
    return math.ceil(1000.0 / (100.0 - tail_p))


def run_op(op, workload: str, tracer=None) -> tuple[float, str | None]:
    """Run one operation, then check its output, untimed.

    Returns (latency, failure reason or None).
    """
    reason = None
    span = tracer.operation(workload, op.label) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            out = op.run()
    except Exception as exc:  # a failed operation is counted, and the loop goes on
        reason = f"{op.label}: {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if reason is None:
        with tracer.paused() if tracer else contextlib.nullcontext():
            try:
                reason = op.check(out)
            except Exception as exc:  # a check that cannot run fails the operation
                reason = f"{op.label}: check raised {type(exc).__name__}: {exc}"
    return t1 - t0, reason


def run_ops(ops, workload: str, tracer=None):
    """Run operations back to back; return (operations run, failure reasons)."""
    failures = []
    for op in ops:
        _, reason = run_op(op, workload, tracer)
        if reason:
            failures.append(reason)
    return len(ops), failures


def closed_loop(source, rng, seconds: float, workload: str, min_ops: int):
    """Whole cycles, as many as round(seconds / cycle time) of operation time,
    and at least enough for ``min_ops`` operations.

    The calibration kernel runs after every operation, untimed as far as
    the operation goes. Operation time is counted scaled to the reference
    host speed, so the number of cycles, and with it the percentiles a run
    can report, does not depend on how fast the host happens to be.
    Returns (latencies, kernel times, failures, cycles), the first two
    aligned with each other.
    """
    latencies, kernel_s, failures, cycles, busy = [], [], [], 0, 0.0
    ops = source.cycle(rng)
    while True:
        for op in ops:
            latency, reason = run_op(op, workload)
            latencies.append((op.label, latency))
            kernel_s.append(hostspeed.kernel())
            busy += latency * hostspeed.KERNEL_REF_S / statistics.median(kernel_s[-hostspeed.WINDOW:])
            if reason:
                failures.append(reason)
        cycles += 1
        if busy + busy / cycles / 2 >= seconds and len(latencies) >= min_ops:
            return latencies, kernel_s, failures, cycles
        ops = source.cycle(rng)


def _probe(args: list[str]) -> tuple[float, bytes]:
    """Start a fresh interpreter; return seconds until its first line, and that line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited with {proc.returncode}")
    return elapsed, line.strip()


def setup_probe(workload: str, seed: int) -> None:
    """Body of a setup probe: build the workload's first cycle, then say so."""
    WORKLOADS[workload].make(seed, False).cycle(np.random.default_rng(seed))
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Setup probe times, raw and scaled by the kernel times around each probe."""
    raw, scaled = [], []
    kernel_s = [hostspeed.kernel() for _ in range(SETUP_KERNELS)]
    for _ in range(SETUP_PROBES):
        elapsed, line = _probe([str(HERE / "run.py"), "--setup-probe", "--workload", workload,
                                "--seed", str(seed)])
        if line != b"ready":
            raise RuntimeError(f"setup probe for {workload} did not get ready")
        after = [hostspeed.kernel() for _ in range(SETUP_KERNELS)]
        raw.append(elapsed)
        scaled.append(elapsed * hostspeed.KERNEL_REF_S / statistics.median(kernel_s + after))
        kernel_s = after
    return raw, scaled


def measure_import() -> float:
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import hhlsim.cli; print(time.perf_counter() - t)")
    return statistics.median(float(_probe(["-c", code])[1]) for _ in range(IMPORT_PROBES))


def untraced(workload: str, seed: int, seconds: float):
    spec = WORKLOADS[workload]
    setups_raw, setups = measure_setup(workload, seed)
    source = spec.make(seed, False)
    tail_p = spec.tail_percentile
    latencies, kernel_s, failures, cycles = closed_loop(
        source, np.random.default_rng(seed), seconds, workload, min_samples(tail_p))
    raw = [t for _, t in latencies]
    values = [t * f for t, f in zip(raw, hostspeed.factors(kernel_s))]
    peak_kib = getattr(source, "peak_rss_kib", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def timings(samples: list[float], setup: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(samples) / sum(samples),
            "op_s_p50": percentile(samples, 50.0),
            "op_s_tail": percentile(samples, tail_p),
        }

    metrics = {
        **timings(values, setups),
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_ratio": (len(values) - len(failures)) / len(values),
    }
    by_label: dict[str, list[float]] = {}
    for (label, _), t in zip(latencies, values):
        by_label.setdefault(label, []).append(t)
    details = {
        "cycles": cycles,
        "busy_s": sum(raw),
        "tail_percentile": tail_p,
        "samples": len(values),
        "fail_ratio": len(failures) / len(values),
        "unscaled": timings(raw, setups_raw),
        "kernel_s": {"median": statistics.median(kernel_s), "min": min(kernel_s), "max": max(kernel_s),
                     "reference": hostspeed.KERNEL_REF_S},
        "setup_samples_s": setups,
        "median_s_by_label": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "stdout_sha256": getattr(source, "stdout_sha256", None),
    }
    return metrics, len(values), failures, details


def traced(workload: str, seed: int):
    """One cycle of ``workload``, each operation run once untraced and once
    traced, in alternating order so that both see the same machine state;
    then one traced cycle of every other workload. Per-layer metrics come
    from the traced spans."""
    import tracing

    tracer = tracing.Tracer()
    spent = {False: 0.0, True: 0.0}  # operation time by whether it was traced
    failures: list[str] = []
    plain, twin = (WORKLOADS[workload].make(seed, True).cycle(np.random.default_rng(seed))
                   for _ in range(2))
    for i, (a, b) in enumerate(zip(plain, twin)):
        for op, on in ((a, False), (b, True)) if i % 2 == 0 else ((b, True), (a, False)):
            with tracer.installed() if on else contextlib.nullcontext():
                latency, reason = run_op(op, workload, tracer if on else None)
            spent[on] += latency
            if reason:
                failures.append(reason)
    attempted = len(plain) + len(twin)
    with tracer.installed():
        for name, spec in WORKLOADS.items():
            if name != workload:
                ran, fail = run_ops(spec.make(seed, True).cycle(np.random.default_rng(seed)), name, tracer)
                attempted += ran
                failures += fail
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.import_s"] = measure_import()
    metrics["trace.overhead_ratio"] = spent[True] / spent[False]
    spans_dir = OUT_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    details = {"untraced_s": spent[False], "traced_s": spent[True], "spans": len(tracer.spans),
               "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, attempted, failures, details


def with_units(metrics: dict, section: str) -> dict:
    """Order and label metrics as BENCHMARK.json lists them; both must agree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    names = [m["name"] for m in spec]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(set(names) ^ set(metrics))}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def run_workload(args) -> dict:
    import envinfo

    if args.trace:
        metrics, attempted, failures, details = traced(args.workload, args.seed)
        section = "per_layer"
    else:
        metrics, attempted, failures, details = untraced(args.workload, args.seed, args.seconds)
        section = "end_to_end"
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": with_units(metrics, section)}
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload:9} {name:42} {m['value']:<14.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload:9} {'fail_ratio':42} {details['fail_ratio']:<14.6g} 1")
        print(f"{args.workload:9} op_s_tail is p{details['tail_percentile']:g} of {details['samples']} "
              f"samples over {details['cycles']} cycles")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": envinfo.environment(WIDTH_CAPS), "result": result,
        "details": {**details, "failures": failures[:20]},
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def run_all(args) -> dict:
    """Every workload in turn, each in its own process so peaks stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

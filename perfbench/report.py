"""Summarise benchmark result files, and compare two summaries.

    python3 perfbench/report.py summarize .perfbench_out/results/*.json > new.json
    python3 perfbench/report.py compare perfbench/baseline/3383456.json new.json

A summary holds, per workload and per metric, the median and quartiles
over the runs given, plus the environment record they share. ``compare``
prints the change of every median and flags results whose environment
records differ, since such numbers do not compare like for like.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from envinfo import differences

ROOT = Path(__file__).resolve().parent.parent


def summarize(paths: list[str]) -> dict:
    records = [json.loads(Path(p).read_text()) for p in paths]
    env = records[0]["environment"]
    mismatched = sorted({k for r in records for k in differences(env, r["environment"])})
    if mismatched:
        print(f"warning: runs differ in environment keys {mismatched}", file=sys.stderr)
    out: dict = {"environment": env, "environment_mismatch": mismatched, "workloads": {}}
    for r in records:
        w = out["workloads"].setdefault(r["workload"], {"seeds": {}, "metrics": {}})
        section = f"trace{r['trace']}"
        w["seeds"].setdefault(section, []).append(r["seed"])
        for name, m in r["result"]["metrics"].items():
            w["metrics"].setdefault(section, {}).setdefault(name, {"unit": m["unit"], "values": []})
            w["metrics"][section][name]["values"].append(m["value"])
    for w in out["workloads"].values():
        for metrics in w["metrics"].values():
            for m in metrics.values():
                v = m["values"]
                q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
                med = statistics.median(v)
                m.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def compare(old: dict, new: dict) -> None:
    mismatched = differences(old["environment"], new["environment"])
    if mismatched:
        print(f"WARNING: environment records differ in {mismatched}; not a like-for-like comparison")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for workload, w in sorted(new["workloads"].items()):
        for section, metrics in sorted(w["metrics"].items()):
            base = old["workloads"].get(workload, {}).get("metrics", {}).get(section, {})
            for name, m in metrics.items():
                if name not in base:
                    continue
                was, now = base[name]["median"], m["median"]
                change = (now - was) / was if was else 0.0
                rule = rules.get(name, {})
                worse = change if rule.get("better") == "lower" else -change
                flag = "  WORSE than bound" if "bound" in rule and worse > rule["bound"] else ""
                print(f"{workload:9} {name:42} {was:<12.6g} -> {now:<12.6g} {change:+8.2%} {m['unit']}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("summarize", help="summarise result files as JSON on stdout")
    s.add_argument("results", nargs="+")
    c = sub.add_parser("compare", help="compare two summaries")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "summarize":
        print(json.dumps(summarize(args.results), indent=1))
    else:
        compare(json.loads(Path(args.old).read_text()), json.loads(Path(args.new).read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

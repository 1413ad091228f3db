"""Command-line front end.

Four subcommands: ``solve`` runs the generic pipeline on a user-supplied
system, ``paper`` reproduces the bundled 2x2 reference instance and its
observable report, ``noise-sweep`` tabulates solution fidelity against
depolarizing strength, and ``selftest`` runs the embedded check suite.

Exit codes: 0 success, 1 selftest failure, 2 validation or usage error,
3 when post-selection has nothing to select (zero heralding weight).

Output is deterministic byte for byte for a fixed invocation and seed:
floats are rounded to 12 significant digits before serialization and
dictionaries keep a fixed field order. The seed comes from ``--seed``,
falling back to the HHL_SIM_SEED environment variable, then 0.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

import numpy as np

from . import analysis as an
from .circuit import complex_to_json
from .compiled2x2 import FEEDFORWARD_MODES, INPUT_PRESETS
from .errors import BadFlag, SimulationError, ZeroProbability
from .hhl import problem_from_dict, result_to_dict, run_hhl
from .selftest import run_selftest

SCHEMA_VERSION = "3"
DEFAULT_SWEEP = "0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5"


def _round_floats(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _write(json.dumps(_round_floats(doc), indent=2) + "\n", out)


def _emit_csv(header: list[str], rows: list[tuple], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v == "" else f"{v:.12g}" if isinstance(v, float) else v for v in row])
    _write(buf.getvalue(), out)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HHL_SIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise BadFlag(f"HHL_SIM_SEED={env!r} is not an integer") from None
    return 0


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_solve(args) -> int:
    seed = _resolve_seed(args)
    problem = problem_from_dict({"matrix": _load_json(args.matrix), "vector": _load_json(args.vector),
                                 "register_bits": args.register_bits, "c_const": args.c_const})
    if args.shots:
        an._output_wire(problem)  # a system the shot readout cannot read fails before it is solved
    result = run_hhl(problem)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "config": {
            "matrix_file": args.matrix,
            "vector_file": args.vector,
            "matrix": complex_to_json(problem.a),
            "vector": complex_to_json(problem.b),
            "register_bits": args.register_bits,
            "c_const": args.c_const,
            "t0": problem.t0,
            "shots": args.shots,
            "seed": seed,
        },
        "result": result_to_dict(result),
    }
    if args.shots:
        est = an._final_state_estimates(problem, result.pre_cut_state, args.shots, seed)
        doc["result"]["shot_estimates"] = an.shot_estimates_to_dict(est)
    _emit_json(doc, args.out)
    return 0


def cmd_paper(args) -> int:
    seed = _resolve_seed(args)
    inputs = tuple(INPUT_PRESETS) if args.input == "all" else (args.input,)
    report = an.build_pauli_report(
        mode=args.mode,
        feedforward=args.feedforward,
        shots=args.shots,
        seed=seed,
        inputs=inputs,
    )
    if args.format == "csv":
        _emit_csv(
            ["input", "observable", "ideal", "simulated", "stderr"],
            an.report_csv_rows(report),
            args.out,
        )
        return 0
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "paper",
        "config": {
            "input": args.input,
            "mode": args.mode,
            "feedforward": args.feedforward,
            "shots": args.shots,
            "seed": seed,
        },
        "report": an.report_to_dict(report),
    }
    _emit_json(doc, args.out)
    return 0


def cmd_noise_sweep(args) -> int:
    try:
        p_list = [float(tok) for tok in args.p_list.split(",") if tok.strip() != ""]
    except ValueError:
        raise BadFlag(f"--p-list {args.p_list!r} is not a comma-separated number list") from None
    if not p_list:
        raise BadFlag("--p-list is empty")
    rows = an.noise_sweep(args.mode, p_list)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "noise-sweep",
            "config": {"mode": args.mode, "p_list": p_list},
            "rows": [{"p": p, "input": name, "fidelity": f} for p, name, f in rows],
        }
        _emit_json(doc, args.out)
        return 0
    _emit_csv(["p", "input", "fidelity"], rows, args.out)
    return 0


def cmd_selftest(args) -> int:
    return 0 if run_selftest(corrupt_angle=args.corrupt_angle) else 1


# "-" then a decimal or exponent-form number, or inf, infinity or nan in any case, is a value
_SIGNED_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Reads ``--c-const -2.5e-209`` and ``--c-const -inf`` as an option and its value.

    argparse takes a token for an option unless it looks like a negative
    number, and its own pattern omits the exponent form. Subparsers are
    built with the parent's class, so every parser gets this pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _SIGNED_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hhl-sim",
        description="Gate-model simulator and solver for quantum linear systems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="run the generic pipeline on a system from files")
    solve.add_argument("--matrix", required=True, help="JSON file: Hermitian matrix, entries as numbers or [re, im]")
    solve.add_argument("--vector", required=True, help="JSON file: right-hand side vector")
    solve.add_argument("--register-bits", type=int, default=2, metavar="N")
    solve.add_argument("--c-const", type=float, default=None, metavar="X",
                       help="rotation constant; defaults to the smallest eigenvalue scale")
    solve.add_argument("--shots", type=int, default=0, metavar="N",
                       help="also sample Pauli estimates of the output qubit")
    solve.add_argument("--seed", type=int, default=None, metavar="N")
    solve.add_argument("--out", default=None, metavar="FILE")
    solve.set_defaults(func=cmd_solve)

    paper = sub.add_parser("paper", help="observable report for the bundled reference instance")
    paper.add_argument("--input", choices=[*INPUT_PRESETS, "all"], default="all")
    paper.add_argument("--mode", choices=an.MODES, default="compiled")
    paper.add_argument("--feedforward", choices=FEEDFORWARD_MODES, default="unitary")
    paper.add_argument("--shots", type=int, default=0, metavar="N")
    paper.add_argument("--seed", type=int, default=None, metavar="N")
    paper.add_argument("--out", default=None, metavar="FILE")
    paper.add_argument("--format", choices=["json", "csv"], default="json")
    paper.set_defaults(func=cmd_paper)

    sweep = sub.add_parser("noise-sweep", help="fidelity vs depolarizing strength")
    sweep.add_argument("--p-list", default=DEFAULT_SWEEP, metavar="P1,P2,...",
                       help="comma-separated depolarizing probabilities in [0, 1]")
    sweep.add_argument("--mode", choices=an.MODES, default="compiled")
    sweep.add_argument("--out", default=None, metavar="FILE")
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.set_defaults(func=cmd_noise_sweep)

    selftest = sub.add_parser("selftest", help="run the embedded check suite")
    selftest.add_argument("--corrupt-angle", type=float, default=None, help=argparse.SUPPRESS)
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZeroProbability as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""The four benchmark workloads: their operations, inputs and correctness checks.

A workload is a closed loop over a fixed *cycle* of operations. Each cycle
holds the same mix of operation classes (so latency percentiles always fall
on the same class, whatever the seed), in an order and with contents drawn
from the seed. Runs execute whole cycles only.

Every operation returns its output, and the runner checks it right after
the operation, outside the timed interval, against reference answers
computed here from the eigenbasis, never by the package's own solvers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hhlsim import analysis, circuit, hhl, qstate
from hhlsim import cli as hhl_cli
from hhlsim.qstate import density

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SYSTEM_MATRIX = np.array([[1.5, 0.5], [0.5, 1.5]], dtype=complex)
_S2 = math.sqrt(2.0)
PRESETS = {
    "b1": np.array([1.0, 1.0], dtype=complex) / _S2,
    "b2": np.array([1.0, -1.0], dtype=complex) / _S2,
    "b3": np.array([1.0, 0.0], dtype=complex),
}
# compiled circuit branch amplitudes: sin(2*theta) for theta = pi/16 at
# eigenvalue 2 and pi/8 at eigenvalue 1
COMPILED_AMPLITUDE = {1: math.sin(math.pi / 4), 2: math.sin(math.pi / 8)}

SHOTS = 100_000
PAULI = {
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check(output)`` returns None when the output is correct, else a reason.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------- references


def random_exact_problem(rng: np.random.Generator, dim: int, n_register: int):
    """Hermitian matrix with distinct integer eigenvalues fitting the register.

    Same recipe as the test suite's oracle: eigenvalues drawn without
    replacement from 1 .. 2**n - 1, a Haar-like random unitary, a random
    complex right-hand side.
    """
    top = (1 << n_register) - 1
    lams = rng.choice(np.arange(1, top + 1), size=dim, replace=False).astype(float)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    a = (v * lams) @ v.conj().T
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return a, b / np.linalg.norm(b)


def eigenbasis_solution(a, b, amplitude=None):
    """Ideal post-selected output (x, heralding probability) from the eigenbasis.

    ``amplitude(lam)`` is the ancilla amplitude on each eigenbranch; the
    default is C / lam with C the smallest populated eigenvalue, which is
    the pipeline's default rotation constant on exact spectra.
    """
    w, v = np.linalg.eigh(np.asarray(a, dtype=complex))
    beta = v.conj().T @ np.asarray(b, dtype=complex)
    live = np.abs(beta) > 1e-12
    if amplitude is None:
        c = float(np.min(np.abs(w[live])))
        amps = np.where(live, beta * c / w, 0.0)
    else:
        amps = np.where(live, beta * np.array([amplitude(lam) for lam in w]), 0.0)
    x = v @ amps
    return x / np.linalg.norm(x), float(np.sum(np.abs(amps) ** 2))


def compiled_solution(b):
    """Output of the hand-compiled four-qubit circuit on the reference matrix."""
    return eigenbasis_solution(SYSTEM_MATRIX, b, lambda lam: COMPILED_AMPLITUDE[round(lam)])


def pauli_triple(x) -> dict[str, float]:
    x = np.asarray(x, dtype=complex)
    return {k: float(np.real(np.vdot(x, m @ x))) for k, m in PAULI.items()}


def _overlap(x, y) -> float:
    return float(abs(np.vdot(x, y)) ** 2)


def _within_stderr(value: float, stderr: float, exact: float) -> bool:
    # a sharp outcome (exact = +-1) gives stderr 0; allow rounding only
    return abs(value - exact) <= 5.0 * stderr + 1e-12


def _check_estimates(est, exact: dict[str, float], what: str) -> str | None:
    for k in ("z", "x", "y"):
        e = getattr(est, k)
        if not _within_stderr(e.value, e.stderr, exact[k]):
            return f"{what} <{k}> = {e.value} +- {e.stderr}, exact {exact[k]}"
    return None


def _reduced_fidelity(rho: np.ndarray, x: np.ndarray) -> float:
    """<x| tr_rest(rho) |x> for x on the most significant qubit of rho."""
    half = rho.shape[0] // 2
    reduced = np.einsum("arbr->ab", rho.reshape(2, half, 2, half))
    return float(np.real(np.vdot(x, reduced @ x)))


# ---------------------------------------------------------------- sv-hhl

# (kind, register bits, operations per cycle), 8 and 9 qubits. Neighbouring
# classes differ in cost by 2x or more. The counts put the median in the
# middle of the 4x4@6 class and the 90th percentile in the middle of the
# 2x2@7 class: a percentile near a class's edge reads that class's fastest
# or slowest few operations, which on a shared host move from run to run.
SV_DECK = (("4x4", 5, 1), ("2x2", 6, 3), ("4x4", 6, 12), ("2x2", 7, 4))
# 10-qubit solves run in the traced cycle only. Each gate there builds a
# 16 MiB matrix, and on a shared two-core host one such solve took from
# 5.3 s to 7.5 s between runs a minute apart: too unsteady to time end to end.
SV_TRACE_DECK = SV_DECK + (("2x2", 8, 1), ("4x4", 7, 1))


def _solve_op(label: str, a, b, bits: int, c_const: float | None = None) -> Op:
    problem = hhl.HhlProblem(a, b, bits, c_const=c_const)
    amplitude = None if c_const is None else (lambda lam: c_const / lam)

    def check(res) -> str | None:
        x_ref, p_ref = eigenbasis_solution(a, b, amplitude)
        if _overlap(x_ref, res.x_state) < 1 - 1e-9:
            return f"{label}: solution overlap {_overlap(x_ref, res.x_state)}"
        if abs(res.success_probability - p_ref) > 1e-9:
            return f"{label}: heralding {res.success_probability} != {p_ref}"
        if not res.register_reset_ok:
            return f"{label}: register not reset"
        return None

    return Op(label, lambda: hhl.run_hhl(problem), check)


class SvHhl:
    def __init__(self, traced: bool):
        self.deck = SV_TRACE_DECK if traced else SV_DECK

    def cycle(self, rng: np.random.Generator) -> list[Op]:
        ops = []
        for kind, bits, count in self.deck:
            for i in range(count):
                if kind == "2x2":
                    name = ("b1", "b2", "b3")[i % 3] if count >= 3 else "b3"
                    ops.append(_solve_op(f"2x2-{name}@{bits}", SYSTEM_MATRIX, PRESETS[name], bits))
                else:
                    # C = 1 rotates on every register value, so the op count (and
                    # the cost) does not hang on the drawn eigenvalues
                    a, b = random_exact_problem(rng, 4, bits)
                    ops.append(_solve_op(f"4x4@{bits}", a, b, bits, c_const=1.0))
        return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------- dm-noise

# (register bits, noise modes): 5 to 7 qubits. Leaving entangling-only out
# at 5 qubits puts the median inside the 6-qubit "all" class and the 90th
# percentile inside the 7-qubit "all" class.
DM_GROUPS = ((3, ("all",)), (4, ("all", "entangling-only")), (5, ("all", "entangling-only")))
DM_P = (0.02, 0.05, 0.1)  # after a noiseless run, shared by both modes
SWEEP_P = [float(p) for p in hhl_cli.DEFAULT_SWEEP.split(",")]


class _DmCase:
    """Pipeline circuit of one (register bits, input) pair, with lazy references."""

    def __init__(self, bits: int, name: str):
        self.problem = hhl.HhlProblem(SYSTEM_MATRIX, PRESETS[name], bits)
        self.circuit = hhl.pipeline_circuit(self.problem)
        self.rho0 = density(hhl.initial_state(self.problem))
        self.x_classical = hhl.classical_solve(SYSTEM_MATRIX, PRESETS[name])
        self._reference = None

    def reference(self):
        """(x, heralding probability, pure output density matrix), built on first use."""
        if self._reference is None:
            x, p = eigenbasis_solution(SYSTEM_MATRIX, self.problem.b)
            pure = density(circuit.run(self.circuit, hhl.initial_state(self.problem)).state)
            self._reference = x, p, pure
        return self._reference


def _dm_op(case: _DmCase, p: float, mode: str, seed: int, last: dict) -> Op:
    """One density-matrix run; ``last`` carries the fidelity at the previous p."""
    label = f"dm@{case.problem.qubits}q-" + (f"{mode}-p{p}" if p else "p0")
    noise = circuit.NoiseSpec(p, mode)

    def run():
        out = circuit.run(case.circuit, case.rho0, noise=noise, seed=seed)
        post, p_herald = circuit.post_select_dm(out.state, 0, 1)
        reduced = qstate.partial_trace(post, list(case.problem.input_qubits()))
        return qstate.fidelity(case.x_classical, reduced), p_herald, out.state, post

    def check(output) -> str | None:
        fid, p_herald, rho, post = output
        x, p_ref, pure = case.reference()
        own = _reduced_fidelity(post, x)
        if abs(own - fid) > 1e-9:
            return f"{label}: fidelity {fid} but the reduced state gives {own}"
        if p == 0.0:
            diff = float(np.max(np.abs(rho - pure)))
            if diff > 1e-10:
                return f"{label}: p=0 differs from the statevector run by {diff}"
            if abs(p_herald - p_ref) > 1e-9:
                return f"{label}: heralding {p_herald} != {p_ref} at p=0"
            for m in ("all", "entangling-only"):
                last[case, m] = fid
        elif fid > last[case, mode] + 1e-12:
            return f"{label}: fidelity {fid} rose above {last[case, mode]} at lower p"
        else:
            last[case, mode] = fid
        return None

    return Op(label, run, check)


def _sweep_op() -> Op:
    def check(rows) -> str | None:
        by_input: dict[str, list[tuple[float, float]]] = {}
        for p, name, fid in rows:
            by_input.setdefault(name, []).append((p, fid))
        for name, seq in by_input.items():
            seq.sort()
            if seq[0][1] < 1 - 1e-9:
                return f"noise-sweep {name}: fidelity {seq[0][1]} at p=0"
            if any(b[1] > a[1] + 1e-12 for a, b in zip(seq, seq[1:])):
                return f"noise-sweep {name}: fidelity not non-increasing in p"
        return None

    return Op("noise-sweep", lambda: analysis.noise_sweep("generic", SWEEP_P), check)


class DmNoise:
    def __init__(self):
        self.cases = {(bits, name): _DmCase(bits, name) for bits, _ in DM_GROUPS for name in PRESETS}
        # a group's checks run in p order and compare with the previous p
        self.last: dict = {}

    def cycle(self, rng: np.random.Generator) -> list[Op]:
        ops = [_sweep_op()]
        groups = [(self.cases[bits, name], modes) for bits, modes in DM_GROUPS for name in PRESETS]
        for g in rng.permutation(len(groups)):
            case, modes = groups[g]
            ops.append(_dm_op(case, 0.0, "all", int(rng.integers(1 << 30)), self.last))
            ops.extend(_dm_op(case, p, mode, int(rng.integers(1 << 30)), self.last)
                       for mode in modes for p in DM_P)
        return ops


# ---------------------------------------------------------------- shots

# (register bits, estimates per input), 4 to 8 qubits. Neighbouring widths
# differ in cost by 1.3x to 2x. With the three sampled-success runs and the
# report the cycle holds 23 operations: the median falls 40% of the way
# into the 4-bit class and the 90th percentile 40% of the way into the
# 6-bit class (the fourth 6-bit input is drawn from the seed), not on the
# edge between two classes.
SHOT_DECK = ((2, 1), (3, 1), (4, 2), (5, 1), (6, 1))
SAMPLED_MODES = (("generic", "unitary"), ("compiled", "unitary"), ("compiled", "semiclassical"))


def _estimate_op(bits: int, name: str, seed: int) -> Op:
    problem = hhl.HhlProblem(SYSTEM_MATRIX, PRESETS[name], bits)
    label = f"estimate-{name}@{bits}"

    def check(est) -> str | None:
        x, _ = eigenbasis_solution(SYSTEM_MATRIX, PRESETS[name])
        return _check_estimates(est, pauli_triple(x), label)

    return Op(label, lambda: analysis.problem_shot_estimates(problem, SHOTS, seed), check)


def _sampled_success_op(mode: str, feedforward: str, name: str, seed: int) -> Op:
    label = f"sampled-success-{mode}-{feedforward}-{name}"

    def check(s) -> str | None:
        if mode == "generic":
            # the reference problem runs at C = 1
            _, p = eigenbasis_solution(SYSTEM_MATRIX, PRESETS[name], lambda lam: 1.0 / lam)
        else:
            _, p = compiled_solution(PRESETS[name])
        stderr = math.sqrt(p * (1 - p) / s.trials)
        if not _within_stderr(s.estimate, stderr, p):
            return f"{label}: {s.estimate} from {s.trials} trials, exact {p}"
        return None

    return Op(label, lambda: analysis.sampled_success(mode, name, SHOTS, seed, feedforward), check)


def _report_op(seed: int) -> Op:
    def check(report) -> str | None:
        for e in report.entries:
            x, p = compiled_solution(PRESETS[e.input])
            x_classical, _ = eigenbasis_solution(SYSTEM_MATRIX, PRESETS[e.input])
            if abs(e.success_probability - p) > 1e-9 or abs(e.fidelity - _overlap(x, x_classical)) > 1e-9:
                return f"report {e.input}: heralding {e.success_probability}, fidelity {e.fidelity}"
            reason = _check_estimates(e.shot_estimates, pauli_triple(x), f"report {e.input}")
            if reason:
                return reason
        return None

    return Op(
        "report-compiled-semiclassical",
        lambda: analysis.build_pauli_report(
            mode="compiled", feedforward="semiclassical", shots=SHOTS, seed=seed),
        check,
    )


class Shots:
    def cycle(self, rng: np.random.Generator) -> list[Op]:
        def seed() -> int:
            return int(rng.integers(1 << 30))

        ops = [_estimate_op(bits, name, seed()) for bits, count in SHOT_DECK
               for name in PRESETS for _ in range(count)]
        ops.append(_estimate_op(SHOT_DECK[-1][0], str(rng.choice(list(PRESETS))), seed()))
        ops += [_sampled_success_op(m, ff, str(rng.choice(list(PRESETS))), seed())
                for m, ff in SAMPLED_MODES]
        ops.append(_report_op(seed()))
        return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------- cli

CLI_INPUT_DIR = OUT_DIR / "cli-inputs"


def cli_commands(solve_input: str) -> dict[str, list[str]]:
    """The five commands, keyed by the name their metrics carry."""
    rel = CLI_INPUT_DIR.relative_to(ROOT)
    return {
        "paper_all": ["paper", "--input", "all"],
        "paper_b3_semiclassical": ["paper", "--input", "b3", "--feedforward", "semiclassical"],
        "noise_sweep": ["noise-sweep"],
        "solve": ["solve", "--matrix", str(rel / "matrix.json"),
                  "--vector", str(rel / f"vector-{solve_input}.json")],
        "selftest": ["selftest"],
    }


def write_cli_inputs() -> None:
    CLI_INPUT_DIR.mkdir(parents=True, exist_ok=True)
    (CLI_INPUT_DIR / "matrix.json").write_text(json.dumps(SYSTEM_MATRIX.real.tolist()))
    for name, b in PRESETS.items():
        (CLI_INPUT_DIR / f"vector-{name}.json").write_text(json.dumps(b.real.tolist()))


def _check_cli(name: str, solve_input: str, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"{name}: exit code {rc}"
    if name == "paper_all":
        for want in ("0.146446609407", "0.5", "0.323223304703"):
            if f'"success_probability": {want},' not in out:
                return f"{name}: compiled success {want} missing"
    elif name == "paper_b3_semiclassical":
        if '"fidelity": 0.998949878525' not in out:
            return f"{name}: b3 fidelity 0.998949878525 missing"
    elif name == "selftest":
        if "14/14 checks passed" not in out:
            return f"{name}: '14/14 checks passed' missing"
    elif name == "noise_sweep":
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        if len(rows) != 3 * len(SWEEP_P) or "0,b3,0.998949878525" not in out:
            return f"{name}: unexpected table"
        by_input: dict[str, list[float]] = {}
        for _, inp, fid in rows:
            by_input.setdefault(inp, []).append(float(fid))
        if any(b > a for seq in by_input.values() for a, b in zip(seq, seq[1:])):
            return f"{name}: fidelity not non-increasing in p"
    elif name == "solve":
        res = json.loads(out)["result"]
        x = np.array([complex(re, im) for re, im in res["x"]])
        x_ref, p_ref = eigenbasis_solution(SYSTEM_MATRIX, PRESETS[solve_input])
        if _overlap(x_ref, x) < 1 - 1e-9 or abs(res["success_probability"] - p_ref) > 1e-9:
            return f"{name}: x {res['x']}, heralding {res['success_probability']}"
    return None


class Cli:
    """Each operation is one command. Traced, it calls ``cli.main`` instead of
    starting ``python -m hhlsim.cli``, so the tracer sees inside the commands."""

    def __init__(self, solve_input: str, in_process: bool):
        write_cli_inputs()
        self.solve_input = solve_input
        self.in_process = in_process
        self.commands = cli_commands(solve_input)
        self.stdout_sha256: dict[str, str] = {}
        self.peak_rss_kib = 0
        env = {k: v for k, v in os.environ.items() if k != "HHL_SIM_SEED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.env = env

    def _spawn(self, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.Popen([sys.executable, "-m", "hhlsim.cli", *argv], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        # the commands write little to stderr, so reading stdout first cannot block
        out, err = proc.stdout.read(), proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        # wait4 rather than wait: it also returns the child's peak resident set
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return proc.returncode, out.decode(), err.decode()

    def _in_process(self, argv: list[str]) -> tuple[int, str, str]:
        buf = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = hhl_cli.main(argv)
        return rc, buf.getvalue(), err.getvalue()

    def _op(self, name: str, argv: list[str]) -> Op:
        def check(output) -> str | None:
            rc, out, err = output
            reason = _check_cli(name, self.solve_input, rc, out)
            if reason and err:
                reason += f" ({err.strip().splitlines()[-1]})"
            digest = hashlib.sha256(out.encode()).hexdigest()
            first = self.stdout_sha256.setdefault(name, digest)
            if reason is None and digest != first:
                reason = f"{name}: stdout differs between repeats ({digest} vs {first})"
            return reason

        execute = self._in_process if self.in_process else self._spawn
        return Op(name, lambda: execute(argv), check)

    def cycle(self, rng: np.random.Generator) -> list[Op]:
        ops = [self._op(name, argv) for name, argv in self.commands.items()]
        return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    max_qubits: int  # widest circuit of the untraced cycle
    # the percentile op_s_tail reports, fixed so that runs compare like for
    # like; a run goes on until at least ten samples lie beyond it
    tail_percentile: float
    # (seed, traced) -> source whose .cycle(rng) builds one cycle of operations;
    # the traced variant is what the traced run executes
    make: Callable[[int, bool], object]


# dm-noise is not in BENCHMARK.json: between runs a minute apart its medians
# moved by up to 1.5x on a shared host, too far for any bound the benchmark
# may set. It still runs by name, and its cycle runs in every traced run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sv-hhl", 9, 90.0, lambda seed, traced: SvHhl(traced)),
        Workload("dm-noise", 7, 90.0, lambda seed, traced: DmNoise()),
        Workload("shots", 8, 90.0, lambda seed, traced: Shots()),
        Workload("cli", 5, 75.0, lambda seed, traced: Cli(("b1", "b2", "b3")[seed % 3], traced)),
    )
}
WIDTH_CAPS = {name: w.max_qubits for name, w in WORKLOADS.items()}

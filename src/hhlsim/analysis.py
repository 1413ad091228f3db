"""Pauli observables, single-qubit reconstruction, GHZ witness, reports.

The report machinery runs the reference 2x2 instance (the system matrix
from :mod:`.compiled2x2` with inputs b1, b2, b3) through either the
generic pipeline or the compiled four-qubit circuit and tabulates, per
input, the exact solution's Pauli expectations next to the simulated
ones, the heralding probability and the solution fidelity. The generic
pipeline is run at C = 1 so the heralding probabilities land on the
reference values 0.25, 1 and 0.625.

Shot-based estimates replay the experiment: one sampling run per
measurement setting (Z, X, Y), heralds measured alongside the rotated
output qubit, records failing the herald discarded. The gates before
the circuit's first measurement run once per estimate; each setting
samples only the rest, which gives the same histograms as sampling the
whole circuit. Setting i draws from the stream keyed by 3*seed + i so
the three settings are independent and every run is reproducible.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import circuit as qc
from . import compiled2x2 as c2
from . import hhl
from .errors import BadFlag, DimensionMismatch, UnphysicalExpectations, ZeroProbability
from .hhl import HhlProblem, classical_solve, initial_state, pipeline_circuit, run_hhl
from .qstate import density, fidelity, partial_trace

_PAULI = {"z": qc.z(0).matrix, "x": qc.x(0).matrix, "y": qc.y(0).matrix}
_H = qc.h(0).matrix

COMPONENT_ATOL = 1e-9


@dataclass(frozen=True)
class PauliExpectations:
    """Expectation triple of one qubit; each component lies in [-1, 1].

    The Bloch radius of exact expectations never exceeds 1; estimates
    from finite shot counts may poke past the sphere, which is why the
    ball constraint is enforced at reconstruction time rather than here.
    """

    z: float
    x: float
    y: float

    def __post_init__(self):
        for name in ("z", "x", "y"):
            v = getattr(self, name)
            if not -1.0 - COMPONENT_ATOL <= v <= 1.0 + COMPONENT_ATOL:
                raise UnphysicalExpectations(f"<{name.upper()}> = {v} outside [-1, 1]")

    @property
    def radius(self) -> float:
        return math.sqrt(self.z**2 + self.x**2 + self.y**2)


def pauli_expectation(state: np.ndarray, which: str) -> float:
    """<M> for one Pauli observable on a single-qubit state.

    Accepts a 2-vector or a 2x2 density matrix; ``which`` is one of
    "z", "x", "y" in either case.
    """
    try:
        m = _PAULI[which.lower()]
    except KeyError:
        raise BadFlag(f"unknown observable {which!r}") from None
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (2,):
        return float(np.real(np.vdot(arr, m @ arr) / np.vdot(arr, arr)))
    if arr.shape == (2, 2):
        return float(np.real(np.trace(m @ arr)))
    raise DimensionMismatch(f"expected a single-qubit state, got shape {arr.shape}")


def pauli_expectations(state: np.ndarray) -> PauliExpectations:
    return PauliExpectations(
        z=pauli_expectation(state, "z"),
        x=pauli_expectation(state, "x"),
        y=pauli_expectation(state, "y"),
    )


def reconstruct_single_qubit(e: PauliExpectations) -> np.ndarray:
    """Invert the Bloch map: rho = (I + xX + yY + zZ) / 2.

    A radius up to 1e-6 past the sphere is treated as estimation noise
    and scaled back onto it; anything larger is rejected.
    """
    r = e.radius
    if r > 1.0 + 1e-6:
        raise UnphysicalExpectations(f"Bloch radius {r} exceeds 1 beyond tolerance")
    scale = 1.0 / r if r > 1.0 else 1.0
    return 0.5 * (
        np.eye(2, dtype=complex)
        + scale * (e.x * _PAULI["x"] + e.y * _PAULI["y"] + e.z * _PAULI["z"])
    )


GHZ_STATE = np.zeros(16, dtype=complex)
GHZ_STATE[0] = GHZ_STATE[15] = 1.0 / math.sqrt(2.0)


def ghz_fidelity(state: np.ndarray) -> float:
    """Overlap with (|0000> + |1111>)/sqrt2, for a 16-vector or 16x16 matrix."""
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (16,):
        return float(abs(np.vdot(GHZ_STATE, arr)) ** 2)
    if arr.shape == (16, 16):
        return float(np.real(np.vdot(GHZ_STATE, arr @ GHZ_STATE)))
    raise DimensionMismatch(f"expected a 4-qubit state, got shape {arr.shape}")


def genuine_entanglement_witnessed(state: np.ndarray) -> bool:
    """Fidelity above 1/2 certifies genuine four-party entanglement."""
    return ghz_fidelity(state) > 0.5


FRAME_OPS = {
    "I": np.eye(2, dtype=complex),
    "X": _PAULI["x"],
    "Z": _PAULI["z"],
    "H": _H,
    "HX": _H @ _PAULI["x"],
    "XH": _PAULI["x"] @ _H,
}
"""Per-qubit frame candidates; names are operator products, rightmost first."""


def apply_frame(state: np.ndarray, frame: dict[int, str]) -> np.ndarray:
    """Apply one local operation per qubit of a statevector; missing qubits get identity."""
    arr = np.asarray(state, dtype=complex)
    ops = [qc.unitary(FRAME_OPS[name], [q], name="frame") for q, name in frame.items()]
    return qc.run(qc.Circuit(arr.size.bit_length() - 1, ops), arr).state


COMPILED_GHZ_FRAME: dict[int, str] = {c2.ANCILLA: "I", c2.R1: "I", c2.R2: "X", c2.INPUT: "H"}
"""Exact frame carrying the compiled b3 mid-circuit state onto the GHZ form."""


def compiled_ghz_state(cfg: c2.CompiledConfig | None = None) -> np.ndarray:
    """The compiled circuit's maximally-entangled moment, in GHZ frame."""
    if cfg is None:
        cfg = c2.CompiledConfig(input_b="b3")
    return apply_frame(c2.intermediate_state(cfg, "after_rotation"), COMPILED_GHZ_FRAME)


@dataclass(frozen=True)
class ShotEstimate:
    """One shot-estimated expectation with its binomial standard error."""

    value: float
    stderr: float
    accepted: int


@dataclass(frozen=True)
class ShotEstimates:
    shots: int
    z: ShotEstimate
    x: ShotEstimate
    y: ShotEstimate


@dataclass(frozen=True)
class PauliReportEntry:
    input: str
    ideal: PauliExpectations
    simulated: PauliExpectations
    success_probability: float
    fidelity: float
    shot_estimates: ShotEstimates | None = None


@dataclass(frozen=True)
class PauliReport:
    mode: str
    feedforward: str
    noise_p: float
    seed: int
    entries: tuple[PauliReportEntry, ...]


def reference_problem(b: np.ndarray) -> HhlProblem:
    """The 2x2 reference instance on the generic pipeline, at C = 1."""
    return HhlProblem(a=c2.SYSTEM_MATRIX, b=b, n_register=2, c_const=1.0)


def _noisy_output(mode: str, vec: np.ndarray, noise: qc.NoiseSpec,
                  feedforward: str) -> tuple[np.ndarray, float]:
    """Density-matrix run of one input, cut on the layout's heralds in order;
    returns (output qubit rho, ancilla p conditional on any register cut)."""
    circ, init, heralds, out_wire = _measurement_layout(mode, vec, feedforward)
    rho = qc.run(circ, density(init), noise=noise).state
    for wire, outcome in heralds:
        rho, p = qc.post_select(rho, wire, outcome)
    return partial_trace(rho, [out_wire]), p


_SETTINGS = ("z", "x", "y")


def _basis_ops(which: str, wire: int) -> list:
    if which == "z":
        return []
    if which == "x":
        return [qc.h(wire)]
    # rotate the Y eigenbasis onto Z: S-dagger then H
    return [qc.phase(wire, -math.pi / 2), qc.h(wire)]


def _problem_layout(prob: HhlProblem):
    return pipeline_circuit(prob), initial_state(prob), hhl.heralds(prob), 1 + prob.n_register


# the pipelines a report can run the reference instance through
MODES = ("compiled", "generic")


def _check_modes(mode: str, feedforward: str) -> None:
    if mode not in MODES:
        raise BadFlag(f"unknown mode {mode!r}")
    if feedforward not in c2.FEEDFORWARD_MODES:
        raise BadFlag(f"unknown feedforward mode {feedforward!r}")
    if mode == "generic" and feedforward == "semiclassical":
        raise BadFlag("semiclassical feedforward applies to the compiled mode only")


def _measurement_layout(mode: str, vec: np.ndarray, feedforward: str):
    """Base circuit, initial state, herald list and output wire for sampling."""
    _check_modes(mode, feedforward)
    if mode == "compiled":
        cfg = c2.CompiledConfig(input_b=vec, feedforward=feedforward)
        circ = c2.build_compiled_circuit(cfg)
        return circ, c2.initial_state(cfg), c2.heralds(cfg), c2.INPUT
    return _problem_layout(reference_problem(vec))


def _readout(circ: qc.Circuit, init: np.ndarray) -> tuple[qc.Circuit, np.ndarray]:
    """Run the gates before the first measurement; return the rest and the state.

    The prefix is applied exactly as :func:`circuit.enumerate_branches`
    would apply it, so sampling the returned tail from the returned
    state gives the same histograms as sampling the whole circuit.
    """
    split = next(
        (i for i, op in enumerate(circ.ops) if not isinstance(op, qc.Gate)), len(circ.ops)
    )
    state = qc.run(qc.Circuit._of(circ.qubits, circ.ops[:split]), init).state
    return qc.Circuit._of(circ.qubits, circ.ops[split:]), state


def _sample_wires(tail: qc.Circuit, state: np.ndarray, ops: list, wires,
                  shots: int, seed: int) -> dict[str, int]:
    """Histogram of ``wires`` measured after ``tail`` and ``ops``.

    Records carry one character per wire, in order; the outcomes of the
    tail's own measurements are summed out.
    """
    prior = sum(1 for op in tail.ops if isinstance(op, qc.Measure))
    measures = [qc.Measure(q, prior + i) for i, q in enumerate(wires)]
    circ = tail.then(qc.Circuit(tail.qubits, [*ops, *measures]))
    counts: dict[str, int] = {}
    for rec, n in qc.sample_shots(circ, state, shots, seed=seed).items():
        counts[rec[prior:]] = counts.get(rec[prior:], 0) + n
    return counts


def _settings_estimates(circ, init, heralds, out_wire, shots: int, seed: int) -> ShotEstimates:
    tail, state = _readout(circ, init)
    wires = [q for q, _ in heralds] + [out_wire]
    want = "".join(str(outcome) for _, outcome in heralds)
    by = {}
    for i, which in enumerate(_SETTINGS):
        counts = _sample_wires(tail, state, _basis_ops(which, out_wire), wires, shots, 3 * seed + i)
        n_acc = total = 0
        for rec, cnt in counts.items():
            if rec[:-1] == want:
                n_acc += cnt
                total += cnt if rec[-1] == "0" else -cnt
        if n_acc == 0:
            raise ZeroProbability("no shot passed the heralding cut")
        value = total / n_acc
        stderr = math.sqrt(max(0.0, 1.0 - value * value) / n_acc)
        by[which] = ShotEstimate(value, stderr, n_acc)
    return ShotEstimates(shots=shots, **by)


def shot_estimates(mode: str, input_b, shots: int, seed: int = 0,
                   feedforward: str = "unitary") -> ShotEstimates:
    """Shot-sampled Pauli expectations of the heralded output qubit."""
    _, vec = c2.resolve_input(input_b)
    circ, init, heralds, out_wire = _measurement_layout(mode, vec, feedforward)
    return _settings_estimates(circ, init, heralds, out_wire, shots, seed)


def problem_shot_estimates(prob: HhlProblem, shots: int, seed: int = 0) -> ShotEstimates:
    """Shot-sampled output expectations for an arbitrarily supplied instance.

    The output must be a single qubit; wider solutions have no Pauli
    triple to estimate.
    """
    if prob.m_qubits != 1:
        raise BadFlag("shot estimation reads a single output qubit")
    circ, init, heralds, out_wire = _problem_layout(prob)
    return _settings_estimates(circ, init, heralds, out_wire, shots, seed)


@dataclass(frozen=True)
class SampledSuccess:
    """Shot estimate of the heralding probability.

    ``trials`` counts the shots inside the conditioning cut (the register
    on all-zeros for the generic layout and the unitary compiled readout,
    everything for the semiclassical one), so the estimate is binomial
    with that denominator.
    """

    estimate: float
    successes: int
    trials: int


def sampled_success(mode: str, input_b, shots: int, seed: int = 0,
                    feedforward: str = "unitary") -> SampledSuccess:
    """Heralding rate over seeded shots, conditional like the analytic value."""
    _, vec = c2.resolve_input(input_b)
    circ, init, heralds, _ = _measurement_layout(mode, vec, feedforward)
    tail, state = _readout(circ, init)
    counts = _sample_wires(tail, state, [], [q for q, _ in heralds], shots, 3 * seed)
    # heralds end with the ancilla, the success event; the rest condition
    cond = "".join(str(outcome) for _, outcome in heralds[:-1])
    trials = successes = 0
    for rec, cnt in counts.items():
        if rec[:-1] == cond:
            trials += cnt
            if rec[-1] == "1":
                successes += cnt
    if trials == 0:
        raise ZeroProbability("no shot passed the conditioning cut")
    return SampledSuccess(successes / trials, successes, trials)


def build_pauli_report(mode: str = "generic", feedforward: str = "unitary",
                       noise: qc.NoiseSpec | None = None, shots: int = 0,
                       seed: int = 0,
                       inputs=tuple(c2.INPUT_PRESETS)) -> PauliReport:
    """Ideal vs simulated expectations for each input, plus heralding and fidelity.

    Without noise the simulated columns come from the exact post-selected
    output state (generic mode reproduces the ideal triple to 1e-9; the
    compiled circuit deviates for b3 by its angle approximation). A noise
    spec switches to the density-matrix backend. ``shots`` adds sampled
    estimates alongside the exact values; sampling the noisy backend is
    not supported.
    """
    _check_modes(mode, feedforward)
    if shots and noise is not None:
        raise BadFlag("shot sampling runs on the pure backend; drop the noise spec")
    entries = []
    for input_b in inputs:
        name, vec = c2.resolve_input(input_b)
        x_cl = classical_solve(c2.SYSTEM_MATRIX, vec)
        ideal = pauli_expectations(x_cl)
        if noise is not None:
            rho_out, p = _noisy_output(mode, vec, noise, feedforward)
            sim = pauli_expectations(rho_out)
            fid = fidelity(x_cl, rho_out)
        elif mode == "compiled":
            res = c2.run_compiled(c2.CompiledConfig(input_b=vec, feedforward=feedforward),
                                  seed=seed)
            sim, fid, p = pauli_expectations(res.x_state), res.fidelity_vs_classical, res.success_probability
        else:
            res = run_hhl(reference_problem(vec))
            sim, fid, p = pauli_expectations(res.x_state), res.fidelity_vs_classical, res.success_probability
        est = shot_estimates(mode, vec, shots, seed, feedforward) if shots else None
        entries.append(PauliReportEntry(name, ideal, sim, p, fid, est))
    return PauliReport(
        mode=mode,
        feedforward=feedforward,
        noise_p=0.0 if noise is None else noise.p_depolarizing,
        seed=seed,
        entries=tuple(entries),
    )


def noise_sweep(mode: str, p_list, feedforward: str = "unitary",
                inputs=tuple(c2.INPUT_PRESETS)) -> list[tuple[float, str, float]]:
    """Rows of (depolarizing p, input name, solution fidelity), each fidelity
    as :func:`build_pauli_report` computes it under that noise spec."""
    named = [(name, vec, classical_solve(c2.SYSTEM_MATRIX, vec)) for name, vec in map(c2.resolve_input, inputs)]
    return [(float(p), name, fidelity(x_cl, _noisy_output(mode, vec, qc.NoiseSpec(float(p)), feedforward)[0]))
            for p in p_list for name, vec, x_cl in named]


def report_to_dict(r: PauliReport) -> dict:
    """The report's fields, in declaration order; an entry without shot estimates omits them."""
    out = asdict(r)
    out["entries"] = [{k: v for k, v in e.items() if k != "shot_estimates" or v is not None}
                      for e in out["entries"]]
    return out


def shot_estimates_to_dict(s: ShotEstimates) -> dict:
    return asdict(s)


def report_csv_rows(r: PauliReport) -> list[tuple]:
    """Flat (input, observable, ideal, simulated, stderr) rows for plotting.

    With shot estimates present the simulated column carries the sampled
    value and stderr its error bar; otherwise the exact simulated value
    with an empty stderr field.
    """
    rows: list[tuple] = []
    for e in r.entries:
        for which in _SETTINGS:
            ideal = getattr(e.ideal, which)
            if e.shot_estimates is not None:
                est: ShotEstimate = getattr(e.shot_estimates, which)
                rows.append((e.input, which, ideal, est.value, est.stderr))
            else:
                rows.append((e.input, which, ideal, getattr(e.simulated, which), ""))
    return rows

"""Embedded verification suite behind the ``selftest`` CLI command.

Every check is named and prints one table row; the command exits
nonzero when any row fails. Frozen reference numbers are asserted
literally so a miswired build (or the deliberate ``corrupt_angle``
hook, which overrides the larger rotation angle) cannot pass.
"""
from __future__ import annotations

import math

import numpy as np

from . import analysis as an
from . import circuit as qc
from . import compiled2x2 as c2
from .hhl import HhlProblem, run_hhl
from .qstate import density, entropy_bits, exp_unitary, partial_trace, state_fidelity

REFERENCE_SUCCESS = {"b1": 0.146446609407, "b2": 0.5, "b3": 0.323223304703}
REFERENCE_B3_FIDELITY = 0.998949878525
GENERIC_SUCCESS = {"b1": 0.25, "b2": 1.0, "b3": 0.625}


def check_transform_matches_reference(theta_big: float) -> str | None:
    n = 3
    dim = 1 << n
    got = qc.qft(n).unitary_matrix()
    w = np.exp(2j * math.pi / dim)
    want = np.array([[w ** (j * k) for k in range(dim)] for j in range(dim)]) / math.sqrt(dim)
    err = float(np.max(np.abs(got - want)))
    return None if err < 1e-12 else f"transform deviates by {err:.3g}"


def check_evolution_period(theta_big: float) -> str | None:
    u_full = exp_unitary(c2.SYSTEM_MATRIX, 2 * math.pi)
    u_half = exp_unitary(c2.SYSTEM_MATRIX, math.pi)
    e1 = float(np.max(np.abs(u_full - np.eye(2))))
    e2 = float(np.max(np.abs(u_half - np.array([[0, 1], [1, 0]]))))
    if e1 >= 1e-12:
        return f"full period off by {e1:.3g}"
    if e2 >= 1e-12:
        return f"half period off by {e2:.3g}"
    return None


def check_reciprocal_swap(theta_big: float) -> str | None:
    return None if c2.reciprocal_swap_check() else "register swap is not 1/lambda"


def check_entangling_census(theta_big: float) -> str | None:
    for ff in c2.FEEDFORWARD_MODES:
        cfg = c2.CompiledConfig(input_b="b3", feedforward=ff, theta_big=theta_big)
        circ = c2.build_compiled_circuit(cfg)
        census = circ.gate_census()
        if census.get("cx") != 2 or census.get("ch_theta") != 2:
            return f"{ff} census {census}"
        if circ.entangling_count() != 4:
            return f"{ff} entangling count {circ.entangling_count()}"
    return None


def check_branch_probabilities(theta_big: float) -> str | None:
    for name, want in REFERENCE_SUCCESS.items():
        cfg = c2.CompiledConfig(input_b=name, theta_big=theta_big)
        got = c2.run_compiled(cfg).success_probability
        if abs(got - want) > 1e-10:
            return f"{name}: {got:.12f} != {want}"
    return None


def check_approximation_fidelity(theta_big: float) -> str | None:
    cfg = c2.CompiledConfig(input_b="b3", theta_big=theta_big)
    got = c2.run_compiled(cfg).fidelity_vs_classical
    if abs(got - REFERENCE_B3_FIDELITY) > 1e-10:
        return f"{got:.12f} != {REFERENCE_B3_FIDELITY}"
    return None


def check_feedforward_equivalence(theta_big: float) -> str | None:
    rng = np.random.default_rng(11)
    for _ in range(10):
        vec = c2.input_from_angle(rng.uniform(0, 2 * math.pi))
        ref = None
        for ff in c2.FEEDFORWARD_MODES:
            cfg = c2.CompiledConfig(input_b=vec, feedforward=ff, theta_big=theta_big)
            x = c2.run_compiled(cfg, seed=int(rng.integers(1 << 30))).x_state
            if ref is None:
                ref = x
            elif abs(state_fidelity(ref, x) - 1.0) > 1e-10:
                return f"modes disagree for input {vec}"
    return None


def check_reference_solution(theta_big: float) -> str | None:
    for name, want in GENERIC_SUCCESS.items():
        res = run_hhl(an.reference_problem(c2.INPUT_PRESETS[name]))
        if abs(res.success_probability - want) > 1e-9:
            return f"{name} heralding {res.success_probability:.12f} != {want}"
        if res.fidelity_vs_classical < 1.0 - 1e-9:
            return f"{name} fidelity {res.fidelity_vs_classical:.12f}"
        if name == "b3":
            e = an.pauli_expectations(res.x_state)
            if max(abs(e.z - 0.8), abs(e.x + 0.6), abs(e.y)) > 1e-9:
                return f"b3 expectations ({e.z}, {e.x}, {e.y})"
    return None


def _random_exact_problem(rng: np.random.Generator) -> HhlProblem:
    lams = rng.choice([1.0, 2.0, 3.0], size=2, replace=False)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v, _ = np.linalg.qr(m)
    a = (v * lams) @ v.conj().T
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    return HhlProblem(a=a, b=b / np.linalg.norm(b), n_register=2)


def check_random_problems(theta_big: float) -> str | None:
    rng = np.random.default_rng(23)
    for i in range(5):
        p = _random_exact_problem(rng)
        res = run_hhl(p)
        if res.fidelity_vs_classical < 1.0 - 1e-9:
            return f"problem {i} fidelity {res.fidelity_vs_classical:.12f}"
    return None


def check_register_reset(theta_big: float) -> str | None:
    for name in c2.INPUT_PRESETS:
        if not run_hhl(an.reference_problem(c2.INPUT_PRESETS[name])).register_reset_ok:
            return f"generic {name} register not reset"
        cfg = c2.CompiledConfig(input_b=name, theta_big=theta_big)
        if not c2.run_compiled(cfg).register_reset_ok:
            return f"compiled {name} register not reset"
    return None


def check_tomography_roundtrip(theta_big: float) -> str | None:
    rng = np.random.default_rng(37)
    for _ in range(50):
        v = rng.normal(size=3)
        v *= rng.random() ** (1.0 / 3.0) / np.linalg.norm(v)
        e = an.PauliExpectations(z=v[0], x=v[1], y=v[2])
        back = an.pauli_expectations(an.reconstruct_single_qubit(e))
        if max(abs(back.z - e.z), abs(back.x - e.x), abs(back.y - e.y)) > 1e-10:
            return f"round trip drifted at {v}"
    return None


def check_entangled_midpoint(theta_big: float) -> str | None:
    st = an.compiled_ghz_state()
    fid = an.ghz_fidelity(st)
    if abs(fid - 1.0) > 1e-10:
        return f"frame fidelity {fid:.12f}"
    if not an.genuine_entanglement_witnessed(st):
        return "witness did not fire"
    rho = density(st)
    for cut in range(1, 8):
        keep = [q for q in range(4) if cut & (1 << q)]
        s = entropy_bits(partial_trace(rho, keep))
        if abs(s - 1.0) > 1e-9:
            return f"bipartition {keep} entropy {s:.12f}"
    return None


def check_sampling_determinism(theta_big: float) -> str | None:
    a = an.sampled_success("compiled", "b3", 2000, seed=9)
    b = an.sampled_success("compiled", "b3", 2000, seed=9)
    if a != b:
        return "same seed, different histogram"
    p = REFERENCE_SUCCESS["b3"]
    sigma = math.sqrt(p * (1 - p) / a.trials)
    if abs(a.estimate - p) > 5 * sigma:
        return f"estimate {a.estimate:.4f} far from {p}"
    return None


def check_serialization_roundtrip(theta_big: float) -> str | None:
    cfg = c2.CompiledConfig(input_b="b3", feedforward="semiclassical", theta_big=theta_big)
    circ = c2.build_compiled_circuit(cfg)
    back = qc.Circuit.from_json(circ.to_json())
    if back != circ:
        return "circuit changed across the wire"
    u1 = c2.build_compiled_circuit(c2.CompiledConfig(input_b="b3", theta_big=theta_big))
    u2 = qc.Circuit.from_json(u1.to_json())
    err = float(np.max(np.abs(u1.unitary_matrix() - u2.unitary_matrix())))
    return None if err < 1e-12 else f"unitary drifted by {err:.3g}"


CHECKS = [
    ("transform-matches-reference", check_transform_matches_reference),
    ("evolution-period", check_evolution_period),
    ("reciprocal-swap", check_reciprocal_swap),
    ("entangling-census", check_entangling_census),
    ("branch-probabilities", check_branch_probabilities),
    ("approximation-fidelity", check_approximation_fidelity),
    ("feedforward-equivalence", check_feedforward_equivalence),
    ("reference-solution", check_reference_solution),
    ("random-problems", check_random_problems),
    ("register-reset", check_register_reset),
    ("tomography-roundtrip", check_tomography_roundtrip),
    ("entangled-midpoint", check_entangled_midpoint),
    ("sampling-determinism", check_sampling_determinism),
    ("serialization-roundtrip", check_serialization_roundtrip),
]


def run_selftest(corrupt_angle: float | None = None) -> bool:
    """Run every check, print one row each, return overall success."""
    theta = c2.THETA_BIG if corrupt_angle is None else corrupt_angle
    width = max(len(name) for name, _fn in CHECKS)
    passed = 0
    for name, fn in CHECKS:
        try:
            detail = fn(theta)
        except Exception as exc:  # a crashed check is a failed check
            detail = f"{type(exc).__name__}: {exc}"
        if detail is None:
            passed += 1
            print(f"pass  {name}")
        else:
            print(f"FAIL  {name:<{width}}  {detail}")
    print(f"{passed}/{len(CHECKS)} checks passed")
    return passed == len(CHECKS)

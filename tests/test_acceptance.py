"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single verdict
line; run with ``pytest tests/test_acceptance.py -v -s`` to see all
nine lines.
"""
import math
import time

import numpy as np

import helpers
from hhlsim import analysis as an
from hhlsim import circuit as cq
from hhlsim import compiled2x2 as cp
from hhlsim import hhl
from hhlsim import qstate

A_REF = np.array([[1.5, 0.5], [0.5, 1.5]])
INPUTS = {
    "b1": np.array([1.0, 1.0]) / math.sqrt(2),
    "b2": np.array([1.0, -1.0]) / math.sqrt(2),
    "b3": np.array([1.0, 0.0]),
}
IDEAL_TRIPLES = {
    "b1": (0.0, 1.0, 0.0),
    "b2": (0.0, -1.0, 0.0),
    "b3": (0.8, -0.6, 0.0),
}
GENERIC_SUCCESS = {"b1": 0.25, "b2": 1.0, "b3": 0.625}
COMPILED_SUCCESS = {"b1": 0.146446609407, "b2": 0.5, "b3": 0.323223304703}


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_reference_solutions():
    start = time.monotonic()
    ok = True
    detail = []
    for name, b in INPUTS.items():
        res = hhl.run_hhl(hhl.HhlProblem(A_REF, b, 2, c_const=1.0))
        trip = an.pauli_expectations(res.x_state)
        fid_ok = res.fidelity_vs_classical >= 1 - 1e-9
        trip_ok = np.allclose((trip.z, trip.x, trip.y), IDEAL_TRIPLES[name], atol=1e-9)
        if not (fid_ok and trip_ok):
            ok = False
            detail.append(f"{name}: fid {res.fidelity_vs_classical}, triple {trip}")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        ok = False
        detail.append(f"took {elapsed:.2f} s")
    verdict(1, ok, "; ".join(detail) or
            f"fidelity and expectation triples at 1e-9 for b1,b2,b3 ({elapsed:.2f} s)")


def test_criterion_2_success_probabilities():
    ok = True
    detail = []
    for name, b in INPUTS.items():
        p = hhl.HhlProblem(A_REF, b, 2, c_const=1.0)
        got = hhl.run_hhl(p).success_probability
        formula = hhl.success_probability(p)
        if abs(got - formula) > 1e-9 or abs(got - GENERIC_SUCCESS[name]) > 1e-9:
            ok = False
            detail.append(f"generic {name}: {got}")
        cfg = cp.CompiledConfig(input_b=name)
        got_c = cp.run_compiled(cfg).success_probability
        formula_c = helpers.compiled_success(b)
        if abs(got_c - formula_c) > 1e-10 or abs(got_c - COMPILED_SUCCESS[name]) > 1e-10:
            ok = False
            detail.append(f"compiled {name}: {got_c}")
    verdict(2, ok, "; ".join(detail) or
            "generic 0.25/1/0.625 at 1e-9, compiled 0.14645/0.5/0.32322 at 1e-10")


def test_criterion_3_compiled_vs_matrix_oracle():
    ok = True
    detail = []
    for name in ("b1", "b2"):
        fid = cp.run_compiled(cp.CompiledConfig(input_b=name)).fidelity_vs_classical
        if abs(fid - 1.0) > 1e-10:
            ok = False
            detail.append(f"{name}: {fid}")
    x_oracle, _ = helpers.compiled_oracle(INPUTS["b3"])
    fid_oracle = abs(np.vdot(hhl.classical_solve(A_REF, INPUTS["b3"]), x_oracle)) ** 2
    fid_run = cp.run_compiled(cp.CompiledConfig(input_b="b3")).fidelity_vs_classical
    if abs(fid_run - fid_oracle) > 1e-10 or abs(fid_oracle - 0.999) > 5e-4:
        ok = False
        detail.append(f"b3: run {fid_run} vs oracle {fid_oracle}")
    verdict(3, ok, "; ".join(detail) or
            f"b3 fidelity {fid_run:.12f} equals 16-dim oracle at 1e-10; b1,b2 exact")


def test_criterion_4_semiclassical_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    ok = True
    detail = []
    for trial in range(50):
        b = cp.input_from_angle(rng.uniform(0.0, 2 * math.pi))
        ideal = cp.run_compiled(cp.CompiledConfig(input_b=b)).x_state
        semi = cp.CompiledConfig(input_b=b, feedforward="semiclassical")
        circ = cp.build_compiled_circuit(semi)
        for br in cq.enumerate_branches(circ, cp.initial_state(semi)):
            state, _ = cq.post_select(br.state, 0, 1)
            base = 1 | (br.classical[0] << 2) | (br.classical[1] << 1)
            x = np.array([state[base], state[base | 8]])
            x /= np.linalg.norm(x)
            if 1 - abs(np.vdot(ideal, x)) ** 2 > 1e-10:
                ok = False
                detail.append(f"trial {trial} record {br.record}")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        ok = False
        detail.append(f"took {elapsed:.2f} s")
    verdict(4, ok, "; ".join(detail[:4]) or
            f"all records of 50 random inputs match the coherent readout ({elapsed:.2f} s)")


def test_criterion_5_register_disentanglement():
    ok = True
    detail = []
    for name, b in INPUTS.items():
        if not hhl.run_hhl(hhl.HhlProblem(A_REF, b, 2, c_const=1.0)).register_reset_ok:
            ok = False
            detail.append(f"generic {name}")
        for ff in ("unitary", "semiclassical"):
            if not cp.run_compiled(cp.CompiledConfig(input_b=name, feedforward=ff)).register_reset_ok:
                ok = False
                detail.append(f"compiled {name} {ff}")
    rng = np.random.default_rng(505)
    for trial in range(30):
        dim, n = ((2, 2) if trial % 2 == 0 else (4, 3))
        a, b = helpers.random_exact_problem(rng, dim, n)
        if not hhl.run_hhl(hhl.HhlProblem(a, b, n)).register_reset_ok:
            ok = False
            detail.append(f"random {trial}")
    verdict(5, ok, "; ".join(detail) or
            "residual register population < 1e-10 on every exact-spectrum run")


def test_criterion_6_ghz_midpoint():
    state = cp.intermediate_state(cp.CompiledConfig(input_b="b3"), "after_rotation")
    rho = qstate.density(state)
    ok = True
    detail = []
    for mask in range(1, 8):
        keep = [q for q in range(4) if (mask >> q) & 1]
        ent = qstate.entropy_bits(qstate.partial_trace(rho, keep))
        if abs(ent - 1.0) > 1e-9:
            ok = False
            detail.append(f"cut {keep}: {ent}")
    framed = an.apply_frame(state, an.COMPILED_GHZ_FRAME)
    fid = an.ghz_fidelity(framed)
    if abs(fid - 1.0) > 1e-10:
        ok = False
        detail.append(f"frame fidelity {fid}")
    if not an.genuine_entanglement_witnessed(framed):
        ok = False
        detail.append("witness silent")
    verdict(6, ok, "; ".join(detail) or
            "1 ebit on all 7 bipartitions; frame fidelity 1 at 1e-10; witness fires")


def test_criterion_7_shot_convergence():
    shots = 100_000
    ok = True
    detail = []
    for name, want in GENERIC_SUCCESS.items():
        s = an.sampled_success("generic", name, shots=shots, seed=7)
        sigma = math.sqrt(want * (1 - want) / s.trials)
        if abs(s.estimate - want) > 3 * sigma + 1e-12:
            ok = False
            detail.append(f"generic {name}: {s.estimate}")
        if an.sampled_success("generic", name, shots=shots, seed=7) != s:
            ok = False
            detail.append(f"generic {name} rerun differs")
    for name, want in COMPILED_SUCCESS.items():
        s = an.sampled_success("compiled", name, shots=shots, seed=7)
        sigma = math.sqrt(want * (1 - want) / s.trials)
        if abs(s.estimate - want) > 3 * sigma + 1e-12:
            ok = False
            detail.append(f"compiled {name}: {s.estimate}")
    for name, triple in IDEAL_TRIPLES.items():
        est = an.shot_estimates("generic", name, shots=shots, seed=7)
        for which, want in zip("zxy", triple):
            e = getattr(est, which)
            # outcome frequency (1+<M>)/2 against its binomial error
            p_want = 0.5 * (1 + want)
            sigma = math.sqrt(p_want * (1 - p_want) / e.accepted)
            if abs(0.5 * (1 + e.value) - p_want) > 3 * sigma + 1e-12:
                ok = False
                detail.append(f"{name} <{which.upper()}>: {e.value}")
        if an.shot_estimates("generic", name, shots=shots, seed=7) != est:
            ok = False
            detail.append(f"{name} estimates rerun differs")
    verdict(7, ok, "; ".join(detail) or
            "1e5-shot estimates within 3 sigma of all criteria-1/2 values; reruns identical")


def test_criterion_8_oracle_equivalence_at_scale():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    ok = True
    detail = []
    for trial in range(200):
        dim, n = ((2, 2) if trial % 2 == 0 else (4, 3))
        a, b = helpers.random_exact_problem(rng, dim, n)
        res = hhl.run_hhl(hhl.HhlProblem(a, b, n))
        x_want, p_want = helpers.analytic_hhl(a, b)
        if res.fidelity_vs_classical < 1 - 1e-9:
            ok = False
            detail.append(f"trial {trial}: fid {res.fidelity_vs_classical}")
        if abs(np.vdot(x_want, res.x_state)) ** 2 < 1 - 1e-9:
            ok = False
            detail.append(f"trial {trial}: oracle overlap")
        if abs(res.success_probability - p_want) > 1e-9:
            ok = False
            detail.append(f"trial {trial}: p {res.success_probability} vs {p_want}")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        ok = False
        detail.append(f"took {elapsed:.2f} s")
    verdict(8, ok, "; ".join(detail[:4]) or
            f"200 random exact problems (N in {{2,4}}) at 1e-9 ({elapsed:.2f} s)")


def test_criterion_9_noise_monotonicity():
    grid = [0.05 * k for k in range(11)]
    ok = True
    detail = []
    for mode in ("generic", "compiled"):
        clean = {
            e.input: e.fidelity
            for e in an.build_pauli_report(mode=mode).entries
        }
        series: dict[str, list[float]] = {}
        for p, name, fid in an.noise_sweep(mode, grid):
            series.setdefault(name, []).append(fid)
        for name, fids in series.items():
            if abs(fids[0] - clean[name]) > 1e-9:
                ok = False
                detail.append(f"{mode} {name}: p=0 {fids[0]} vs clean {clean[name]}")
            if not all(a >= b - 1e-12 for a, b in zip(fids, fids[1:])):
                ok = False
                detail.append(f"{mode} {name}: not monotone {fids}")
    verdict(9, ok, "; ".join(detail) or
            "fidelity non-increasing over p in {0..0.5}; p=0 matches noiseless at 1e-9")

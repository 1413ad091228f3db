import math

import numpy as np
import pytest

import helpers
from hhlsim import analysis as an
from hhlsim import circuit as cq
from hhlsim import compiled2x2 as cp
from hhlsim import hhl, qstate
from hhlsim.errors import BadFlag, DimensionMismatch, NotNormalized, UnphysicalExpectations

X_CL_B3 = np.array([3.0, -1.0]) / math.sqrt(10)


def test_pauli_expectation_known_states():
    zero = np.array([1.0, 0.0])
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    plus_i = np.array([1.0, 1j]) / math.sqrt(2)
    assert np.isclose(an.pauli_expectation(zero, "z"), 1.0)
    assert np.isclose(an.pauli_expectation(plus, "x"), 1.0)
    assert np.isclose(an.pauli_expectation(plus_i, "y"), 1.0)
    assert np.isclose(an.pauli_expectation(plus, "z"), 0.0, atol=1e-12)
    # observable names are case-insensitive, vectors need not be normalized
    assert np.isclose(an.pauli_expectation(3 * zero, "Z"), 1.0)
    rho = np.eye(2, dtype=complex) / 2
    for w in "zxy":
        assert np.isclose(an.pauli_expectation(rho, w), 0.0, atol=1e-12)
    with pytest.raises(BadFlag):
        an.pauli_expectation(zero, "w")
    with pytest.raises(DimensionMismatch):
        an.pauli_expectation(np.ones(4), "z")


def test_reference_solution_triple():
    e = an.pauli_expectations(X_CL_B3)
    assert np.isclose(e.z, 0.8, atol=1e-12)
    assert np.isclose(e.x, -0.6, atol=1e-12)
    assert np.isclose(e.y, 0.0, atol=1e-12)
    assert np.isclose(e.radius, 1.0, atol=1e-12)


def test_expectations_component_bounds():
    an.PauliExpectations(z=1.0, x=-1.0, y=0.0)
    with pytest.raises(UnphysicalExpectations):
        an.PauliExpectations(z=1.0 + 1e-6, x=0.0, y=0.0)
    with pytest.raises(UnphysicalExpectations):
        an.PauliExpectations(z=0.0, x=0.0, y=-1.01)


def test_reconstruct_roundtrip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho = an.reconstruct_single_qubit(an.pauli_expectations(v))
        worst = max(worst, float(np.max(np.abs(rho - qstate.density(v)))))
    assert worst < 1e-12
    # mixed states roundtrip through the triple as well
    for _ in range(200):
        r = rng.uniform(0, 1) * rng.normal(size=3)
        r *= rng.uniform(0, 1) / max(1e-9, np.linalg.norm(r))
        e = an.PauliExpectations(z=r[0], x=r[1], y=r[2])
        rho = an.reconstruct_single_qubit(e)
        back = an.pauli_expectations(rho)
        assert np.allclose((back.z, back.x, back.y), r, atol=1e-12)


def test_reconstruct_clamps_estimation_noise():
    # a radius just past the sphere is treated as shot noise
    e = an.PauliExpectations(z=0.8, x=0.6 + 3e-7, y=0.0)
    assert e.radius > 1.0
    rho = an.reconstruct_single_qubit(e)
    helpers.check_density_matrix(rho)
    assert np.isclose(an.pauli_expectations(rho).radius, 1.0, atol=1e-12)
    # well outside the window the triple is rejected
    with pytest.raises(UnphysicalExpectations):
        an.reconstruct_single_qubit(an.PauliExpectations(z=0.8, x=0.61, y=0.0))


def test_ghz_fidelity_and_witness():
    assert np.isclose(an.ghz_fidelity(an.GHZ_STATE), 1.0)
    assert an.genuine_entanglement_witnessed(an.GHZ_STATE)
    product = np.zeros(16, dtype=complex)
    product[0] = 1.0
    assert np.isclose(an.ghz_fidelity(product), 0.5)
    assert not an.genuine_entanglement_witnessed(product)
    mixed = 0.6 * qstate.density(an.GHZ_STATE) + 0.4 * np.eye(16) / 16
    assert np.isclose(an.ghz_fidelity(mixed), 0.6 + 0.4 / 16, atol=1e-12)
    assert an.genuine_entanglement_witnessed(mixed)
    with pytest.raises(DimensionMismatch):
        an.ghz_fidelity(np.zeros(8))


def test_frame_search_finds_documented_frame():
    state = cp.intermediate_state(cp.CompiledConfig("b3"), "after_rotation")
    frame, fid = helpers.best_ghz_frame(state)
    assert fid >= 1 - 1e-12
    assert frame == an.COMPILED_GHZ_FRAME
    assert np.isclose(an.ghz_fidelity(an.apply_frame(state, frame)), fid, atol=1e-12)
    # the frame is local, so it cannot manufacture correlation: a product
    # state stays below the witness threshold in every frame
    product = np.zeros(16, dtype=complex)
    product[3] = 1.0
    _, best = helpers.best_ghz_frame(product)
    assert best <= 0.5 + 1e-12


def test_apply_frame_matches_kron_reference():
    # every frame entry on every qubit of 1-5 qubits, the other qubits each
    # either left out of the frame or given a random entry
    rng = np.random.default_rng(29)
    names = list(an.FRAME_OPS)
    for n in range(1, 6):
        for q in range(n):
            for name in names:
                frame = {r: names[int(rng.integers(len(names)))]
                         for r in range(n) if r != q and rng.random() < 0.5}
                frame[q] = name
                psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                psi /= np.linalg.norm(psi)
                op = np.eye(1, dtype=complex)
                for r in range(n - 1, -1, -1):
                    op = np.kron(op, helpers.FRAME_MATS[frame.get(r, "I")])
                assert np.max(np.abs(an.apply_frame(psi, frame) - op @ psi)) < 1e-12


def test_compiled_ghz_state():
    state = an.compiled_ghz_state()
    assert np.isclose(an.ghz_fidelity(state), 1.0, atol=1e-12)
    assert an.genuine_entanglement_witnessed(state)


def test_reference_problem_defaults():
    p = an.reference_problem(np.array([1.0, 0.0]))
    assert np.allclose(p.a, cp.SYSTEM_MATRIX)
    assert p.n_register == 2 and p.c_const == 1.0


def test_generic_report():
    rep = an.build_pauli_report(mode="generic")
    assert [e.input for e in rep.entries] == ["b1", "b2", "b3"]
    assert rep.noise_p == 0.0
    for e, p_want in zip(rep.entries, (0.25, 1.0, 0.625)):
        assert np.isclose(e.success_probability, p_want, atol=1e-9)
        assert e.fidelity >= 1 - 1e-9
        for w in "zxy":
            assert np.isclose(getattr(e.simulated, w), getattr(e.ideal, w), atol=1e-9)
    b3 = rep.entries[2]
    assert np.allclose((b3.ideal.z, b3.ideal.x, b3.ideal.y), (0.8, -0.6, 0.0), atol=1e-9)


def test_compiled_report():
    rep = an.build_pauli_report(mode="compiled")
    by_name = {e.input: e for e in rep.entries}
    assert np.isclose(by_name["b1"].success_probability, 0.146446609407, atol=1e-10)
    assert np.isclose(by_name["b2"].success_probability, 0.5, atol=1e-10)
    assert np.isclose(by_name["b3"].success_probability, 0.323223304703, atol=1e-10)
    for name in ("b1", "b2"):
        assert by_name[name].fidelity >= 1 - 1e-10
    b3 = by_name["b3"]
    assert np.isclose(b3.fidelity, 0.998949878525, atol=1e-10)
    # the angle approximation leaves a visible but small deviation on b3
    assert 1e-4 < abs(b3.simulated.z - b3.ideal.z) < 0.1
    assert np.isclose(b3.simulated.y, 0.0, atol=1e-9)


def test_report_flag_validation():
    with pytest.raises(BadFlag):
        an.build_pauli_report(mode="fast")
    with pytest.raises(BadFlag):
        an.build_pauli_report(mode="compiled", feedforward="none")
    with pytest.raises(BadFlag):
        an.build_pauli_report(mode="generic", feedforward="semiclassical")
    with pytest.raises(BadFlag):
        an.build_pauli_report(mode="compiled", shots=100, noise=cq.NoiseSpec(0.1))
    # the sampled and noisy readouts keep the same rule
    for mode, feedforward in (("fast", "unitary"), ("compiled", "none"), ("generic", "semiclassical")):
        with pytest.raises(BadFlag):
            an.shot_estimates(mode, "b3", 10, feedforward=feedforward)
        with pytest.raises(BadFlag):
            an.sampled_success(mode, "b3", 10, feedforward=feedforward)
        with pytest.raises(BadFlag):
            an.noise_sweep(mode, [0.1], feedforward=feedforward)


def test_zero_noise_matches_noiseless():
    clean = an.build_pauli_report(mode="compiled")
    noisy = an.build_pauli_report(mode="compiled", noise=cq.NoiseSpec(0.0))
    for a, b in zip(clean.entries, noisy.entries):
        assert np.isclose(a.fidelity, b.fidelity, atol=1e-9)
        for w in "zxy":
            assert np.isclose(getattr(a.simulated, w), getattr(b.simulated, w), atol=1e-9)


def test_noise_degrades_fidelity():
    clean = {e.input: e.fidelity for e in an.build_pauli_report(mode="compiled").entries}
    noisy = an.build_pauli_report(mode="compiled", noise=cq.NoiseSpec(0.05))
    assert noisy.noise_p == 0.05
    for e in noisy.entries:
        assert e.fidelity < clean[e.input] - 1e-4


def test_noise_sweep_monotone():
    grid = [0.1 * k for k in range(10)]
    for mode in ("generic", "compiled"):
        rows = an.noise_sweep(mode, grid)
        assert len(rows) == 3 * len(grid)
        by_input: dict[str, list[float]] = {}
        for p, name, fid in rows:
            by_input.setdefault(name, []).append(fid)
        for fids in by_input.values():
            assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))
    with pytest.raises(BadFlag):
        an.noise_sweep("other", [0.1])


def test_generic_noisy_output_cuts_on_register_and_ancilla():
    # reference from basis-index masks; wires: ancilla 0, register 1-2, output 3
    prob = an.reference_problem(np.array([1.0, 0.0]))
    noise = cq.NoiseSpec(0.05)
    rho = cq.run(hhl.pipeline_circuit(prob), qstate.density(hhl.initial_state(prob)), noise).state
    idx = np.arange(16)
    reset = idx[(idx >> 1) & 0b11 == 0]
    kept = reset[reset & 1 == 1]
    block = rho[np.ix_(kept, kept)]
    p_want = np.trace(block).real / np.trace(rho[np.ix_(reset, reset)]).real
    f_want = np.vdot(X_CL_B3, block @ X_CL_B3).real / np.trace(block).real
    [(_, _, fid)] = an.noise_sweep("generic", [0.05], inputs=("b3",))
    entry = an.build_pauli_report("generic", noise=noise, inputs=("b3",)).entries[0]
    assert abs(fid - f_want) < 1e-12 and entry.fidelity == fid
    assert abs(entry.success_probability - p_want) < 1e-12
    assert round(fid, 6) == 0.866381
    assert round(entry.success_probability, 6) == 0.602055


# exact compiled sweep rows: the compiled noisy readout may not move by a bit
COMPILED_SWEEP = {
    "unitary": [
        (0.0, "b1", 1.0), (0.0, "b2", 1.0), (0.0, "b3", 0.9989498785251186),
        (0.1, "b1", 0.7799168654516699), (0.1, "b2", 0.8780414730493988),
        (0.1, "b3", 0.7223914740567454), (0.35, "b1", 0.572217591052109),
        (0.35, "b2", 0.6126908302863796), (0.35, "b3", 0.5216928861365288),
    ],
    "semiclassical": [
        (0.0, "b1", 1.0), (0.0, "b2", 1.0), (0.0, "b3", 0.9989498785251186),
        (0.1, "b1", 0.7267326610158528), (0.1, "b2", 0.8062135931700131),
        (0.1, "b3", 0.6801370939859639), (0.35, "b1", 0.5305119322195161),
        (0.35, "b2", 0.5476118757959955), (0.35, "b3", 0.5091652443926833),
    ],
}


@pytest.mark.parametrize("feedforward", list(COMPILED_SWEEP))
def test_compiled_noise_sweep_is_frozen(feedforward):
    rows = an.noise_sweep("compiled", [0.0, 0.1, 0.35], feedforward=feedforward)
    assert rows == COMPILED_SWEEP[feedforward]


def test_full_depolarizing_scrambles_output():
    for mode in ("generic", "compiled"):
        for _, _, fid in an.noise_sweep(mode, [1.0]):
            assert np.isclose(fid, 0.5, atol=1e-9)


def test_shot_estimates_generic_b3():
    est = an.shot_estimates("generic", "b3", shots=20000, seed=1)
    again = an.shot_estimates("generic", "b3", shots=20000, seed=1)
    assert est == again
    assert est.shots == 20000
    for which, want in (("z", 0.8), ("x", -0.6), ("y", 0.0)):
        e = getattr(est, which)
        assert abs(e.value - want) <= 3 * e.stderr + 1e-9
        assert np.isclose(e.stderr,
                          math.sqrt((1 - e.value**2) / e.accepted), atol=1e-12)
        # heralding keeps about 62.5% of shots
        assert abs(e.accepted - 0.625 * 20000) < 5 * math.sqrt(20000 * 0.625 * 0.375)


def test_shot_estimates_compiled_eigenvector():
    # b1 maps to |+>, so the x-basis record is deterministic
    est = an.shot_estimates("compiled", "b1", shots=4000, seed=0,
                            feedforward="semiclassical")
    assert est.x.value == 1.0 and est.x.stderr == 0.0
    assert abs(est.z.value) <= 3 * est.z.stderr + 1e-9
    p = 0.146446609407
    assert abs(est.x.accepted - p * 4000) < 5 * math.sqrt(4000 * p * (1 - p))


def test_problem_shot_estimates():
    prob = an.reference_problem(np.array([1.0, 0.0]))
    direct = an.problem_shot_estimates(prob, shots=5000, seed=3)
    via_mode = an.shot_estimates("generic", "b3", shots=5000, seed=3)
    assert direct == via_mode
    wide = an.reference_problem(np.array([1.0, 0.0]))
    big = type(wide)(np.eye(4), np.array([1.0, 0, 0, 0]), 2)
    with pytest.raises(BadFlag):
        an.problem_shot_estimates(big, shots=10)


def test_sampled_success():
    cases = [
        ("generic", "b3", "unitary", 0.625, True),
        ("compiled", "b3", "unitary", 0.323223304703, False),
        ("compiled", "b3", "semiclassical", 0.323223304703, True),
        ("compiled", "b1", "unitary", 0.146446609407, False),
    ]
    n = 40000
    for mode, name, ff, p_want, full_cut in cases:
        s = an.sampled_success(mode, name, shots=n, seed=2, feedforward=ff)
        sigma = math.sqrt(p_want * (1 - p_want) / s.trials)
        assert abs(s.estimate - p_want) < 3 * sigma + 1e-9
        assert s.successes <= s.trials <= n
        if full_cut:
            assert s.trials == n
        else:
            # the coherent readout conditions on a quarter of the records
            assert abs(s.trials - n / 4) < 5 * math.sqrt(n * 0.25 * 0.75)
        assert an.sampled_success(mode, name, shots=n, seed=2, feedforward=ff) == s


# exact results of one seeded call per layout: restructuring the readout
# (the prefix run, the herald list, the record filtering) may not move a count
FROZEN = {
    ("generic", "unitary"): (
        an.SampledSuccess(0.62825, 2513, 4000),
        ((0.8011093502377179, 2524), (-0.5895582329317269, 2490), (0.040865384615384616, 2496)),
    ),
    ("compiled", "unitary"): (
        an.SampledSuccess(0.3281893004115226, 319, 972),
        ((0.8827160493827161, 324), (-0.5402985074626866, 335), (0.13725490196078433, 306)),
    ),
    ("compiled", "semiclassical"): (
        an.SampledSuccess(0.32125, 1285, 4000),
        ((0.8525206922498119, 1329), (-0.5364936042136945, 1329), (0.03607060629316961, 1303)),
    ),
}


@pytest.mark.parametrize("mode, feedforward", list(FROZEN))
def test_seeded_readout_is_frozen(mode, feedforward):
    success, triple = FROZEN[(mode, feedforward)]
    assert an.sampled_success(mode, "b3", 4000, 11, feedforward) == success
    est = an.shot_estimates(mode, "b3", 4000, 11, feedforward)
    assert tuple((e.value, e.accepted) for e in (est.z, est.x, est.y)) == triple


def test_report_with_shots():
    rep = an.build_pauli_report(mode="generic", shots=2000, seed=7)
    for e in rep.entries:
        assert e.shot_estimates is not None
        assert e.shot_estimates.shots == 2000
        for w in "zxy":
            est = getattr(e.shot_estimates, w)
            assert abs(est.value - getattr(e.ideal, w)) <= 4 * est.stderr + 1e-9
    d = an.report_to_dict(rep)
    assert d["mode"] == "generic" and d["seed"] == 7
    assert {"value", "stderr", "accepted"} <= set(d["entries"][0]["shot_estimates"]["z"])


def test_report_csv_rows():
    plain = an.report_csv_rows(an.build_pauli_report(mode="compiled"))
    assert len(plain) == 9
    assert plain[0][:2] == ("b1", "z")
    assert all(row[4] == "" for row in plain)
    sampled = an.report_csv_rows(an.build_pauli_report(mode="generic", shots=500))
    assert all(isinstance(row[4], float) for row in sampled)
    rows_b3 = [r for r in sampled if r[0] == "b3"]
    assert [r[1] for r in rows_b3] == ["z", "x", "y"]


@pytest.mark.filterwarnings("error")
def test_custom_input_is_checked_before_sampling():
    for mode in an.MODES:
        with pytest.raises(NotNormalized, match="non-finite"):
            an.sampled_success(mode, [math.nan, 0.0], 10)
        with pytest.raises(NotNormalized):
            an.shot_estimates(mode, [1e200, 1.0], 10)

import math

import numpy as np
import pytest

import helpers
from hhlsim import circuit as cq
from hhlsim import compiled2x2 as cp
from hhlsim import qstate
from hhlsim.errors import BadFlag, DimensionMismatch, NotNormalized
from hhlsim.hhl import classical_solve

SUCCESS = {
    "b1": math.sin(math.pi / 8) ** 2,
    "b2": math.sin(math.pi / 4) ** 2,
    "b3": 0.5 * math.sin(math.pi / 4) ** 2 + 0.5 * math.sin(math.pi / 8) ** 2,
}


def test_input_vector():
    assert np.allclose(cp.input_vector(cp.CompiledConfig("b3")), [1, 0])
    assert np.allclose(cp.input_vector(cp.CompiledConfig("b1")), helpers.H[:, 0])
    custom = cp.input_vector(cp.CompiledConfig(np.array([0.6, 0.8])))
    assert np.allclose(custom, [0.6, 0.8])
    with pytest.raises(BadFlag):
        cp.input_vector(cp.CompiledConfig("b9"))
    with pytest.raises(DimensionMismatch):
        cp.input_vector(cp.CompiledConfig(np.ones(3)))
    with pytest.raises(NotNormalized):
        cp.input_vector(cp.CompiledConfig(np.array([1.0, 1.0])))


def test_input_from_angle():
    v = cp.input_from_angle(0.5)
    assert np.allclose(v, [math.cos(0.5), math.sin(0.5)])
    assert np.isclose(np.linalg.norm(v), 1.0)


def test_config_validation():
    with pytest.raises(BadFlag):
        cp.CompiledConfig(feedforward="classical")


def test_initial_state_layout():
    init = cp.initial_state(cp.CompiledConfig("b1"))
    assert np.isclose(init[0], 1 / math.sqrt(2))
    assert np.isclose(init[1 << 3], 1 / math.sqrt(2))
    assert np.isclose(np.sum(np.abs(init) ** 2), 1.0)


def test_gate_census():
    uni = cp.build_compiled_circuit(cp.CompiledConfig("b3"))
    assert uni.gate_census() == {"h": 4, "cx": 2, "x": 1, "ch_theta": 2}
    assert uni.entangling_count() == 4
    semi = cp.build_compiled_circuit(cp.CompiledConfig("b3", feedforward="semiclassical"))
    assert semi.gate_census() == {
        "h": 4, "cx": 2, "x": 1, "ch_theta": 2, "measure": 2, "if_x": 2,
    }
    assert semi.entangling_count() == 4


def test_phase_estimation_encodes_reciprocal():
    # eigenvector inputs leave the register in one basis state holding 2/lambda
    for name, r1r2 in (("b1", (0, 1)), ("b2", (1, 0))):
        state = cp.intermediate_state(cp.CompiledConfig(name), "after_phase_estimation")
        idx = np.arange(16)
        r1 = (idx >> 2) & 1
        r2 = (idx >> 1) & 1
        weight = np.sum(np.abs(state[(r1 == r1r2[0]) & (r2 == r1r2[1])]) ** 2)
        assert np.isclose(weight, 1.0, atol=1e-12)


def test_intermediate_stage_names():
    a = cp.intermediate_state(cp.CompiledConfig(), "after_rotation")
    assert np.isclose(np.linalg.norm(a), 1.0, atol=1e-12)
    for stage in ("after_readout", "after-rotation"):
        with pytest.raises(BadFlag):
            cp.intermediate_state(cp.CompiledConfig(), stage)


def test_run_compiled_presets():
    for name, expect in (("b1", cp.INPUT_PRESETS["b1"]),
                         ("b2", cp.INPUT_PRESETS["b2"])):
        res = cp.run_compiled(cp.CompiledConfig(name))
        # eigenvector inputs are reproduced exactly
        assert abs(np.vdot(expect, res.x_state)) ** 2 >= 1 - 1e-12
        assert res.fidelity_vs_classical >= 1 - 1e-12
        assert np.isclose(res.success_probability, SUCCESS[name], atol=1e-12)
        assert res.register_reset_ok
    res3 = cp.run_compiled(cp.CompiledConfig("b3"))
    assert np.isclose(res3.success_probability, SUCCESS["b3"], atol=1e-12)
    assert np.isclose(res3.success_probability, 0.323223304703, atol=1e-12)
    assert np.isclose(res3.fidelity_vs_classical, 0.998949878525, atol=1e-12)
    assert res3.register_reset_ok


def test_run_compiled_matches_matrix_oracle():
    for name in ("b1", "b2", "b3"):
        b = cp.INPUT_PRESETS[name]
        res = cp.run_compiled(cp.CompiledConfig(name))
        x_want, p_want = helpers.compiled_oracle(b)
        assert abs(np.vdot(x_want, res.x_state)) ** 2 >= 1 - 1e-12
        assert np.isclose(res.success_probability, p_want, atol=1e-12)
        assert np.isclose(res.fidelity_vs_classical,
                          abs(np.vdot(classical_solve(cp.SYSTEM_MATRIX, b), x_want)) ** 2,
                          atol=1e-12)


def test_output_is_branch_weighted_eigenmix():
    # the circuit realizes amplitude sin(2 theta) on each eigenbranch
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = cp.input_from_angle(rng.uniform(0, 2 * math.pi))
        tb, ts = rng.uniform(0.05, math.pi / 4, size=2)
        cfg = cp.CompiledConfig(b, theta_big=tb, theta_small=ts)
        res = cp.run_compiled(cfg)
        pred = (np.vdot(cp.U_MINUS, b) * math.sin(2 * tb) * cp.U_MINUS
                + np.vdot(cp.U_PLUS, b) * math.sin(2 * ts) * cp.U_PLUS)
        pred = pred / np.linalg.norm(pred)
        assert abs(np.vdot(pred, res.x_state)) ** 2 >= 1 - 1e-10
        assert np.isclose(res.success_probability,
                          helpers.compiled_success(b, tb, ts), atol=1e-12)


def test_success_probability_values():
    for name, want in SUCCESS.items():
        got = helpers.compiled_success(cp.INPUT_PRESETS[name])
        assert np.isclose(got, want, atol=1e-15)
    assert np.isclose(SUCCESS["b1"], 0.146446609407, atol=1e-12)
    assert np.isclose(SUCCESS["b2"], 0.5, atol=1e-15)


def test_semiclassical_branches_all_agree_with_unitary():
    # every register record, after its conditional corrections, yields the
    # same post-selected output as the coherent readout
    rng = np.random.default_rng(99)
    for trial in range(50):
        b = cp.input_from_angle(rng.uniform(0, 2 * math.pi))
        ideal = cp.run_compiled(cp.CompiledConfig(b)).x_state
        semi = cp.CompiledConfig(b, feedforward="semiclassical")
        circ = cp.build_compiled_circuit(semi)
        branches = cq.enumerate_branches(circ, cp.initial_state(semi))
        assert len(branches) == 4
        for br in branches:
            assert np.isclose(br.probability, 0.25, atol=1e-12)
            state, _ = cq.post_select(br.state, 0, 1)
            base = 1 | (br.classical[0] << 2) | (br.classical[1] << 1)
            x = np.array([state[base], state[base | 8]])
            x /= np.linalg.norm(x)
            assert abs(np.vdot(ideal, x)) ** 2 >= 1 - 1e-10


def test_run_compiled_semiclassical_seeds():
    uni = cp.run_compiled(cp.CompiledConfig("b3"))
    for seed in range(12):
        semi = cp.run_compiled(cp.CompiledConfig("b3", feedforward="semiclassical"),
                               seed=seed)
        assert abs(np.vdot(uni.x_state, semi.x_state)) ** 2 >= 1 - 1e-10
        assert np.isclose(semi.success_probability, uni.success_probability,
                          atol=1e-12)
        assert semi.register_reset_ok


def test_after_rotation_is_ghz_for_b3():
    state = cp.intermediate_state(cp.CompiledConfig("b3"), "after_rotation")
    rho = qstate.density(state)
    # every bipartition of the four wires carries exactly one ebit
    cuts = [[q for q in range(4) if (mask >> q) & 1] for mask in range(1, 8)]
    for keep in cuts:
        ent = qstate.entropy_bits(qstate.partial_trace(rho, keep))
        assert np.isclose(ent, 1.0, atol=1e-9)
    # one local frame away from the standard maximally correlated state
    framed = helpers.lift(helpers.X, 1, 4) @ helpers.lift(helpers.H, 3, 4) @ state
    ghz = np.zeros(16, dtype=complex)
    ghz[0] = ghz[15] = 1 / math.sqrt(2)
    assert abs(np.vdot(ghz, framed)) ** 2 >= 1 - 1e-12


def test_after_rotation_is_product_for_eigenvectors():
    for name in ("b1", "b2"):
        state = cp.intermediate_state(cp.CompiledConfig(name), "after_rotation")
        rho = qstate.density(state)
        for q in range(4):
            ent = qstate.entropy_bits(qstate.partial_trace(rho, [q]))
            assert np.isclose(ent, 0.0, atol=1e-9)


def test_reciprocal_swap_check():
    assert cp.reciprocal_swap_check()


def test_census_in_result():
    res = cp.run_compiled(cp.CompiledConfig("b3"))
    assert res.gate_count["entangling"] == 4
    semi = cp.run_compiled(cp.CompiledConfig("b3", feedforward="semiclassical"))
    assert semi.gate_count["entangling"] == 4
    assert semi.gate_count["measure"] == 2


@pytest.mark.filterwarnings("error")
def test_custom_input_is_checked_by_the_pipeline_rule():
    # the norm is scale safe, and a non-finite entry is named
    for b in ([1e200, 1.0], [math.nan, 0.0], [1e-200, 0.0]):
        with pytest.raises(NotNormalized):
            cp.CompiledConfig(input_b=b)
    with pytest.raises(DimensionMismatch):
        cp.CompiledConfig(input_b=[1.0, 0.0, 0.0])
    # a bare list is read as the vector it holds
    assert np.array_equal(cp.input_vector(cp.CompiledConfig(input_b=[0.6, 0.8])), [0.6, 0.8])

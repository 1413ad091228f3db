import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deck_digest
import helpers
from hhlsim import circuit as cq
from hhlsim import analysis, hhl, qstate
from hhlsim.errors import (
    DimensionMismatch,
    InvalidC,
    NotHermitian,
    NotNormalized,
    NotPositiveDefinite,
    Singular,
    ZeroProbability,
)

A_REF = np.array([[1.5, 0.5], [0.5, 1.5]])
B1 = np.array([1.0, 1.0]) / math.sqrt(2)   # eigenvector, eigenvalue 2
B2 = np.array([1.0, -1.0]) / math.sqrt(2)  # eigenvector, eigenvalue 1
B3 = np.array([1.0, 0.0])


def ref_problem(b, **kw):
    return hhl.HhlProblem(A_REF, b, 2, **kw)


def test_problem_validation():
    with pytest.raises(DimensionMismatch):
        hhl.HhlProblem(A_REF, B3, 0)
    # the state holds 1 + n + m qubits, at most MAX_STATE_QUBITS = 20: one
    # past it is refused, and a wide matrix counts as much as a wide register
    assert hhl.HhlProblem(A_REF, B3, 18).qubits == 20
    with pytest.raises(DimensionMismatch, match="19 register qubits make a 21-qubit state"):
        hhl.HhlProblem(A_REF, B3, hhl.MAX_STATE_QUBITS - 1)
    assert hhl.HhlProblem(np.eye(4), np.eye(4)[0], 17).qubits == 20
    with pytest.raises(DimensionMismatch, match="21-qubit state"):
        hhl.HhlProblem(np.eye(4), np.eye(4)[0], 18)
    # every system of up to 64 unknowns fits at 13 bits, the former cap
    assert hhl.HhlProblem(np.eye(64), np.eye(64)[0], 13).qubits == 20
    # a side that is no power of two counts as the next power of two
    with pytest.raises(DimensionMismatch, match="21-qubit state"):
        hhl.HhlProblem(np.eye(3), np.eye(3)[0], 18)
    with pytest.raises(DimensionMismatch):
        hhl.HhlProblem(A_REF, B3, 2, t0=-1.0)
    with pytest.raises(InvalidC):
        hhl.HhlProblem(A_REF, B3, 2, c_const=0.0)
    with pytest.raises(NotNormalized):
        hhl.validate(hhl.HhlProblem(A_REF, np.array([1.0, 1.0]), 2))
    with pytest.raises(DimensionMismatch):
        hhl.validate(hhl.HhlProblem(A_REF, np.array([1.0, 0, 0, 0]), 2))
    with pytest.raises(NotHermitian):
        hhl.validate(hhl.HhlProblem(np.array([[1, 1], [0, 1]]), B3, 2))
    with pytest.raises(Singular):
        hhl.validate(hhl.HhlProblem(np.diag([0.0, 2.0]), B3, 2))
    # an unsigned register would wrap a negative eigenvalue around
    with pytest.raises(NotPositiveDefinite, match="negative eigenvalue -2.0"):
        hhl.validate(hhl.HhlProblem(np.diag([-2.0, 1.0]), B3, 2))


def test_non_finite_inputs_rejected():
    with pytest.raises(InvalidC):
        hhl.HhlProblem(A_REF, B3, 2, c_const=math.nan)
    with pytest.raises(DimensionMismatch):
        hhl.HhlProblem(A_REF, B3, 2, t0=math.inf)
    with pytest.raises(NotHermitian):
        hhl.validate(hhl.HhlProblem(np.array([[math.nan, 0], [0, 1]]), B3, 2))
    with pytest.raises(NotNormalized):
        hhl.validate(hhl.HhlProblem(A_REF, np.array([math.nan, 0.0]), 2))


def test_validate_classifies_spectrum():
    info = hhl.validate(ref_problem(B3))
    assert info.exact
    assert np.isclose(info.kappa, 2.0)
    assert np.allclose(info.spectrum.eigenvalues, [1.0, 2.0])
    # eigenvalues 1.5 and 2 do not land on integers at the default t0
    off = hhl.HhlProblem(np.array([[1.75, 0.25], [0.25, 1.75]]), B3, 2)
    assert not hhl.validate(off).exact
    # one eigenvalue above the register top also breaks exactness
    big = hhl.HhlProblem(np.diag([1.0, 4.0]), B3, 2)
    assert not hhl.validate(big).exact


def test_layout_helpers():
    p = ref_problem(B3)
    assert p.qubits == 4
    assert p.register_qubits() == (1, 2)
    assert p.input_qubits() == (3,)
    init = hhl.initial_state(p)
    assert init[0] == B3[0] and init[0b1000] == B3[1]
    assert np.isclose(np.linalg.norm(init), 1.0)


def test_resolve_c_default_tracks_populated_spectrum():
    # b3 populates both eigenvalues, so the default C is the smaller one
    assert np.isclose(hhl.validate(ref_problem(B3)).c, 1.0)
    # b1 lives entirely on eigenvalue 2, letting C grow to 2
    assert np.isclose(hhl.validate(ref_problem(B1)).c, 2.0)
    assert np.isclose(hhl.validate(ref_problem(B3, c_const=0.7)).c, 0.7)
    # inexact spectrum: largest safe integer in register units, at least 1
    off = hhl.HhlProblem(np.array([[1.75, 0.25], [0.25, 1.75]]), B3, 2)
    assert np.isclose(hhl.validate(off).c, 1.0)


def test_phase_estimation_writes_eigenvalue():
    p = ref_problem(B1)
    out = cq.run(hhl.phase_estimation_circuit(p, hhl.validate(p)), hhl.initial_state(p)).state
    idx = np.arange(out.size)
    reg = (idx >> 1) & 0b11
    for k in range(4):
        weight = np.sum(np.abs(out[reg == k]) ** 2)
        assert np.isclose(weight, 1.0 if k == 2 else 0.0, atol=1e-10)


def test_reciprocal_rotation_census_and_bounds():
    p = ref_problem(B3)
    rot = hhl.reciprocal_rotation_circuit(p, hhl.validate(p))
    assert rot.gate_census() == {"cch_theta": 3, "x": 4}
    # C too large for a populated branch is rejected
    p3, p1 = ref_problem(B3, c_const=3.0), ref_problem(B1, c_const=3.0)
    info3, info1 = hhl.validate(p3), hhl.validate(p1)
    with pytest.raises(InvalidC):
        hhl.reciprocal_rotation_circuit(p3, info3)
    with pytest.raises(InvalidC):
        hhl.reciprocal_rotation_circuit(p1, info1)
    # but an overlarge amplitude on an unpopulated value is skipped
    p = ref_problem(B1, c_const=2.0)
    rot2 = hhl.reciprocal_rotation_circuit(p, hhl.validate(p))
    assert rot2.gate_census()["cch_theta"] == 2
    # an amplitude that underflows to 0.0 is not over one, so its value is still rotated
    p = ref_problem(B1, c_const=5e-324)
    values, amps = hhl._rotation_amplitudes(p, hhl.validate(p))
    assert values.tolist() == [1, 2, 3] and amps[-1] == 0.0


def test_phase_estimation_ends_with_register_inverse_qft():
    # n Hadamards and n controlled powers, then the inverse QFT on the
    # register alone: identity on the solution qubits and the ancilla
    for n in range(1, 5):
        p = hhl.HhlProblem(A_REF, B3, n)
        pe = hhl.phase_estimation_circuit(p, hhl.validate(p))
        assert [op.name for op in pe.ops[:n]] == ["h"] * n
        block = cq.Circuit(p.qubits, pe.ops[2 * n:]).unitary_matrix()
        dim = 1 << n
        j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        idft = np.exp(-2j * math.pi * j * k / dim) / math.sqrt(dim)
        want = np.kron(np.eye(p.dim), np.kron(idft, np.eye(2)))
        assert np.max(np.abs(block - want)) < 1e-12


@pytest.mark.filterwarnings("error")
def test_ill_conditioned_matrix_rejected_before_any_circuit(monkeypatch):
    def unreachable(p):
        raise AssertionError("phase estimation built for a rejected matrix")

    monkeypatch.setattr(hhl, "phase_estimation_circuit", unreachable)
    b = np.array([0.6, 0.8])
    with pytest.raises(Singular, match=r"condition number 1e\+200"):
        hhl.run_hhl(hhl.HhlProblem(np.diag([1.0, 1e200]), b, 2))
    # a zero eigenvalue reads inf, with no division error or warning
    with pytest.raises(Singular, match="condition number inf"):
        hhl.validate(hhl.HhlProblem(np.diag([0.0, 2.0]), b, 2))
    # the classical solve applies the same rule to singular values
    with pytest.raises(Singular, match=r"condition number 1e\+200"):
        hhl.classical_solve(np.diag([1.0, 1e200]), b)
    # at most unit scale the rule is an absolute 1e-10
    assert np.isclose(hhl.validate(hhl.HhlProblem(np.diag([2e-10, 1.0]), b, 2)).kappa, 5e9)
    with pytest.raises(Singular):
        hhl.validate(hhl.HhlProblem(np.diag([5e-11, 1.0]), b, 2))


def test_classical_solve():
    x = hhl.classical_solve(A_REF, B3)
    assert np.allclose(x, np.array([3.0, -1.0]) / math.sqrt(10), atol=1e-12)
    with pytest.raises(Singular):
        hhl.classical_solve(np.diag([0.0, 1.0]), B3)
    with pytest.raises(DimensionMismatch):
        hhl.classical_solve(A_REF, np.ones(3))


@pytest.mark.filterwarnings("error")
def test_norms_are_scale_safe():
    # |x|^2 = 1e-400 underflows, but x = (1e-200, 0) is normalized all the same
    x = hhl.classical_solve(np.diag([1e200, 1e200]), np.array([1.0, 0.0]))
    assert np.array_equal(x, np.array([1.0, 0.0]))
    # |b|^2 overflows; the message gives |b| as a plain float
    for b, shown in (([1e200, 1.0], "1e+200"), ([1.0, 1.0], "1.4142135623730951")):
        with pytest.raises(NotNormalized, match=rf"^\|b\| = {re.escape(shown)} is not 1$"):
            hhl.validate(ref_problem(np.array(b)))


def test_success_probability_formula():
    # C = 1: p = sum |beta_j|^2 / lambda_j^2
    assert np.isclose(hhl.success_probability(ref_problem(B1, c_const=1.0)), 0.25)
    assert np.isclose(hhl.success_probability(ref_problem(B2, c_const=1.0)), 1.0)
    assert np.isclose(hhl.success_probability(ref_problem(B3, c_const=1.0)), 0.625)
    # the adaptive default C maximizes heralding for an eigenvector input
    assert np.isclose(hhl.success_probability(ref_problem(B1)), 1.0)


@pytest.mark.parametrize("eigs, bits, want", [
    # off grid: phase estimation spreads both eigenvalues over the register
    ((1.3, 2.6), 3, 0.392556610125),
    # the eigenvalue 5 wraps to register value 1, where the amplitude is 1
    ((1.0, 5.0), 2, 1.0),
])
def test_success_probability_is_the_pipeline_marginal_off_grid(eigs, bits, want):
    p = hhl.HhlProblem(np.diag(eigs), np.array([0.6, 0.8]), bits)
    got = hhl.success_probability(p)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(hhl.run_hhl(p).success_probability, abs=1e-12)


def test_run_hhl_reference_inputs():
    for b, expect in ((B1, B1), (B2, B2), (B3, np.array([3.0, -1.0]) / math.sqrt(10))):
        res = hhl.run_hhl(ref_problem(b, c_const=1.0))
        assert res.fidelity_vs_classical >= 1 - 1e-9
        assert abs(np.vdot(expect, res.x_state)) ** 2 >= 1 - 1e-9
        assert res.register_reset_ok
    assert np.isclose(hhl.run_hhl(ref_problem(B3, c_const=1.0)).success_probability,
                      0.625, atol=1e-10)


def test_run_hhl_census():
    res = hhl.run_hhl(ref_problem(B3))
    assert res.gate_count == {
        "h": 8, "cunitary": 4, "cphase": 2, "swap": 2,
        "cch_theta": 3, "x": 4, "entangling": 9,
    }


def test_solution_direction_is_c_invariant():
    base = hhl.run_hhl(ref_problem(B3, c_const=1.0))
    for c in (0.25, 0.5, 0.9):
        res = hhl.run_hhl(ref_problem(B3, c_const=c))
        assert abs(np.vdot(base.x_state, res.x_state)) ** 2 >= 1 - 1e-12
        assert np.isclose(res.success_probability,
                          base.success_probability * c * c, atol=1e-12)


def test_run_hhl_matches_eigenbasis_oracle():
    rng = np.random.default_rng(2718)
    for trial in range(30):
        if trial % 2 == 0:
            a, b = helpers.random_exact_problem(rng, 2, 2)
            p = hhl.HhlProblem(a, b, 2)
        else:
            a, b = helpers.random_exact_problem(rng, 4, 3)
            p = hhl.HhlProblem(a, b, 3)
        res = hhl.run_hhl(p)
        x_want, p_want = helpers.analytic_hhl(a, b)
        assert abs(np.vdot(x_want, res.x_state)) ** 2 >= 1 - 1e-10
        assert np.isclose(res.success_probability, p_want, atol=1e-10)
        assert res.fidelity_vs_classical >= 1 - 1e-9
        assert res.register_reset_ok


def test_run_hhl_at_twelve_qubits():
    # ten register bits: 1 + 10 + 1 qubits, past the reach of dense gates
    p = hhl.HhlProblem(A_REF, B3, 10)
    assert p.qubits == 12
    res = hhl.run_hhl(p)
    x_cl = hhl.classical_solve(A_REF, B3)
    _, p_want = helpers.analytic_hhl(A_REF, B3)
    assert abs(np.vdot(x_cl, res.x_state)) ** 2 >= 1 - 1e-10
    assert res.fidelity_vs_classical >= 1 - 1e-9
    assert np.isclose(res.success_probability, p_want, atol=1e-10)
    assert res.register_reset_ok


@pytest.mark.parametrize("bits", [14, 16])
def test_run_hhl_past_the_old_register_cap(bits):
    # 16 and 18 qubits: the rotation is one multiplexor, so these run in seconds
    p = hhl.HhlProblem(A_REF, B3, bits)
    res = hhl.run_hhl(p)
    x_want, p_want = helpers.analytic_hhl(A_REF, B3)
    phase = np.vdot(res.x_state, x_want)
    assert np.max(np.abs(res.x_state * phase / abs(phase) - x_want)) < 1e-10
    assert abs(res.success_probability - p_want) < 1e-10
    assert res.register_reset_ok


def test_custom_t0_rescales_register():
    # doubling t0 doubles the register image of each eigenvalue
    p = hhl.HhlProblem(A_REF, B3, 3, t0=2 * hhl.TWO_PI)
    info = hhl.validate(p)
    assert info.exact
    assert info.populated == [2, 4]
    res = hhl.run_hhl(p)
    assert res.fidelity_vs_classical >= 1 - 1e-9
    assert np.isclose(res.success_probability, 0.625, atol=1e-10)


def test_register_resolution_improves_offgrid_fidelity():
    # eigenvalues 1.5 and 2 never land on the integer grid; spreading the
    # top eigenvalue across the full register (t0 chosen so lambda_max maps
    # to the highest register value) makes each extra register bit pay off
    a = np.array([[1.75, 0.25], [0.25, 1.75]])
    fids = []
    for n in range(2, 6):
        t0 = math.pi * ((1 << n) - 1)
        p = hhl.HhlProblem(a, B3, n, t0=t0)
        assert not hhl.validate(p).exact
        # default C shrinks to the smallest representable eigenvalue,
        # which cannot affect the solution direction
        assert np.isclose(hhl.validate(p).c, hhl.TWO_PI / t0)
        fids.append(hhl.run_hhl(p).fidelity_vs_classical)
    assert all(b > a for a, b in zip(fids, fids[1:]))
    assert np.allclose(
        fids, [0.997918, 0.998592, 0.999123, 0.999525], atol=5e-6)


def test_pipeline_circuit_composes_stages():
    p = ref_problem(B3)
    pipe = hhl.pipeline_circuit(p)
    pe = hhl.phase_estimation_circuit(p, hhl.validate(p))
    rot = hhl.reciprocal_rotation_circuit(p, hhl.validate(p))
    want = pe.inverse().unitary_matrix() @ rot.unitary_matrix() @ pe.unitary_matrix()
    assert np.allclose(pipe.unitary_matrix(), want, atol=1e-11)
    # driving the composed circuit by hand reproduces run_hhl's output
    state = cq.run(pipe, hhl.initial_state(p)).state
    state, p_succ = cq.post_select(state, 0, 1)
    for q in p.register_qubits():
        state, _ = cq.post_select(state, q, 0)
    x = np.array([state[0b0001], state[0b1001]])
    x /= np.linalg.norm(x)
    res = hhl.run_hhl(p)
    assert abs(np.vdot(x, res.x_state)) ** 2 >= 1 - 1e-12
    assert np.isclose(p_succ, res.success_probability, atol=1e-12)


def test_problem_from_dict():
    p = hhl.problem_from_dict({
        "matrix": [[1.5, 0.5], [0.5, 1.5]],
        "vector": [[1.0, 0.0], [0.0, 0.0]],
        "register_bits": 3,
        "c_const": 0.5,
    })
    assert np.allclose(p.a, A_REF)
    assert np.allclose(p.b, B3)
    assert p.n_register == 3 and p.c_const == 0.5
    assert np.isclose(p.t0, hhl.TWO_PI)
    q = hhl.problem_from_dict({
        "matrix": [[2.0, [0.0, -0.5]], [[0.0, 0.5], 2.0]],
        "vector": [1.0, 0.0],
    })
    assert np.allclose(q.a, np.array([[2.0, -0.5j], [0.5j, 2.0]]))
    assert q.n_register == 2 and q.c_const is None
    with pytest.raises(DimensionMismatch):
        hhl.problem_from_dict({"matrix": [[[1, 2, 3]]], "vector": [1.0]})


def test_result_to_dict():
    res = hhl.run_hhl(ref_problem(B3))
    d = hhl.result_to_dict(res)
    assert [v[0] for v in d["x"]] == pytest.approx(list(res.x_state.real))
    assert d["register_reset_ok"] is True
    assert d["gate_count"]["entangling"] == 9
    assert list(d["gate_count"]) == sorted(d["gate_count"])


def test_run_hhl_validates_once_and_builds_each_stage_once(monkeypatch):
    p = hhl.HhlProblem(A_REF, B3, 7)
    stage_sizes = [len(hhl.phase_estimation_circuit(p, hhl.validate(p)).ops),
                   len(hhl.reciprocal_rotation_circuit(p, hhl.validate(p)).ops)]
    calls = {"validate": 0, "eigh": 0}
    censused = []
    validate, eigh, census = hhl.validate, np.linalg.eigh, cq.Circuit.gate_census

    def counted_validate(p):
        calls["validate"] += 1
        return validate(p)

    def counted_eigh(m):
        calls["eigh"] += 1
        return eigh(m)

    def recorded_census(c):
        censused.append(len(c.ops))
        return census(c)

    def unreachable(*args):
        raise AssertionError("exp_unitary called during a solve")

    monkeypatch.setattr(hhl, "validate", counted_validate)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(qstate, "exp_unitary", unreachable)
    monkeypatch.setattr(cq.Circuit, "gate_census", recorded_census)
    res = hhl.run_hhl(p)
    assert calls == {"validate": 1, "eigh": 1}
    # the gate count is taken from the three stages, not from their concatenation
    assert censused == stage_sizes + stage_sizes[:1]
    assert res.fidelity_vs_classical >= 1 - 1e-9


def test_gate_count_is_the_pipeline_census():
    # the concatenated circuit, no longer built by run_hhl, referees its count
    for n in range(1, 8):
        for b in (B2, B3):
            p = hhl.HhlProblem(A_REF, b, n, c_const=1.0)
            pipe = hhl.pipeline_circuit(p)
            want = pipe.gate_census()
            want["entangling"] = pipe.entangling_count()
            got = hhl.run_hhl(p).gate_count
            assert list(got.items()) == list(want.items())


def test_reciprocal_rotation_is_the_plain_expansion():
    rng = np.random.default_rng(14)
    problems = [hhl.HhlProblem(A_REF, b, n) for n in range(1, 8) for b in (B1, B3)]
    problems += [hhl.HhlProblem(*helpers.random_exact_problem(rng, 4, n), n) for n in range(3, 6)]
    for p in problems:
        info = hhl.validate(p)
        rot = hhl.reciprocal_rotation_circuit(p, info)
        (mux,) = rot.ops
        ops = mux.expand()
        values, amps = hhl._rotation_amplitudes(p, info)
        want = helpers.reciprocal_rotation_naive(p.n_register, dict(zip(values.tolist(), amps.tolist())))
        assert len(ops) == len(want)
        for op, (name, targets, controls, params, matrix) in zip(ops, want):
            assert (op.name, op.targets, op.controls, op.params) == (name, targets, controls, params)
            assert np.array_equal(op.matrix, matrix)
        # the flips of one wire are one shared gate
        assert len({id(op) for op in ops if op.name == "x"}) <= p.n_register
        # the one-pass kernel gives the expansion's state bit for bit
        state = cq.run(hhl.phase_estimation_circuit(p, info), hhl.initial_state(p)).state
        assert np.array_equal(cq.run(rot, state).state, cq.run(cq.Circuit(p.qubits, ops), state).state)


@pytest.mark.filterwarnings("error")
def test_an_empty_matrix_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="non-empty square matrix"):
        hhl.validate(hhl.HhlProblem(np.zeros((0, 0)), np.zeros(0), 2))


def test_validate_checks_the_matrix_once(monkeypatch):
    calls = []
    check = qstate.check_hermitian

    def counted(m, *args, **kwargs):
        calls.append(m)
        return check(m, *args, **kwargs)

    monkeypatch.setattr(qstate, "check_hermitian", counted)
    monkeypatch.setattr(hhl, "check_hermitian", counted, raising=False)
    hhl.validate(ref_problem(B3))
    assert len(calls) == 1
    # a bad matrix is still reported before a bad vector
    with pytest.raises(NotHermitian):
        hhl.validate(hhl.HhlProblem(np.array([[1, 1], [0, 1]]), np.array([1.0, 1.0]), 2))


@st.composite
def spectrum_problems(draw):
    """Hermitian positive-definite 2x2 and 4x4 problems at 1-8 bits, on and off grid.

    b lies on a random nonempty subset of the eigenvectors, so some
    eigenvalues go unpopulated; C and t0 are explicit or default.
    """
    dim = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(1, 8))
    top = (1 << n) - 1
    t0 = draw(st.sampled_from([hhl.TWO_PI, 1.3 * math.pi, 4 * math.pi]))
    unit = hhl.TWO_PI / t0  # the eigenvalue of register value 1
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(1, top), min_size=dim, max_size=dim))
    else:
        ks = draw(st.lists(st.floats(0.1, top + 3), min_size=dim, max_size=dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = helpers.random_unitary(rng, dim)
    a = (v * (np.array(ks, dtype=float) * unit)) @ v.conj().T
    support = draw(st.lists(st.booleans(), min_size=dim, max_size=dim).filter(any))
    b = v @ (np.array(support) * (rng.normal(size=dim) + 1j * rng.normal(size=dim)))
    c = draw(st.one_of(st.none(), st.floats(0.05, 3.0)))
    return hhl.HhlProblem(a, b / np.linalg.norm(b), n, t0=t0, c_const=c)


@settings(max_examples=200, deadline=None)
@given(spectrum_problems())
def test_validate_reads_the_spectrum_as_the_referee(p):
    info = hhl.validate(p)
    exact, populated, c, weights = helpers.spectrum_naive(p.a, p.b, p.n_register, p.t0, p.c_const)
    assert info.exact == exact
    assert list(info.populated) == populated
    assert info.c == c
    assert np.max(np.abs(np.abs(info.betas) ** 2 - weights)) < 1e-12
    # the rotation amplitudes, bit for bit, or the first populated value refused
    want = helpers.rotation_amplitudes_naive(p.n_register, p.t0, c, populated)
    if isinstance(want, int):
        with pytest.raises(InvalidC, match=f"populated register value {want}$"):
            hhl._rotation_amplitudes(p, info)
    else:
        values, amps = hhl._rotation_amplitudes(p, info)
        assert list(zip(values.tolist(), amps.tolist())) == want


@st.composite
def referee_problems(draw):
    """Hermitian positive-definite 2x2 and 4x4 problems at 1-8 bits, on and off grid, default C.

    Off grid, each register position lies in [0.5, 2**n - 0.5], so every
    eigenvalue keeps weight on a rotated value and the solution never
    vanishes; the top positions spread partly onto value zero.
    """
    dim = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(1, 8))
    top = (1 << n) - 1
    t0 = draw(st.sampled_from([hhl.TWO_PI, 1.7]))
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(1, top), min_size=dim, max_size=dim))
    else:
        ks = draw(st.lists(st.floats(0.5, top + 0.5), min_size=dim, max_size=dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = helpers.random_unitary(rng, dim)
    a = (v * (np.array(ks, dtype=float) * (hhl.TWO_PI / t0))) @ v.conj().T
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return hhl.HhlProblem(a, b / np.linalg.norm(b), n, t0=t0)


@settings(max_examples=60, deadline=None)
@given(referee_problems())
def test_run_hhl_is_the_closed_form(p):
    # the closed form by plain loops, from the Hadamard register state; it
    # referees the whole pipeline at widths where unitary_matrix is impractical
    _, populated, c, _ = helpers.spectrum_naive(p.a, p.b, p.n_register, p.t0, None)
    amps = dict(helpers.rotation_amplitudes_naive(p.n_register, p.t0, c, populated))
    big_t = 1 << p.n_register
    x, marginal = helpers.pipeline_closed_form(p.a, p.b, p.n_register, p.t0,
                                               [1 / math.sqrt(big_t)] * big_t, amps)
    res = hhl.run_hhl(p)
    assert np.max(np.abs(res.x_state - x)) < 1e-10
    assert abs(res.success_probability - marginal) < 1e-10


def test_the_deck_digest_is_repeatable():
    # the committed output check: one sha256 over run_hhl on a seeded deck
    first = deck_digest.digest(20)
    assert deck_digest.digest(20) == first
    _, solved, refused = first
    assert solved > 0 and refused > 0


@pytest.mark.parametrize("bits, c_const", [(1, None), (3, 1.0), (5, None), (6, 1.0)])
def test_pre_cut_state_is_the_shot_readout_state(bits, c_const):
    # the shot readout samples this state in place of running the pipeline again
    for b in (B3, np.array([0.6, 0.8])):
        p = hhl.HhlProblem(A_REF, b, bits, c_const=c_const)
        tail, state = analysis._readout(hhl.pipeline_circuit(p), hhl.initial_state(p))
        assert tail.ops == ()
        assert np.array_equal(hhl.run_hhl(p).pre_cut_state, state)


def test_heralded_readout_refuses_a_vanishing_solution():
    # ancilla (wire 0) on |1>, wire 1 on |1>: reading x with wire 1 held at 0 finds nothing
    state = np.zeros(8, dtype=complex)
    state[0b011] = 1.0
    with pytest.raises(ZeroProbability, match="vanishing norm"):
        hhl._heralded(state, [(0, 1)], {0: 1, 1: 0}, np.eye(2), np.array([1.0, 0.0]), (),
                      lambda kept: True)
    res = hhl._heralded(state, [(0, 1)], {0: 1, 1: 1}, np.eye(2), np.array([1.0, 0.0]), (),
                        lambda kept: True)
    assert res.success_probability == 1.0 and res.fidelity_vs_classical == 1.0
    assert res.pre_cut_state is state and res.gate_count == {"entangling": 0}

import math

import numpy as np
import pytest

import helpers
from hhlsim import qstate
from hhlsim.errors import (
    BadIndex,
    DimensionMismatch,
    NotHermitian,
)


def test_num_qubits():
    assert qstate.num_qubits(1) == 0
    assert qstate.num_qubits(2) == 1
    assert qstate.num_qubits(16) == 4
    for bad in (0, 3, 6, -4):
        with pytest.raises(DimensionMismatch):
            qstate.num_qubits(bad)


def test_check_hermitian():
    m = np.array([[1.0, 2 + 1j], [2 - 1j, -3.0]])
    assert np.allclose(qstate.check_hermitian(m), m)
    with pytest.raises(NotHermitian):
        qstate.check_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DimensionMismatch):
        qstate.check_hermitian(np.ones(4))
    # asymmetry below the tolerance is accepted and passed through
    tiny = m + np.array([[0, 1e-9], [0, 0]])
    qstate.check_hermitian(tiny)


def test_check_normalized():
    v = np.array([1, 1j]) / math.sqrt(2)
    helpers.check_normalized(v)
    with pytest.raises(AssertionError, match="norm"):
        helpers.check_normalized(np.array([1.0, 1e-5]))
    with pytest.raises(AssertionError, match="vector"):
        helpers.check_normalized(np.eye(2))


def test_check_density_matrix():
    helpers.check_density_matrix(np.eye(2) / 2)
    with pytest.raises(AssertionError, match="trace"):
        helpers.check_density_matrix(np.eye(2))
    with pytest.raises(AssertionError, match="negative eigenvalue"):
        helpers.check_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(AssertionError, match="Hermitian"):
        helpers.check_density_matrix(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))


def test_eigh_reconstruct():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = g + g.conj().T
        dec = qstate.eigh(m)
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)
        v = dec.eigenvectors
        assert np.allclose((v * dec.eigenvalues) @ v.conj().T, m, atol=1e-10)


def test_exp_unitary_matches_power_series():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = (g + g.conj().T) / 8
    t = 0.3
    series = np.zeros((4, 4), dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 40):
        series += term
        term = term @ (1j * a * t) / k
    assert np.allclose(qstate.exp_unitary(a, t), series, atol=1e-12)


def test_exp_unitary_group_laws():
    a = np.array([[1.5, 0.5], [0.5, 1.5]])
    u1 = qstate.exp_unitary(a, 0.7)
    u2 = qstate.exp_unitary(a, 1.1)
    assert np.allclose(u1 @ u2, qstate.exp_unitary(a, 1.8), atol=1e-12)
    assert np.allclose(u1 @ u1.conj().T, np.eye(2), atol=1e-12)
    # the evolution is periodic when every eigenvalue is an integer
    assert np.allclose(qstate.exp_unitary(a, 2 * math.pi), np.eye(2), atol=1e-12)


def test_state_fidelity_ignores_global_phase():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        w = v * np.exp(1j * rng.uniform(0, 2 * math.pi))
        assert np.isclose(qstate.state_fidelity(v, w), 1.0, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        qstate.state_fidelity(np.ones(2), np.ones(4))


def test_fidelity_against_density():
    v = np.array([1, 0], dtype=complex)
    rho = np.diag([0.8, 0.2]).astype(complex)
    assert np.isclose(qstate.fidelity(v, rho), 0.8, atol=1e-12)
    # tiny numerical overshoot is clamped into [0, 1]
    assert qstate.fidelity(v, np.diag([1 + 1e-13, -1e-13])) == 1.0


def test_partial_trace_bell_pair():
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1 / math.sqrt(2)
    rho = qstate.density(bell)
    for keep in ([0], [1]):
        red = qstate.partial_trace(rho, keep)
        assert np.allclose(red, np.eye(2) / 2, atol=1e-12)
        assert np.isclose(qstate.entropy_bits(red), 1.0, atol=1e-12)
    assert np.isclose(qstate.partial_trace(rho, [])[0, 0].real, 1.0, atol=1e-12)
    with pytest.raises(BadIndex):
        qstate.partial_trace(rho, [2])


def test_partial_trace_product_states():
    rng = np.random.default_rng(5)
    for _ in range(20):
        parts = []
        for _q in range(3):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            parts.append(v / np.linalg.norm(v))
        # qubit 2 is parts[2] etc: the left kron factor sits on the higher qubit
        full = np.kron(parts[2], np.kron(parts[1], parts[0]))
        rho = qstate.density(full)
        for q in range(3):
            red = qstate.partial_trace(rho, [q])
            assert np.allclose(red, qstate.density(parts[q]), atol=1e-12)
        red01 = qstate.partial_trace(rho, [0, 1])
        assert np.allclose(red01, qstate.density(np.kron(parts[1], parts[0])),
                           atol=1e-12)


def test_partial_trace_keep_order_is_by_index():
    rng = np.random.default_rng(9)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    rho = qstate.density(v)
    # keep order must not matter: result qubit j is the j-th smallest kept wire
    assert np.allclose(qstate.partial_trace(rho, [2, 0]),
                       qstate.partial_trace(rho, [0, 2]), atol=1e-14)


def test_entropy_bits_pure_and_mixed():
    assert np.isclose(qstate.entropy_bits(np.diag([1.0, 0.0])), 0.0, atol=1e-12)
    assert np.isclose(qstate.entropy_bits(np.eye(4) / 4), 2.0, atol=1e-12)

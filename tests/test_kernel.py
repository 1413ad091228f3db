"""The axis-contraction gate kernel against the brute-force embedding.

Every backend path (statevector run, density-matrix run, the full
unitary) must agree with ``helpers.embed_naive`` on random gates: any
width, targets in any order and not necessarily adjacent, and controls.
"""
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from hhlsim import circuit as cq
from hhlsim import compiled2x2 as c2
from hhlsim import hhl

ATOL = 1e-12


@st.composite
def gates(draw):
    """(width, gate, rng): 1-2 targets and 0-2 controls on 1-6 qubits."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(2, n)))
    c = draw(st.integers(0, min(2, n - k)))
    wires = draw(st.permutations(range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = cq.unitary(helpers.random_unitary(rng, 1 << k), wires[:k])
    return n, cq.controlled(g, *wires[k:k + c]), rng


def naive_operator(g: cq.Gate, n: int) -> np.ndarray:
    """The gate on all n qubits: the unitary on the block where every control is 1."""
    k = len(g.targets)
    block = np.eye(1 << (k + len(g.controls)), dtype=complex)
    block[-(1 << k):, -(1 << k):] = g.matrix
    return helpers.embed_naive(block, list(g.targets + g.controls), n)


def random_state(rng, n: int) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


@settings(max_examples=150, deadline=None)
@given(gates())
def test_statevector_run_matches_naive_embedding(case):
    n, g, rng = case
    psi = random_state(rng, n)
    got = cq.run(cq.Circuit(n, [g]), psi).state
    assert np.max(np.abs(got - naive_operator(g, n) @ psi)) < ATOL


@settings(max_examples=150, deadline=None)
@given(gates())
def test_density_matrix_run_matches_naive_embedding(case):
    n, g, rng = case
    # a mixed input, so that rows and columns are not one vector's outer product
    a, b = random_state(rng, n), random_state(rng, n)
    rho = 0.7 * np.outer(a, a.conj()) + 0.3 * np.outer(b, b.conj())
    got = cq.run(cq.Circuit(n, [g]), rho, noise=cq.NoiseSpec(0.0)).state
    u = naive_operator(g, n)
    assert np.max(np.abs(got - u @ rho @ u.conj().T)) < ATOL


@settings(max_examples=150, deadline=None)
@given(gates())
def test_embedded_unitary_matches_naive_embedding(case):
    n, g, _ = case
    assert np.max(np.abs(cq.embedded_unitary(g, n) - naive_operator(g, n))) < ATOL


def test_run_does_not_allocate_dense_operators():
    # 10 qubits: a dense 2^10 x 2^10 complex operator alone is 16 MiB
    p = hhl.HhlProblem(c2.SYSTEM_MATRIX, c2.INPUT_PRESETS["b3"], 8, c_const=1.0)
    circ = hhl.pipeline_circuit(p)
    psi = hhl.initial_state(p)
    assert circ.qubits == 10
    tracemalloc.start()
    try:
        cq.run(circ, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

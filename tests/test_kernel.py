"""The axis-contraction gate kernel and the bit view against brute force.

Every backend path (statevector run, density-matrix run, the full
unitary) must agree with ``helpers.embed_naive`` on random gates: any
width, targets in any order and not necessarily adjacent, and controls.
The bit view every projection and readout goes through must agree with
``helpers.postselect_bits`` on vectors and density matrices.
"""
import math
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


@st.composite
def fixed_bits(draw):
    """(width, {qubit: bit}, rng): 1-3 fixed qubits on 1-6 qubits."""
    n = draw(st.integers(1, 6))
    wires = draw(st.permutations(range(n)))[:draw(st.integers(1, min(3, n)))]
    fixed = {q: draw(st.integers(0, 1)) for q in wires}
    return n, fixed, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(fixed_bits())
def test_bit_view_matches_postselection_on_vectors(case):
    n, fixed, rng = case
    psi = random_state(rng, n)
    ref, p = helpers.postselect_bits(psi, fixed)
    kept = np.flatnonzero(ref)
    view = cq._bit_view(psi, fixed)
    # free qubits most significant first: flattened, the view runs in index order
    assert view.shape == (2,) * (n - len(fixed))
    assert np.max(np.abs(view.reshape(-1) - math.sqrt(p) * ref[kept])) < ATOL


@settings(max_examples=150, deadline=None)
@given(fixed_bits())
def test_bit_view_matches_postselection_on_density_matrices(case):
    n, fixed, rng = case
    states = [random_state(rng, n) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, states))
    # P rho P from the post-selected pure components
    projected = np.zeros_like(rho)
    for w, v in zip(weights, states):
        out, p = helpers.postselect_bits(v, fixed)
        projected += w * p * np.outer(out, out.conj())
    kept = np.flatnonzero(helpers.postselect_bits(np.ones(1 << n, dtype=complex), fixed)[0])
    view = cq._bit_view(rho, fixed)
    assert view.shape == (2,) * (2 * (n - len(fixed)))
    block = view.reshape(len(kept), len(kept))
    assert np.max(np.abs(block - projected[np.ix_(kept, kept)])) < ATOL
    # the view is writable into the original: zeroing it removes the branch
    cq._bit_view(rho, fixed)[...] = 0
    assert np.max(np.abs(rho[np.ix_(kept, kept)])) == 0


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

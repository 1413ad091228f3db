"""The axis-contraction gate kernel, the bit view and the branch weight
against brute force.

Every backend path (statevector run, density-matrix run, the full
unitary) must agree with ``helpers.embed_naive`` on random gates: any
width, targets in any order and not necessarily adjacent, and controls.
The bit view every projection and readout goes through must agree with
``helpers.postselect_bits`` on vectors and density matrices, and the
branch weight every measurement and register check reads with a sum
over basis indices. The kernel's plan cache must serve every array
shape of one geometry, keep checking the width, and stay within its
bound. No package module may build a Kronecker product, the dense gate
path the kernel replaced, nor derive a gate or circuit by
``dataclasses.replace``, which looks its fields up again on every call.
"""
import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from hhlsim import circuit as cq
from hhlsim import compiled2x2 as c2
from hhlsim import hhl
from hhlsim.errors import BadIndex

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
    assert np.max(np.abs(cq.Circuit(n, [g]).unitary_matrix() - naive_operator(g, n))) < ATOL


@st.composite
def fixed_bits(draw, least=1):
    """(width, {qubit: bit}, rng): ``least`` to 3 fixed qubits on 1-6 qubits."""
    n = draw(st.integers(1, 6))
    wires = draw(st.permutations(range(n)))[:draw(st.integers(least, min(3, n)))]
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


@settings(max_examples=150, deadline=None)
@given(fixed_bits(least=0))
def test_weight_matches_brute_force_sum(case):
    n, fixed, rng = case
    psi = random_state(rng, n)
    states = [random_state(rng, n) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, states))
    kept = [i for i in range(1 << n) if all((i >> q) & 1 == bit for q, bit in fixed.items())]
    want_psi = sum(abs(psi[i]) ** 2 for i in kept)
    want_rho = sum(rho[i, i].real for i in kept)
    assert abs(cq._weight(psi, fixed) - want_psi) < ATOL
    assert abs(cq._weight(rho, fixed) - want_rho) < ATOL


def test_no_module_builds_a_kronecker_product():
    src = Path(cq.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "kron":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert len(list(src.glob("*.py"))) > 5
    assert found == []


def test_no_module_calls_dataclasses_replace():
    src = Path(cq.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        # the names the module binds to dataclasses itself; str.replace is fine
        module = {a.asname or a.name for n in nodes if isinstance(n, ast.Import)
                  for a in n.names if a.name == "dataclasses"}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "replace"]
            elif (isinstance(node, ast.Attribute) and node.attr == "replace"
                  and isinstance(node.value, ast.Name) and node.value.id in module):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(src.glob("*.py"))) > 5
    assert found == []


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


@settings(max_examples=100, deadline=None)
@given(gates())
def test_one_geometry_serves_every_array_shape(case):
    # the plan is cached per array shape and axis; run every shape of one
    # geometry back to back, twice, so the second round reads the cache
    n, g, rng = case
    u = naive_operator(g, n)
    psi = random_state(rng, n)
    rho = np.outer(psi, psi.conj()) + 0.1 * np.eye(1 << n)
    block = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
    for _ in range(2):
        assert np.max(np.abs(cq._apply(psi.copy(), g) - u @ psi)) < ATOL
        assert np.max(np.abs(cq._apply(rho.copy(), g) - u @ rho)) < ATOL
        cols = cq._apply(rho.copy(), g, g.matrix.conj(), axis=1)
        assert np.max(np.abs(cols - rho @ u.conj().T)) < ATOL
        assert np.max(np.abs(cq._apply(block.copy(), g) - u @ block)) < ATOL


def test_cached_geometry_still_checks_the_width():
    g = cq.controlled(cq.x(3), 0)
    wide = np.zeros(16, dtype=complex)
    wide[1] = 1.0
    assert cq._apply(wide, g)[9] == 1.0
    for _ in range(2):
        with pytest.raises(BadIndex):
            cq._apply(np.zeros(8, dtype=complex), g)
    # a narrower axis of a 2-d array is checked too
    with pytest.raises(BadIndex):
        cq._apply(np.zeros((16, 8), dtype=complex), g, axis=1)


def test_plan_cache_stays_bounded():
    cq._plan.cache_clear()
    rng = np.random.default_rng(5)
    g = cq.controlled(cq.unitary(helpers.random_unitary(rng, 4), (2, 0)), 1)
    u = naive_operator(g, 3)
    # each batch width is a distinct geometry
    widths = range(1, cq._PLAN_CACHE_SIZE + 50)
    for batch in widths:
        block = rng.normal(size=(8, batch)) + 0j
        got = cq._apply(block.copy(), g)
        if batch % 97 == 1 or batch > cq._PLAN_CACHE_SIZE:
            assert np.max(np.abs(got - u @ block)) < ATOL
    info = cq._plan.cache_info()
    assert info.currsize <= cq._PLAN_CACHE_SIZE
    assert info.misses >= len(widths)
    # the first geometries were evicted and are planned again correctly
    block = rng.normal(size=(8, 1)) + 0j
    assert np.max(np.abs(cq._apply(block.copy(), g) - u @ block)) < ATOL

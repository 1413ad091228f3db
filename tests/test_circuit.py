import dataclasses
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from hhlsim import analysis
from hhlsim import circuit as cq
from hhlsim import compiled2x2 as c2
from hhlsim import qstate
from hhlsim.errors import (
    BadFlag,
    BadIndex,
    DimensionMismatch,
    NonUnitary,
    ZeroProbability,
)
from test_kernel import gates, random_state


def random_1q(rng):
    return helpers.random_unitary(rng, 2)


def test_gate_matrices():
    assert np.allclose(cq.x(0).matrix, helpers.X)
    assert np.allclose(cq.y(0).matrix, helpers.Y)
    assert np.allclose(cq.z(0).matrix, helpers.Z)
    assert np.allclose(cq.h(0).matrix, helpers.H)
    assert np.allclose(cq.phase(0, math.pi).matrix, np.diag([1, -1]))
    # h_theta at pi/8 is a plain Hadamard
    assert np.allclose(cq.h_theta(0, math.pi / 8).matrix, helpers.H, atol=1e-15)
    assert np.allclose(cq.h_theta(0, 0.3).matrix, helpers.h_theta_matrix(0.3))


def test_gate_validation():
    with pytest.raises(BadIndex):
        cq.swap(1, 1)
    with pytest.raises(BadIndex):
        cq.x(-1)
    with pytest.raises(BadIndex):
        cq.controlled(cq.x(0), 0)
    with pytest.raises(DimensionMismatch):
        cq.Gate("bad", np.eye(4, dtype=complex), (0,))
    with pytest.raises(NonUnitary):
        cq.unitary(np.array([[1, 1], [0, 1]]), [0])
    with pytest.raises(DimensionMismatch):
        cq.unitary(np.ones((2, 3)), [0, 1])
    # a custom matrix under a built-in name would invert and serialize as the built-in
    for name in ("h", "phase", "h_theta", "swap", "measure", "conditional"):
        with pytest.raises(BadIndex):
            cq.unitary(np.eye(2), [0], name=name)


def test_entangling_flags():
    assert cq.cnot(0, 1).entangling
    assert cq.controlled(cq.h_theta(0, 0.2), 2).entangling
    assert not cq.h(0).entangling
    assert not cq.swap(0, 1).entangling
    rng = np.random.default_rng(0)
    assert cq.unitary(helpers.random_unitary(rng, 4), [0, 1]).entangling


def test_dagger_inverts():
    rng = np.random.default_rng(1)
    gates = [
        cq.x(0), cq.h(1), cq.swap(0, 2), cq.phase(1, 0.7),
        cq.h_theta(2, 0.4), cq.cnot(2, 0),
        cq.controlled(cq.phase(0, 1.1), 1, 2),
        cq.unitary(helpers.random_unitary(rng, 4), [0, 2]),
    ]
    for g in gates:
        u = cq.Circuit(3, [g]).unitary_matrix()
        v = cq.Circuit(3, [g.dagger()]).unitary_matrix()
        assert np.allclose(u @ v, np.eye(8), atol=1e-12)
        assert g.dagger().controls == g.controls


def test_census_keys():
    c = cq.Circuit(3, [
        cq.h(0), cq.h(1), cq.cnot(0, 1),
        cq.controlled(cq.h_theta(2, 0.1), 0, 1),
        cq.Measure(0, 0), cq.ConditionalGate(cq.x(2), 0, 1),
    ])
    assert c.gate_census() == {
        "h": 2, "cx": 1, "cch_theta": 1, "measure": 1, "if_x": 1,
    }
    assert c.entangling_count() == 2


def test_embedded_unitary_against_naive():
    rng = np.random.default_rng(42)
    for _ in range(400):
        n = int(rng.integers(1, 6))
        q = int(rng.integers(0, n))
        g = cq.unitary(random_1q(rng), [q])
        assert np.allclose(cq.Circuit(n, [g]).unitary_matrix(),
                           helpers.embed_naive(g.matrix, [q], n), atol=1e-12)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        a, b = rng.choice(n, size=2, replace=False)
        g = cq.unitary(helpers.random_unitary(rng, 4), [int(a), int(b)])
        assert np.allclose(cq.Circuit(n, [g]).unitary_matrix(),
                           helpers.embed_naive(g.matrix, [int(a), int(b)], n), atol=1e-12)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        ctrl, tgt = rng.choice(n, size=2, replace=False)
        u = random_1q(rng)
        g = cq.controlled(cq.unitary(u, [int(tgt)]), int(ctrl))
        assert np.allclose(cq.Circuit(n, [g]).unitary_matrix(),
                           helpers.controlled_1q(u, int(ctrl), int(tgt), n), atol=1e-12)


def test_multi_control_embedding():
    # ccx on 3 qubits: flips the target only when both controls are 1
    g = cq.controlled(cq.x(0), 1, 2)
    u = cq.Circuit(3, [g]).unitary_matrix()
    expect = np.eye(8)
    expect[[0b110, 0b111]] = expect[[0b111, 0b110]]
    assert np.allclose(u, expect)


def test_unitary_matrix_is_op_product():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = 3
        ops = []
        mats = [np.eye(8, dtype=complex)]
        for _k in range(6):
            kind = rng.integers(0, 3)
            if kind == 0:
                q = int(rng.integers(0, n))
                u = random_1q(rng)
                ops.append(cq.unitary(u, [q]))
                mats.append(helpers.embed_naive(u, [q], n))
            elif kind == 1:
                a, b = rng.choice(n, size=2, replace=False)
                ops.append(cq.cnot(int(a), int(b)))
                mats.append(helpers.controlled_1q(helpers.X, int(a), int(b), n))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                ops.append(cq.swap(int(a), int(b)))
                mats.append(helpers.embed_naive(
                    np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                             dtype=complex), [int(a), int(b)], n))
        c = cq.Circuit(n, ops)
        prod = np.eye(8, dtype=complex)
        for m in mats[1:]:
            prod = m @ prod
        assert np.allclose(c.unitary_matrix(), prod, atol=1e-11)


def test_then_and_inverse():
    c = cq.Circuit(3, [
        cq.h(0), cq.cnot(0, 1), cq.phase(2, 0.9),
        cq.controlled(cq.h_theta(1, 0.23), 2), cq.swap(0, 2),
    ])
    both = c.then(c.inverse())
    assert np.allclose(both.unitary_matrix(), np.eye(8), atol=1e-12)
    with pytest.raises(DimensionMismatch):
        c.then(cq.Circuit(2, [cq.h(0)]))
    with pytest.raises(BadIndex):
        cq.Circuit(1, [cq.Measure(0, 0)]).inverse()


def test_qft_matrix():
    for n in range(1, 4):
        dim = 1 << n
        j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        dft = np.exp(2j * math.pi * j * k / dim) / math.sqrt(dim)
        assert np.allclose(cq.qft(n).unitary_matrix(), dft, atol=1e-12)
        assert np.allclose(cq.qft(n).inverse().unitary_matrix(), dft.conj().T, atol=1e-12)
    with pytest.raises(BadIndex):
        cq.qft(0)


def test_circuit_validation():
    with pytest.raises(BadIndex):
        cq.Circuit(1, [cq.x(1)])
    with pytest.raises(BadIndex):
        cq.Circuit(2, [cq.Measure(2, 0)])
    with pytest.raises(BadIndex):
        cq.Circuit(2, [cq.ConditionalGate(cq.x(0), 0, 1)])  # slot never written
    with pytest.raises(BadIndex):
        cq.Circuit(1, ["nope"])


def test_run_statevector():
    c = cq.Circuit(2, [cq.h(0), cq.cnot(0, 1)])
    init = np.zeros(4, dtype=complex)
    init[0] = 1.0
    out = cq.run(c, init)
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1 / math.sqrt(2)
    assert np.allclose(out.state, bell, atol=1e-12)
    assert out.classical_bits == {} and out.probability == 1.0
    with pytest.raises(DimensionMismatch):
        cq.run(c, np.zeros(8))


def test_run_measurement_and_conditional():
    c = cq.Circuit(2, [
        cq.x(0), cq.Measure(0, 0), cq.ConditionalGate(cq.x(1), 0, 1),
    ])
    init = np.eye(4)[0]
    out = cq.run(c, init)
    assert out.classical_bits == {0: 1}
    assert np.isclose(out.probability, 1.0)
    assert np.allclose(out.state, np.eye(4)[0b11])
    # conditional with a non-matching outcome leaves the state alone
    c2 = cq.Circuit(2, [cq.Measure(0, 0), cq.ConditionalGate(cq.x(1), 0, 1)])
    out2 = cq.run(c2, init)
    assert out2.classical_bits == {0: 0}
    assert np.allclose(out2.state, init)


def test_run_seeded_measurement_is_reproducible():
    c = cq.Circuit(1, [cq.h(0), cq.Measure(0, 0)])
    init = np.array([1.0, 0.0])
    for seed in range(10):
        a = cq.run(c, init, seed=seed)
        b = cq.run(c, init, seed=seed)
        assert a.classical_bits == b.classical_bits
        assert np.isclose(a.probability, 0.5)
    seen = {cq.run(c, init, seed=s).classical_bits[0] for s in range(30)}
    assert seen == {0, 1}


def test_run_density_matrix_matches_vector():
    rng = np.random.default_rng(14)
    for _ in range(10):
        ops = []
        for _k in range(5):
            q = int(rng.integers(0, 3))
            ops.append(cq.unitary(random_1q(rng), [q]))
            a, b = rng.choice(3, size=2, replace=False)
            ops.append(cq.cnot(int(a), int(b)))
        c = cq.Circuit(3, ops)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        vec_out = cq.run(c, v).state
        dm_out = cq.run(c, qstate.density(v)).state
        assert np.allclose(dm_out, qstate.density(vec_out), atol=1e-10)


def test_deferred_measurement_principle():
    # measuring then classically controlling equals a cnot followed by
    # dephasing of the measured wire, for any suffix avoiding that wire
    rng = np.random.default_rng(21)
    for _ in range(100):
        prefix = []
        for _k in range(4):
            q = int(rng.integers(0, 3))
            prefix.append(cq.unitary(random_1q(rng), [q]))
            if rng.random() < 0.5:
                a, b = rng.choice(3, size=2, replace=False)
                prefix.append(cq.cnot(int(a), int(b)))
        suffix = []
        for _k in range(3):
            q = int(rng.integers(1, 3))
            suffix.append(cq.unitary(random_1q(rng), [q]))
        measured = cq.Circuit(3, prefix + [
            cq.Measure(0, 0), cq.ConditionalGate(cq.x(1), 0, 1),
        ] + suffix)
        coherent = cq.Circuit(3, prefix + [cq.cnot(0, 1)] + suffix)
        init = np.eye(8)[0].astype(complex)
        rho_m = np.zeros((8, 8), dtype=complex)
        for br in cq.enumerate_branches(measured, init):
            rho_m += br.probability * qstate.density(br.state)
        rho_c = qstate.density(cq.run(coherent, init).state)
        idx = np.arange(8)
        same_bit = ((idx[:, None] ^ idx[None, :]) & 1) == 0
        assert np.allclose(rho_m, np.where(same_bit, rho_c, 0.0), atol=1e-10)


def test_post_select():
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1 / math.sqrt(2)
    out, p = cq.post_select(bell, 0, 0)
    assert np.isclose(p, 0.5)
    assert np.allclose(out, np.eye(4)[0b00])
    out1, p1 = cq.post_select(bell, 1, 1)
    assert np.isclose(p1, 0.5)
    assert np.allclose(out1, np.eye(4)[0b11])
    with pytest.raises(ZeroProbability):
        cq.post_select(np.eye(4)[0].astype(complex), 0, 1)
    with pytest.raises(BadIndex):
        cq.post_select(bell, 5, 0)


def test_post_select_dm():
    # one projector serves both backends; the density-matrix name is an alias
    assert cq.post_select_dm is cq.post_select
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1 / math.sqrt(2)
    rho, p = cq.post_select(qstate.density(bell), 0, 1)
    assert np.isclose(p, 0.5)
    assert np.allclose(rho, qstate.density(np.eye(4)[0b11].astype(complex)))
    with pytest.raises(ZeroProbability):
        cq.post_select(qstate.density(np.eye(4)[0].astype(complex)), 1, 1)
    with pytest.raises(BadIndex):
        cq.post_select(qstate.density(bell), 2, 0)


def test_noise_spec_validation():
    with pytest.raises(BadFlag):
        cq.NoiseSpec(-0.1)
    with pytest.raises(BadFlag):
        cq.NoiseSpec(1.5)
    with pytest.raises(BadFlag):
        cq.NoiseSpec(0.1, applies_to="sometimes")


def test_depolarize_properties():
    rng = np.random.default_rng(33)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    rho = qstate.density(v)
    assert np.allclose(cq.depolarize(rho, [0, 1], 0.0), rho)
    for p in (0.2, 0.7, 1.0):
        out = cq.depolarize(rho, [0, 2], p)
        assert np.isclose(np.trace(out).real, 1.0, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(out)) > -1e-12
    # p=1 forgets the hit qubit completely
    full = cq.depolarize(rho, [1], 1.0)
    assert np.allclose(qstate.partial_trace(full, [1]), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(qstate.partial_trace(full, [0, 2]),
                       qstate.partial_trace(rho, [0, 2]), atol=1e-12)
    with pytest.raises(BadFlag):
        cq.depolarize(rho, [0], 1.2)


def test_noise_entangling_only_skips_local_gates():
    c = cq.Circuit(2, [cq.h(0), cq.h(1), cq.phase(0, 0.4)])
    init = np.eye(4)[0].astype(complex)
    noisy = cq.run(c, init, noise=cq.NoiseSpec(0.3, applies_to="entangling-only")).state
    clean = qstate.density(cq.run(c, init).state)
    assert np.allclose(noisy, clean, atol=1e-12)
    c2 = cq.Circuit(2, [cq.h(0), cq.cnot(0, 1)])
    noisy2 = cq.run(c2, init, noise=cq.NoiseSpec(0.3, applies_to="entangling-only")).state
    clean2 = qstate.density(cq.run(c2, init).state)
    assert not np.allclose(noisy2, clean2, atol=1e-6)


def test_enumerate_branches():
    c = cq.Circuit(2, [cq.h(0), cq.cnot(0, 1), cq.Measure(0, 0), cq.Measure(1, 1)])
    init = np.eye(4)[0].astype(complex)
    branches = cq.enumerate_branches(c, init)
    records = {b.record: b.probability for b in branches}
    assert set(records) == {"00", "11"}
    assert np.isclose(sum(records.values()), 1.0, atol=1e-12)
    assert all(np.isclose(p, 0.5) for p in records.values())
    for b in branches:
        assert np.isclose(np.linalg.norm(b.state), 1.0, atol=1e-12)
        assert b.classical == {0: int(b.record[0]), 1: int(b.record[1])}


def test_sample_shots_deterministic_and_prefix_stable():
    c = cq.Circuit(2, [cq.h(0), cq.cnot(0, 1), cq.Measure(0, 0), cq.Measure(1, 1)])
    init = np.eye(4)[0].astype(complex)
    h1 = cq.sample_shots(c, init, 4000, seed=5)
    h2 = cq.sample_shots(c, init, 4000, seed=5)
    assert h1 == h2
    assert set(h1) <= {"00", "11"}
    assert sum(h1.values()) == 4000
    # five sigma band around the fair-coin expectation
    assert abs(h1["00"] - 2000) < 5 * math.sqrt(4000 * 0.25)
    # growing the shot count only adds shots, earlier draws are unchanged
    h_half = cq.sample_shots(c, init, 2000, seed=5)
    assert all(h1[k] >= v for k, v in h_half.items())
    assert sum(h1.values()) - sum(h_half.values()) == 2000
    assert cq.sample_shots(c, init, 100, seed=6) != h1 or True  # seeds vary freely
    with pytest.raises(BadFlag):
        cq.sample_shots(c, init, 0)
    with pytest.raises(BadFlag):
        cq.sample_shots(c, init, cq.MAX_SHOTS + 1)


def test_sample_shots_no_measurements():
    c = cq.Circuit(1, [cq.h(0)])
    assert cq.sample_shots(c, np.array([1.0, 0]), 17) == {"": 17}


def test_sample_shots_matches_branch_probabilities():
    rng = np.random.default_rng(8)
    ops = []
    for _k in range(3):
        q = int(rng.integers(0, 3))
        ops.append(cq.unitary(random_1q(rng), [q]))
    a, b = rng.choice(3, size=2, replace=False)
    ops.append(cq.cnot(int(a), int(b)))
    ops += [cq.Measure(0, 0), cq.Measure(1, 1), cq.Measure(2, 2)]
    c = cq.Circuit(3, ops)
    init = np.eye(8)[0].astype(complex)
    want = {b.record: b.probability for b in cq.enumerate_branches(c, init)}
    n = 20000
    hist = cq.sample_shots(c, init, n, seed=3)
    assert set(hist) <= set(want)
    for rec, p in want.items():
        sigma = math.sqrt(n * p * (1 - p)) + 1e-9
        assert abs(hist.get(rec, 0) - n * p) < 5 * sigma + 1


def test_serialization_roundtrip():
    rng = np.random.default_rng(12)
    c = cq.Circuit(3, [
        cq.h(0), cq.phase(1, 0.37), cq.h_theta(2, 0.21), cq.swap(0, 2),
        cq.cnot(1, 2), cq.controlled(cq.h_theta(0, 0.11), 1, 2),
        cq.unitary(helpers.random_unitary(rng, 4), [0, 2], name="mix"),
        cq.Measure(1, 0), cq.ConditionalGate(cq.x(2), 0, 1),
    ])
    back = cq.Circuit.from_json(c.to_json())
    assert back == c
    assert cq.Circuit.from_json_dict(c.to_json_dict()) == c
    # matrices survive bit for bit, so downstream numerics are identical
    assert np.array_equal(back.ops[6].matrix, c.ops[6].matrix)


@st.composite
def circuits(draw, measured=st.booleans()):
    """Gates from ``gates()`` and stock gates, each optionally preceded by a
    measurement into a new or an already written slot and, once a slot is
    written, optionally conditioned on one."""
    drawn = draw(st.lists(gates(), min_size=1, max_size=4))
    width = max(n for n, _, _ in drawn)
    wire = st.integers(0, width - 1)
    angle = st.floats(-4.0, 4.0)
    stock = st.one_of(st.builds(cq.x, wire), st.builds(cq.h, wire),
                      st.builds(cq.phase, wire, angle), st.builds(cq.h_theta, wire, angle))
    measured = draw(measured)
    ops: list = []
    slots = 0
    for _, g, _ in drawn:
        for op in (g, draw(stock)):
            if measured and draw(st.booleans()):
                slot = draw(st.integers(0, slots))
                ops.append(cq.Measure(draw(wire), slot))
                slots = max(slots, slot + 1)
            if slots and draw(st.booleans()):
                op = cq.ConditionalGate(op, draw(st.integers(0, slots - 1)), draw(st.integers(0, 1)))
            ops.append(op)
    return cq.Circuit(width, ops)


def with_repeated_slot(c: cq.Circuit) -> cq.Circuit:
    """``c`` followed by two reads of qubit 0 into slot 0, a Hadamard between them."""
    return cq.Circuit(c.qubits, c.ops + (cq.Measure(0, 0), cq.h(0), cq.Measure(0, 0)))


def run_record(c: cq.Circuit, psi: np.ndarray, seed: int) -> str:
    """The outcomes ``run`` draws, one per Measure in program order.

    Outcome k is read from a run of the circuit cut after its k-th
    Measure: draws are taken in program order, so the cut run makes the
    same first k draws.
    """
    record = ""
    for i, op in enumerate(c.ops):
        if isinstance(op, cq.Measure):
            cut = cq.Circuit(c.qubits, c.ops[:i + 1])
            record += str(cq.run(cut, psi, seed=seed).classical_bits[op.slot])
    return record


@settings(max_examples=100, deadline=None)
@given(circuits(measured=st.just(True)), st.integers(0, 2**32 - 1))
def test_run_is_the_enumerated_branch_of_its_record(c, state_seed):
    c = with_repeated_slot(c)
    psi = random_state(np.random.default_rng(state_seed), c.qubits)
    branches = {b.record: b for b in cq.enumerate_branches(c, psi)}
    for seed in range(6):
        out = cq.run(c, psi, seed=seed)
        br = branches[run_record(c, psi, seed)]
        assert np.array_equal(out.state, br.state)
        assert out.classical_bits == br.classical
        assert out.probability == br.probability


@settings(max_examples=100, deadline=None)
@given(circuits(measured=st.just(True)), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))
def test_sample_shots_matches_naive_sampler(c, state_seed, seed):
    c = with_repeated_slot(c)
    psi = random_state(np.random.default_rng(state_seed), c.qubits)
    branches = [(b.record, b.probability) for b in cq.enumerate_branches(c, psi)]
    assert cq.sample_shots(c, psi, 300, seed=seed) == helpers.sample_shots_naive(branches, 300, seed)


def with_repeated_reads(c: cq.Circuit) -> cq.Circuit:
    """``c`` with every Measure read again at once into a fresh slot.

    Nothing acts between the two reads, so the second one never splits a
    prefix: its share of 1s is exactly 0 or 1.
    """
    slots = 1 + max((op.slot for op in c.ops if isinstance(op, cq.Measure)), default=-1)
    ops = []
    for op in c.ops:
        ops.append(op)
        if isinstance(op, cq.Measure):
            ops.append(cq.Measure(op.qubit, slots))
            slots += 1
    return cq.Circuit(c.qubits, ops)


@settings(max_examples=40, deadline=None)
@given(circuits(measured=st.just(True)), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))
def test_sample_shots_matches_naive_sampler_on_forced_reads(c, state_seed, seed):
    c = with_repeated_reads(with_repeated_slot(c))
    psi = random_state(np.random.default_rng(state_seed), c.qubits)
    branches = [(b.record, b.probability) for b in cq.enumerate_branches(c, psi)]
    assert cq.sample_shots(c, psi, 300, seed=seed) == helpers.sample_shots_naive(branches, 300, seed)


def chain_to_underflow() -> cq.Circuit:
    """A drawn level, then reads of qubit 0 where only all-1 runs split.

    Each read gives 1 with probability 1e-14 after a 1 and never after a
    0. After 24 reads an all-1 run has probability 0.0 (1e-14**24
    underflows) while its sibling does not, so that level splits a prefix
    whose share of 1s is exactly 0.0. A read of qubit 0 that splits
    nothing and a final drawn level follow.
    """
    t = 1e-14
    u = cq.unitary(np.array([[math.sqrt(1 - t), -math.sqrt(t)], [math.sqrt(t), math.sqrt(1 - t)]]), [0])
    again = cq.unitary(u.matrix @ helpers.X, [0])
    ops = [cq.h(1), cq.Measure(1, 1), u, cq.Measure(0, 0)]
    for _ in range(23):
        ops += [cq.ConditionalGate(again, 0, 1), cq.Measure(0, 0)]
    return cq.Circuit(2, ops + [cq.Measure(0, 0), cq.h(1), cq.Measure(1, 1)])


FORCED_LEVELS = {
    # forced to 1, then a level a draw decides
    "forced-then-drawn": cq.Circuit(2, [cq.x(1), cq.Measure(1, 0), cq.h(0), cq.Measure(0, 1)]),
    # forced to 0 under prefix 0 and to 1 under prefix 1
    "forced-per-prefix": cq.Circuit(2, [cq.h(0), cq.Measure(0, 0), cq.cnot(0, 1), cq.Measure(1, 1)]),
    # three forced levels in a row between two drawn levels
    "three-forced": cq.Circuit(2, [
        cq.h(0), cq.Measure(0, 0), cq.cnot(0, 1), cq.Measure(1, 1), cq.Measure(0, 2),
        cq.Measure(1, 3), cq.h(0), cq.Measure(0, 4)]),
    # a level whose shares are all exactly 0 or 1 but that splits a prefix
    "split-at-share-zero": chain_to_underflow(),
}


# split-at-share-zero keeps a branch of probability 0.0; dividing its
# prefix's zero mass by itself would warn on the user's stderr
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(FORCED_LEVELS))
def test_sample_shots_forced_levels_match_naive_sampler(name):
    c = FORCED_LEVELS[name]
    init = np.eye(1 << c.qubits)[0].astype(complex)
    branches = [(b.record, b.probability) for b in cq.enumerate_branches(c, init)]
    for seed in (0, 1):
        assert cq.sample_shots(c, init, 2000, seed=seed) == helpers.sample_shots_naive(branches, 2000, seed)


def test_chain_to_underflow_splits_a_prefix_at_share_zero():
    branches = cq.enumerate_branches(chain_to_underflow(), np.eye(4)[0].astype(complex))
    mass = {}
    for b in branches:
        mass[b.record[:25]] = mass.get(b.record[:25], 0.0) + b.probability
    assert mass["0" + "1" * 24] == 0.0 and mass["0" + "1" * 23 + "0"] > 0.0


def test_repeated_slot_keeps_every_outcome_in_the_record():
    c = cq.Circuit(1, [cq.h(0), cq.Measure(0, 0), cq.h(0), cq.Measure(0, 0)])
    init = np.array([1.0, 0.0])
    branches = cq.enumerate_branches(c, init)
    assert [b.record for b in branches] == ["00", "01", "10", "11"]
    assert [b.classical for b in branches] == [{0: 0}, {0: 1}, {0: 0}, {0: 1}]
    assert all(np.isclose(b.probability, 0.25) for b in branches)
    hist = cq.sample_shots(c, init, 4000, seed=1)
    assert set(hist) == {"00", "01", "10", "11"}
    assert hist == helpers.sample_shots_naive([(b.record, b.probability) for b in branches], 4000, 1)


def test_sample_shots_memory_follows_branches_not_records():
    # 40 reads of one qubit: two branches out of 2**40 possible records;
    # drawn at once, 2e5 shots x 40 outcomes would take 64 MiB
    c = cq.Circuit(1, [cq.h(0)] + [cq.Measure(0, k) for k in range(40)])
    init = np.array([1.0, 0.0])
    for shots, bound in ((1000, 2 * 2**20), (200_000, 8 * 2**20)):
        tracemalloc.start()
        try:
            hist = cq.sample_shots(c, init, shots, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(hist) == {"0" * 40, "1" * 40} and sum(hist.values()) == shots
        assert peak < bound


def test_sample_shots_matches_naive_sampler_across_blocks():
    # five levels: three split, a read certain after the cnot, and a re-read
    c = cq.Circuit(3, [
        cq.h(0), cq.Measure(0, 0), cq.cnot(0, 1), cq.Measure(1, 1), cq.h_theta(2, 0.3),
        cq.Measure(2, 2), cq.Measure(2, 3), cq.h(1), cq.Measure(1, 4)])
    init = np.eye(8)[0].astype(complex)
    branches = [(b.record, b.probability) for b in cq.enumerate_branches(c, init)]
    block = cq._SHOT_BLOCK
    for shots in (block - 1, block, block + 1, 2 * block + 5):
        assert cq.sample_shots(c, init, shots, seed=9) == helpers.sample_shots_naive(branches, shots, 9)


def test_raw_draw_conversion_is_generator_random():
    assert np.array_equal(np.random.Generator(cq._philox(7, 0)).random((300, 7)),
                          cq._uniform(cq._philox(7, 0).random_raw((300, 7))))


def test_one_branch_readout_draws_nothing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a readout with one branch built a generator")

    monkeypatch.setattr(cq, "_philox", no_draw)
    # every read is certain: qubit 0 stays 0, qubit 1 is flipped and read twice
    c = cq.Circuit(2, [cq.x(1), cq.Measure(0, 0), cq.Measure(1, 1), cq.Measure(1, 2)])
    assert cq.sample_shots(c, np.eye(4)[0].astype(complex), cq.MAX_SHOTS) == {"011": cq.MAX_SHOTS}
    # b2 is an eigenvector read in X: the register and the herald are certain
    assert analysis.sampled_success("generic", "b2", 10**5) == analysis.SampledSuccess(1.0, 10**5, 10**5)


def shares():
    """Shares in [0, 1]: at, and one ulp either side of, a multiple of 2**-53; edge values; any."""
    on_grid = st.integers(0, 2**53).map(lambda j: j * 2.0**-53)
    near_grid = st.tuples(on_grid, st.sampled_from([0.0, 1.0])).map(lambda t: math.nextafter(*t))
    edges = st.sampled_from([0.0, 1.0, 5e-324, 2.0**-1022 / 3, 2.0**-53, 1.0 - 2.0**-53])
    return st.one_of(edges, on_grid, near_grid, st.floats(0.0, 1.0))


@settings(max_examples=500, deadline=None)
@given(shares(), st.lists(st.integers(0, 2**64 - 1), max_size=20), st.integers(-2, 2),
       st.integers(0, 2**11 - 1))
def test_integer_cut_is_the_uniform_comparison(share, raws, offset, low):
    # one raw whose top 53 bits sit within two of the share's scaled value
    near = min(max(math.floor(share * 2.0**53) + offset, 0), 2**53 - 1)
    raw = np.array(raws + [(near << 11) | low], dtype=np.uint64)
    cut = cq._cut(np.array([share]))
    assert np.array_equal((raw >> 11) < cut[0], cq._uniform(raw) < share)


def test_chain_of_unlikely_outcomes_keeps_its_branch():
    # each read gives 0 with probability 1e-6, and a 0 is rotated the same way again
    t = 1e-6
    r = cq.unitary(np.array([[math.sqrt(t), -math.sqrt(1 - t)], [math.sqrt(1 - t), math.sqrt(t)]]), [0])
    c = cq.Circuit(1, [r, cq.Measure(0, 0)] + [cq.ConditionalGate(r, 0, 0), cq.Measure(0, 0)] * 2)
    probs = {b.record: b.probability for b in cq.enumerate_branches(c, np.array([1.0, 0.0]))}
    want = {"000": t**3, "001": t * t * (1 - t), "011": t * (1 - t), "111": 1 - t}
    assert probs.keys() == want.keys()
    assert all(math.isclose(probs[k], p, rel_tol=1e-9) for k, p in want.items())


def test_sample_shots_record_length_cap():
    init = np.array([1.0, 0.0])
    longest = cq.Circuit(1, [cq.h(0)] + [cq.Measure(0, 0)] * cq.MAX_RECORD_BITS)
    hist = cq.sample_shots(longest, init, 100, seed=0)
    assert set(hist) == {"0" * 62, "1" * 62}
    with pytest.raises(BadFlag):
        cq.sample_shots(cq.Circuit(1, longest.ops + (cq.Measure(0, 0),)), init, 100)


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_json_round_trip_property(c):
    back = cq.Circuit.from_json(c.to_json())
    assert back == c
    if all(isinstance(op, cq.Gate) for op in c.ops):
        assert np.array_equal(back.unitary_matrix(), c.unitary_matrix())


@pytest.mark.filterwarnings("error")
def test_measuring_a_zero_or_non_finite_state_raises():
    c = cq.Circuit(1, [cq.h(0), cq.Measure(0, 0)])
    for bad in (np.zeros(2), np.array([math.nan, 0.0])):
        with pytest.raises(ZeroProbability):
            cq.sample_shots(c, bad, 10)
        with pytest.raises(ZeroProbability):
            cq.run(c, bad)
        with pytest.raises(ZeroProbability):
            cq.enumerate_branches(c, bad)
    # a nonzero input whose every branch is pruned leaves nothing to sample
    tiny = np.array([1e-20, 0.0])
    assert cq.enumerate_branches(c, tiny) == []
    with pytest.raises(ZeroProbability):
        cq.sample_shots(c, tiny, 10)


def test_stock_gates_come_from_one_table():
    for name in cq._STOCK:
        with pytest.raises(BadIndex, match="reserved"):
            cq.unitary(np.eye(2), [0], name=name)
    # every stock gate is rebuilt from its name, targets and angles alone
    c = cq.Circuit(2, [cq.x(0), cq.y(1), cq.z(0), cq.h(1), cq.swap(0, 1),
                        cq.phase(0, 0.3), cq.h_theta(1, 0.2)])
    assert {op.name for op in c.ops} == set(cq._STOCK)
    d = c.to_json_dict()
    assert all("matrix" not in op for op in d["ops"])
    assert cq.Circuit.from_json_dict(d) == c


@pytest.mark.parametrize("entry", [True, None, "1", [1.0], [1.0, 0.0, 0.0], [False, 0.0]])
def test_from_json_rejects_a_malformed_matrix_entry(entry):
    d = cq.Circuit(1, [cq.unitary(np.eye(2), [0])]).to_json_dict()
    d["ops"][0]["matrix"][0][0] = entry
    with pytest.raises(DimensionMismatch):
        cq.Circuit.from_json_dict(d)


def test_complex_json_codec_round_trips_bit_for_bit():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m[0, 0] = complex(-0.0, 0.0)
    back = cq.complex_from_json(json.loads(json.dumps(cq.complex_to_json(m))), 2)
    assert back.tobytes() == m.tobytes()
    assert cq.complex_to_json(1 - 2j) == [1.0, -2.0]
    assert cq.complex_from_json([1, [0.5, -2]], 1).tolist() == [1 + 0j, 0.5 - 2j]


def unchecked(self, g):
    raise AssertionError(f"op {g!r} validated again")


def test_derived_circuits_reuse_validated_ops(monkeypatch):
    rng = np.random.default_rng(11)
    c = cq.Circuit(3, [
        cq.h(0), cq.cnot(0, 1), cq.swap(0, 2), cq.controlled(cq.phase(2, 0.9), 0),
        cq.unitary(helpers.random_unitary(rng, 4), [2, 1]),
    ])
    m = cq.Circuit(3, [cq.Measure(0, 0), cq.ConditionalGate(cq.x(1), 0)])
    want_inverse = cq.Circuit(3, [g.dagger() for g in reversed(c.ops)])
    monkeypatch.setattr(cq.Circuit, "_check_gate", unchecked)
    both = c.then(m).then(c)
    assert len(both.ops) == 2 * len(c.ops) + len(m.ops)
    assert all(a is b for a, b in zip(both.ops, c.ops + m.ops + c.ops))
    inv = c.inverse()
    assert inv == want_inverse
    # a gate that is its own inverse comes back as the same object
    assert [op is g for op, g in zip(inv.ops, reversed(c.ops))] == [False, False, True, True, True]
    assert both.then(cq.Circuit(3)).ops == both.ops
    with pytest.raises(DimensionMismatch):
        c.then(cq.Circuit(2))
    with pytest.raises(BadIndex):
        m.inverse()
    with pytest.raises(BadIndex):
        c.then(m).inverse()


def test_readout_validates_only_the_ops_it_adds(monkeypatch):
    cfg = c2.CompiledConfig(feedforward="semiclassical")
    circ, init = c2.build_compiled_circuit(cfg), c2.initial_state(cfg)
    checked = []
    check = cq.Circuit._check_gate
    monkeypatch.setattr(cq.Circuit, "_check_gate", lambda self, g: (checked.append(g), check(self, g))[1])
    tail, state = analysis._readout(circ, init)
    assert checked == []
    assert any(isinstance(op, cq.ConditionalGate) for op in tail.ops)
    frame = analysis._basis_ops("y", c2.INPUT)
    counts = analysis._sample_wires(tail, state, frame, [c2.INPUT], 100, 0)
    assert [id(g) for g in checked] == [id(g) for g in frame]
    assert sum(counts.values()) == 100


@pytest.mark.parametrize("ctrls", [(), (2,), (3, 2)])
def test_derived_gates_match_dataclasses_replace(ctrls):
    rng = np.random.default_rng(12)
    bases = [
        cq.x(0), cq.y(1), cq.z(0), cq.h(1), cq.swap(0, 1), cq.phase(0, 0.3), cq.h_theta(1, 0.2),
        cq.controlled(cq.phase(1, -1.3), 4), cq.unitary(helpers.random_unitary(rng, 4), [1, 0]),
        cq.controlled(cq.unitary(helpers.random_unitary(rng, 2), [0], name="u1"), 5),
    ]
    assert {g.name for g in bases} >= set(cq._STOCK)
    for g in bases:
        got = cq.controlled(g, *ctrls)
        want = dataclasses.replace(g, controls=g.controls + ctrls)
        assert got == want and pickle.dumps(got) == pickle.dumps(want)
        if got.name == "phase":
            phi = dict(got.params)["phi"]
            want_dagger = dataclasses.replace(cq.phase(got.targets[0], -phi), controls=got.controls)
        elif got.name in cq._STOCK:
            want_dagger = got
        else:
            want_dagger = dataclasses.replace(got, matrix=got.matrix.conj().T)
        assert got.dagger() == want_dagger
        assert pickle.dumps(got.dagger()) == pickle.dumps(want_dagger)
    with pytest.raises(BadIndex):
        cq.controlled(cq.x(0), 0)
    with pytest.raises(BadIndex):
        cq.controlled(cq.controlled(cq.h(0), 1), 1)
    with pytest.raises(BadIndex):
        cq.controlled(cq.x(0), -1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("op", [
    {"gate": "x", "targets": [0, 1]},
    {"gate": "swap", "targets": [0]},
    {"gate": "h"},
    {"gate": "phase", "targets": [0]},
    {"gate": "h_theta", "targets": [1], "phi": 0.2},
    {"gate": "conditional", "slot": 0, "inner": {"gate": "z", "targets": []}},
])
def test_from_json_rejects_a_malformed_stock_op(op):
    kind = (op.get("inner") or op)["gate"]
    with pytest.raises(BadIndex, match=f"gate '{kind}'"):
        cq.Circuit.from_json_dict({"qubits": 2, "ops": [{"gate": "measure", "targets": [0], "slot": 0}, op]})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
def test_a_non_finite_input_is_refused_before_any_gate(bad, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a gate ran on a non-finite input")

    monkeypatch.setattr(cq, "_apply", unreachable)
    psi = np.array([bad, 0.0])
    for c in (cq.Circuit(1, [cq.h(0), cq.Measure(0, 0)]), cq.Circuit(1, [cq.h(0)])):
        for call in (
            lambda: cq.run(c, psi),
            lambda: cq.run(c, psi, noise=cq.NoiseSpec(0.1)),
            lambda: cq.run(c, np.diag(psi)),
            lambda: cq.enumerate_branches(c, psi),
            lambda: cq.sample_shots(c, psi, 10),
        ):
            with pytest.raises(ZeroProbability, match="non-finite"):
                call()

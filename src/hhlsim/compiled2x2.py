"""Hand-optimized four-qubit circuit for the 2x2 system with spectrum {1, 2}.

The system matrix [[1.5, 0.5], [0.5, 1.5]] has eigenvectors u+ = (1,1)/sqrt2
at eigenvalue 2 and u- = (1,-1)/sqrt2 at eigenvalue 1. With two register
qubits and t0 = 2*pi, eigenvalue 1 maps to register |R1 R2> = |01> and
eigenvalue 2 to |10> (value = 2*R1 + R2). On this two-point spectrum the
reciprocal 1/lambda is the swap R1 <-> R2, since 2/1 = 2 and 2/2 = 1.

Circuit layout, fixed wires ANCILLA = 0, R2 = 1, R1 = 2, INPUT = 3:

  stage 1, phase estimation. The textbook form ends with a swap that
  cancels against the reciprocal swap, so both are elided and the
  register comes out holding 2/lambda directly:

      H(in), CNOT(in->R1), CNOT(in->R2), X(R2), H(in)

  two entangling gates plus three single-qubit gates. After stage 1 an
  input alpha*u+ + beta*u- sits at alpha*u+|01> + beta*u-|10>.

  stage 2, eigenvalue-conditioned rotation. The branch holding
  eigenvalue 1 (register |10>, R1 hot) gets the larger rotation:

      H_theta(pi/8) on ancilla controlled by R1   -> sin(pi/4) on |1>
      H_theta(pi/16) on ancilla controlled by R2  -> sin(pi/8) on |1>

  The amplitude ratio sin(pi/4)/sin(pi/8) = 1.8478 approximates the
  ideal reciprocal ratio 2, which is why the preset b3 solves to
  fidelity 0.9990 rather than 1.

  stage 3, inverse phase estimation, two realizations.
  "unitary": H(R1), H(R2) and post-select both registers on |0>, no
  entangling gates, so the whole circuit holds exactly four (2 CNOT +
  2 controlled H_theta). "semiclassical": H(R1), H(R2), measure both
  registers, and flip the input (X) once per |1> outcome; the two
  conditional flips compose to the parity correction, every record
  yields the same post-selected output, and no branch is discarded.

Intermediate-state inspection models the rotation stage through its
entanglement-based realization: an ancilla-register entangler
CNOT(R1->ancilla) followed by branch corrections (H_theta(pi/8)X from
R1, H_theta(pi/16) from R2) that are local per branch and equal the two
controlled rotations on every reachable register value. "after_rotation"
returns the state at the entangler output, where the four qubits are
maximally correlated: for the preset b3, which weights both eigenbranches
equally, this is a GHZ-class state, carried into canonical form
(|0000> + |1111>)/sqrt2 by the local frame H on the input and X on R2
(``analysis.COMPILED_GHZ_FRAME``).

An input is a preset name (INPUT_PRESETS) or a vector, turned into b by
:func:`resolve_input` here and in ``analysis``; a vector obeys the rule
of the generic pipeline, :func:`hhl.check_unit_vector`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit as qc
from .errors import BadFlag
from .hhl import HhlResult, _heralded, check_unit_vector

SYSTEM_MATRIX = np.array([[1.5, 0.5], [0.5, 1.5]], dtype=complex)

_S2 = math.sqrt(2.0)
INPUT_PRESETS = {
    "b1": np.array([1.0, 1.0], dtype=complex) / _S2,
    "b2": np.array([1.0, -1.0], dtype=complex) / _S2,
    "b3": np.array([1.0, 0.0], dtype=complex),
}

THETA_BIG = math.pi / 8
THETA_SMALL = math.pi / 16

# eigenvectors by branch: u_plus at eigenvalue 2, u_minus at eigenvalue 1
U_PLUS = np.array([1.0, 1.0], dtype=complex) / _S2
U_MINUS = np.array([1.0, -1.0], dtype=complex) / _S2


# the circuit's wires; register value = 2*R1 + R2
ANCILLA, R2, R1, INPUT = 0, 1, 2, 3

# realizations of the inverse estimation, stage 3 of the module docstring
FEEDFORWARD_MODES = ("unitary", "semiclassical")


def resolve_input(name_or_vec) -> tuple[str, np.ndarray]:
    """A preset's name and a copy of its vector, or "custom" and the given vector as complex."""
    if isinstance(name_or_vec, str):
        try:
            return name_or_vec, INPUT_PRESETS[name_or_vec].copy()
        except KeyError:
            raise BadFlag(f"unknown input preset {name_or_vec!r}") from None
    return "custom", np.asarray(name_or_vec, dtype=complex)


@dataclass(frozen=True)
class CompiledConfig:
    """Input choice, inverse-estimation realization and rotation angles.

    A custom input is checked once, here, by :func:`hhl.check_unit_vector`.
    """

    input_b: str | np.ndarray = "b3"
    feedforward: str = "unitary"
    theta_big: float = THETA_BIG
    theta_small: float = THETA_SMALL

    def __post_init__(self):
        if self.feedforward not in FEEDFORWARD_MODES:
            raise BadFlag(f"unknown feedforward mode {self.feedforward!r}")
        check_unit_vector(input_vector(self), 2)


def input_vector(cfg: CompiledConfig) -> np.ndarray:
    """The configured input as a complex 2-vector, checked when ``cfg`` was made."""
    return resolve_input(cfg.input_b)[1]


def input_from_angle(angle: float) -> np.ndarray:
    """Linear-polarization input (cos a, sin a)."""
    return np.array([math.cos(angle), math.sin(angle)], dtype=complex)


def initial_state(cfg: CompiledConfig) -> np.ndarray:
    """Input vector on the input wire, |0> elsewhere."""
    b = input_vector(cfg)
    vec = np.zeros(16, dtype=complex)
    for j, amp in enumerate(b):
        vec[j << INPUT] = amp
    return vec


def _phase_estimation_ops() -> list:
    return [qc.h(INPUT), qc.cnot(INPUT, R1), qc.cnot(INPUT, R2), qc.x(R2), qc.h(INPUT)]


def _rotation_ops(cfg: CompiledConfig) -> list:
    return [
        qc.controlled(qc.h_theta(ANCILLA, cfg.theta_big), R1),
        qc.controlled(qc.h_theta(ANCILLA, cfg.theta_small), R2),
    ]


def _readout_ops(cfg: CompiledConfig) -> list:
    ops: list = [qc.h(R1), qc.h(R2)]
    if cfg.feedforward == "semiclassical":
        ops += [
            qc.Measure(R1, 0),
            qc.Measure(R2, 1),
            qc.ConditionalGate(qc.x(INPUT), 0, 1),
            qc.ConditionalGate(qc.x(INPUT), 1, 1),
        ]
    return ops


def build_compiled_circuit(cfg: CompiledConfig) -> qc.Circuit:
    """The full four-qubit circuit for the configured feedforward mode.

    Entangling census is exactly 2 CNOTs plus 2 controlled H_theta in
    either mode; the semiclassical readout adds only measurements and
    classically conditioned single-qubit flips.
    """
    return qc.Circuit(4, _phase_estimation_ops() + _rotation_ops(cfg) + _readout_ops(cfg))


def heralds(cfg: CompiledConfig) -> list[tuple[int, int]]:
    """(wire, outcome) pairs a run is kept on, in post-selection order.

    The unitary readout keeps the registers on |0> and then the ancilla
    on |1>; the semiclassical one keeps the ancilla alone, since its
    conditional flips make every register record equivalent.
    """
    regs = [(R1, 0), (R2, 0)] if cfg.feedforward == "unitary" else []
    return regs + [(ANCILLA, 1)]


def run_compiled(cfg: CompiledConfig, seed: int = 0) -> HhlResult:
    """Execute the compiled circuit and post-select on :func:`heralds`.

    The output wire is read with every other wire fixed: the ancilla on
    |1>, the registers on |0> after the unitary readout and on their
    recorded outcomes after the semiclassical one. The reported success
    probability is the ancilla branch probability, post-selected last,
    which in both modes equals sum_j |beta_j|^2 sin^2(2 theta_j).
    """
    # the coherent uncompute is exact on this circuit; use it to certify
    # that the inverse estimation disentangles the register
    pe = _phase_estimation_ops()
    probe = qc.Circuit(4, pe + _rotation_ops(cfg)).then(qc.Circuit(4, pe).inverse())
    reset_ok = 1.0 - qc._weight(qc.run(probe, initial_state(cfg)).state, {R1: 0, R2: 0}) < 1e-10

    circ = build_compiled_circuit(cfg)
    out = qc.run(circ, initial_state(cfg), seed=seed)
    fixed = {R1: out.classical_bits.get(0, 0), R2: out.classical_bits.get(1, 0), ANCILLA: 1}
    return _heralded(out.state, heralds(cfg), fixed, SYSTEM_MATRIX, input_vector(cfg), (circ,),
                     lambda kept: reset_ok)


def intermediate_state(cfg: CompiledConfig, stage: str) -> np.ndarray:
    """Full statevector at a named stage, for inspection.

    ``after_phase_estimation``: after stage 1, with the cancelled swap
    pair already elided (the register holds the reciprocal encoding).
    ``after_rotation``: at the entangler output of the rotation stage's
    entanglement-based realization, the point of maximal four-qubit
    correlation (see the module docstring); the branch corrections that
    complete the two controlled rotations are still pending there.
    """
    ops = _phase_estimation_ops()
    if stage == "after_rotation":
        ops.append(qc.cnot(R1, ANCILLA))
    elif stage != "after_phase_estimation":
        raise BadFlag(f"unknown stage {stage!r}")
    return qc.run(qc.Circuit(4, ops), initial_state(cfg)).state


def reciprocal_swap_check() -> bool:
    """Verify that swapping R1 and R2 realizes 1/lambda on the spectrum {1, 2}.

    Register value 2*R1 + R2 maps |01> <-> |10>, i.e. value k to 2/k,
    and 2/k equals C/lambda in units C = 2 on this spectrum.
    """
    swap = qc.Circuit(4, [qc.swap(R1, R2)])
    for k in (1, 2):
        col = np.zeros(16)
        col[_register_basis_index(k)] = 1.0
        got = qc.run(swap, col).state
        if abs(got[_register_basis_index(2 // k)] - 1.0) > 1e-12 or abs(np.linalg.norm(got) - 1.0) > 1e-12:
            return False
    return True


def _register_basis_index(value: int) -> int:
    """Basis index of the register holding ``value``, every other wire at |0>."""
    return ((value >> 1) & 1) << R1 | (value & 1) << R2


"""Generic quantum linear-system pipeline.

Solves A x = b for Hermitian positive-definite A by phase estimation,
an eigenvalue-conditioned ancilla rotation and the inverse phase
estimation. Runs are kept on :func:`heralds`, the register on all-zeros
and the ancilla on |1>; the output state is then proportional to
sum_j beta_j * (C / lambda_j) |u_j>, the normalized classical solution.

Qubit layout on 1 + n + m qubits (m = log2 of the system dimension):

  qubit 0                ancilla rotated toward |1> with amplitude C/lambda
  qubits 1 .. n          eigenvalue register, qubit 1+i carries bit i
  qubits n+1 .. n+m      solution register holding |b> then |x>

The evolution time t0 defaults to 2*pi so an eigenvalue lambda lands on
register integer k = lambda * t0 / (2*pi) = lambda. Spectra whose
eigenvalues all map to integers in [1, 2**n - 1] are called exact;
other spectra still run, with register spreading and the reported
fidelity honestly degraded.

A solve calls :func:`validate`, the one reader of the spectrum, once;
its :class:`ValidationInfo` gives the phase-estimation powers, the
rotation amplitudes and the closed form, and each stage is built once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit as qc
from .errors import DimensionMismatch, InvalidC, NotNormalized, NotPositiveDefinite, Singular, ZeroProbability
from .qstate import EigenDecomposition, eigh, num_qubits, state_fidelity

TWO_PI = 2.0 * math.pi

# eigenvector weight below which a register value counts as unpopulated
POPULATED_ATOL = 1e-12

# widest state a solve may hold: 1 + n + m qubits, 2**20 amplitudes or
# 16 MiB, so a wide matrix counts as much as a wide register
MAX_STATE_QUBITS = 20


@dataclass(frozen=True)
class HhlProblem:
    """Problem statement: Hermitian matrix, unit vector, register width.

    ``c_const`` is the rotation constant C; amplitude validity needs
    C <= lambda_min over the populated spectrum. When omitted it
    defaults to the smallest populated eigenvalue in register units,
    which maximizes the success probability. For inexact spectra the
    default falls back to 2*pi/t0, the smallest eigenvalue the register
    can represent, keeping every branch amplitude valid.
    """

    a: np.ndarray
    b: np.ndarray
    n_register: int
    t0: float = TWO_PI
    c_const: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=complex))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=complex))
        if self.n_register < 1:
            raise DimensionMismatch(f"need at least one register qubit, got {self.n_register}")
        # a matrix whose side is no power of two, which the solve refuses,
        # counts as wide as the power of two above it
        side = self.a.shape[0] if self.a.ndim == 2 and self.a.shape[0] > 0 else 1
        width = 1 + self.n_register + (side - 1).bit_length()
        if width > MAX_STATE_QUBITS:
            raise DimensionMismatch(
                f"{self.n_register} register qubits make a {width}-qubit state; at most "
                f"{MAX_STATE_QUBITS} qubits (2**{MAX_STATE_QUBITS} amplitudes) are supported"
            )
        if not 0 < self.t0 < math.inf:
            raise DimensionMismatch(f"t0 must be positive and finite, got {self.t0}")
        if self.c_const is not None and not 0 < self.c_const < math.inf:
            raise InvalidC(f"C must be positive and finite, got {self.c_const}")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def m_qubits(self) -> int:
        return num_qubits(self.dim)

    @property
    def qubits(self) -> int:
        return 1 + self.n_register + self.m_qubits

    def input_qubits(self) -> tuple[int, ...]:
        return tuple(range(1 + self.n_register, self.qubits))

    def register_qubits(self) -> tuple[int, ...]:
        return tuple(range(1, 1 + self.n_register))


@dataclass(frozen=True)
class ValidationInfo:
    """All the pipeline reads from the spectrum, worked out once by :func:`validate`.

    ``kappa`` is the condition number; ``exact`` says every eigenvalue
    lands on a register value in [1, 2**n - 1]. ``betas`` are b's weights
    on the eigenvector columns of ``spectrum``, ``phases`` the register
    positions lambda * t0 / (2*pi). ``populated`` lists, ascending, the
    register values b populates: the positions with |beta| above
    POPULATED_ATOL when exact, else every nonzero value, as phase
    estimation then spreads over the whole register. ``c`` is the
    rotation constant: the problem's own, or the smallest populated value
    in eigenvalue units, which maximizes the success probability and,
    when inexact, keeps every branch amplitude valid.
    """

    kappa: float
    exact: bool
    spectrum: EigenDecomposition
    betas: np.ndarray
    phases: np.ndarray
    populated: list[int] | range
    c: float


@dataclass(frozen=True)
class HhlResult:
    """A solve by :func:`run_hhl` or ``compiled2x2.run_compiled``, read by :func:`_heralded`.

    ``x_state``: the normalized solution; ``fidelity_vs_classical``: its overlap with
    :func:`classical_solve`. ``success_probability``: the ancilla's |1> weight, the
    marginal for ``run_hhl`` and conditioned on the register cut for ``run_compiled``.
    ``register_reset_ok``: the uncompute left the register on all-zeros. ``gate_count``:
    the census of the circuits run, plus "entangling". ``pre_cut_state``: the whole
    state just before the herald cut (after the semiclassical readout's measurements).
    """

    x_state: np.ndarray
    success_probability: float
    fidelity_vs_classical: float
    register_reset_ok: bool
    gate_count: dict[str, int]
    pre_cut_state: np.ndarray


def _scaled(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``v`` times the power of two that brings its largest part into [0.5, 1), and that power.

    A norm of the result neither overflows nor underflows. The scaling
    is exact, so wherever ``np.linalg.norm(v)`` neither overflows nor
    underflows, the norm of the result divided by the power equals it
    bit for bit, and so does the unit vector.
    """
    peak = float(max(np.max(np.abs(v.real)), np.max(np.abs(v.imag))))
    # capped so that the power stays finite for a subnormal peak
    scale = 2.0 ** min(-math.frexp(peak)[1], 1000)
    # real and imaginary parts apart: a complex product would flip signed zeros
    out = np.empty_like(v)
    out.real, out.imag = v.real * scale, v.imag * scale
    return out, scale


def _condition_number(sing: np.ndarray) -> float:
    """Largest over smallest singular value; raises Singular when the
    smallest is below 1e-10 times the larger of 1 and the largest."""
    lo, hi = float(sing.min()), float(sing.max())
    # Python floats: a ratio past the float range reads inf without a numpy warning
    kappa = hi / lo if lo > 0.0 else math.inf
    if lo < 1e-10 * max(1.0, hi):
        raise Singular(f"matrix is singular within tolerance: condition number {kappa:g}")
    return kappa


def check_unit_vector(b: np.ndarray, dim: int) -> None:
    """Raise unless ``b`` has ``dim`` finite entries and a :func:`_scaled` norm of 1 within 1e-12."""
    if b.shape != (dim,):
        raise DimensionMismatch(f"vector shape {b.shape} does not match matrix {(dim, dim)}")
    if not np.all(np.isfinite(b)):
        raise NotNormalized("vector has a non-finite entry")
    unit, scale = _scaled(b)
    norm = float(np.linalg.norm(unit)) / scale
    if abs(norm - 1.0) > 1e-12:
        raise NotNormalized(f"|b| = {norm!r} is not 1")


def validate(p: HhlProblem) -> ValidationInfo:
    """Check the problem statement and read its spectrum once; see :class:`ValidationInfo`."""
    spectrum = eigh(p.a)
    check_unit_vector(p.b, p.dim)
    kappa = _condition_number(np.abs(spectrum.eigenvalues))
    lam_min = float(spectrum.eigenvalues.min())
    if lam_min < 0:
        # the register holds unsigned values: a negative eigenvalue would
        # wrap around to a large positive one
        raise NotPositiveDefinite(f"matrix has negative eigenvalue {lam_min!r}")
    top = (1 << p.n_register) - 1
    exact = True
    phases = []
    for lam in spectrum.eigenvalues:
        # Python float arithmetic overflows to inf without a numpy warning
        k = float(lam) * p.t0 / TWO_PI
        if not math.isfinite(k):
            raise DimensionMismatch(f"eigenvalue {float(lam)!r} at t0 = {p.t0!r} overflows the register")
        if abs(k - round(k)) > 1e-9 or not 1 <= round(k) <= top:
            exact = False
        phases.append(k)
    betas = spectrum.eigenvectors.conj().T @ p.b
    if exact:
        populated = sorted({round(k) for k, beta in zip(phases, betas) if abs(beta) > POPULATED_ATOL})
    else:
        populated = range(1, top + 1)
    c = float(p.c_const) if p.c_const is not None else min(populated) * (TWO_PI / p.t0)
    return ValidationInfo(kappa, exact, spectrum, betas, np.array(phases), populated, c)


def phase_estimation_circuit(p: HhlProblem, info: ValidationInfo) -> qc.Circuit:
    """Hadamards, controlled exp(i*A*t0*2**i/T) powers, then the inverse QFT.

    The powers come from the eigendecomposition in ``info``, the result
    of :func:`validate` on ``p``. Acts on the register and solution
    qubits; the ancilla stays idle so stage circuits compose on the full
    layout.
    """
    n = p.n_register
    big_t = 1 << n
    ops: list = [qc.h(1 + i) for i in range(n)]
    for i in range(n):
        u = info.spectrum.exp_i(p.t0 * (1 << i) / big_t)
        ops.append(qc.controlled(qc.unitary(u, p.input_qubits()), 1 + i))
    iqft = qc.Circuit(p.qubits, qc._inverse_qft_ops(p.register_qubits()))
    return qc.Circuit(p.qubits, ops).then(iqft)


def _rotation_amplitudes(p: HhlProblem, info: ValidationInfo) -> tuple[np.ndarray, np.ndarray]:
    """The register values rotated, ascending, and the ancilla amplitude s(k) on |1> of each.

    Register value k stands for eigenvalue k * 2*pi / t0, so s(k) is
    C * t0 / (2*pi * k), the C/lambda of that eigenvalue, capped at one
    where it exceeds one by rounding alone. Values whose
    amplitude would exceed one are skipped when they carry no weight and
    rejected otherwise, the first such populated value reported. Value
    zero never carries weight for an invertible matrix with an exact
    spectrum and is not rotated. A value missing from the result keeps
    its ancilla on |0>: s(k) = 0.
    """
    values = np.arange(1, 1 << p.n_register, dtype=np.intp)
    # the scalar formula's double operations in its order, so each entry equals it bit for bit
    amps = info.c * p.t0 / (TWO_PI * values)
    over = amps > 1.0 + 1e-12
    for k, amp in zip(values[over].tolist(), amps[over].tolist()):
        if k in info.populated:
            raise InvalidC(f"C = {info.c} needs amplitude {amp} on populated register value {k}")
    return values[~over], np.minimum(amps[~over], 1.0)


def reciprocal_rotation_circuit(p: HhlProblem, info: ValidationInfo) -> qc.Circuit:
    """Register-value-conditioned ancilla rotations toward |1>, as one multiplexor.

    Register value k gets the reflection by theta(k) = arcsin(s(k)) / 2,
    which puts amplitude s(k) = C/lambda on the ancilla's |1>, for each
    value :func:`_rotation_amplitudes` rotates; the others keep the
    identity. Its expansion is the textbook circuit: per value, an
    h_theta controlled by every register wire, inside X flips of the
    wires whose bit of k is 0. ``info`` is the result of :func:`validate`
    on ``p``.

    The reflections go straight into the multiplexor's matrix stack, from
    the scalar ``math`` calls :func:`qc.h_theta` makes, so each equals
    that gate's matrix bit for bit and no gate is built.
    """
    values, amps = _rotation_amplitudes(p, info)
    thetas = [0.5 * math.asin(amp) for amp in amps.tolist()]
    cos = np.fromiter((math.cos(2 * theta) for theta in thetas), float, len(thetas))
    sin = np.fromiter((math.sin(2 * theta) for theta in thetas), float, len(thetas))
    stack = np.zeros((len(thetas), 2, 2), dtype=complex)
    re = stack.real
    re[:, 0, 0], re[:, 0, 1], re[:, 1, 0], re[:, 1, 1] = cos, sin, sin, -cos
    mux = qc.Multiplexor(0, p.register_qubits(), values, stack, ("h_theta",) * len(thetas), np.array(thetas))
    return qc.Circuit(p.qubits, [mux])


def classical_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized solution of a*x = b by direct inversion."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    _condition_number(np.linalg.svd(a, compute_uv=False))
    x, _ = _scaled(np.linalg.solve(a, b))
    norm = float(np.linalg.norm(x))
    if not 0 < norm < math.inf:
        raise NotNormalized(f"the solution cannot be normalized: its norm is {norm!r}")
    return x / norm


def _fejer(d: np.ndarray, big_t: int) -> np.ndarray:
    """Phase-estimation weight |(1/T) sum_t exp(2 pi i t d / T)|^2 at offsets ``d``.

    Periodic in d with period T, so ``d`` is first reduced to [-T/2, T/2];
    then sin(pi d / T) vanishes only at d = 0, where the weight is 1.
    """
    d = d - big_t * np.round(d / big_t)
    den = big_t * np.sin(np.pi * d / big_t)
    safe = np.where(d == 0.0, 1.0, den)
    return np.where(d == 0.0, 1.0, (np.sin(np.pi * d) / safe) ** 2)


def success_probability(p: HhlProblem) -> float:
    """Analytic heralding probability, the ancilla marginal of :func:`run_hhl`.

    With phi_j = lambda_j * t0 / (2*pi), phase estimation puts weight
    F(phi_j - k) on register value k, F the Fejer kernel of T = 2**n
    values, and the rotation leaves amplitude s(k) on |1>, so the
    probability is sum_j |beta_j|^2 sum_k F(phi_j - k) s(k)^2. On an
    exact spectrum F picks k = phi_j alone and this is
    sum_j |beta_j|^2 C^2 / lambda_j^2.
    """
    info = validate(p)
    big_t = 1 << p.n_register
    values, rotated = _rotation_amplitudes(p, info)
    amps = np.zeros(big_t)
    amps[values] = rotated
    weights = _fejer(info.phases[:, None] - np.arange(big_t), big_t)
    return float(np.sum(np.abs(info.betas) ** 2 * (weights @ amps**2)))


def initial_state(p: HhlProblem) -> np.ndarray:
    """|b> on the solution qubits, zeros on register and ancilla."""
    vec = np.zeros(1 << p.qubits, dtype=complex)
    shift = 1 + p.n_register
    for j, amp in enumerate(p.b):
        vec[j << shift] = amp
    return vec


def heralds(p: HhlProblem) -> list[tuple[int, int]]:
    """(wire, outcome) pairs a run is kept on: each register qubit on |0>,
    then the ancilla on |1>, the order of :func:`compiled2x2.heralds`."""
    return [(q, 0) for q in p.register_qubits()] + [(0, 1)]


def _stages(p: HhlProblem, info: ValidationInfo) -> tuple[qc.Circuit, qc.Circuit, qc.Circuit]:
    """Phase estimation, reciprocal rotation and uncompute, each built once."""
    pe = phase_estimation_circuit(p, info)
    return pe, reciprocal_rotation_circuit(p, info), pe.inverse()


def _heralded(state: np.ndarray, cut, fixed, a, b, circuits, reset_ok) -> HhlResult:
    """The one readout of both solvers: post-select ``state`` on the (wire, outcome)
    pairs of ``cut`` in order, the last giving the success probability, and read x
    with each wire of ``fixed`` at its bit. The fidelity is taken against the
    solution of a x = b, ``reset_ok(kept state)`` is the register verdict, and the
    census sums those of ``circuits``."""
    kept = state
    for wire, outcome in cut:
        kept, p_success = qc.post_select(kept, wire, outcome)
    x = qc._bit_view(kept, fixed).reshape(-1)
    norm = np.linalg.norm(x)
    if norm < 1e-14:
        raise ZeroProbability("the heralded solution has vanishing norm")
    x = x / norm

    # the censuses concatenated, in first-seen key order
    census: dict[str, int] = {}
    for circ in circuits:
        for key, count in circ.gate_census().items():
            census[key] = census.get(key, 0) + count
    census["entangling"] = sum(circ.entangling_count() for circ in circuits)

    fid = state_fidelity(classical_solve(a, b), x)
    return HhlResult(x, p_success, fid, reset_ok(kept), census, state)


def run_hhl(p: HhlProblem) -> HhlResult:
    """Execute the full pipeline and post-select the ancilla on |1>.

    The reported success probability is the ancilla marginal. The
    solution is read with every wire of :func:`heralds` fixed, so the
    register is also conditioned on all-zeros, which is the identity
    on exact spectra and an honest projection otherwise.
    """
    info = validate(p)
    pe, rot, inv = _stages(p, info)
    register_zero = dict.fromkeys(p.register_qubits(), 0)

    state = qc.run(pe, initial_state(p)).state
    if info.exact and qc._weight(state, register_zero) > 1e-10:
        # an exact nonsingular spectrum leaves no weight on register value 0,
        # where the reciprocal rotation is undefined
        raise Singular("phase estimation put weight on register value zero")
    state = qc.run(rot, state).state
    state = qc.run(inv, state).state
    return _heralded(state, [(0, 1)], dict(heralds(p)), p.a, p.b, (pe, rot, inv),
                     lambda kept: 1.0 - qc._weight(kept, register_zero) < 1e-10)


def pipeline_circuit(p: HhlProblem) -> qc.Circuit:
    """The three stages concatenated into one measurement-free circuit."""
    pe, rot, inv = _stages(p, validate(p))
    return pe.then(rot).then(inv)


def problem_from_dict(data: dict) -> HhlProblem:
    """Build a problem from its JSON form; see README for the schema."""
    a = qc.complex_from_json(data["matrix"], 2)
    b = qc.complex_from_json(data["vector"], 1)
    return HhlProblem(
        a,
        b,
        int(data.get("register_bits", 2)),
        float(data.get("t0", TWO_PI)),
        None if data.get("c_const") is None else float(data["c_const"]),
    )


def result_to_dict(r: HhlResult) -> dict:
    return {
        "x": qc.complex_to_json(r.x_state),
        "success_probability": float(r.success_probability),
        "fidelity": float(r.fidelity_vs_classical),
        "register_reset_ok": bool(r.register_reset_ok),
        "gate_count": dict(sorted(r.gate_count.items())),
    }


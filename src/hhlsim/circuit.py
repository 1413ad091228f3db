"""Gate set, circuit container and two execution backends.

Qubit 0 is the least significant bit of a basis index, matching
``qstate``. Circuits and gates are treated as immutable: build the op
list first, then wrap it in a :class:`Circuit`, which validates it; a
circuit derived from validated ones reuses their ops unchecked, and a
gate may recur. The stock gates are one table, and complex arrays go to
and from JSON through one codec, :func:`complex_to_json` and
:func:`complex_from_json`.

Two backends share one gate kernel, :func:`_apply`. It views the state
as one axis per qubit and contracts a gate's small matrix into its
target axes, with controls taken as index views, so a k-qubit gate
costs O(2**(n+k)) per statevector and no 2**n x 2**n operator is built.
Every gate application goes through it; the one 2**n x 2**n operator
the package builds is :meth:`Circuit.unitary_matrix`, the kernel applied
to the identity, and only when a caller asks for it.
What the kernel derives from a gate's geometry alone (the array shape,
the axis, the targets and the controls) is worked out once per geometry
by :func:`_plan` and kept in a cache of at most _PLAN_CACHE_SIZE
entries; circuits repeat a few dozen geometries over thousands of gates.
The statevector backend handles pure states; the density-matrix backend
applies the same kernel to the rows and then to the columns, and
additionally applies depolarizing noise after gate applications. At
zero noise they agree to 1e-10, which the self test exercises.

One op walker, :func:`_walk`, executes every circuit on either backend,
with measurements and classically conditioned gates. At a measurement
a policy picks the outcomes to follow: :func:`run` collapses on one
seeded draw, :func:`enumerate_branches` follows both. One projector,
:func:`post_select`, serves vectors and density matrices. Projections
and register readouts in both backends, and in the solvers built on
them, go through one bit view, :func:`_bit_view`, and every branch
weight through :func:`_weight`.

Measurement randomness comes from a counter-based Philox generator
keyed by (seed, shot index), so shot sampling is reproducible and
independent of evaluation order. It is built at the first draw, so a
run without measurements never imports ``numpy.random``, and
:func:`sample_shots` builds none for a readout with one branch, which
every shot reads whatever it draws. Where a level splits, the sampler
compares the top 53 bits of each raw draw with an integer cut,
ceil(share * 2**53), which decides exactly as the uniform ``run`` makes
from the same draw would, without turning a column into floats.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadFlag, BadIndex, DimensionMismatch, NonUnitary, ZeroProbability
from .qstate import density, num_qubits, partial_trace

UNITARY_ATOL = 1e-10
# upper bound on sample_shots' shot count; the draw is taken in blocks
# of _SHOT_BLOCK shots, so it bounds time, not memory
MAX_SHOTS = 10**6
_SHOT_BLOCK = 1 << 13
# upper bound on sample_shots' record length; a record is read as an int64
MAX_RECORD_BITS = 62
# distinct gate geometries (array shape, axis, targets, controls) whose
# contraction plan the kernel keeps; the benchmark's workloads use at
# most about 120 each
_PLAN_CACHE_SIZE = 1024

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary on ``targets``, optionally conditioned on control qubits.

    ``matrix`` acts on the target subspace only; bit i of its index is
    carried by ``targets[i]``. ``params`` keeps the defining angles for
    serialization. Equality is bitwise on the matrix, so a serialization
    round trip compares equal.
    """

    name: str
    matrix: np.ndarray
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[tuple[str, float], ...] = ()

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self.name == other.name
            and self.targets == other.targets
            and self.controls == other.controls
            and self.params == other.params
            and self.matrix.shape == other.matrix.shape
            and bool(np.array_equal(self.matrix, other.matrix))
        )

    def __post_init__(self):
        qubits = self.targets + self.controls
        if len(set(qubits)) != len(qubits):
            raise BadIndex(f"repeated qubit in gate {self.name}: {qubits}")
        if any(q < 0 for q in qubits):
            raise BadIndex(f"negative qubit index in gate {self.name}: {qubits}")
        want = 1 << len(self.targets)
        if self.matrix.shape != (want, want):
            raise DimensionMismatch(
                f"gate {self.name} matrix shape {self.matrix.shape} does not cover "
                f"{len(self.targets)} target(s)"
            )

    @property
    def entangling(self) -> bool:
        """Controlled gates and multi-qubit unitaries other than swap."""
        if self.controls:
            return True
        return len(self.targets) > 1 and self.name != "swap"

    def census_key(self) -> str:
        return "c" * len(self.controls) + self.name

    def dagger(self) -> "Gate":
        if self.name == "phase":
            phi = dict(self.params)["phi"]
            return controlled(phase(self.targets[0], -phi), *self.controls)
        if self.name in _STOCK:
            return self  # every stock gate but phase is its own inverse
        return Gate(self.name, self.matrix.conj().T, self.targets, self.controls, self.params)


@dataclass(frozen=True)
class Measure:
    """Computational-basis measurement of one qubit into a classical slot."""

    qubit: int
    slot: int


@dataclass(frozen=True)
class ConditionalGate:
    """Apply ``gate`` when the classical ``slot`` equals ``outcome``."""

    gate: Gate
    slot: int
    outcome: int = 1


def x(q: int) -> Gate:
    return Gate("x", _X, (q,))


def y(q: int) -> Gate:
    return Gate("y", _Y, (q,))


def z(q: int) -> Gate:
    return Gate("z", _Z, (q,))


def h(q: int) -> Gate:
    return Gate("h", _H, (q,))


def phase(q: int, phi: float) -> Gate:
    m = np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=complex)
    return Gate("phase", m, (q,), params=(("phi", float(phi)),))


def h_theta(q: int, theta: float) -> Gate:
    """Reflection [[cos 2t, sin 2t], [sin 2t, -cos 2t]]; h_theta(q, pi/8) is Hadamard."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    m = np.array([[c, s], [s, -c]], dtype=complex)
    return Gate("h_theta", m, (q,), params=(("theta", float(theta)),))


def swap(a: int, b: int) -> Gate:
    return Gate("swap", _SWAP, (a, b))


def unitary(matrix: np.ndarray, targets, name: str = "unitary") -> Gate:
    """Wrap an explicit unitary acting on ``targets``.

    Stock gate and op kind names are refused: :meth:`Gate.dagger` and the
    JSON form would treat the gate as the stock one and drop its matrix.
    """
    if name in _STOCK or name in ("measure", "conditional"):
        raise BadIndex(f"gate name {name!r} is reserved for a built-in op")
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"unitary must be square, got shape {m.shape}")
    if np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) > UNITARY_ATOL:
        raise NonUnitary(f"matrix is not unitary within {UNITARY_ATOL}")
    return Gate(name, m, tuple(int(t) for t in targets))


def controlled(gate: Gate, *controls: int) -> Gate:
    """Add control qubits to an existing gate."""
    controls = gate.controls + tuple(int(c) for c in controls)
    return Gate(gate.name, gate.matrix, gate.targets, controls, gate.params)


def cnot(control: int, target: int) -> Gate:
    return controlled(x(target), control)


# stock gates by name: constructor, target count and angle names, from which
# they are rebuilt; any other gate serializes its matrix explicitly
_STOCK = {
    "x": (x, 1, ()), "y": (y, 1, ()), "z": (z, 1, ()), "h": (h, 1, ()), "swap": (swap, 2, ()),
    "phase": (phase, 1, ("phi",)), "h_theta": (h_theta, 1, ("theta",)),
}


@dataclass(frozen=True)
class Circuit:
    """Fixed-width op sequence. Ops are gates, measurements or conditionals."""

    qubits: int
    ops: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        written: set[int] = set()
        for op in self.ops:
            if isinstance(op, Gate):
                self._check_gate(op)
            elif isinstance(op, Measure):
                if not 0 <= op.qubit < self.qubits:
                    raise BadIndex(f"measure qubit {op.qubit} out of range")
                written.add(op.slot)
            elif isinstance(op, ConditionalGate):
                self._check_gate(op.gate)
                if op.slot not in written:
                    raise BadIndex(f"classical slot {op.slot} read before written")
            else:
                raise BadIndex(f"unknown op {op!r}")

    @classmethod
    def _of(cls, qubits: int, ops: tuple) -> "Circuit":
        """A circuit of ops that a circuit of this width has validated, not checked again."""
        c = object.__new__(cls)
        c.__dict__.update(qubits=qubits, ops=ops)
        return c

    def _check_gate(self, g: Gate) -> None:
        for q in g.targets + g.controls:
            if not 0 <= q < self.qubits:
                raise BadIndex(f"qubit {q} out of range for {self.qubits}-qubit circuit")

    def then(self, other: "Circuit") -> "Circuit":
        if other.qubits != self.qubits:
            raise DimensionMismatch("cannot concatenate circuits of different widths")
        return Circuit._of(self.qubits, self.ops + other.ops)

    def inverse(self) -> "Circuit":
        """Reverse the op order and invert each gate. Unitary ops only."""
        if not all(isinstance(op, Gate) for op in self.ops):
            raise BadIndex("cannot invert a circuit containing measurements")
        return Circuit._of(self.qubits, tuple(op.dagger() for op in reversed(self.ops)))

    def unitary_matrix(self) -> np.ndarray:
        """Full 2**q unitary of a measurement-free circuit."""
        u = np.eye(1 << self.qubits, dtype=complex)
        for op in self.ops:
            if not isinstance(op, Gate):
                raise BadIndex("circuit with measurements has no single unitary")
            u = _apply(u, op)
        return u

    def gate_census(self) -> dict[str, int]:
        """Op counts keyed by gate kind, with controls shown as a 'c' prefix."""
        counts: dict[str, int] = {}
        for op in self.ops:
            if isinstance(op, Gate):
                key = op.census_key()
            elif isinstance(op, Measure):
                key = "measure"
            else:
                key = "if_" + op.gate.census_key()
            counts[key] = counts.get(key, 0) + 1
        return counts

    def entangling_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, Gate) and op.entangling)

    def to_json_dict(self) -> dict:
        return {"qubits": self.qubits, "ops": [_op_to_dict(op) for op in self.ops]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "Circuit":
        return Circuit(int(data["qubits"]), [_op_from_dict(d) for d in data["ops"]])

    @staticmethod
    def from_json(text: str) -> "Circuit":
        return Circuit.from_json_dict(json.loads(text))


def complex_to_json(arr) -> list:
    """A complex scalar or array in JSON form: each entry becomes an [re, im] pair."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _entry_from_json(v) -> complex:
    parts = v if isinstance(v, list) else [v, 0.0]
    if len(parts) != 2:
        raise DimensionMismatch(f"complex entries are [re, im], got {v!r}")
    # bool is an int subclass, but true/false are not matrix entries
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in parts):
        raise DimensionMismatch(f"entry {v!r} is not a number or an [re, im] pair")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except OverflowError:
        raise DimensionMismatch("an integer entry is too large for a float") from None


def complex_from_json(data, ndim: int) -> np.ndarray:
    """Vector (``ndim`` 1) or matrix (``ndim`` 2) whose entries are numbers or [re, im] pairs.

    Reads :func:`complex_to_json` back bit for bit. Any other entry, a
    bool included, and ragged rows raise DimensionMismatch.
    """
    if ndim == 1:
        if not isinstance(data, list):
            raise DimensionMismatch("vector must be a JSON array")
        return np.array([_entry_from_json(v) for v in data], dtype=complex)
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise DimensionMismatch("matrix must be a JSON array of rows")
    if len({len(row) for row in data}) > 1:
        raise DimensionMismatch("matrix rows differ in length")
    return np.array([[_entry_from_json(v) for v in row] for row in data], dtype=complex)


def _op_to_dict(op) -> dict:
    if isinstance(op, Measure):
        return {"gate": "measure", "targets": [op.qubit], "slot": op.slot}
    if isinstance(op, ConditionalGate):
        return {
            "gate": "conditional",
            "slot": op.slot,
            "outcome": op.outcome,
            "inner": _op_to_dict(op.gate),
        }
    d: dict = {"gate": op.name, "targets": list(op.targets)}
    if op.controls:
        d["controls"] = list(op.controls)
    for key, val in op.params:
        d[key] = val
    if op.name not in _STOCK:
        d["matrix"] = complex_to_json(op.matrix)
    return d


def _op_from_dict(d: dict):
    kind = d["gate"]
    if kind == "measure":
        return Measure(int(d["targets"][0]), int(d["slot"]))
    if kind == "conditional":
        inner = _op_from_dict(d["inner"])
        if not isinstance(inner, Gate):
            raise BadIndex("conditional op must wrap a gate")
        return ConditionalGate(inner, int(d["slot"]), int(d.get("outcome", 1)))
    targets = [int(t) for t in d.get("targets", [])]
    controls = [int(c) for c in d.get("controls", [])]
    if kind in _STOCK:
        make, arity, angles = _STOCK[kind]
        if len(targets) != arity or any(name not in d for name in angles):
            raise BadIndex(f"gate {kind!r} needs {arity} target(s) and angles {list(angles)}: {d!r}")
        g = make(*targets, *(float(d[name]) for name in angles))
    elif "matrix" in d:
        g = unitary(complex_from_json(d["matrix"], 2), targets, name=kind)
    else:
        raise BadIndex(f"unknown gate kind {kind!r}")
    return controlled(g, *controls) if controls else g


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(shape: tuple[int, ...], axis: int, targets: tuple[int, ...], controls: tuple[int, ...]):
    """How :func:`_apply` contracts a gate of this geometry into an array of this shape.

    Returns the qubit-axis shape, the axis order that puts the targets
    first (in descending qubit order, the order in which a row of the
    dense embedding sums) and the controls last, the basic index that
    fixes every control to 1, and, for k > 1, the axis order that
    reorders the 2k bit axes of the matrix to match. Raises BadIndex for
    a qubit beyond the array's width; exceptions are not cached.
    """
    n = num_qubits(shape[axis])
    for q in targets + controls:
        if q >= n:
            raise BadIndex(f"qubit {q} out of range for {n} qubits")
    k = len(targets)
    # axis axis+n-1-q carries qubit q; bit i of the matrix index is targets[i]
    order = sorted(range(k), key=lambda i: -targets[i])
    lead = tuple(axis + n - 1 - targets[i] for i in order)
    fixed = tuple(axis + n - 1 - c for c in controls)
    split = shape[:axis] + (2,) * n + shape[axis + 1:]
    rest = tuple(a for a in range(len(split)) if a not in lead and a not in fixed)
    reorder = tuple(k - 1 - i for i in order) + tuple(2 * k - 1 - i for i in order) if k > 1 else None
    return split, lead + rest + fixed, (Ellipsis,) + (1,) * len(fixed), reorder


def _apply(block: np.ndarray, g: Gate, matrix: np.ndarray | None = None, axis: int = 0) -> np.ndarray:
    """Apply a gate to the qubit index ``axis`` of a 1-d or 2-d array.

    With ``axis=0`` a ``(2**n, batch)`` array is viewed as
    ``(2,)*n + (batch,)``, where axis a carries qubit n-1-a; ``axis=1``
    puts the qubit axes after the batch. Each control axis is fixed to
    index 1 by a basic-index view, the k-qubit matrix is contracted into
    the target axes, and the result is written back into that view, so
    the cost is O(2**(n+k)) per batch entry and nothing of size
    2**n x 2**n is built. ``matrix`` overrides ``g.matrix`` (the
    density-matrix backend passes its conjugate for the column index).
    Writes in place when the reshape is a view, which it is for
    C-contiguous input; use the returned array.

    Everything derived from the geometry alone, the width check
    included, comes from :func:`_plan`, cached on ``(block.shape, axis,
    g.targets, g.controls)`` for at most _PLAN_CACHE_SIZE geometries;
    the matrix is never part of the key.
    """
    m = g.matrix if matrix is None else matrix
    split, perm, index, reorder = _plan(block.shape, axis, g.targets, g.controls)
    t = block.reshape(split)
    if reorder is not None:
        m = m.reshape((2,) * len(reorder)).transpose(reorder).reshape(m.shape)
    # controls move last and are fixed to 1 by a basic index: still a view
    view = t.transpose(perm)[index]
    view[...] = np.dot(m, view.reshape(m.shape[0], -1)).reshape(view.shape)
    return t.reshape(block.shape)


def _bit_view(arr: np.ndarray, fixed: dict[int, int]) -> np.ndarray:
    """Basic-index view of the entries whose bits match ``fixed``.

    ``fixed`` maps qubit to bit. Every axis of ``arr`` has length 2**n
    and is split into n bit axes; the bits are fixed on each of them,
    so for a density matrix the view holds the rows and columns of that
    branch. The free qubits stay as axes, most significant first, so a
    flattened vector view is in ascending index order.
    """
    n = num_qubits(arr.shape[0])
    t = arr.reshape((2,) * (n * arr.ndim))
    idx = [slice(None)] * t.ndim
    for start in range(0, t.ndim, n):
        for qubit, bit in fixed.items():
            idx[start + n - 1 - qubit] = bit
    # the trailing Ellipsis keeps a fully fixed view an array, not a scalar
    return t[(*idx, Ellipsis)]


def _project(arr: np.ndarray, qubit: int, outcome: int) -> np.ndarray:
    """Copy of a statevector or density matrix with the other branch zeroed."""
    out = np.zeros_like(arr)
    _bit_view(out, {qubit: outcome})[...] = _bit_view(arr, {qubit: outcome})
    return out


def _weight(arr: np.ndarray, fixed: dict[int, int]) -> float:
    """Probability of reading the bits ``fixed`` maps each qubit to."""
    if arr.ndim == 1:
        return float(np.sum(np.abs(_bit_view(arr, fixed)) ** 2))
    return float(np.sum(np.abs(_bit_view(np.diag(arr), fixed))).real)


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing strength applied after each gate application."""

    p_depolarizing: float
    applies_to: str = "all"

    def __post_init__(self):
        if not 0.0 <= self.p_depolarizing <= 1.0:
            raise BadFlag(f"depolarizing probability {self.p_depolarizing} not in [0, 1]")
        if self.applies_to not in ("all", "entangling-only"):
            raise BadFlag(f"unknown noise target {self.applies_to!r}")


@dataclass(frozen=True)
class RunOutcome:
    """Final state, classical record and realized branch probability.

    ``state`` is a vector on the pure path and a density matrix on the
    noisy path. ``probability`` multiplies the Born probabilities of all
    realized measurement outcomes (1.0 if nothing was measured).
    """

    state: np.ndarray
    classical_bits: dict[int, int] = field(default_factory=dict)
    probability: float = 1.0


def _philox(seed: int, shot: int) -> np.random.Philox:
    """The Philox bit generator keyed by (seed, shot)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, shot & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Philox(key=key)


def _uniform(raw):
    """Uniforms in [0, 1) from raw 64-bit draws, as ``Generator.random`` makes them."""
    return (raw >> 11) * 2.0**-53


def _cut(share):
    """Integer cuts with ``(raw >> 11) < _cut(share)`` exactly when ``_uniform(raw) < share``.

    For shares in [0, 1]: scaling by 2**53 is exact, and an integer m is
    below x exactly when it is below ceil(x), which is at most 2**53.
    """
    return np.ceil(share * 2.0**53).astype(np.uint64)


@dataclass(frozen=True)
class Branch:
    """One measurement record with its probability and final state."""

    record: str
    probability: float
    state: np.ndarray
    classical: dict[int, int]


def _walk(c: Circuit, state: np.ndarray, touch, policy):
    """Yield every measurement path of ``c`` that ``policy`` follows, depth first.

    The one op loop of both backends: ``touch(state, gate)`` applies a
    gate, and at each Measure ``policy(p)`` returns the outcomes to
    follow, in order, where ``p[o]`` is the weight of the state's
    projection on outcome o. Each weight is taken from its own
    projection, never as one minus the other, so an unlikely outcome
    keeps its relative precision. A followed branch is projected and
    divided by sqrt(p[o]) on a vector, by p[o] on a density matrix; a
    zero or non-finite state raises ZeroProbability instead. The record
    gets one character per Measure, so a slot measured twice keeps both
    outcomes.
    """
    stack = [(0, state, 1.0, {}, "")]
    while stack:
        pos, state, prob, classical, record = stack.pop()
        for i in range(pos, len(c.ops)):
            op = c.ops[i]
            if isinstance(op, Gate):
                state = touch(state, op)
            elif isinstance(op, Measure):
                weights = (_weight(state, {op.qubit: 0}), _weight(state, {op.qubit: 1}))
                if not 0.0 < weights[0] + weights[1] < math.inf:
                    raise ZeroProbability(f"measuring qubit {op.qubit} of a zero or non-finite state")
                # pushed last-first, so the first outcome is walked first
                for outcome in reversed(policy(weights)):
                    p = weights[outcome]
                    scale = math.sqrt(p) if state.ndim == 1 else p
                    stack.append((i + 1, _project(state, op.qubit, outcome) / scale, prob * p,
                                  {**classical, op.slot: outcome}, record + str(outcome)))
                break
            elif classical[op.slot] == op.outcome:
                state = touch(state, op.gate)
        else:
            yield Branch(record, prob, state, classical)


def run(c: Circuit, input: np.ndarray, noise: NoiseSpec | None = None, seed: int = 0) -> RunOutcome:
    """Execute a circuit on an input state.

    A 1-d input without noise runs on the statevector backend; a noise
    spec or a 2-d (density matrix) input selects the density-matrix
    backend. Each measurement collapses on one draw from the generator
    keyed by (seed, 0), taken in program order; the generator is built at
    the first measurement. Measuring a zero or non-finite state raises
    ZeroProbability, and so does a non-finite input, before any gate runs.
    """
    arr = np.asarray(input, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ZeroProbability("the input state has a non-finite entry")
    if arr.ndim == 1 and arr.size != (1 << c.qubits):
        raise DimensionMismatch(f"input size {arr.size} does not match {c.qubits} qubits")
    if arr.ndim == 2 or noise is not None:
        state = arr.copy() if arr.ndim == 2 else density(arr)
        if state.shape != (1 << c.qubits, 1 << c.qubits):
            raise DimensionMismatch(f"density matrix shape {state.shape} does not match circuit")

        def touch(rho: np.ndarray, g: Gate) -> np.ndarray:
            # U on the row index, conj(U) on the column index: U rho U^dagger
            rho = _apply(rho, g)
            rho = _apply(rho, g, g.matrix.conj(), axis=1)
            if noise is not None and noise.p_depolarizing > 0.0:
                if noise.applies_to == "all" or g.entangling:
                    rho = depolarize(rho, g.targets + g.controls, noise.p_depolarizing)
            return rho
    else:
        state, touch = arr.copy(), _apply
    bits = None

    def collapse(p: tuple[float, float]):
        nonlocal bits
        if bits is None:
            bits = _philox(seed, 0)
        return (1 if _uniform(bits.random_raw()) < p[1] else 0,)

    (path,) = _walk(c, state, touch, collapse)
    return RunOutcome(path.state, path.classical, path.probability)


def post_select(arr: np.ndarray, qubit: int, outcome: int) -> tuple[np.ndarray, float]:
    """Project a statevector or density matrix on one qubit's outcome and renormalize.

    Returns the projected state and the branch probability. A vector is
    divided by its norm, a density matrix by its trace. Raises
    ZeroProbability when the branch weight falls below 1e-28.
    """
    arr = np.asarray(arr, dtype=complex)
    n = num_qubits(arr.shape[0])
    if not 0 <= qubit < n:
        raise BadIndex(f"qubit {qubit} out of range")
    out = _project(arr, qubit, outcome)
    if arr.ndim == 1:
        scale = float(np.linalg.norm(out))
        p = scale * scale
    else:
        scale = p = float(np.trace(out).real)
    if p < 1e-28:
        what = "norm" if arr.ndim == 1 else "weight"
        raise ZeroProbability(f"projection of qubit {qubit} on {outcome} has vanishing {what}")
    return out / scale, p


# the benchmark harness still calls the density-matrix name
# (perfbench/workloads.py and the tracer's PATCHES); no package code does
post_select_dm = post_select


def enumerate_branches(c: Circuit, input: np.ndarray) -> list[Branch]:
    """All measurement branches of a circuit on a pure input, depth first.

    The record string lists outcomes in program order. Branches below
    probability 1e-15 are pruned. A non-finite input raises ZeroProbability.
    """
    arr = np.asarray(input, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ZeroProbability("the input state has a non-finite entry")
    if arr.size != (1 << c.qubits):
        raise DimensionMismatch(f"input size {arr.size} does not match {c.qubits} qubits")

    def both(p: tuple[float, float]):
        return [outcome for outcome in (0, 1) if p[outcome] > 1e-15]

    return list(_walk(c, arr.copy(), _apply, both))


def sample_shots(c: Circuit, input: np.ndarray, shots: int, seed: int = 0) -> dict[str, int]:
    """Histogram of measurement records over ``shots`` runs.

    Shot i consumes row i of one counter-based stream of raw draws keyed
    by the seed, one column per measurement, so histograms are
    reproducible and growing ``shots`` extends earlier histograms
    without disturbing them. Records are keyed as outcome strings in
    program order; every record has one character per Measure op, and at
    most MAX_RECORD_BITS of them. A shot reads 1 when its draw, as a
    uniform in [0, 1) made as ``Generator.random`` makes it, falls below
    the share of its prefix's mass that continues with 1. Branches of
    probability 0.0 are dropped: no shot reaches them. Raises
    ZeroProbability, before any table is built, when no branch is left.

    A readout with one branch returns it for every shot without drawing,
    since no draw could change it. Otherwise the stream is read in blocks
    of _SHOT_BLOCK rows, and only the columns of levels at which some
    prefix splits are read; a level at which no prefix splits never
    touches the shots. A split level compares the draw's top 53 bits with
    the integer cut :func:`_cut` of each share, which decides exactly as
    the uniform would, so no column becomes floats; the first split level
    has one prefix, hence one cut. Every table is sized by the branch
    count, never by 2**depth, and memory does not grow with ``shots``.
    """
    if shots < 1:
        raise BadFlag(f"shots must be positive, got {shots}")
    if shots > MAX_SHOTS:
        raise BadFlag(f"shots must be at most {MAX_SHOTS}, got {shots}")
    depth = sum(1 for op in c.ops if isinstance(op, Measure))
    if depth > MAX_RECORD_BITS:
        raise BadFlag(f"records hold at most {MAX_RECORD_BITS} measurements, got {depth}")
    branches = [b for b in enumerate_branches(c, input) if b.probability > 0.0]
    if depth == 0:
        return {"": shots}
    if not branches:
        raise ZeroProbability("the input leaves no measurement record to sample")
    if len(branches) == 1:
        # no level splits, so every shot reads this record whatever it draws
        return {branches[0].record: shots}
    records = np.array([int(b.record, 2) for b in branches], dtype=np.int64)
    probs = np.array([b.probability for b in branches])
    # after k outcomes a shot carries the rank of its prefix among the
    # distinct k-outcome prefixes of the branches
    ranks = [np.unique(records >> (depth - k), return_inverse=True)[1] for k in range(depth + 1)]
    levels = []
    for k in range(depth):
        if ranks[k + 1].max() == ranks[k].max():
            continue  # no prefix splits, so each shot's child keeps its rank whatever it draws
        bit = (records >> (depth - 1 - k)) & 1
        # a prefix's children are adjacent in rank order, so a shot moves to
        # lo + its bit; a prefix with one child has a share of exactly 0 or 1
        lo = np.empty(ranks[k].max() + 1, dtype=np.intp)
        lo[ranks[k]] = ranks[k + 1] - bit
        # masses sum in branch order; adding the zeros is exact
        share = np.bincount(ranks[k], np.where(bit == 1, probs, 0.0)) / np.bincount(ranks[k], probs)
        levels.append((k, lo, _cut(share)))
    # up to the first split every shot is on the one prefix all branches
    # share, so that level has a single prefix: one cut, one offset, no gathers
    (k0, lo0, cut0), levels = levels[0], levels[1:]
    values = np.unique(records)
    counts = np.zeros(values.size, dtype=np.int64)
    bits = _philox(seed, 0)
    for start in range(0, shots, _SHOT_BLOCK):
        # consecutive raw draws continue the stream: these are rows start, start + 1, ...
        raw = bits.random_raw((min(_SHOT_BLOCK, shots - start), depth))
        at = (raw[:, k0] >> 11 < cut0[0]) + lo0[0]
        for k, lo, cut in levels:
            at = lo[at] + (raw[:, k] >> 11 < cut[at])
        counts += np.bincount(at, minlength=values.size)
    return {format(int(v), f"0{depth}b"): int(n) for v, n in zip(values, counts) if n}


def depolarize(rho: np.ndarray, qubits, p: float) -> np.ndarray:
    """(1-p)*rho + p * (I/d on ``qubits``) tensor tr_qubits(rho)."""
    if not 0.0 <= p <= 1.0:
        raise BadFlag(f"depolarizing probability {p} not in [0, 1]")
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits(rho.shape[0])
    hit = sorted({int(q) for q in qubits})
    if not hit:
        return rho.copy()
    if hit[0] < 0 or hit[-1] >= n:
        raise BadIndex(f"qubit set {hit} out of range for {n} qubits")
    if p == 0.0:
        return rho.copy()
    kept = [q for q in range(n) if q not in hit]
    # axis a carries the row bit of qubit n-1-a and axis n+a its column bit;
    # partial_trace returns the kept qubits most significant first
    kept_desc = kept[::-1]
    red = partial_trace(rho, kept).reshape((2,) * (2 * len(kept)))
    out = (1.0 - p) * rho
    # a writable view of the entries whose row and column agree on every
    # hit qubit: the support of I/d, where p * tr_hit(rho) / d is added
    labels = list(range(n)) + [n + a if n - 1 - a in kept else a for a in range(n)]
    block = np.einsum(
        out.reshape((2,) * (2 * n)),
        labels,
        [n - 1 - q for q in kept_desc] + [2 * n - 1 - q for q in kept_desc] + [n - 1 - q for q in hit],
    )
    block += (p * (red / (1 << len(hit)))).reshape(red.shape + (1,) * len(hit))
    return out


def _qft_ops(wires) -> list:
    """Quantum Fourier transform ops on ``wires``; ``wires[i]`` carries bit i."""
    n = len(wires)
    ops = []
    for i in range(n - 1, -1, -1):
        ops.append(h(wires[i]))
        for dist, ctrl in enumerate(range(i - 1, -1, -1), start=2):
            ops.append(controlled(phase(wires[i], 2 * math.pi / (1 << dist)), wires[ctrl]))
    for i in range(n // 2):
        ops.append(swap(wires[i], wires[n - 1 - i]))
    return ops


def qft(n: int) -> Circuit:
    """Quantum Fourier transform; matrix entries exp(2j*pi*j*k/2**n)/2**(n/2)."""
    if n < 1:
        raise BadIndex(f"qft needs at least one qubit, got {n}")
    return Circuit(n, _qft_ops(range(n)))

"""Gate set, circuit container and two execution backends.

Qubit 0 is the least significant bit of a basis index, matching
``qstate``. Circuits and gates are treated as immutable: build the op
list first, then wrap it in a :class:`Circuit`, which validates it; a
circuit derived from validated ones reuses their ops unchecked, and a
gate may recur. The stock gates are one table, and complex arrays go to
and from JSON through one codec, :func:`complex_to_json` and
:func:`complex_from_json`. The JSON form writes a stock gate as its name
and angle alone, and refuses one whose matrix they do not rebuild.

A circuit's ops are unitary ops, of the kinds :data:`UNITARY_KINDS`
names, a :class:`Measure` or a :class:`ConditionalGate`. Every unitary
kind answers one protocol, which the circuit and both backends call
without asking which kind they hold: ``targets``, ``controls``,
``expand()`` (the textbook gates it stands for), ``census()``,
``entangling_count()``, ``dagger()`` and ``apply(block)``, its
statevector kernel. A :class:`Gate` expands to itself; a
:class:`Multiplexor` (a uniformly controlled one-qubit gate, held as an
array of control values and one stack of their 2x2 matrices) to X flips
around one fully controlled gate per value, whose census and entangling
count it reads from the value array without building them.

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
Likewise the inverse QFT ops of a wire tuple are built once by
:func:`_inverse_qft_ops` and kept for at most _QFT_CACHE_SIZE tuples,
so every solve on one register layout shares them; the dagger of a
``phase`` gate is one constructor call, its matrix from
:func:`_phase_matrix`, as :func:`phase` takes it. Since gates recur
across circuits, the matrices of the stock gates and of ``phase`` are
read-only arrays.
A multiplexor on a statevector (or on the identity, for the unitary)
takes one pass, :func:`_multiplex`: one batched matmul of its matrix
stack, with the products the kernel would take on its expansion, so the
two agree bit for bit.
The statevector backend handles pure states with each op's ``apply``;
the density-matrix backend applies the gate kernel to the rows and then
to the columns, and additionally applies depolarizing noise after gate
applications. It walks every op's expansion, noisy or not, since noise
is defined per textbook gate. At zero noise the backends agree to
1e-10, which the self test exercises.

One op walker, :func:`_walk`, executes every circuit on either backend,
with measurements and classically conditioned gates. At a measurement
a policy picks the outcomes to follow: :func:`run` collapses on one
seeded draw, :func:`enumerate_branches` follows both. One projector,
:func:`post_select`, serves vectors and density matrices. Projections
and register readouts in both backends, and in the solvers built on
them, go through one bit view, :func:`_bit_view`, and every branch
weight through :func:`_weight`.

Measurement randomness comes from a counter-based Philox generator
keyed by (seed, 0), so shot sampling is reproducible and independent
of evaluation order. It is built at the first draw, so a
run without measurements never imports ``numpy.random``, and
:func:`sample_shots` builds none for a readout with one branch, which
every shot reads whatever it draws. Otherwise the sampler takes one draw
per shot and compares its top 53 bits with integer cuts,
ceil(share * 2**53) of each branch's cumulative share, which decide
exactly as the uniform ``run`` makes from the same draw would, without
turning the draws into floats.
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
# distinct gate geometries (array shape, axis, targets, controls) whose
# contraction plan the kernel keeps; the benchmark's workloads use at
# most about 120 each
_PLAN_CACHE_SIZE = 1024
# wire tuples whose inverse QFT ops are kept; a solve reads one, its
# register, and a 20-qubit state allows at most 19 register widths
_QFT_CACHE_SIZE = 64


def _frozen(m: np.ndarray) -> np.ndarray:
    """``m``, made read-only: a gate matrix that circuits share is never written."""
    m.setflags(write=False)
    return m


_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
_H = _frozen(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
_SWAP = _frozen(np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
))


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

    def expand(self) -> tuple["Gate"]:
        return (self,)

    def census(self) -> dict[str, int]:
        return {"c" * len(self.controls) + self.name: 1}

    def entangling_count(self) -> int:
        return int(self.entangling)

    def apply(self, block: np.ndarray) -> np.ndarray:
        return _apply(block, self)

    def dagger(self) -> "Gate":
        if self.name == "phase":
            phi = -dict(self.params)["phi"]
            return Gate("phase", _phase_matrix(phi), self.targets, self.controls, (("phi", float(phi)),))
        if self.name in _SELF_INVERSE:
            return self
        return Gate(self.name, self.matrix.conj().T, self.targets, self.controls, self.params)


@dataclass(frozen=True)
class Measure:
    """Computational-basis measurement of one qubit into a classical slot."""

    qubit: int
    slot: int

    def census(self) -> dict[str, int]:
        return {"measure": 1}


@dataclass(frozen=True)
class ConditionalGate:
    """Apply ``gate`` when the classical ``slot`` equals ``outcome``."""

    gate: Gate
    slot: int
    outcome: int = 1

    def census(self) -> dict[str, int]:
        return {"if_" + key: n for key, n in self.gate.census().items()}


def x(q: int) -> Gate:
    return Gate("x", _X, (q,))


def y(q: int) -> Gate:
    return Gate("y", _Y, (q,))


def z(q: int) -> Gate:
    return Gate("z", _Z, (q,))


def h(q: int) -> Gate:
    return Gate("h", _H, (q,))


def _phase_matrix(phi: float) -> np.ndarray:
    return _frozen(np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=complex))


def phase(q: int, phi: float) -> Gate:
    return Gate("phase", _phase_matrix(phi), (q,), params=(("phi", float(phi)),))


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


@dataclass(frozen=True, eq=False)
class Multiplexor:
    """A uniformly controlled one-qubit gate: each control value picks the matrix on ``target``.

    The cases are arrays: ``values``, the control values, ascending, as an
    ``intp`` array; ``matrices``, their 2x2 matrices as one (K, 2, 2)
    stack; and, per case, the gate name in ``names`` (a stock gate or a
    :func:`unitary`) and its angle in ``angles`` (0.0 for a gate without
    one), from which :meth:`expand` and :meth:`dagger` rebuild the gates.
    Bit i of a value is carried by ``controls[i]``, and a value without a
    case gets the identity. This is the multiplexor of Shende, Bullock and
    Markov (quant-ph/0406176). :meth:`expand` gives the textbook ops,
    which the JSON form and the density-matrix backend use; the
    statevector kernel applies every case in one pass. Equality is
    bitwise on the arrays, as for a :class:`Gate`.
    """

    target: int
    controls: tuple[int, ...]
    values: np.ndarray
    matrices: np.ndarray
    names: tuple[str, ...]
    angles: np.ndarray

    def __post_init__(self):
        values, controls = self.values, self.controls
        qubits = (self.target,) + controls
        if not controls or len(set(qubits)) != len(qubits) or min(qubits) < 0:
            raise BadIndex(f"a multiplexor needs distinct non-negative wires and a control: {qubits}")
        if values.ndim != 1 or values.size and not 0 <= values[0] <= values[-1] < 1 << len(controls) \
                or np.any(values[1:] <= values[:-1]):
            raise BadIndex(f"multiplexor values must ascend within {len(controls)} control bits")
        if self.matrices.shape != (values.size, 2, 2) or len(self.names) != values.size \
                or self.angles.shape != values.shape:
            raise DimensionMismatch(f"a multiplexor of {values.size} cases needs a ({values.size}, 2, 2) "
                                    f"matrix stack and a name and an angle per case")

    def __eq__(self, other):
        if not isinstance(other, Multiplexor):
            return NotImplemented
        return (
            self.target == other.target
            and self.controls == other.controls
            and self.names == other.names
            and bool(np.array_equal(self.values, other.values))
            and bool(np.array_equal(self.angles, other.angles))
            and bool(np.array_equal(self.matrices, other.matrices))
        )

    @property
    def targets(self) -> tuple[int]:
        return (self.target,)

    def _gates(self, controls: tuple[int, ...]):
        """Each case's gate with these controls; the matrices are views of the stack."""
        for name, m, a in zip(self.names, self.matrices, self.angles.tolist()):
            yield Gate(name, m, self.targets, controls, ((_ANGLE[name], a),) if name in _ANGLE else ())

    def expand(self) -> list[Gate]:
        """For each value: an X on each control whose bit is 0, the case gate controlled by
        every control, and the same X again. The X of one wire is one shared gate."""
        flip = [x(q) for q in self.controls]
        ops: list[Gate] = []
        for k, g in zip(self.values.tolist(), self._gates(self.controls)):
            flips = [f for i, f in enumerate(flip) if not (k >> i) & 1]
            ops += flips
            ops.append(g)
            ops += flips
        return ops

    def census(self) -> dict[str, int]:
        """The census of :meth:`expand`, in its key order, without building it.

        Two X per zero bit of each value, and one controlled gate per case.
        Values ascend, so an X comes first unless the one case is the
        all-ones value, which needs none.
        """
        c = len(self.controls)
        ones = int(np.count_nonzero(self.values[:, None] >> np.arange(c) & 1))
        flips = 2 * (c * self.values.size - ones)
        counts = {"x": flips} if flips else {}
        for name in dict.fromkeys(self.names):
            counts["c" * c + name] = self.names.count(name)
        return counts

    def entangling_count(self) -> int:
        """One per case: the expansion's controlled gates."""
        return self.values.size

    def apply(self, block: np.ndarray) -> np.ndarray:
        return _multiplex(block, self)

    def dagger(self) -> "Multiplexor":
        """Each case's :meth:`Gate.dagger`; a multiplexor of self-inverse stock gates is its own."""
        if set(self.names) <= _SELF_INVERSE:
            return self
        cases = [g.dagger() for g in self._gates(())]
        return Multiplexor(self.target, self.controls, self.values, np.array([g.matrix for g in cases]),
                           tuple(g.name for g in cases),
                           np.array([g.params[0][1] if g.params else 0.0 for g in cases]))


# stock gates by name: constructor, target count and angle names, from which
# they are rebuilt; any other gate serializes its matrix explicitly
_STOCK = {
    "x": (x, 1, ()), "y": (y, 1, ()), "z": (z, 1, ()), "h": (h, 1, ()), "swap": (swap, 2, ()),
    "phase": (phase, 1, ("phi",)), "h_theta": (h_theta, 1, ("theta",)),
}
# the one angle of each stock gate that has one; every stock gate but phase is its own inverse
_ANGLE = {name: angles[0] for name, (_, _, angles) in _STOCK.items() if angles}
_SELF_INVERSE = _STOCK.keys() - {"phase"}


# the unitary op kinds; each answers the protocol in the module docstring
UNITARY_KINDS = (Gate, Multiplexor)


@dataclass(frozen=True)
class Circuit:
    """Fixed-width op sequence. Ops are unitary ops, measurements or conditionals."""

    qubits: int
    ops: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        written: set[int] = set()
        for op in self.ops:
            if isinstance(op, UNITARY_KINDS):
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

    def _check_gate(self, g) -> None:
        for q in g.targets + g.controls:
            if not 0 <= q < self.qubits:
                raise BadIndex(f"qubit {q} out of range for {self.qubits}-qubit circuit")

    def then(self, other: "Circuit") -> "Circuit":
        if other.qubits != self.qubits:
            raise DimensionMismatch("cannot concatenate circuits of different widths")
        return Circuit._of(self.qubits, self.ops + other.ops)

    def inverse(self) -> "Circuit":
        """Reverse the op order and invert each gate. Unitary ops only."""
        if not all(isinstance(op, UNITARY_KINDS) for op in self.ops):
            raise BadIndex("cannot invert a circuit containing measurements")
        return Circuit._of(self.qubits, tuple(op.dagger() for op in reversed(self.ops)))

    def unitary_matrix(self) -> np.ndarray:
        """Full 2**q unitary of a measurement-free circuit."""
        u = np.eye(1 << self.qubits, dtype=complex)
        for op in self.ops:
            if not isinstance(op, UNITARY_KINDS):
                raise BadIndex("circuit with measurements has no single unitary")
            u = op.apply(u)
        return u

    def gate_census(self) -> dict[str, int]:
        """Op counts keyed by gate kind, with controls shown as a 'c' prefix; each
        op counts as its expansion."""
        counts: dict[str, int] = {}
        for op in self.ops:
            for key, n in op.census().items():
                counts[key] = counts.get(key, 0) + n
        return counts

    def entangling_count(self) -> int:
        """Entangling gates of the unitary ops' expansions."""
        return sum(op.entangling_count() for op in self.ops if isinstance(op, UNITARY_KINDS))

    def to_json_dict(self) -> dict:
        """The ops in JSON form, each unitary op as its expansion."""
        ops = (e for op in self.ops for e in (op.expand() if isinstance(op, UNITARY_KINDS) else (op,)))
        return {"qubits": self.qubits, "ops": [_op_to_dict(op) for op in ops]}

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
    # a stock gate is written without its matrix, so it must be the one its name rebuilds
    make, arity, angles = _STOCK[op.name]
    if tuple(key for key, _ in op.params) != angles \
            or not np.array_equal(op.matrix, make(*range(arity), *(val for _, val in op.params)).matrix):
        raise BadIndex(f"gate {op.name!r} does not hold the stock {op.name} matrix at its angle")
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


def _multiplex(block: np.ndarray, op: Multiplexor) -> np.ndarray:
    """Apply a multiplexor to the qubit index (axis 0) of a 1-d or 2-d array in one pass.

    The array is copied once into one contiguous (2, rest) block per
    control value, in value order. One batched matmul multiplies the
    blocks of the case values by the matrix stack, each block exactly as
    :func:`_apply` multiplies the view of a gate whose controls read that
    value, the same product on the same layout, so the result equals the
    expansion's bit for bit. Then every block is written back, those
    without a case unchanged.
    """
    split, perm, _, _ = _plan(block.shape, 0, op.targets, op.controls)
    c = len(op.controls)
    s = block.reshape(split)
    # the control axes first, controls[0] last: the leading index is the value
    t = s.transpose(perm[:-c - 1:-1] + perm[:-c])
    by_value = t.reshape(1 << c, 2, -1)
    by_value[op.values] = np.matmul(op.matrices, by_value[op.values])
    t[...] = by_value.reshape(t.shape)
    return s.reshape(block.shape)


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

    The one op loop of both backends: ``touch(state, op)`` applies a
    unitary op, and at each Measure ``policy(p)`` returns the outcomes to
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
            if isinstance(op, UNITARY_KINDS):
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


def _pure(state: np.ndarray, op) -> np.ndarray:
    """The statevector backend's step: the unitary op's own kernel."""
    return op.apply(state)


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

        def touch(rho: np.ndarray, op) -> np.ndarray:
            # noise is defined per textbook gate, so every op walks its expansion
            for g in op.expand():
                # U on the row index, conj(U) on the column index: U rho U^dagger
                rho = _apply(rho, g)
                rho = _apply(rho, g, g.matrix.conj(), axis=1)
                if noise is not None and noise.p_depolarizing > 0.0:
                    if noise.applies_to == "all" or g.entangling:
                        rho = depolarize(rho, g.targets + g.controls, noise.p_depolarizing)
            return rho
    else:
        state, touch = arr.copy(), _pure
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

    return list(_walk(c, arr.copy(), _pure, both))


def sample_shots(c: Circuit, input: np.ndarray, shots: int, seed: int = 0) -> dict[str, int]:
    """Histogram of measurement records over ``shots`` runs.

    Shot i reads word i of one counter-based stream of raw draws keyed by
    the seed, one draw per shot however many qubits are measured, so
    histograms are reproducible and growing ``shots`` extends earlier
    histograms without disturbing them. Records are keyed as outcome
    strings in program order; every record has one character per Measure
    op. A shot lands on the first branch, in :func:`enumerate_branches`
    order, whose cumulative mass divided by the total exceeds its draw,
    as a uniform in [0, 1) made as ``Generator.random`` makes it; masses
    are running sums in branch order. Branches of probability 0.0 are
    dropped: no shot reaches them. Raises ZeroProbability when no branch
    is left.

    A readout with one branch returns it for every shot without drawing,
    since no draw could change it. Otherwise the stream is read in blocks
    of _SHOT_BLOCK draws, each sorted and counted below the integer cut
    :func:`_cut` of every cumulative share, which decides exactly as the
    uniform would, so no draw becomes a float. Memory follows the block
    and the branch count, never ``shots`` or the record length.
    """
    if shots < 1:
        raise BadFlag(f"shots must be positive, got {shots}")
    if shots > MAX_SHOTS:
        raise BadFlag(f"shots must be at most {MAX_SHOTS}, got {shots}")
    branches = [b for b in enumerate_branches(c, input) if b.probability > 0.0]
    if not branches:
        raise ZeroProbability("the input leaves no measurement record to sample")
    if len(branches) == 1:
        # every shot reads this record whatever it draws; a circuit without
        # a Measure has one branch, record "", of probability 1.0
        return {branches[0].record: shots}
    # np.cumsum adds in order, as a Python running sum does
    mass = np.cumsum([b.probability for b in branches])
    # the last share is exactly 1.0, so its cut, 2**53, lies above every draw
    cuts = _cut(mass / mass[-1])
    below = np.zeros(len(branches), dtype=np.int64)
    bits = _philox(seed, 0)
    for start in range(0, shots, _SHOT_BLOCK):
        # consecutive raw draws continue the stream: these are words start, start + 1, ...
        drawn = np.sort(bits.random_raw(min(_SHOT_BLOCK, shots - start)) >> 11)
        below += np.searchsorted(drawn, cuts)
    return {b.record: int(n) for b, n in zip(branches, np.diff(below, prepend=0)) if n}


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


def _qft_ops(wires: tuple[int, ...]) -> tuple[Gate, ...]:
    """Quantum Fourier transform ops on ``wires``; ``wires[i]`` carries bit i."""
    n = len(wires)
    ops = []
    for i in range(n - 1, -1, -1):
        ops.append(h(wires[i]))
        for dist, ctrl in enumerate(range(i - 1, -1, -1), start=2):
            ops.append(controlled(phase(wires[i], 2 * math.pi / (1 << dist)), wires[ctrl]))
    for i in range(n // 2):
        ops.append(swap(wires[i], wires[n - 1 - i]))
    return tuple(ops)


@functools.lru_cache(maxsize=_QFT_CACHE_SIZE)
def _inverse_qft_ops(wires: tuple[int, ...]) -> tuple[Gate, ...]:
    """The ops of :meth:`Circuit.inverse` on :func:`_qft_ops`.

    Built once per wire tuple and kept for at most _QFT_CACHE_SIZE
    tuples; every circuit on that register layout shares them.
    """
    return tuple(g.dagger() for g in reversed(_qft_ops(wires)))


def qft(n: int) -> Circuit:
    """Quantum Fourier transform; matrix entries exp(2j*pi*j*k/2**n)/2**(n/2)."""
    if n < 1:
        raise BadIndex(f"qft needs at least one qubit, got {n}")
    return Circuit(n, _qft_ops(tuple(range(n))))

"""Brute-force reference implementations the tests check the package against.

Everything here is deliberately naive: explicit kron chains, per-basis
loops and eigendecomposition algebra, sharing no code with the package
beyond numpy itself. The state checks and the GHZ frame search live here
because only tests use them; they raise AssertionError.
"""
import math
from itertools import product

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def h_theta_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def lift(u: np.ndarray, q: int, n: int) -> np.ndarray:
    """One-qubit operator at wire q of n, built by a plain kron chain."""
    out = np.array([[1.0]], dtype=complex)
    for k in range(n - 1, -1, -1):
        out = np.kron(out, u if k == q else I2)
    return out


def controlled_1q(u: np.ndarray, ctrl: int, tgt: int, n: int) -> np.ndarray:
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    return lift(p0, ctrl, n) + lift(p1, ctrl, n) @ lift(u, tgt, n)


def embed_naive(u: np.ndarray, targets, n: int) -> np.ndarray:
    """Embed a k-qubit unitary by looping over every basis column."""
    k = len(targets)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        t_in = 0
        for i, q in enumerate(targets):
            t_in |= ((col >> q) & 1) << i
        base = col
        for i, q in enumerate(targets):
            base &= ~(1 << q)
        for t_out in range(1 << k):
            row = base
            for i, q in enumerate(targets):
                row |= ((t_out >> i) & 1) << q
            out[row, col] = u[t_out, t_in]
    return out


def postselect_bits(psi: np.ndarray, fixed: dict) -> tuple[np.ndarray, float]:
    """Zero every amplitude whose bits disagree with ``fixed``, renormalize."""
    out = psi.copy()
    for idx in range(out.size):
        for q, want in fixed.items():
            if (idx >> q) & 1 != want:
                out[idx] = 0.0
                break
    p = float(np.sum(np.abs(out) ** 2))
    return out / math.sqrt(p), p


def compiled_final_state(b: np.ndarray, theta_big=math.pi / 8,
                         theta_small=math.pi / 16) -> np.ndarray:
    """The hand-optimized circuit as explicit 16x16 matrix products.

    Wire order: ancilla 0, R2 1, R1 2, input 3; unitary readout.
    """
    n = 4
    ops = [
        lift(H, 3, n),
        controlled_1q(X, 3, 2, n),
        controlled_1q(X, 3, 1, n),
        lift(X, 1, n),
        lift(H, 3, n),
        controlled_1q(h_theta_matrix(theta_big), 2, 0, n),
        controlled_1q(h_theta_matrix(theta_small), 1, 0, n),
        lift(H, 2, n),
        lift(H, 1, n),
    ]
    psi = np.zeros(16, dtype=complex)
    psi[0], psi[8] = b[0], b[1]
    for m in ops:
        psi = m @ psi
    return psi


def compiled_oracle(b: np.ndarray, theta_big=math.pi / 8,
                    theta_small=math.pi / 16) -> tuple[np.ndarray, float]:
    """Post-selected output qubit state and ancilla-conditional probability."""
    psi = compiled_final_state(b, theta_big, theta_small)
    reg_fixed, _ = postselect_bits(psi, {1: 0, 2: 0})
    out16, p_anc = postselect_bits(reg_fixed, {0: 1})
    x = np.array([out16[0b0001], out16[0b1001]])
    return x / np.linalg.norm(x), p_anc


def analytic_hhl(a: np.ndarray, b: np.ndarray, c: float | None = None):
    """Eigenbasis algebra for the ideal pipeline: (x, heralding probability).

    Assumes every populated eigenvalue is representable on the register,
    which holds for the exact-spectrum problems the tests build.
    """
    w, v = np.linalg.eigh(a)
    beta = v.conj().T @ b
    live = np.abs(beta) > 1e-12
    if c is None:
        c = float(np.min(np.abs(w[live])))
    amps = np.where(live, beta * c / w, 0.0)
    p = float(np.sum(np.abs(amps) ** 2))
    x = v @ amps
    return x / np.linalg.norm(x), p


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_exact_problem(rng: np.random.Generator, dim: int, n_register: int):
    """Hermitian matrix with distinct integer eigenvalues fitting the register."""
    top = (1 << n_register) - 1
    lams = rng.choice(np.arange(1, top + 1), size=dim, replace=False).astype(float)
    v = random_unitary(rng, dim)
    a = (v * lams) @ v.conj().T
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return a, b / np.linalg.norm(b)


def check_normalized(vec: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """A 1-d vector of norm 1 within ``atol``."""
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 1:
        raise AssertionError(f"expected a vector, got shape {vec.shape}")
    if not abs(np.linalg.norm(vec) - 1.0) <= atol:
        raise AssertionError(f"vector norm {np.linalg.norm(vec)!r} is not 1 within {atol}")
    return vec


def check_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """A square Hermitian matrix of trace one with no eigenvalue below -atol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise AssertionError(f"expected a square matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise AssertionError(f"density matrix is not Hermitian within {atol}")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise AssertionError(f"density matrix trace {np.trace(rho)!r} is not 1")
    if np.linalg.eigvalsh(rho).min() < -atol:
        raise AssertionError("density matrix has a negative eigenvalue")
    return rho


FRAME_MATS = {"I": I2, "X": X, "Z": Z, "H": H, "HX": H @ X, "XH": X @ H}
FRAME_SEARCH_ORDER = ("I", "X", "Z", "H", "HX", "XH")
GHZ4 = np.zeros(16, dtype=complex)
GHZ4[0] = GHZ4[15] = 1.0 / math.sqrt(2.0)


def best_ghz_frame(state: np.ndarray) -> tuple[dict[int, str], float]:
    """Search every local frame on four qubits for maximal GHZ overlap.

    Frames are named as in ``analysis.FRAME_OPS`` and scanned in
    ``FRAME_SEARCH_ORDER``; ties keep the first hit, so the
    identity-heavy frame wins when several reach the same fidelity.
    """
    best: tuple[dict[int, str], float] = ({}, -1.0)
    for names in product(FRAME_SEARCH_ORDER, repeat=4):
        op = np.eye(1, dtype=complex)
        for q in range(3, -1, -1):
            op = np.kron(op, FRAME_MATS[names[q]])
        f = float(abs(np.vdot(GHZ4, op @ state)) ** 2)
        if f > best[1] + 1e-12:
            best = ({q: names[q] for q in range(4)}, f)
            if f > 1.0 - 1e-12:
                break
    return best


def sample_shots_naive(branches, shots: int, seed: int) -> dict[str, int]:
    """Histogram of records, walking one draw row per shot over the branch list.

    ``branches`` are (record, probability) pairs. Shot i reads row i of
    the uniform draw keyed by (seed, 0). At each level a shot reads 1
    when its draw falls below the share of its prefix's mass that
    continues with 1; masses are Python-float sums over the branch list,
    in branch order.
    """
    depth = len(branches[0][0])
    key = np.array([seed, 0], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random((shots, depth))
    share: dict[str, float] = {}
    counts: dict[str, int] = {}
    for row in u:
        prefix = ""
        for k in range(depth):
            if prefix not in share:
                total = sum(p for rec, p in branches if rec.startswith(prefix))
                ones = sum(p for rec, p in branches if rec.startswith(prefix + "1"))
                share[prefix] = ones / total
            prefix += "1" if row[k] < share[prefix] else "0"
        counts[prefix] = counts.get(prefix, 0) + 1
    return counts


def reciprocal_rotation_naive(n: int, amps: dict[int, float]) -> list:
    """The reciprocal rotation written out gate by gate, as plain tuples.

    Each entry is (name, targets, controls, params, matrix). For every
    register value k rotated with ancilla amplitude ``amps[k]``: an X on
    each register wire 1 + i whose bit i of k is 0, the reflection by
    arcsin(amps[k]) / 2 on the ancilla controlled by every register wire,
    and the same X gates again.
    """
    ops = []
    regs = tuple(range(1, n + 1))
    for k, amp in amps.items():
        flips = [("x", (regs[i],), (), (), X) for i in range(n) if not (k >> i) & 1]
        theta = 0.5 * math.asin(amp)
        ops += flips
        ops.append(("h_theta", (0,), regs, (("theta", theta),), h_theta_matrix(theta)))
        ops += flips
    return ops

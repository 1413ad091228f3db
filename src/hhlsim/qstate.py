"""Dense complex linear algebra for small multi-qubit systems.

Conventions shared by every module in this package:

* qubit 0 is the least significant bit of a basis-state index, so in
  ``np.kron(a, b)`` the left factor ``a`` sits on the higher qubits,
* global phase is never enforced; states are compared through overlaps
  such as ``|<a|b>|**2`` rather than component by component.

Matrix exponentials are computed spectrally from the Hermitian
eigendecomposition. The matrices here are the problem's own (the system
matrix, its powers, single-qubit observables) and reduced density
matrices, all small and dense. Gates on the full register never become
dense matrices: ``circuit`` applies them by axis contraction, and its
``Circuit.unitary_matrix`` is the one full-register operator it builds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadIndex, DimensionMismatch, NotHermitian

# Input matrices are accepted as Hermitian up to 1e-8.
HERMITIAN_INPUT_ATOL = 1e-8


def num_qubits(dim: int) -> int:
    """Qubit count for a state space of size ``dim``; dim must be 2**n."""
    dim = int(dim)
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of two")
    return n


def check_hermitian(m: np.ndarray, atol: float = HERMITIAN_INPUT_ATOL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotHermitian("matrix has a non-finite entry")
    if np.max(np.abs(m - m.conj().T)) > atol:
        raise NotHermitian(f"matrix is not Hermitian within {atol}")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def exp_i(self, t: float) -> np.ndarray:
        """exp(i*a*t) for the decomposed matrix a."""
        v = self.eigenvectors
        return (v * np.exp(1j * self.eigenvalues * t)) @ v.conj().T


def eigh(m: np.ndarray) -> EigenDecomposition:
    """Hermitian eigendecomposition with ascending real eigenvalues."""
    m = check_hermitian(m)
    w, v = np.linalg.eigh(m)
    return EigenDecomposition(w, v)


def exp_unitary(a: np.ndarray, t: float) -> np.ndarray:
    """exp(i*a*t) for Hermitian ``a``, computed spectrally."""
    return eigh(a).exp_i(t)


def density(vec: np.ndarray) -> np.ndarray:
    """Projector |vec><vec| of a pure state."""
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|**2 for two pure states. Global phase drops out."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes differ: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)) ** 2)


def fidelity(pure: np.ndarray, rho: np.ndarray) -> float:
    """<x|rho|x> for a pure state against a density matrix, clamped to [0, 1]."""
    pure = np.asarray(pure, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if pure.ndim != 1 or rho.shape != (pure.size, pure.size):
        raise DimensionMismatch(f"fidelity shapes {pure.shape} and {rho.shape} do not match")
    val = np.vdot(pure, rho @ pure)
    return float(min(1.0, max(0.0, val.real)))


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix over the qubits in ``keep``.

    The result's qubit j corresponds to the j-th smallest kept index, so
    relative significance is preserved. An empty ``keep`` yields the 1x1
    matrix holding the trace.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {rho.shape}")
    n = num_qubits(rho.shape[0])
    kept = sorted({int(q) for q in keep})
    if kept and (kept[0] < 0 or kept[-1] >= n):
        raise BadIndex(f"keep set {kept} out of range for {n} qubits")
    t = rho.reshape([2] * (2 * n))
    # axis a < n carries the row bit of qubit n-1-a; axis n+a the column bit
    row_id = {q: q for q in range(n)}
    col_id = {q: n + q if q in kept else q for q in range(n)}
    in_subs = [row_id[n - 1 - a] for a in range(n)] + [col_id[n - 1 - a] for a in range(n)]
    kept_desc = kept[::-1]
    out_subs = [row_id[q] for q in kept_desc] + [col_id[q] for q in kept_desc]
    red = np.einsum(t, in_subs, out_subs)
    d = 1 << len(kept)
    return red.reshape(d, d)


def entropy_bits(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())

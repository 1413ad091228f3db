"""One sha256 over what ``hhl.run_hhl`` returns on a seeded deck of problems.

Two trees that print the same digest return the same bytes on every
problem of the deck: the solution and pre-cut state arrays, the success
probability, the fidelity, the register verdict and the census, and,
for a refused problem, the error type and message. Run it from the
repository root:

    PYTHONPATH=src python tests/deck_digest.py

The deck (seed 20261020) holds 2x2 and 4x4 Hermitian positive-definite
problems at 1-8 register bits. Even problems are on grid (every
eigenvalue on an integer register value in [1, 2**n - 1]); odd ones draw
their register positions log-uniform over [2**-3, 2**(n + 1)], so some
fall below one unit and some wrap. C is drawn from C_CHOICES (None is the
default) and t0 from T0_CHOICES. Pytest does not collect this file;
``test_hhl.py`` imports it and checks a 20-problem slice.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from hhlsim import hhl
from hhlsim.errors import SimulationError

SEED = 20261020
DECK_SIZE = 300
C_CHOICES = (None, 1.0, 2.0, 1e-300, 0.3, 5e-324)
T0_CHOICES = (2.0 * math.pi, 1.7)


def deck(count: int = DECK_SIZE):
    """The first ``count`` problems of the seeded deck, as HhlProblem arguments."""
    rng = np.random.default_rng(SEED)
    for i in range(count):
        dim = (2, 4)[rng.integers(2)]
        n = int(rng.integers(1, 9))
        t0 = T0_CHOICES[rng.integers(len(T0_CHOICES))]
        c = C_CHOICES[rng.integers(len(C_CHOICES))]
        if i % 2 == 0:
            positions = rng.integers(1, 1 << n, size=dim).astype(float)
        else:
            positions = 2.0 ** rng.uniform(-3, n + 1, size=dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        v, _ = np.linalg.qr(m)
        a = (v * (positions * (2.0 * math.pi / t0))) @ v.conj().T
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        yield a, b / np.linalg.norm(b), n, t0, c


def digest(count: int = DECK_SIZE) -> tuple[str, int, int]:
    """(sha256 hex digest, problems solved, problems refused) over the first ``count`` problems."""
    sha = hashlib.sha256()
    solved = refused = 0
    for a, b, n, t0, c in deck(count):
        try:
            r = hhl.run_hhl(hhl.HhlProblem(a, b, n, t0, c))
        except SimulationError as e:
            refused += 1
            sha.update(f"refused {type(e).__name__}: {e}\n".encode())
            continue
        solved += 1
        sha.update(r.x_state.tobytes())
        sha.update(r.pre_cut_state.tobytes())
        sha.update(np.array([r.success_probability, r.fidelity_vs_classical]).tobytes())
        sha.update(json.dumps([r.register_reset_ok, list(r.gate_count.items())]).encode())
    return sha.hexdigest(), solved, refused


if __name__ == "__main__":
    hexdigest, solved, refused = digest()
    print(f"{hexdigest} ({solved} solved, {refused} refused)")

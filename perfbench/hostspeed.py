"""Host speed, measured by a fixed calibration kernel run between operations.

The shared host this benchmark runs on changes speed by up to 1.5x over
seconds to minutes: every operation, and any code at all, slows down
together. A timing taken in a slow phase and one taken in a fast phase
then differ by more than a benchmark bound, although the program did not
change. To take that out, the runner times this kernel right after every
operation and scales each measured time by

    factor = KERNEL_REF_S / (rolling median of nearby kernel times)

so timings read as seconds on a host where the kernel takes KERNEL_REF_S.
The kernel is the benchmark's own code and does not call the package, so
a change to the package moves the scaled timings and never the factor.
It mixes what the package's operations, and the start of a fresh
interpreter, spend their time on: interpreter loops, page faults on
freshly mapped memory, array sorting, and small complex matrix products.
"""
from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

# the kernel's median time on the host the baseline was measured on
# (2 vCPU Xeon, Python 3.11, numpy 2.4 with one OpenBLAS thread)
KERNEL_REF_S = 0.0065
# kernel samples on each side of an operation that its factor is taken over
WINDOW = 10

_UNIFORM = np.random.default_rng(12345).random((20_000, 4))
_MATRIX = np.random.default_rng(54321).random((48, 48)) * (1 + 1j)


def kernel() -> float:
    """Run the calibration kernel twice; return the shorter wall time in seconds.

    Right after a child process exits (the cli workload) a single run reads
    up to 1.5x slow more often than not; the shorter of two back-to-back
    runs tracks the host's speed, not that after-effect.
    """
    return min(_kernel_once(), _kernel_once())


def _kernel_once() -> float:
    start = time.perf_counter()
    with mmap.mmap(-1, 1 << 20) as fresh:
        np.frombuffer(fresh, dtype=np.uint8)[::mmap.PAGESIZE] = 1  # one fault per page
    acc = 0
    for i in range(12_000):
        acc += i * i
    path = np.zeros(len(_UNIFORM), dtype=np.int64)
    for k in range(_UNIFORM.shape[1]):
        _, inv = np.unique(path, return_inverse=True)
        path = (path << 1) | (_UNIFORM[:, k] < 0.25 + 0.5 * (inv & 1))
    m = _MATRIX
    for _ in range(8):
        m = m @ _MATRIX
        m /= np.abs(m).max()
    return time.perf_counter() - start


def factors(kernel_s: list[float]) -> list[float]:
    """Scale factor for each sample: reference over the median of the
    kernel times within WINDOW samples of it."""
    n = len(kernel_s)
    return [KERNEL_REF_S / statistics.median(kernel_s[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(n)]

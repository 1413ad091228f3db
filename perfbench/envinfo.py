"""Environment record written beside every benchmark result.

Two results are comparable only when their records agree on everything
but the code identity (``commit`` and ``source_sha256``).
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CODE_KEYS = ("commit", "source_sha256")


def _blas() -> tuple[str, int | None]:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    # numpy wheels ship OpenBLAS beside the package; ask it for its thread count
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return name, int(threads) if threads else None


def _commit() -> str | None:
    """HEAD of the checkout's own .git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the package sources, which identifies code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(width_caps: dict[str, int]) -> dict:
    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "width_caps": width_caps,
    }


def differences(a: dict, b: dict) -> list[str]:
    """Keys outside the code identity on which two records disagree."""
    return sorted(k for k in set(a) | set(b) if k not in CODE_KEYS and a.get(k) != b.get(k))

"""Pinned process environment and the build fingerprint of a result.

:func:`pin_threads` must run before numpy is imported: OpenBLAS and
OpenMP read their thread counts once, when the library loads.
:func:`select_program` removes the ``REPRO_*`` variables that select
non-default code paths, so a run always measures the defaults.
:func:`fingerprint` records what a timing depends on besides the code
under test.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Dict

#: Repository root of the checkout this benchmark lives in.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS threads.  The reference box has two cores; one thread keeps
#: the small per-iteration GEMMs free of thread hand-off jitter.
BLAS_THREADS = 1

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Variables that switch the program to a non-default code path.
UNSET_VARS = (
    "REPRO_KERNEL_BACKEND",
    "REPRO_MESSAGE_PLANE",
    "REPRO_RNG_MODE",
    "REPRO_BENCH_PAPER",
    "REPRO_DEBUG_PAIRWISE",
)


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def pin_threads() -> None:
    """Pin the BLAS/OpenMP thread pools; only effective before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def select_program() -> None:
    """Measure the checkout's ``src/repro`` on its default code paths."""
    for var in UNSET_VARS:
        os.environ.pop(var, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """sha256 over every ``src/repro`` source file, path and bytes."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, object]:
    """Numerical-stack and code provenance of one result."""
    import numpy as np

    from repro.engine.base import resolve_rng_mode
    from repro.linalg.backends import get_kernel_backend
    from repro.network.batch import resolve_message_plane

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas_info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, AttributeError):  # numpy without mode="dicts"
        blas_info = {"name": "unknown", "version": "unknown"}
    return {
        "source": source_digest(),
        "numpy_version": np.__version__,
        "blas": blas_info,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "kernel_backend": type(get_kernel_backend()).__name__,
        "message_plane": resolve_message_plane(None),
        "rng_mode": resolve_rng_mode(None),
    }

"""Host fingerprint printed with every run.

The numbers this benchmark reports depend on how many cores the host
has and how many threads numpy's BLAS uses per process: under the SPMD
runtime every rank is a thread of one process, and each rank's BLAS
calls fan out over the same thread pool, so two ranks on two cores with
two BLAS threads each oversubscribe the host. The fingerprint records
that state as found; the benchmark sets no thread count and no
environment variable.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys

import numpy as np

# numpy wheels bundle scipy-openblas, whose getters carry these names
# (64-bit integer interface); without them the library reads as None
_THREADS_FN = "scipy_openblas_get_num_threads64_"
_CONFIG_FN = "scipy_openblas_get_config64_"


def _blas_libraries() -> list[str]:
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs_dir, "*openblas*")))
    return [os.path.realpath(p) for p in found]


def blas_info() -> dict:
    """BLAS library, its version string and its current thread count."""
    for path in _blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads_fn = getattr(lib, _THREADS_FN, None)
        if threads_fn is None:
            continue
        threads_fn.argtypes = []
        threads_fn.restype = ctypes.c_int
        config = None
        config_fn = getattr(lib, _CONFIG_FN, None)
        if config_fn is not None:
            config_fn.argtypes = []
            config_fn.restype = ctypes.c_char_p
            raw = config_fn()
            config = raw.decode(errors="replace") if raw else None
        return {
            "library": os.path.basename(path),
            "config": config,
            "threads": int(threads_fn()),
        }
    return {"library": None, "config": None, "threads": None}


def git_sha(root: str) -> str | None:
    """The checkout's commit, or None where the tree is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # never report the commit of an enclosing repository
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def fingerprint(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "git_sha": git_sha(root),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }

"""The settings in force during a run, read without changing any of them."""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import platform
from pathlib import Path
from typing import Optional


@functools.cache
def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS, or ``None`` when it cannot be found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    candidates = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*")))
    # Loading by path returns the copy numpy already mapped.
    return ctypes.CDLL(candidates[0]) if candidates else None


def _openblas_call(name: str, restype, default):
    fn = getattr(_openblas(), name, None)
    if fn is None:
        return default
    fn.argtypes = []
    fn.restype = restype
    return fn()


def blas_threads() -> int:
    """Effective OpenBLAS thread count, or -1 when it cannot be read."""
    return int(_openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int, -1))


def blas_core() -> str:
    """The kernel family OpenBLAS picked for this CPU at load time."""
    core = _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p, None)
    return core.decode() if core else "unknown"


def _commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` files; ``unknown`` without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: Path, workload: str, seed: int, trace: bool) -> dict:
    """Host, versions, commit and the program's thread/dtype/arena settings."""
    import numpy
    import scipy

    from repro.nn.arena import arena_enabled
    from repro.nn.dtype import default_dtype
    from repro.nn.kernels import num_threads

    affinity: Optional[int]
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _commit(root),
        "nproc": affinity or os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads(),
        "openblas_core": blas_core(),
        "repro_num_threads": num_threads(),
        "default_dtype": str(default_dtype()),
        "arena_enabled": bool(arena_enabled()),
    }

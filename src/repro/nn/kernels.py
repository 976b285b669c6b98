"""Thread-parallel CSR kernels behind the sparse autograd ops.

scipy's compiled CSR @ dense kernel (``csr_matvecs``) releases the GIL, so
row-block partitioning the matrix across a small thread pool scales on
multicore hosts without any new dependency.  Each output row is still
accumulated sequentially over its nonzeros by exactly one thread, so the
blocked product is **bit-identical** to the serial scipy product no matter
how many threads or blocks are used — reproducibility is preserved by
construction, not by tolerance.

Thread budget, one number per process:

* :func:`set_num_threads` / :class:`threads` — set it process-wide.
* ``REPRO_NUM_THREADS`` — environment value applied at import (default 1).

The budget sizes the spmm pool *and* both OpenBLAS copies bundled with the
numpy and scipy wheels (set through ``ctypes``; a missing library is
skipped), so it overrides ``OPENBLAS_NUM_THREADS`` inside repro processes.
Left alone, each OpenBLAS starts one thread per core, and the idle ones spin
between calls.  The default of 1 runs the plain serial ``matrix @ dense``
scipy call and single-threaded GEMM.  It stays compatible with the
fork-based process pool in :mod:`repro.parallel`, which gives each worker
``max(1, budget // jobs)``: a forked child never inherits live worker
threads, and :func:`os.register_at_fork` drops the (unusable) inherited
pool handle so children lazily rebuild their own.

:func:`spmm_data` is the single entry point used by
:mod:`repro.nn.functional`; it also accepts a preallocated ``out`` buffer
so the tape arena (:mod:`repro.nn.arena`) can recycle output buffers
across training steps.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import scipy
import scipy.sparse as sp

from .arena import active_arena

try:  # the compiled kernel backing scipy's own CSR @ dense-matrix product
    from scipy.sparse import _sparsetools

    _csr_matvecs = _sparsetools.csr_matvecs
except Exception:  # pragma: no cover - exotic scipy builds
    _csr_matvecs = None

# Below this many stored values the product is too small for thread
# dispatch (or even a separate zero-fill pass) to pay for itself.
_MIN_PARALLEL_NNZ = 20_000

_lock = threading.Lock()
_num_threads = 1
_pool: Optional[ThreadPoolExecutor] = None


# The OpenBLAS copies bundled with the numpy and scipy wheels: the name a
# budget report gives each, the wheel's library directory and file, and the
# thread-count symbols (numpy's copy has the 64-bit-integer interface).
_BLAS_LIBRARIES = (
    ("numpy_blas", np, "libscipy_openblas64_*", "scipy_openblas_{}_num_threads64_"),
    ("scipy_blas", scipy, "libscipy_openblas-*", "scipy_openblas_{}_num_threads"),
)


@functools.cache
def _blas_controls() -> Dict[str, Tuple[Callable[[], int], Callable[[int], None]]]:
    """``name -> (get, set)`` thread-count calls of each bundled OpenBLAS found."""
    controls = {}
    for name, package, pattern, symbol in _BLAS_LIBRARIES:
        site = os.path.dirname(os.path.dirname(package.__file__))
        found = sorted(glob.glob(os.path.join(site, package.__name__ + ".libs", pattern)))
        if not found:
            continue
        try:
            # Loading by path returns the copy the package already mapped.
            library = ctypes.CDLL(found[0])
            get = getattr(library, symbol.format("get"))
            set_ = getattr(library, symbol.format("set"))
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls[name] = (get, set_)
    return controls


def blas_threads() -> Dict[str, Optional[int]]:
    """Thread count of each bundled OpenBLAS (``None`` where none is found)."""
    counts: Dict[str, Optional[int]] = {name: None for name, *_ in _BLAS_LIBRARIES}
    for name, (get, _set) in _blas_controls().items():
        counts[name] = get()
    return counts


def thread_budget() -> Dict[str, Optional[int]]:
    """The effective budget, as run manifests and bench records carry it."""
    return {"budget": _num_threads, **blas_threads()}


def num_threads() -> int:
    """The process thread budget (1 = serial, the default)."""
    return _num_threads


def set_num_threads(count: int) -> int:
    """Set the thread budget process-wide; returns the previous budget.

    Sizes the spmm worker pool and both bundled OpenBLAS copies.
    """
    count = int(count)
    if count < 1:
        raise ValueError(f"num_threads must be >= 1, got {count}")
    global _num_threads, _pool
    with _lock:
        previous = _num_threads
        if count != _num_threads:
            if _pool is not None:
                _pool.shutdown(wait=True)
                _pool = None
            _num_threads = count
    for _get, set_blas in _blas_controls().values():
        set_blas(count)
    return previous


class threads:
    """Context manager scoping the budget: ``with threads(4): ...``."""

    def __init__(self, count: int) -> None:
        self.count = count
        self._previous: Optional[int] = None

    def __enter__(self) -> int:
        self._previous = set_num_threads(self.count)
        return self.count

    def __exit__(self, *exc_info) -> None:
        set_num_threads(self._previous)


def _get_pool() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            # The calling thread computes one block itself, so the pool only
            # needs workers for the remaining blocks.
            _pool = ThreadPoolExecutor(
                max_workers=_num_threads - 1, thread_name_prefix="repro-spmm"
            )
        return _pool


def _drop_pool_after_fork() -> None:
    # Worker threads do not survive fork(); drop the inherited handle (and
    # replace the possibly-locked lock) so the child rebuilds lazily.
    global _pool, _lock
    _lock = threading.Lock()
    _pool = None


os.register_at_fork(after_in_child=_drop_pool_after_fork)


def _row_blocks(indptr: np.ndarray, blocks: int) -> np.ndarray:
    """Row boundaries splitting the matrix into ``blocks`` nnz-balanced blocks."""
    n_rows = indptr.shape[0] - 1
    total = int(indptr[-1])
    targets = (total * np.arange(1, blocks)) // blocks
    splits = np.searchsorted(indptr, targets, side="left")
    bounds = np.concatenate(([0], splits, [n_rows]))
    return np.unique(bounds)


def _matvecs_block(matrix: sp.csr_matrix, flat_dense, out, r0: int, r1: int) -> None:
    indptr = matrix.indptr
    start, stop = int(indptr[r0]), int(indptr[r1])
    block_indptr = indptr[r0 : r1 + 1] - indptr[r0]
    _csr_matvecs(
        r1 - r0,
        matrix.shape[1],
        out.shape[1],
        block_indptr,
        matrix.indices[start:stop],
        matrix.data[start:stop],
        flat_dense,
        out[r0:r1].ravel(),
    )


def _eligible(matrix, dense) -> bool:
    return (
        _csr_matvecs is not None
        and sp.issparse(matrix)
        and matrix.format == "csr"
        and isinstance(dense, np.ndarray)
        and dense.ndim == 2
        and matrix.dtype == dense.dtype
        and matrix.dtype.kind == "f"
    )


def spmm_data(matrix, dense: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``matrix @ dense`` with optional threading and output-buffer reuse.

    Bit-identical to the serial scipy product for any thread count: blocks
    partition whole rows and ``csr_matvecs`` accumulates each row's
    nonzeros in index order exactly as the full-matrix call does.  Falls
    back to ``matrix @ dense`` (ignoring ``out``) whenever the fast path
    does not apply (1-D operand, non-CSR layout, mixed dtypes).
    """
    if not _eligible(matrix, dense):
        return matrix @ dense
    n_rows = matrix.shape[0]
    shape = (n_rows, dense.shape[1])
    if out is not None and (out.shape != shape or out.dtype != matrix.dtype):
        out = None
    if out is None:
        arena = active_arena()
        if arena is not None:
            out = arena.take(shape, matrix.dtype)
    pool_size = _num_threads
    threaded = (
        pool_size > 1 and matrix.nnz >= _MIN_PARALLEL_NNZ and n_rows >= 2 * pool_size
    )
    if not threaded and out is None:
        # Nothing to gain over scipy's own (identical) kernel invocation.
        return matrix @ dense
    if out is None:
        out = np.zeros(shape, dtype=matrix.dtype)
    else:
        out.fill(0.0)
    flat_dense = dense.ravel()  # copies only when ``dense`` is non-contiguous
    if not threaded:
        _matvecs_block(matrix, flat_dense, out, 0, n_rows)
        return out
    bounds = _row_blocks(matrix.indptr, pool_size)
    pool = _get_pool()
    futures = [
        pool.submit(_matvecs_block, matrix, flat_dense, out, int(r0), int(r1))
        for r0, r1 in zip(bounds[1:-1], bounds[2:])
    ]
    _matvecs_block(matrix, flat_dense, out, int(bounds[0]), int(bounds[1]))
    for future in futures:
        future.result()
    return out


def _apply_environment() -> None:
    set_num_threads(int(os.environ.get("REPRO_NUM_THREADS", "").strip() or 1))


_apply_environment()

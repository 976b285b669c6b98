"""Process-pool execution of experiment cells with deterministic merge.

Every table and figure of the paper is an embarrassingly parallel sweep
over (method x dataset x seed) *cells* — one pretrain+eval at a fixed seed.
:func:`run_cells` is the one harness all runners route through::

    scores = run_cells(cells, run_one_cell, jobs=4)

With ``jobs=1`` (the default) the cells run inline, exactly like the old
nested ``for`` loops.  With ``jobs>1`` they run in a pool of forked worker
processes, and the parent merges everything back **in canonical cell
order**, so a parallel run returns results bit-identical to a serial run:

* **Results** come back as a list aligned with ``cells``.
* **RNG** — each cell starts from a deterministically derived global-RNG
  seed (:func:`derive_cell_seed`), applied identically inline and in
  workers; methods additionally self-seed from their ``seed`` argument, so
  the jobs count can never leak into table values.
* **Profiler** — when the parent holds an active
  :func:`repro.nn.profiler.profile` session, each worker profiles its cell
  in a private session and ships the per-op stats back; the parent folds
  them in with :meth:`ProfilerSession.merge_state`.
* **Telemetry** — when the parent holds an active
  :class:`~repro.obs.recorder.MetricsRecorder`, each worker records into a
  private shard file (:mod:`repro.obs.shard`); the parent replays the
  shards in cell order, re-parenting spans under the span that was open at
  launch and summing counters, so a parallel table run still produces one
  valid ``runs/<run_id>/`` record.
* **Errors** — a cell's exception (original type preserved when picklable,
  :class:`CellError` with the worker traceback otherwise) is re-raised in
  the parent after every cell has finished and every shard is merged.  A
  worker process that dies mid-cell (``os._exit``, a signal, the OOM
  killer) stops the pool at once: the other workers are terminated, the
  finished cells' shards are merged, and :class:`CellError` names the cell.
* **Threads** — each worker runs under ``max(1, budget // jobs)`` of the
  parent's thread budget (:func:`repro.nn.kernels.set_num_threads`), so
  ``jobs`` workers share the cores the budget allows instead of each
  starting a full OpenBLAS pool.

Worker processes are created by fork, so cell functions may be closures
over arbitrary parent state (profiles, configs, datasets) without any of
it being pickled; only the per-cell *results* cross the pipe.  Platforms
without fork (and nested ``run_cells`` calls inside a worker) degrade to
the inline path.

The jobs count resolves as: explicit ``jobs`` argument, else the
``REPRO_JOBS`` environment variable, else the process-wide default set by
:func:`set_default_jobs` (what the CLI ``--jobs`` flag sets), else 1.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import shutil
import tempfile
import traceback
import zlib
from multiprocessing import connection
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..nn import kernels
from ..nn import profiler as nn_profiler
from ..obs import hooks as obs_hooks
from ..obs import recorder as obs_recorder
from ..obs import spans as obs_spans
from ..obs.recorder import active_recorder, record
from ..obs.shard import ShardWriter, merge_shard

C = TypeVar("C")
R = TypeVar("R")

_default_jobs = 1
_IN_WORKER = False

# Populated in the parent immediately before the pool forks, inherited by
# the workers through fork (never pickled), cleared once the pool drains.
_FORK_STATE: dict = {}


class CellError(RuntimeError):
    """A worker cell failed unpicklably, returned an unpicklable value, or died."""


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default jobs count (``None`` resets to 1)."""
    global _default_jobs
    _default_jobs = 1 if jobs is None else max(int(jobs), 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective jobs count: argument > ``REPRO_JOBS`` > default."""
    if jobs is not None:
        return max(int(jobs), 1)
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
    return _default_jobs


def derive_cell_seed(label: str, index: int) -> int:
    """Deterministic per-cell seed for the global numpy RNG.

    Stable across processes and Python sessions (CRC32 of ``label/index``),
    so the inline path and every worker derive the same stream for the same
    cell — the executor's contribution to bit-identical parallel tables.
    """
    return zlib.crc32(f"{label}/{index}".encode()) & 0x7FFFFFFF


def _seed_cell_rng(label: str, index: int) -> None:
    # Methods self-seed from their ``seed`` argument; this guards any code
    # that reaches for the global legacy RNG, making it per-cell
    # deterministic regardless of scheduling.
    np.random.seed(derive_cell_seed(label, index))


def _run_inline(fn: Callable[[C], R], cell: C, label: str, index: int) -> R:
    _seed_cell_rng(label, index)
    return fn(cell)


def _worker_init(share: int) -> None:
    """Give a forked worker its thread share and reset inherited telemetry.

    The fork copies the parent's thread-local recorder, hook stack, span
    stack, and profiler session — including a live handle to the parent's
    ``events.jsonl``.  A worker must never write through those: it gets a
    fresh recorder over its own shard (or none at all) in
    :func:`_worker_run_cell`.
    """
    global _IN_WORKER
    _IN_WORKER = True
    kernels.set_num_threads(share)
    nn_profiler._tls.session = None
    obs_hooks._tls.hooks = ()
    obs_recorder._tls.recorder = None
    obs_spans._tls.spans = []


def _picklable_error(exc: BaseException, cell: object) -> BaseException:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return CellError(
            f"cell {cell!r} raised {type(exc).__name__}: {exc}\n"
            + "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        )


def shard_path(directory: str | Path, index: int) -> Path:
    """The shard file of cell ``index`` under a pool's shard directory."""
    return Path(directory) / f"cell-{index:04d}.jsonl"


def _worker_run_cell(index: int) -> dict:
    """Run one cell in a worker: seed, profile, record, execute, package."""
    state = _FORK_STATE
    cell = state["cells"][index]
    _seed_cell_rng(state["label"], index)

    payload = {"index": index, "ok": False, "value": None, "ops": None, "error": None}
    profiling = nn_profiler.profile() if state["profile"] else None
    writer = ShardWriter(shard_path(state["shard_dir"], index)) if state["shard_dir"] else None
    session = None
    recording = None
    try:
        if profiling is not None:
            session = profiling.__enter__()
        if writer is not None:
            recording = record(writer=writer)
            recording.__enter__()
        try:
            payload["value"] = state["fn"](cell)
            payload["ok"] = True
        except BaseException as exc:
            payload["error"] = _picklable_error(exc, cell)
    finally:
        if recording is not None:
            recording.__exit__(None, None, None)
        if writer is not None:
            writer.close()
        if profiling is not None:
            profiling.__exit__(None, None, None)
            payload["ops"] = session.export_state()
    return payload


def run_cells(
    cells: Iterable[C] | Sequence[C],
    fn: Callable[[C], R],
    jobs: Optional[int] = None,
    label: str = "cells",
) -> List[R]:
    """Run ``fn`` over every cell, optionally across worker processes.

    Returns the results in the order of ``cells`` regardless of worker
    scheduling.  See the module docstring for the merge semantics; with
    the resolved jobs count at 1 (or a single cell, or no fork support,
    or when already inside a worker) the cells run inline.
    """
    cells = list(cells)
    if not cells:
        return []
    jobs = min(resolve_jobs(jobs), len(cells))
    if (
        jobs <= 1
        or _IN_WORKER
        or "fork" not in mp.get_all_start_methods()
    ):
        return [_run_inline(fn, cell, label, i) for i, cell in enumerate(cells)]
    return _run_pool(cells, fn, jobs, label)


def _worker_main(conn: connection.Connection, share: int) -> None:
    """A worker's loop: run each cell index the parent sends, until ``None``."""
    _worker_init(share)
    for index in iter(conn.recv, None):
        payload = _worker_run_cell(index)
        try:
            conn.send(payload)
        except Exception as exc:  # the cell's value does not pickle
            cell = _FORK_STATE["cells"][index]
            message = f"cell {cell!r} returned an unpicklable value: {exc}"
            payload.update(ok=False, value=None, error=CellError(message))
            conn.send(payload)


def _drain_pool(cells: List[C], jobs: int) -> Tuple[List[Optional[dict]], Optional[CellError]]:
    """Run every cell over ``jobs`` forked workers; returns the payloads.

    Each worker has its own pipe and the parent hands it one cell index at
    a time, so the parent always knows which cell a worker runs.  A
    worker's death closes the only copy of its pipe end and reads as EOF:
    the pool then stops and the lost cell comes back as a :class:`CellError`
    (payloads of cells that never finished stay ``None``).
    """
    context = mp.get_context("fork")
    share = max(1, kernels.num_threads() // jobs)
    payloads: List[Optional[dict]] = [None] * len(cells)
    pending = iter(range(len(cells)))
    running: dict = {}  # connection -> (process, cell index)
    workers = []
    lost: Optional[CellError] = None
    drained = False

    def dispatch(process, conn) -> None:
        index = next(pending, None)
        conn.send(index)
        if index is not None:
            running[conn] = (process, index)

    try:
        for _ in range(jobs):
            conn, child_conn = context.Pipe()
            process = context.Process(target=_worker_main, args=(child_conn, share), daemon=True)
            process.start()
            child_conn.close()
            workers.append((process, conn))
        for process, conn in workers:
            dispatch(process, conn)
        while running and lost is None:
            for conn in connection.wait(list(running)):
                process, index = running.pop(conn)
                try:
                    payloads[index] = conn.recv()
                except EOFError:
                    process.join()
                    lost = CellError(
                        f"cell {cells[index]!r}: its worker process died "
                        f"(exit code {process.exitcode})"
                    )
                    break
                dispatch(process, conn)
        drained = lost is None
    finally:
        for process, conn in workers:
            if not drained:
                process.terminate()  # stopped early: drop the cells in flight
            process.join()
            conn.close()
    return payloads, lost


def _run_pool(cells: List[C], fn: Callable[[C], R], jobs: int, label: str) -> List[R]:
    recorder = active_recorder()
    session = nn_profiler.active_session()
    span_prefix = obs_spans.current_span()
    depth_offset = len(obs_spans.span_stack())

    shard_dir: Optional[str] = None
    if recorder is not None:
        # Persisted runs shard under runs/<run_id>/shards/ so that
        # `repro runs watch` can tail worker progress while the pool is
        # still draining; in-memory recorders fall back to a tempdir.
        # Either way the shards are deleted once merged.
        run_dir = getattr(recorder.writer, "directory", None)
        if run_dir is not None:
            shard_dir = str(Path(run_dir) / "shards")
            Path(shard_dir).mkdir(parents=True, exist_ok=True)
        else:
            shard_dir = tempfile.mkdtemp(prefix="repro-telemetry-shards-")

    if _FORK_STATE:
        raise RuntimeError("run_cells is not reentrant within one process")
    _FORK_STATE.update(
        fn=fn,
        cells=cells,
        label=label,
        shard_dir=shard_dir,
        profile=session is not None,
    )
    try:
        payloads, lost = _drain_pool(cells, jobs)
    finally:
        _FORK_STATE.clear()

    # Deterministic merge: canonical cell order, not completion order.
    values: List[R] = []
    error: Optional[BaseException] = None
    error_cell: object = None
    for index, payload in enumerate(payloads):
        if payload is None:
            continue  # lost or never run: the pool stopped at a dead worker
        if shard_dir is not None:
            merge_shard(
                recorder,
                shard_path(shard_dir, index),
                span_prefix=span_prefix,
                depth_offset=depth_offset,
            )
        if session is not None and payload["ops"] is not None:
            session.merge_state(payload["ops"])
        if payload["ok"]:
            values.append(payload["value"])
        elif error is None:
            error = payload["error"]
            error_cell = cells[index]
    if shard_dir is not None:
        shutil.rmtree(shard_dir, ignore_errors=True)
    if lost is not None:
        raise lost
    if error is not None:
        try:
            error.add_note(f"raised in a run_cells worker for cell {error_cell!r}")
        except AttributeError:
            pass  # add_note is 3.11+; the exception still carries its message
        raise error
    return values

"""Unit tests for the process-pool cell executor."""

import json
import multiprocessing as mp
import os
import threading

import numpy as np
import pytest

from repro.nn import kernels
from repro.nn import profiler as nn_profiler
from repro.obs import telemetry_run
from repro.parallel import (
    CellError,
    derive_cell_seed,
    resolve_jobs,
    run_cells,
    set_default_jobs,
)
from repro.parallel import executor


class TestJobsResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_bad_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_default_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        set_default_jobs(4)
        try:
            assert resolve_jobs() == 4
        finally:
            set_default_jobs(None)
        assert resolve_jobs() == 1

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1


class TestRunCells:
    def test_empty(self):
        assert run_cells([], lambda c: c, jobs=4) == []

    def test_order_preserved_inline_and_parallel(self):
        cells = list(range(20))
        fn = lambda c: c * c  # noqa: E731
        assert run_cells(cells, fn, jobs=1) == run_cells(cells, fn, jobs=4)

    def test_closures_see_parent_state(self):
        offset = 100
        assert run_cells([1, 2, 3], lambda c: c + offset, jobs=3) == [101, 102, 103]

    def test_global_rng_deterministic_across_modes(self):
        fn = lambda _cell: float(np.random.random())  # noqa: E731
        serial = run_cells([0, 1, 2, 3], fn, jobs=1, label="rng")
        parallel = run_cells([0, 1, 2, 3], fn, jobs=3, label="rng")
        assert serial == parallel
        # And distinct cells get distinct streams.
        assert len(set(serial)) == len(serial)

    def test_cell_seed_is_stable(self):
        assert derive_cell_seed("table4", 0) == derive_cell_seed("table4", 0)
        assert derive_cell_seed("table4", 0) != derive_cell_seed("table4", 1)
        assert derive_cell_seed("table4", 0) != derive_cell_seed("table5", 0)

    def test_error_type_preserved(self):
        def fn(cell):
            if cell == 2:
                raise MemoryError("dense diffusion too large")
            return cell

        with pytest.raises(MemoryError, match="dense diffusion"):
            run_cells([0, 1, 2, 3], fn, jobs=3)

    def test_unpicklable_error_becomes_cell_error(self):
        def fn(cell):
            raise RuntimeError("boom", lambda: None)  # lambda: unpicklable

        with pytest.raises(CellError, match="boom"):
            run_cells([0, 1], fn, jobs=2)

    def test_nested_call_runs_inline(self):
        def outer(cell):
            # Inside a worker the nested call must not fork again.
            return sum(run_cells([cell, cell + 1], lambda c: c, jobs=4))

        assert run_cells([0, 10], outer, jobs=2) == [1, 21]

    def test_fork_state_cleared_after_pool(self):
        run_cells([0, 1], lambda c: c, jobs=2)
        assert executor._FORK_STATE == {}

    def test_fork_state_cleared_after_error(self):
        def fn(cell):
            raise ValueError("nope")

        with pytest.raises(ValueError):
            run_cells([0, 1], fn, jobs=2)
        assert executor._FORK_STATE == {}


class TestProfilerMerge:
    def test_worker_ops_fold_into_parent_session(self):
        def fn(cell):
            session = nn_profiler.active_session()
            assert session is not None  # worker opened its own session
            session.record("test.op", 0.25, bytes_touched=8)
            return cell

        with nn_profiler.profile() as prof:
            run_cells([0, 1, 2], fn, jobs=3)
        stat = prof.stats["test.op"]
        assert stat.calls == 3
        assert stat.seconds == pytest.approx(0.75)
        assert stat.bytes_touched == 24

    def test_no_parent_session_no_worker_session(self):
        def fn(cell):
            return nn_profiler.active_session() is None

        assert run_cells([0, 1], fn, jobs=2) == [True, True]


class TestWorkerDeath:
    def test_dead_worker_raises_and_seals_manifest(self, tmp_path):
        pids = tmp_path / "pids"
        pids.mkdir()

        def fn(cell):
            (pids / f"{cell}-{os.getpid()}").touch()
            if cell == 1:
                os._exit(1)
            return cell

        outcome = {}

        def run():
            try:
                with telemetry_run(tmp_path / "runs", method="cells", dataset="toy"):
                    outcome["value"] = run_cells([0, 1, 2, 3], fn, jobs=2)
            except Exception as exc:
                outcome["error"] = exc

        # A lost worker must not hang the parent: wait a bounded time.
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "run_cells hung after a worker died"

        error = outcome.get("error")
        assert isinstance(error, CellError)
        assert "cell 1" in str(error) and "exit code 1" in str(error)
        assert executor._FORK_STATE == {}
        assert mp.active_children() == []
        for path in pids.iterdir():
            with pytest.raises(ProcessLookupError):
                os.kill(int(path.name.split("-")[1]), 0)

        run_dir = next((tmp_path / "runs").iterdir())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "cell 1" in manifest["error"]
        assert not (run_dir / "shards").exists()

    def test_unpicklable_value_becomes_cell_error(self):
        with pytest.raises(CellError, match="unpicklable value"):
            run_cells([0, 1], lambda c: (lambda: c), jobs=2)


class TestThreadShare:
    @pytest.mark.parametrize("budget, share", [(1, 1), (4, 2)])
    def test_worker_runs_under_its_share(self, budget, share):
        def fn(_cell):
            return kernels.num_threads(), kernels.blas_threads()

        with kernels.threads(budget):
            before = kernels.thread_budget()
            results = run_cells([0, 1], fn, jobs=2)
            assert kernels.thread_budget() == before  # the parent keeps its budget
        assert [spmm for spmm, _ in results] == [share, share]
        blas = [c for _, counts in results for c in counts.values() if c is not None]
        if not blas:
            pytest.skip("no bundled OpenBLAS found")
        assert set(blas) == {share}

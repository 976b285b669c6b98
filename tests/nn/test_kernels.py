"""The row-blocked, optionally threaded CSR spmm kernel."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import kernels
from repro.nn.arena import BufferArena, use_arena
from repro.nn.kernels import _row_blocks, set_num_threads, spmm_data, threads


@pytest.fixture(autouse=True)
def _serial_by_default():
    previous = kernels.num_threads()
    set_num_threads(1)
    yield
    set_num_threads(previous)


def _random_csr(n_rows, degree, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n_rows), degree)
    cols = rng.integers(0, n_rows, size=rows.size)
    matrix = sp.csr_matrix(
        (rng.random(rows.size), (rows, cols)), shape=(n_rows, n_rows)
    )
    matrix.sum_duplicates()
    return matrix


class TestExactEquality:
    # 3000 rows x degree 8 = 24k nnz clears _MIN_PARALLEL_NNZ, so thread
    # counts > 1 genuinely exercise the blocked dispatch path.
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_matches_scipy_bitwise(self, count):
        matrix = _random_csr(3_000, 8)
        dense = np.random.default_rng(1).random((3_000, 8))
        reference = matrix @ dense
        with threads(count):
            assert np.array_equal(spmm_data(matrix, dense), reference)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_both_dtypes(self, dtype):
        matrix = _random_csr(3_000, 8).astype(dtype)
        dense = np.random.default_rng(2).random((3_000, 4)).astype(dtype)
        reference = matrix @ dense
        with threads(4):
            result = spmm_data(matrix, dense)
        assert result.dtype == np.dtype(dtype)
        assert np.array_equal(result, reference)

    def test_empty_and_skewed_rows(self):
        # One pathologically dense row plus empty rows: the nnz-balanced
        # partition collapses around the heavy row and must stay exact.
        n = 5_000
        rng = np.random.default_rng(3)
        rows = np.concatenate([np.zeros(30_000, dtype=np.int64), rng.integers(2, n, 500)])
        cols = rng.integers(0, n, rows.size)
        matrix = sp.csr_matrix((rng.random(rows.size), (rows, cols)), shape=(n, n))
        matrix.sum_duplicates()
        dense = rng.random((n, 3))
        reference = matrix @ dense
        with threads(4):
            assert np.array_equal(spmm_data(matrix, dense), reference)

    def test_non_square(self):
        matrix = sp.random(40, 70, density=0.2, format="csr", random_state=4)
        dense = np.random.default_rng(4).random((70, 5))
        assert np.array_equal(spmm_data(matrix, dense), matrix @ dense)


class TestFallbacks:
    def test_1d_operand(self):
        matrix = _random_csr(50, 4)
        vector = np.random.default_rng(5).random(50)
        np.testing.assert_array_equal(spmm_data(matrix, vector), matrix @ vector)

    def test_non_csr_layout(self):
        matrix = _random_csr(50, 4).tocsc()
        dense = np.random.default_rng(6).random((50, 3))
        np.testing.assert_allclose(spmm_data(matrix, dense), matrix @ dense)

    def test_mixed_dtypes(self):
        matrix = _random_csr(50, 4)  # float64
        dense = np.random.default_rng(7).random((50, 3)).astype(np.float32)
        np.testing.assert_array_equal(spmm_data(matrix, dense), matrix @ dense)

    def test_non_contiguous_dense(self):
        matrix = _random_csr(60, 4)
        wide = np.random.default_rng(8).random((60, 8))
        view = wide[:, ::2]  # non-contiguous: ravel() takes the copy path
        assert np.array_equal(spmm_data(matrix, view), matrix @ np.ascontiguousarray(view))


class TestOutBuffer:
    def test_writes_into_provided_buffer(self):
        matrix = _random_csr(40, 4)
        dense = np.random.default_rng(9).random((40, 3))
        out = np.full((40, 3), np.nan)  # stale garbage must be overwritten
        result = spmm_data(matrix, dense, out=out)
        assert result is out
        assert np.array_equal(out, matrix @ dense)

    def test_mismatched_out_ignored(self):
        matrix = _random_csr(40, 4)
        dense = np.random.default_rng(10).random((40, 3))
        bad_shape = np.empty((40, 2))
        bad_dtype = np.empty((40, 3), dtype=np.float32)
        for out in (bad_shape, bad_dtype):
            result = spmm_data(matrix, dense, out=out)
            assert result is not out
            assert np.array_equal(result, matrix @ dense)

    def test_arena_supplies_the_buffer(self):
        matrix = _random_csr(40, 4)
        dense = np.random.default_rng(11).random((40, 3))
        arena = BufferArena()
        with use_arena(arena):
            first = spmm_data(matrix, dense)
            del first
            arena.advance()
            second = spmm_data(matrix, dense)
        assert arena.stats()["hits"] == 1
        assert np.array_equal(second, matrix @ dense)


class TestKnobs:
    def test_set_num_threads_round_trip(self):
        assert set_num_threads(3) == 1
        assert kernels.num_threads() == 3
        assert set_num_threads(1) == 3

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            set_num_threads(0)

    def test_context_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with threads(2):
                assert kernels.num_threads() == 2
                raise RuntimeError("boom")
        assert kernels.num_threads() == 1

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        kernels._apply_environment()
        assert kernels.num_threads() == 2

    def test_environment_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        set_num_threads(3)
        kernels._apply_environment()
        assert kernels.num_threads() == 1


class TestBlasBudget:
    @pytest.fixture(autouse=True)
    def _bundled_openblas(self):
        if not any(count is not None for count in kernels.blas_threads().values()):
            pytest.skip("no bundled OpenBLAS found")

    def test_budget_sizes_both_blas_copies(self):
        with threads(3):
            found = {c for c in kernels.blas_threads().values() if c is not None}
            assert found == {3}
        assert kernels.thread_budget()["budget"] == 1

    def test_context_restores_blas_counts(self):
        before = kernels.blas_threads()
        with pytest.raises(RuntimeError):
            with threads(2):
                raise RuntimeError("boom")
        assert kernels.blas_threads() == before
        assert {c for c in before.values() if c is not None} == {1}


class TestRowBlocks:
    def test_partition_covers_all_rows(self):
        matrix = _random_csr(1_000, 5)
        bounds = _row_blocks(matrix.indptr, 4)
        assert bounds[0] == 0 and bounds[-1] == 1_000
        assert np.all(np.diff(bounds) > 0)

    def test_single_block(self):
        matrix = _random_csr(100, 5)
        np.testing.assert_array_equal(_row_blocks(matrix.indptr, 1), [0, 100])

    def test_skew_collapses_duplicate_bounds(self):
        # All nnz in row 0: every split lands at the same boundary and the
        # unique() pass must still return a valid strictly-increasing cover.
        indptr = np.array([0, 90, 90, 90, 90, 100])
        bounds = _row_blocks(indptr, 4)
        assert bounds[0] == 0 and bounds[-1] == 5
        assert np.all(np.diff(bounds) > 0)

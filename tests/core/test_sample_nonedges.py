"""The block sampler in ``sample_nonedges`` against the scalar rejection loop.

``_scalar_oracle`` is the per-pair loop ``sample_nonedges`` used to be, kept
here only as the reference: the block sampler must return the same pairs
(values, dtype and shape) and leave the generator in the same state, since
every method that samples non-edges (GCMAE, MaskGAE, S2GAE, SeeGera,
GC-VGE, SCGC) draws its next random numbers from that state.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.losses import sample_nonedges
from repro.graph.datasets import load_node_dataset


def _scalar_oracle(adjacency, count, rng):
    n = adjacency.shape[0]
    # Edge membership from the COO triplets; ``csr[u, v] != 0`` of the
    # original loop would need a row pointer of n + 1 entries, which the
    # n > 2**31 case cannot allocate.
    coo = sp.coo_matrix(adjacency, copy=True)
    coo.sum_duplicates()
    coo.eliminate_zeros()
    edges = set(zip(coo.row.tolist(), coo.col.tolist()))
    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < count * 50:
        attempts += 1
        u, v = rng.integers(0, n, size=2)
        if u == v or (int(u), int(v)) in edges:
            continue
        pairs.append((u, v))
    if not pairs:  # pathological density: fall back to any off-diagonal pair
        u = int(rng.integers(0, n))
        pairs = [(u, (u + 1) % n)]
    return np.array(pairs, dtype=np.int64)


def _assert_same(adjacency, count, cached_half, seed=3):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    if cached_half:
        # A bounded 32-bit draw leaves the upper half of a 64-bit output
        # cached in the PCG64 state (``has_uint32``/``uinteger``).
        fast.integers(0, 7)
        slow.integers(0, 7)
        assert fast.bit_generator.state["has_uint32"] == 1
    got = sample_nonedges(adjacency, count, fast)
    expected = _scalar_oracle(adjacency, count, slow)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.integers(0, 2**62) == slow.integers(0, 2**62)
    return got


@pytest.fixture(scope="module")
def cora():
    return load_node_dataset("cora-like", seed=0).adjacency


@pytest.mark.parametrize("cached_half", [False, True])
@pytest.mark.parametrize("count", [1, 7, 500, 5000])
def test_matches_scalar_loop_on_cora(cora, count, cached_half):
    pairs = _assert_same(cora, count, cached_half)
    assert len(pairs) == count


@pytest.mark.parametrize("cached_half", [False, True])
def test_complete_graph_takes_off_diagonal_fallback(cached_half):
    complete = sp.csr_matrix(np.ones((6, 6)) - np.eye(6))
    pairs = _assert_same(complete, 10, cached_half)
    assert pairs.shape == (1, 2) and pairs[0, 1] == (pairs[0, 0] + 1) % 6


@pytest.mark.parametrize("cached_half", [False, True])
def test_dense_graph_stops_at_attempt_cap(cached_half):
    # 3 non-edge pairs out of 30 * 29 ordered pairs: 40 * 50 attempts keep
    # about 7, far short of 40, so sampling ends at the cap.
    dense = np.ones((30, 30)) - np.eye(30)
    dense[0, 1] = dense[5, 9] = dense[20, 3] = 0.0
    pairs = _assert_same(sp.csr_matrix(dense), 40, cached_half)
    assert 1 < len(pairs) < 40


@pytest.mark.parametrize("cached_half", [False, True])
def test_frequent_lemire_rejections_above_2_pow_31(cached_half):
    # For n just above 2**31, a 32-bit draw is rejected with probability
    # (2**32 mod n) / 2**32, close to one half.
    n = 2**31 + 12345
    rows, cols = np.array([0, 5, 17, n - 1]), np.array([5, 0, n - 1, 17])
    adjacency = sp.coo_matrix((np.ones(4), (rows, cols)), shape=(n, n))
    pairs = _assert_same(adjacency, 300, cached_half)
    assert len(pairs) == 300


@pytest.mark.parametrize("count", [0, -3])
def test_non_positive_count_draws_only_the_fallback(cora, count):
    assert len(_assert_same(cora, count, cached_half=False)) == 1


def test_adjacency_with_explicit_zero_is_not_an_edge():
    adjacency = sp.csr_matrix(np.ones((4, 4)) - np.eye(4))
    adjacency.data[0] = 0.0  # stored (0, 1) entry with value zero
    pairs = _assert_same(adjacency, 2, cached_half=False)
    assert {tuple(p) for p in pairs.tolist()} == {(0, 1)}

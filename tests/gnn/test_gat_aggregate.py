"""Bit-identity of the fused GAT aggregation against its composite form.

``F.gat_aggregate`` replaces ``segment_sum(h[src] * c[..., None], dst, N)``
inside ``GATConv`` and must reproduce it exactly (``==``, not allclose):
the golden loss curves of every GAT method depend on it.  Widths 32-256
matter because numpy's pairwise summation only unrolls beyond 8 terms, and
``concat=False`` matters because the head mean hands the op a stride-0
broadcast gradient whose layout changes the summation order.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import GATConv
from repro.gnn.conv import _self_loop_edges
from repro.graph.datasets import load_node_dataset
from repro.nn import Tensor, functional as F

HEADS = 4


@pytest.fixture(scope="module")
def cora():
    return load_node_dataset("cora-like", seed=0)


@pytest.fixture(scope="module")
def edges(cora):
    src, dst = _self_loop_edges(cora.adjacency)
    n = cora.adjacency.shape[0]
    return src, dst, n, F.gat_aggregation_index(src, dst, n, HEADS)


def _composite(h, coefficients, src, dst, index):
    n, heads = h.shape[0], h.shape[1]
    return F.segment_sum(h[src] * coefficients.reshape(len(src), heads, 1), dst, n)


def _run(aggregate, edges, width, concat):
    src, dst, n, index = edges
    rng = np.random.default_rng(width)
    h = Tensor(rng.normal(size=(n, HEADS, width)), requires_grad=True)
    coefficients = Tensor(rng.random((len(src), HEADS)), requires_grad=True)
    out = aggregate(h, coefficients, src, dst, index)
    reduced = out.reshape(n, HEADS * width) if concat else out.mean(axis=1)
    weights = np.random.default_rng(1).normal(size=reduced.shape)
    (reduced * Tensor(weights)).sum().backward()
    return out.data, h.grad, coefficients.grad


@pytest.mark.parametrize("concat", [True, False])
@pytest.mark.parametrize("width", [32, 128, 256])
def test_op_bit_equal_to_composite(edges, width, concat):
    fused = _run(F.gat_aggregate, edges, width, concat)
    composite = _run(_composite, edges, width, concat)
    for name, a, b in zip(("forward", "h grad", "coefficient grad"), fused, composite):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a, b), f"{name} differs at width {width}, concat={concat}"


@pytest.mark.parametrize("concat", [True, False])
def test_layer_bit_equal_to_composite(cora, monkeypatch, concat):
    def run():
        conv = GATConv(
            cora.features.shape[1], 32, heads=HEADS, concat=concat, rng=np.random.default_rng(0)
        )
        x = Tensor(cora.features, requires_grad=True)
        out = conv(cora.adjacency, x)
        (out * Tensor(np.random.default_rng(1).normal(size=out.shape))).sum().backward()
        return [out.data, x.grad] + [p.grad for p in conv.parameters()]

    fused = run()
    monkeypatch.setattr(F, "gat_aggregate", _composite)
    composite = run()
    for a, b in zip(fused, composite):
        assert np.array_equal(a, b)


def test_index_requires_src_major_edges():
    with pytest.raises(ValueError, match="src-major"):
        F.gat_aggregation_index(np.array([1, 0]), np.array([0, 1]), 2, 1)


def test_self_loop_edges_src_major_for_unsorted_and_duplicate_entries():
    n = 5
    # CSR with unsorted column indices and a duplicated (2, 0) entry.
    indptr = np.array([0, 2, 3, 6, 7, 8])
    indices = np.array([3, 1, 0, 4, 0, 0, 2, 0])
    adjacency = sp.csr_matrix((np.ones(8), indices, indptr), shape=(n, n))
    assert not adjacency.has_sorted_indices
    src, dst = _self_loop_edges(adjacency)
    assert np.all(np.diff(src) >= 0)
    expected = {(0, 3), (0, 1), (1, 0), (2, 4), (2, 0), (3, 2), (4, 0)}
    expected |= {(i, i) for i in range(n)}
    assert sorted(zip(src.tolist(), dst.tolist())) == sorted(expected)

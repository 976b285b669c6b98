"""Unit tests for functional ops: spmm, softmax family, segments, losses."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import Tensor, functional as F

from tests.gradcheck import check_gradients


RNG = np.random.default_rng(1)


class TestSpmm:
    def test_forward_matches_dense(self):
        dense = RNG.normal(size=(5, 3))
        adj = sp.random(4, 5, density=0.5, random_state=2, format="csr")
        out = F.spmm(adj, Tensor(dense))
        np.testing.assert_allclose(out.data, adj.toarray() @ dense)

    def test_gradient(self):
        adj = sp.random(4, 5, density=0.6, random_state=3, format="csr")
        check_gradients(lambda x: F.spmm(adj, x), [RNG.normal(size=(5, 3))])

    def test_rejects_dense_matrix(self):
        with pytest.raises(TypeError):
            F.spmm(np.eye(3), Tensor(np.ones((3, 2))))


class TestSegments:
    def test_segment_sum_forward(self):
        values = np.arange(12.0).reshape(6, 2)
        ids = np.array([0, 0, 1, 1, 1, 2])
        out = F.segment_sum(Tensor(values), ids, 3)
        expected = np.stack([values[:2].sum(0), values[2:5].sum(0), values[5]])
        np.testing.assert_allclose(out.data, expected)

    def test_segment_mean_forward(self):
        values = np.arange(12.0).reshape(6, 2)
        ids = np.array([0, 0, 1, 1, 1, 2])
        out = F.segment_mean(Tensor(values), ids, 3)
        expected = np.stack([values[:2].mean(0), values[2:5].mean(0), values[5]])
        np.testing.assert_allclose(out.data, expected)

    def test_segment_mean_empty_segment_is_zero(self):
        values = np.ones((2, 2))
        out = F.segment_mean(Tensor(values), np.array([0, 2]), 3)
        np.testing.assert_allclose(out.data[1], 0.0)

    def test_segment_sum_gradient(self):
        ids = np.array([0, 1, 1, 0])
        check_gradients(lambda x: F.segment_sum(x, ids, 2), [RNG.normal(size=(4, 3))])

    def test_segment_max_forward_and_gradient(self):
        ids = np.array([0, 0, 1, 1])
        values = RNG.normal(size=(4, 2)) * 10
        out = F.segment_max(Tensor(values), ids, 2)
        np.testing.assert_allclose(out.data[0], values[:2].max(0))
        check_gradients(lambda x: F.segment_max(x, ids, 2), [values])


class TestGatAggregate:
    # Src-major edges of a 4-node graph with self loops; node 3 has no
    # in-edges other than its loop.
    SRC = np.array([0, 0, 0, 1, 1, 2, 2, 2, 3])
    DST = np.array([0, 1, 2, 1, 2, 0, 2, 3, 3])
    HEADS = 2

    def _aggregate(self, h, coefficients):
        index = F.gat_aggregation_index(self.SRC, self.DST, 4, self.HEADS)
        return F.gat_aggregate(h, coefficients, self.SRC, self.DST, index)

    def test_forward_matches_dense(self):
        h = RNG.normal(size=(4, self.HEADS, 3))
        c = RNG.random((len(self.SRC), self.HEADS))
        out = self._aggregate(Tensor(h), Tensor(c))
        expected = np.zeros_like(h)
        for e, (s, d) in enumerate(zip(self.SRC, self.DST)):
            expected[d] += c[e][:, None] * h[s]
        np.testing.assert_allclose(out.data, expected)

    def test_gradient(self):
        check_gradients(
            self._aggregate,
            [RNG.normal(size=(4, self.HEADS, 3)), RNG.random((len(self.SRC), self.HEADS))],
        )


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(5, 7)) * 10
        out = F.softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_softmax_gradient(self):
        check_gradients(lambda x: F.softmax(x, axis=-1) ** 2, [RNG.normal(size=(3, 4))])

    def test_log_softmax_is_log_of_softmax(self):
        x = RNG.normal(size=(4, 6))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data, np.log(F.softmax(Tensor(x)).data), atol=1e-10
        )

    def test_log_softmax_stable_for_large_logits(self):
        x = np.array([[1000.0, 0.0], [0.0, -1000.0]])
        out = F.log_softmax(Tensor(x))
        assert np.all(np.isfinite(out.data))

    def test_softmax_gradient_axis_zero(self):
        check_gradients(lambda x: F.softmax(x, axis=0) ** 2, [RNG.normal(size=(4, 3))])

    def test_log_softmax_gradient(self):
        check_gradients(
            lambda x: F.log_softmax(x, axis=-1) * F.log_softmax(x, axis=-1),
            [RNG.normal(size=(3, 5))],
        )

    def test_layer_norm_matches_composite_reference(self):
        x = RNG.normal(size=(6, 8)) * 3.0
        gamma = RNG.normal(size=(8,))
        beta = RNG.normal(size=(8,))
        out = F.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=1e-5)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_layer_norm_gradients_all_inputs(self):
        check_gradients(
            lambda x, g, b: F.layer_norm(x, g, b) ** 2,
            [RNG.normal(size=(4, 6)), RNG.normal(size=(6,)), RNG.normal(size=(6,))],
        )

    def test_leaky_relu_gradient(self):
        data = RNG.normal(size=(4, 4))
        data[np.abs(data) < 0.1] = 0.5
        check_gradients(lambda x: F.leaky_relu(x, 0.2), [data])

    def test_elu_gradient(self):
        data = RNG.normal(size=(4, 4))
        data[np.abs(data) < 0.1] = 0.5
        check_gradients(lambda x: F.elu(x), [data])

    def test_gelu_gradient(self):
        check_gradients(lambda x: F.gelu(x), [RNG.normal(size=(3, 3))])

    def test_l2_normalize_unit_rows(self):
        x = RNG.normal(size=(6, 4))
        out = F.l2_normalize(Tensor(x))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(6), atol=1e-9)

    def test_l2_normalize_gradient(self):
        check_gradients(lambda x: F.l2_normalize(x) * 2.0, [RNG.normal(size=(4, 3)) + 0.5])

    def test_cosine_similarity_range(self):
        a, b = RNG.normal(size=(5, 8)), RNG.normal(size=(5, 8))
        sims = F.cosine_similarity(Tensor(a), Tensor(b)).data
        assert np.all(sims <= 1.0 + 1e-9) and np.all(sims >= -1.0 - 1e-9)

    def test_cosine_similarity_matrix_shape(self):
        a, b = RNG.normal(size=(5, 8)), RNG.normal(size=(7, 8))
        assert F.cosine_similarity_matrix(Tensor(a), Tensor(b)).shape == (5, 7)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = RNG.normal(size=(10, 10))
        out = F.dropout(Tensor(x), 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_allclose(out.data, x)

    def test_training_zeroes_and_scales(self):
        x = np.ones((2000, 1))
        out = F.dropout(Tensor(x), 0.5, np.random.default_rng(0), training=True)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.35 < (out.data != 0).mean() < 0.65

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.5, np.random.default_rng(0))


class TestLosses:
    def test_mse_zero_for_identical(self):
        x = RNG.normal(size=(4, 4))
        assert F.mse_loss(Tensor(x), Tensor(x)).item() == pytest.approx(0.0)

    def test_mse_gradient(self):
        target = RNG.normal(size=(3, 3))
        check_gradients(lambda x: F.mse_loss(x, Tensor(target)), [RNG.normal(size=(3, 3))])

    def test_bce_matches_manual(self):
        p = np.array([0.9, 0.1])
        t = np.array([1.0, 0.0])
        expected = -np.mean(t * np.log(p) + (1 - t) * np.log(1 - p))
        assert F.binary_cross_entropy(Tensor(p), Tensor(t)).item() == pytest.approx(expected)

    def test_bce_with_logits_matches_probability_form(self):
        logits = RNG.normal(size=(10,))
        targets = (RNG.random(10) > 0.5).astype(float)
        direct = F.binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets)).item()
        via_sigmoid = F.binary_cross_entropy(Tensor(logits).sigmoid(), Tensor(targets)).item()
        assert direct == pytest.approx(via_sigmoid, rel=1e-5)

    def test_bce_with_logits_stable_for_extreme_logits(self):
        logits = np.array([500.0, -500.0])
        targets = np.array([1.0, 0.0])
        out = F.binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets)).item()
        assert np.isfinite(out) and out == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.array([[20.0, 0.0], [0.0, 20.0]])
        labels = np.array([0, 1])
        assert F.cross_entropy(Tensor(logits), labels).item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_gradient(self):
        labels = np.array([0, 2, 1])
        check_gradients(lambda x: F.cross_entropy(x, labels), [RNG.normal(size=(3, 4))])

    def test_nll_matches_cross_entropy(self):
        logits = RNG.normal(size=(5, 3))
        labels = np.array([0, 1, 2, 1, 0])
        a = F.cross_entropy(Tensor(logits), labels).item()
        b = F.nll_loss(F.log_softmax(Tensor(logits)), labels).item()
        assert a == pytest.approx(b, rel=1e-10)

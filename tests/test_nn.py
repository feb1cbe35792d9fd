import math

import numpy as np
import pytest

from dgn import nn
from dgn.errors import ValidationError


class TestGcnForward:
    def test_single_zero_node_outputs_half(self):
        pre, out = nn.gcn_forward(np.array([[1.0]]), np.array([[0.0]]), np.array([[2.5]]))
        assert pre[0, 0] == 0.0
        assert out[0, 0] == 0.5

    def test_worked_two_node_example(self):
        a = np.array([[0.5, 0.5], [1.0, 0.0]])
        v = np.array([[1.0], [0.0]])
        w = np.array([[1.0]])
        pre, out = nn.gcn_forward(a, v, w)
        np.testing.assert_array_equal(pre.ravel(), [0.75, 0.5])
        expected = [1.0 / (1.0 + math.exp(-0.75)), 1.0 / (1.0 + math.exp(-0.5))]
        np.testing.assert_allclose(out.ravel(), expected, atol=1e-12, rtol=0)

    def test_zero_weight_saturates_at_half(self):
        rng = np.random.default_rng(0)
        a = rng.random((4, 4))
        a /= a.sum(1, keepdims=True)
        v = rng.standard_normal((4, 3))
        _, out = nn.gcn_forward(a, v, np.zeros((3, 2)))
        np.testing.assert_array_equal(out, np.full((4, 2), 0.5))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            nn.gcn_forward(np.eye(2), np.ones((2, 3)), np.ones((4, 2)))

    def test_propagation_is_convex_combination(self):
        rng = np.random.default_rng(1)
        a = rng.random((6, 6))
        a /= a.sum(1, keepdims=True)
        v = rng.standard_normal((6, 4))
        out = nn.propagate(a, v)
        assert np.abs(out).max() <= np.abs(v).max() + 1e-12

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        a = rng.random((5, 5))
        a /= a.sum(1, keepdims=True)
        v = rng.standard_normal((5, 3)) * 3
        _, out = nn.gcn_forward(a, v, rng.standard_normal((3, 3)))
        assert (out > 0).all() and (out < 1).all()


def test_gap():
    np.testing.assert_array_equal(nn.gap(np.array([[1.0, 2.0]])), [1.0, 2.0])
    np.testing.assert_array_equal(nn.gap(np.array([[1.0], [3.0]])), [2.0])
    s75 = 1.0 / (1.0 + math.exp(-0.75))
    s50 = 1.0 / (1.0 + math.exp(-0.5))
    np.testing.assert_allclose(
        nn.gap(np.array([[s75], [s50]])), [0.650819], atol=1e-6, rtol=0
    )


def test_linear():
    params = nn.ClassifierParams(np.zeros((3, 2)), np.zeros(2))
    np.testing.assert_array_equal(nn.linear(np.ones(3), params), [0.0, 0.0])
    params = nn.ClassifierParams(np.array([[1.0, -1.0]]), np.array([0.0, 1.0]))
    np.testing.assert_array_equal(nn.linear(np.array([2.0]), params), [2.0, -1.0])
    eye = nn.ClassifierParams(np.eye(3), np.zeros(3))
    np.testing.assert_array_equal(nn.linear(np.array([1.0, 0.0, 0.0]), eye), [1.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        nn.linear(np.ones(2), params)


class TestSoftmaxCe:
    def test_fixed_values(self):
        assert abs(nn.softmax_ce(np.array([0.0, 0.0]), 0) - math.log(2)) < 1e-12
        assert abs(nn.softmax_ce(np.array([2.0, 0.0]), 0) - math.log(1 + math.exp(-2))) < 1e-12

    def test_large_logits_stable(self):
        loss = nn.softmax_ce(np.array([30.0, 0.0]), 0)
        assert abs(loss - 9.357622968840175e-14) < 1e-16
        assert np.isfinite(nn.softmax_ce(np.array([1000.0, 0.0]), 1))

    def test_target_out_of_range(self):
        with pytest.raises(ValidationError):
            nn.softmax_ce(np.array([0.0, 0.0]), 2)

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            logits = rng.standard_normal(4) * 10
            assert nn.softmax_ce(logits, int(rng.integers(0, 4))) >= 0.0


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = [np.array([1.0, -2.0])]
        state = nn.AdamState.for_params(p, lr=0.001)
        out = nn.adam_step(p, [np.zeros(2)], state)
        np.testing.assert_array_equal(out[0], p[0])
        assert state.t == 1

    def test_first_step_closed_form(self):
        p = [np.array([0.0])]
        state = nn.AdamState.for_params(p, lr=0.001)
        out = nn.adam_step(p, [np.array([1.0])], state)
        expected = -0.001 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(out[0], [expected], atol=1e-18, rtol=0)

    def test_weight_decay_shrinks_with_zero_gradient(self):
        p = [np.array([2.0])]
        state = nn.AdamState.for_params(p, lr=0.1, weight_decay=0.5)
        out = nn.adam_step(p, [np.zeros(1)], state)
        np.testing.assert_allclose(out[0], [2.0 * (1 - 0.1 * 0.5)], atol=1e-15, rtol=0)

    def test_odd_symmetry_without_decay(self):
        rng = np.random.default_rng(4)
        p = [rng.standard_normal((3, 2))]
        g = [rng.standard_normal((3, 2))]
        s1 = nn.AdamState.for_params(p, lr=0.01)
        s2 = nn.AdamState.for_params(p, lr=0.01)
        plus = nn.adam_step([q.copy() for q in p], g, s1)
        minus = nn.adam_step([-q.copy() for q in p], [-h for h in g], s2)
        np.testing.assert_array_equal(plus[0], -minus[0])

    def test_shape_mismatch(self):
        p = [np.zeros(2)]
        state = nn.AdamState.for_params(p, lr=0.001)
        with pytest.raises(ValidationError):
            nn.adam_step(p, [np.zeros(3)], state)


class TestXavierInit:
    def test_deterministic_per_seed(self):
        a = nn.xavier_init(5, 7, 42)
        b = nn.xavier_init(5, 7, 42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, nn.xavier_init(5, 7, 43))

    def test_bound(self):
        w = nn.xavier_init(13, 5, 0)
        assert np.abs(w).max() <= math.sqrt(6 / 18)

    def test_variance_statistics(self):
        w = nn.xavier_init(256, 256, 1)
        expected = 2.0 / 512
        assert abs(w.var() - expected) / expected < 0.1


class TestBackward:
    def _record(self, lam, rng):
        n, c, d, C = 5, 3, 4, 3
        v = rng.standard_normal((n, c))
        a = rng.random((n, n))
        a /= a.sum(1, keepdims=True)
        p = nn.propagate(a, v)
        w = rng.standard_normal((c, d)) * 0.4
        hidden = nn.sigmoid(p @ w)
        pooled = nn.gap(hidden)
        main = nn.ClassifierParams(rng.standard_normal((d, C)) * 0.4, rng.standard_normal(C) * 0.1)
        aux = nn.ClassifierParams(rng.standard_normal((d, C)) * 0.4, rng.standard_normal(C) * 0.1)
        aux_hidden = nn.sigmoid(v @ w)
        aux_pooled = nn.gap(aux_hidden)
        return nn.ForwardRecord(
            features=v,
            pooled=pooled,
            main_head=main,
            main_logits=nn.linear(pooled, main),
            lam=lam,
            propagated=p,
            gc_weight=w,
            hidden=hidden,
            aux_hidden=aux_hidden,
            aux_pooled=aux_pooled,
            aux_head=aux,
            aux_logits=nn.linear(aux_pooled, aux),
        )

    def test_lambda_zero_zeroes_aux_gradients(self):
        rec = self._record(0.0, np.random.default_rng(5))
        grads = nn.backward(rec, 1)
        np.testing.assert_array_equal(grads.aux_weight, np.zeros_like(grads.aux_weight))
        np.testing.assert_array_equal(grads.aux_bias, np.zeros_like(grads.aux_bias))
        # shared-weight gradient reduces to the main-path term
        rec_main = self._record(0.25, np.random.default_rng(5))
        rec_main.aux_logits = None
        main_only = nn.backward(rec_main, 1)
        np.testing.assert_array_equal(grads.gc_weight, main_only.gc_weight)

    def test_doubling_lambda_doubles_aux_gradient(self):
        g1 = nn.backward(self._record(0.25, np.random.default_rng(6)), 2)
        g2 = nn.backward(self._record(0.5, np.random.default_rng(6)), 2)
        np.testing.assert_array_equal(g2.aux_weight, 2.0 * g1.aux_weight)
        np.testing.assert_array_equal(g2.aux_bias, 2.0 * g1.aux_bias)
        np.testing.assert_array_equal(g1.main_weight, g2.main_weight)

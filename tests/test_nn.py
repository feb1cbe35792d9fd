import math

import numpy as np
import pytest

from dgn import model as md
from dgn import nn, oracle
from dgn.corpus import Corpus, FeatureMap, Instance, LabelMap
from dgn.errors import ValidationError
from dgn.model import AblationMode
from dgn.prototype import CooccurrenceMode, DispersionMetric, Prototype
from tests.test_acceptance import _gradcheck_relative_error
from tests.test_oracle import factored_graph


def graph_layer(adjacency, features, weight):
    """Propagation and hidden layer of a train-eval-iodp model with ``weight``."""
    c, d = np.shape(weight)
    model = md.DgnModel.assemble(AblationMode.TRAIN_EVAL_IODP, c, d, 2, 0.0, np.zeros)
    model.gc_weight = np.asarray(weight, dtype=np.float64)
    _, _, record = md.forward_parts(model, features, adjacency)
    return nn.propagate(adjacency, features), record.hidden


class TestGcnForward:
    def test_single_zero_node_outputs_half(self):
        propagated, out = graph_layer(np.array([[1.0]]), np.array([[0.0]]), np.array([[2.5]]))
        assert propagated[0, 0] == 0.0
        assert out[0, 0] == 0.5

    def test_worked_two_node_example(self):
        a = np.array([[0.5, 0.5], [1.0, 0.0]])
        v = np.array([[1.0], [0.0]])
        # with the unit weight the propagation is the pre-activation
        pre, out = graph_layer(a, v, np.array([[1.0]]))
        np.testing.assert_array_equal(pre.ravel(), [0.75, 0.5])
        expected = [1.0 / (1.0 + math.exp(-0.75)), 1.0 / (1.0 + math.exp(-0.5))]
        np.testing.assert_allclose(out.ravel(), expected, atol=1e-12, rtol=0)

    def test_zero_weight_saturates_at_half(self):
        rng = np.random.default_rng(0)
        a = rng.random((4, 4))
        a /= a.sum(1, keepdims=True)
        v = rng.standard_normal((4, 3))
        _, out = graph_layer(a, v, np.zeros((3, 2)))
        np.testing.assert_array_equal(out, np.full((4, 2), 0.5))

    def test_shape_mismatch(self):
        # a model trained on 4 channels refuses 3-channel features
        labels = LabelMap(np.zeros((2, 2), dtype=np.int64), 1)
        corpus = Corpus(1, 1, (Instance(0, labels, FeatureMap(np.ones((2, 2, 3)))),))
        proto = Prototype(
            1, np.ones((1, 1)), CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 1
        )
        model = md.DgnModel.assemble(AblationMode.TRAIN_EVAL_IODP, 4, 4, 1, 0.0, np.ones)
        with pytest.raises(ValidationError):
            md.evaluate(model, corpus, proto)

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
        _, out = graph_layer(a, v, rng.standard_normal((3, 3)))
        assert (out > 0).all() and (out < 1).all()


def test_sigmoid_matches_the_logistic_and_leaves_its_input():
    x = np.linspace(-36.0, 36.0, 7201).reshape(7201, 1)
    kept = x.copy()
    s = nn.sigmoid(x)
    np.testing.assert_array_equal(x, kept)
    assert s is not x
    np.testing.assert_allclose(s, 1.0 / (1.0 + np.exp(-x)), atol=1e-15, rtol=0)
    # tanh saturates: far below zero the result is exactly 0, never negative
    assert nn.sigmoid(np.array([-40.0, -700.0])).tolist() == [0.0, 0.0]
    assert nn.sigmoid(np.array([700.0])).tolist() == [1.0]


def test_gap():
    np.testing.assert_array_equal(nn.gap(np.array([[1.0, 2.0]])), [1.0, 2.0])
    np.testing.assert_array_equal(nn.gap(np.array([[1.0], [3.0]])), [2.0])
    s75 = 1.0 / (1.0 + math.exp(-0.75))
    s50 = 1.0 / (1.0 + math.exp(-0.5))
    np.testing.assert_allclose(
        nn.gap(np.array([[s75], [s50]])), [0.650819], atol=1e-6, rtol=0
    )
    # column sums that pass the float64 range pool to inf, not to a finite mean
    with np.errstate(over="ignore"):
        assert nn.gap(np.full((2, 1), 1e308)).tolist() == [np.inf]


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


class TestBatchedHead:
    """A (B, k) block through the head and loss gives each row's own bytes."""

    SHAPES = [(1, 3, 2), (3, 3, 3), (4, 512, 67), (32, 32, 7), (33, 8, 3)]

    @pytest.mark.parametrize("b, c, k", SHAPES)
    def test_rows_equal_per_row_calls_byte_for_byte(self, b, c, k):
        rng = np.random.default_rng(b * 1000 + c + k)
        head = nn.ClassifierParams(rng.standard_normal((c, k)), rng.standard_normal(k))
        x = rng.standard_normal((b, c))
        targets = rng.integers(0, k, size=b)
        logits = nn.linear(x, head)
        probs = nn.softmax(logits * 30.0)
        losses = nn.softmax_ce(logits * 30.0, targets)
        assert logits.shape == probs.shape == (b, k) and losses.shape == (b,)
        for i in range(b):
            row = nn.linear(x[i], head)
            assert logits[i].tobytes() == row.tobytes()
            assert probs[i].tobytes() == nn.softmax(row * 30.0).tobytes()
            assert losses[i].tobytes() == np.float64(nn.softmax_ce(row * 30.0, int(targets[i]))).tobytes()

    def test_single_vector_calls_keep_the_plain_expression_bytes(self):
        rng = np.random.default_rng(77)
        head = nn.ClassifierParams(rng.standard_normal((512, 67)), rng.standard_normal(67))
        x = rng.standard_normal(512)
        logits = nn.linear(x, head)
        assert logits.tobytes() == (x @ head.weight + head.bias).tobytes()
        z = logits - logits.max()
        e = np.exp(z)
        assert nn.softmax(logits).tobytes() == (e / e.sum()).tobytes()
        loss = nn.softmax_ce(logits, 5)
        assert type(loss) is float
        assert loss == float(np.log(np.exp(z).sum()) - z[5])

    def test_block_shape_and_targets_checked(self):
        head = nn.ClassifierParams(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValidationError):
            nn.linear(np.ones((4, 2)), head)
        with pytest.raises(ValidationError):
            nn.linear(np.ones((2, 4, 3)), head)
        with pytest.raises(ValidationError):
            nn.softmax_ce(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(ValidationError):
            nn.softmax_ce(np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(ValidationError):
            nn.softmax_ce(np.zeros((2, 2)), np.array([-1, 0]))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = [np.array([1.0, -2.0])]
        state = nn.AdamState.for_params(p, lr=0.001)
        out = nn.adam_step(p, [np.zeros(2)], state)
        np.testing.assert_array_equal(out[0], [1.0, -2.0])
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

    def test_updates_params_in_place_with_the_plain_update_bytes(self):
        # the in-place update against the plain expression it must reproduce
        rng = np.random.default_rng(8)
        params = [rng.standard_normal((6, 4)), rng.standard_normal(4)]
        arrays = list(params)
        state = nn.AdamState.for_params(params, lr=0.01, weight_decay=1e-3)
        ref = [q.copy() for q in params]
        ref_m, ref_v = [np.zeros_like(q) for q in params], [np.zeros_like(q) for q in params]
        for t in range(1, 21):
            grads = [rng.standard_normal(q.shape) for q in params]
            kept = [g.copy() for g in grads]
            out = nn.adam_step(params, grads, state)
            assert out is params
            assert all(p is a for p, a in zip(out, arrays))  # the very arrays it was given
            for g, g0 in zip(grads, kept):
                np.testing.assert_array_equal(g, g0)
            bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            step = []
            for q, g, m, v in zip(ref, grads, ref_m, ref_v):
                q = q * (1.0 - 0.01 * 1e-3)
                m[:] = 0.9 * m + (1.0 - 0.9) * g
                v[:] = 0.999 * v + (1.0 - 0.999) * g * g
                step.append(q - 0.01 * (m / bc1) / (np.sqrt(v / bc2) + 1e-8))
            ref = step
            for p, expected in zip(arrays, ref):
                assert p.tobytes() == expected.tobytes()

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
        w = rng.standard_normal((c, d)) * 0.4
        hidden = nn.sigmoid(nn.propagate(a, v @ w))
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
            adjacency=a,
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
        # blocks: hidden weight, main weight, main bias, aux weight, aux bias
        np.testing.assert_array_equal(grads[3], np.zeros_like(grads[3]))
        np.testing.assert_array_equal(grads[4], np.zeros_like(grads[4]))
        # shared-weight gradient reduces to the main-path term
        rec_main = self._record(0.25, np.random.default_rng(5))
        rec_main.aux_logits = None
        main_only = nn.backward(rec_main, 1)
        np.testing.assert_array_equal(grads[0], main_only[0])

    def test_doubling_lambda_doubles_aux_gradient(self):
        g1 = nn.backward(self._record(0.25, np.random.default_rng(6)), 2)
        g2 = nn.backward(self._record(0.5, np.random.default_rng(6)), 2)
        np.testing.assert_array_equal(g2[3], 2.0 * g1[3])
        np.testing.assert_array_equal(g2[4], 2.0 * g1[4])
        np.testing.assert_array_equal(g1[1], g2[1])

    def test_gradient_check_through_label_space_adjacency(self):
        # criterion 6 with a label-space adjacency whose ids 3 and 4 relate to
        # nothing: their rows are uniform, and M^T runs through label space
        rng = np.random.default_rng(1007)
        omega = rng.random((5, 5))
        omega = (omega + omega.T) / 2
        omega[3:, :] = omega[:, 3:] = 0.0
        for trial in range(9):
            labels = rng.integers(0, 5, size=(int(rng.integers(1, 4)), int(rng.integers(2, 4))))
            labels.flat[0] = 3
            c, d, C = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3
            lam = (0.0, 0.25, 1.0)[trial % 3]
            v, adjacency = factored_graph(labels, omega, rng, c)
            target = int(rng.integers(0, C))
            params = [rng.standard_normal(shape) * 0.6 for shape in ((c, d), (d, C), (C,), (d, C), (C,))]

            def model_of(p):
                return md.DgnModel(
                    AblationMode.FULL, c, d, C, lam, nn.ClassifierParams(p[1], p[2]),
                    gc_weight=p[0], aux_head=nn.ClassifierParams(p[3], p[4]),
                )

            def loss_of(p):
                logits, aux_logits, _ = md.forward_parts(model_of(p), v, adjacency)
                return md.total_loss(
                    nn.softmax_ce(logits, target), nn.softmax_ce(aux_logits, target), lam
                )

            _, _, record = md.forward_parts(model_of(params), v, adjacency)
            analytic = list(nn.backward(record, target))
            numeric = oracle.fd_gradient(loss_of, params)
            for a_, f_ in zip(analytic, numeric):
                assert _gradcheck_relative_error(a_, f_) <= 1e-6

import math
import tracemalloc

import numpy as np
import pytest

from dgn import graph as gr
from dgn import model as md
from dgn import nn, oracle
from dgn.corpus import Corpus, FeatureMap, Instance, LabelMap
from dgn.errors import ValidationError
from dgn.model import AblationMode
from dgn.prototype import CooccurrenceMode, DispersionMetric, Prototype
from tests.helpers import gradients, loss_and_record, model_of
from tests.test_acceptance import _gradcheck_relative_error
from tests.test_oracle import factored_graph, graph_over, random_graph


def graph_layer(adjacency, weight):
    """Propagation and hidden layer of a train-eval-iodp model with ``weight``."""
    c, d = np.shape(weight)
    model = md.DgnModel.assemble(AblationMode.TRAIN_EVAL_IODP, c, d, 2, 0.0, np.zeros)
    model.gc_weight = np.asarray(weight, dtype=np.float64)
    return nn.propagate(adjacency), md.forward_parts(model, adjacency).hidden


class TestGcnForward:
    def test_single_zero_node_outputs_half(self):
        _, a, dense = graph_over(np.zeros((1, 1, 1)), np.array([[0]]), np.ones((1, 1)))
        np.testing.assert_array_equal(dense, [[1.0]])
        propagated, out = graph_layer(a, np.array([[2.5]]))
        assert propagated[0, 0] == 0.0
        assert out[0, 0] == 0.5

    def test_worked_two_node_example(self):
        # two nodes of distinct ids over omega = [[1, 1], [1, 0]]
        omega = np.array([[1.0, 1.0], [1.0, 0.0]])
        _, a, dense = graph_over(np.array([[[1.0], [0.0]]]), np.array([[0, 1]]), omega)
        np.testing.assert_array_equal(dense, [[0.5, 0.5], [1.0, 0.0]])
        # with the unit weight the propagation is the pre-activation
        pre, out = graph_layer(a, np.array([[1.0]]))
        np.testing.assert_array_equal(pre.ravel(), [0.75, 0.5])
        expected = [1.0 / (1.0 + math.exp(-0.75)), 1.0 / (1.0 + math.exp(-0.5))]
        np.testing.assert_allclose(out.ravel(), expected, atol=1e-12, rtol=0)

    def test_zero_weight_saturates_at_half(self):
        rng = np.random.default_rng(0)
        _, a, _ = random_graph(rng, 4, (2, 2), channels=3)
        _, out = graph_layer(a, np.zeros((3, 2)))
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
        v, a, _ = random_graph(rng, 4, (2, 3), channels=4)
        out = nn.propagate(a)
        assert np.abs(out).max() <= np.abs(v).max() + 1e-12

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        omega = rng.random((4, 4))
        labels = rng.integers(0, 4, size=(1, 5))
        _, a, _ = graph_over(rng.standard_normal((1, 5, 3)) * 3, labels, (omega + omega.T) / 2)
        _, out = graph_layer(a, rng.standard_normal((3, 3)))
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


@pytest.mark.parametrize("shape", [(4096,), (4096, 32), (196, 512), (512, 512), (67,)])
def test_row_chunks_are_one_rule_for_nodes_and_weights(shape):
    # node tiles, a large-n node array, the paper's node array and weight, a
    # vector shorter than one tile
    chunks = nn._row_chunks(shape)
    row_size = math.prod(shape[1:])
    for rows in chunks:
        count = len(range(shape[0])[rows])
        assert 1 <= count <= nn.TILE_ROWS
        assert count == 1 or count * row_size <= nn.CHUNK_ENTRIES
    covered = [i for rows in chunks for i in range(shape[0])[rows]]
    assert covered == list(range(shape[0]))


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

    @pytest.mark.parametrize("shape", [(512, 512), (300, 301), (70_000,), (3, 70_000), (0, 4)])
    def test_row_chunks_keep_the_plain_update_bytes(self, shape):
        # several chunks of whole rows, a last short chunk, one row per chunk
        # past the chunk size, and an empty block
        rng = np.random.default_rng(9)
        p = rng.standard_normal(shape)
        m, v = np.zeros(shape), np.zeros(shape)
        state = nn.AdamState.for_params([p], lr=0.01, weight_decay=1e-3)
        for t in range(1, 4):
            g = rng.standard_normal(shape)
            expected = p * (1.0 - 0.01 * 1e-3)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            expected = expected - 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            nn.adam_step([p], [g], state)
            assert p.tobytes() == expected.tobytes()
            assert state.m[0].tobytes() == m.tobytes() and state.v[0].tobytes() == v.tobytes()

    # two 512 KiB scratch chunks of 128 rows, where a whole-block step makes
    # two 2 MiB arrays; a row past the chunk size is a chunk of its own
    @pytest.mark.parametrize(
        "shape, chunk_bytes", [((512, 512), 512 * 1024), ((3, 70_000), 70_000 * 8)], ids=["512x512", "3x70000"]
    )
    def test_a_step_holds_two_chunks_not_two_blocks(self, shape, chunk_bytes):
        rng = np.random.default_rng(10)
        p, g = [rng.standard_normal(shape)], [rng.standard_normal(shape)]
        state = nn.AdamState.for_params(p, lr=0.01, weight_decay=1e-5)
        nn.adam_step(p, g, state)
        tracemalloc.start()
        try:
            nn.adam_step(p, g, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * chunk_bytes + 64 * 1024

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
        """A full model of aux weight ``lam`` and its forward record on a random graph."""
        c, d, C = 3, 4, 3
        _, a, _ = random_graph(rng, 4, (1, 5), channels=c)
        w = rng.standard_normal((c, d)) * 0.4
        main = nn.ClassifierParams(rng.standard_normal((d, C)) * 0.4, rng.standard_normal(C) * 0.1)
        aux = nn.ClassifierParams(rng.standard_normal((d, C)) * 0.4, rng.standard_normal(C) * 0.1)
        model = md.DgnModel(AblationMode.FULL, c, d, C, lam, main, gc_weight=w, aux_head=aux)
        return model, md.forward_parts(model, a)

    def test_lambda_zero_zeroes_aux_gradients(self):
        grads = gradients(*self._record(0.0, np.random.default_rng(5)), 1)
        # blocks: hidden weight, main weight, main bias, aux weight, aux bias
        np.testing.assert_array_equal(grads[3], np.zeros_like(grads[3]))
        np.testing.assert_array_equal(grads[4], np.zeros_like(grads[4]))
        # shared-weight gradient reduces to the main-path term
        model, rec_main = self._record(0.25, np.random.default_rng(5))
        rec_main.aux_logits = None
        main_only = gradients(model, rec_main, 1)
        np.testing.assert_array_equal(grads[0], main_only[0])

    def test_doubling_lambda_doubles_aux_gradient(self):
        g1 = gradients(*self._record(0.25, np.random.default_rng(6)), 2)
        g2 = gradients(*self._record(0.5, np.random.default_rng(6)), 2)
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
            _, adjacency, _ = factored_graph(labels, omega, rng, c)
            target = int(rng.integers(0, C))
            params = [rng.standard_normal(shape) * 0.6 for shape in ((c, d), (d, C), (C,), (d, C), (C,))]

            def loss_of(p):
                return loss_and_record(model_of(AblationMode.FULL, lam, C, p), adjacency, target)[0]

            model = model_of(AblationMode.FULL, lam, C, params)
            analytic = gradients(model, md.forward_parts(model, adjacency), target)
            numeric = oracle.fd_gradient(loss_of, params)
            for a_, f_ in zip(analytic, numeric):
                assert _gradcheck_relative_error(a_, f_) <= 1e-6

    @pytest.mark.parametrize("mode", [AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL], ids=lambda m: m.value)
    def test_adds_into_the_sums_with_no_weight_sized_temporary(self, mode):
        # the paper shape: 196 nodes under 512 channels, hidden width 512
        rng = np.random.default_rng(26)
        omega = rng.random((6, 6))
        proto = Prototype(6, (omega + omega.T) / 2, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2)
        features = FeatureMap(rng.standard_normal((14, 14, 512)))
        graph = gr.build_graph(features, LabelMap(rng.integers(0, 6, size=(14, 14)), 6), proto)
        model = md.init_model(mode, 512, 10, md.TrainConfig(seed=26))
        record = md.forward_parts(model, graph)
        once = gradients(model, record, 3)
        sums = [np.zeros_like(g) for g in once]
        nn.backward(model, record, 3, sums)
        tracemalloc.start()
        try:
            nn.backward(model, record, 3, sums)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the record: y, one chunk's float64 columns of V and their
        # product with y, and small arrays
        rows = nn.CHUNK_ENTRIES // model.hidden_dim
        cast = graph.features.shape[0] * rows * 8
        assert peak < record.hidden.nbytes + cast + nn.CHUNK_ENTRIES * 8 + 64 * 1024
        # a second instance adds to the first: g + g is 2 g exactly
        for s, g in zip(sums, once):
            assert s.tobytes() == (2.0 * g).tobytes()

    def test_a_shorter_sum_list_leaves_out_the_aux_tail(self):
        model, record = self._record(0.25, np.random.default_rng(7))
        full = gradients(model, record, 0)
        sums = [np.zeros_like(p) for p in model.blocks(aux=False)]
        nn.backward(model, record, 0, sums)
        assert len(full) == 5
        for s, g in zip(sums, full[:3]):
            assert s.tobytes() == g.tobytes()

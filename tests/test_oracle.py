import numpy as np
import pytest

import dgn
from dgn import model as md
from dgn import nn, oracle
from dgn.corpus import Corpus, FeatureMap, LabelMap, nn_resize
from dgn.errors import ValidationError
from dgn.graph import build_graph, extract_local_knowledge
from dgn.prototype import CooccurrenceMode, DispersionMetric, Prototype, build_prototype
from tests.test_prototype import TOY_OMEGA, presence_corpus, random_presence_corpus


def test_naive_prototype_matches_hand_derivation():
    toy = presence_corpus(2, 3, [(0, {0, 1}), (0, {0}), (1, {1, 2}), (1, {2})])
    for mode in CooccurrenceMode:
        np.testing.assert_array_equal(oracle.naive_prototype(toy, mode).omega, TOY_OMEGA)


def test_naive_prototype_all_uniform_corpus_is_zero():
    corpus = presence_corpus(3, 4, [(c, {0, 1, 2, 3}) for c in range(3)])
    proto = oracle.naive_prototype(corpus, CooccurrenceMode.NON_INDEPENDENT)
    np.testing.assert_array_equal(proto.omega, np.zeros((4, 4)))


def test_naive_prototype_agrees_with_fast_path():
    rng = np.random.default_rng(10)
    for _ in range(10):
        corpus = random_presence_corpus(rng)
        for mode in CooccurrenceMode:
            for metric in DispersionMetric:
                fast = build_prototype(corpus, mode, metric, True).omega
                slow = oracle.naive_prototype(corpus, mode, metric, True).omega
                assert oracle.compare(fast, slow).max_abs_deviation <= 1e-12


class TestNaivePropagate:
    def test_two_node_example(self):
        out = oracle.naive_propagate(
            np.array([[0.5, 0.5], [1.0, 0.0]]), np.array([[1.0], [0.0]])
        )
        np.testing.assert_allclose(out.ravel(), [0.75, 0.5], atol=1e-15, rtol=0)

    def test_uniform_adjacency_is_half_mean_shift(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal((4, 3))
        a = np.full((4, 4), 0.25)
        np.testing.assert_allclose(
            oracle.naive_propagate(a, v), (v + v.mean(axis=0)) / 2, atol=1e-12, rtol=0
        )

    def test_single_node_identity(self):
        v = np.array([[3.0, -1.0]])
        np.testing.assert_allclose(
            oracle.naive_propagate(np.array([[1.0]]), v), v, atol=1e-15, rtol=0
        )

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            oracle.naive_propagate(np.eye(3), np.ones((2, 2)))


def factored_graph(labels, omega, rng, channels=3):
    """(n x channels node features, label-space adjacency) over ``labels``."""
    proto = Prototype(
        omega.shape[0], omega, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
    )
    h, w = labels.shape
    features = FeatureMap(rng.standard_normal((h, w, channels)))
    adjacency = build_graph(features, LabelMap(labels, omega.shape[0]), proto)
    return features.values.reshape(h * w, channels), adjacency


def zero_affinity_rows(adjacency):
    affinity = extract_local_knowledge(adjacency.semantics, adjacency.prototype)
    return int((affinity.sum(axis=1) == 0).sum())


def assert_block_matches_dense(adjacency):
    """``P mix P^T`` is the dense adjacency built from the prototype."""
    a = adjacency
    blown_up = a.mix[np.ix_(a.inverse, a.inverse)]
    assert oracle.compare(blown_up, np.asarray(a)).max_abs_deviation <= 1e-15


def assert_factored_matches_dense(v, adjacency):
    fast = nn.propagate(adjacency, v)
    slow = oracle.naive_propagate(np.asarray(adjacency), v)
    assert oracle.compare(fast, slow).max_abs_deviation <= 1e-12


class TestFactoredPropagation:
    """The label-space adjacency against the scalar loop over its dense form."""

    def test_all_zero_rows_fall_back_to_the_mean(self):
        rng = np.random.default_rng(12)
        omega = np.array([[1.0, 0.0], [0.0, 0.0]])  # id 1 relates to nothing
        labels = np.array([[0, 1, 1], [1, 0, 1]])
        v, adjacency = factored_graph(labels, omega, rng)
        assert zero_affinity_rows(adjacency) == 4
        assert_block_matches_dense(adjacency)
        assert_factored_matches_dense(v, adjacency)
        lone = labels.reshape(-1) == 1
        # v is the feature map's own (float32) array; the expectation is in float64
        v64 = v.astype(np.float64)
        np.testing.assert_allclose(
            nn.propagate(adjacency, v)[lone], (v64[lone] + v64.mean(axis=0)) / 2,
            atol=1e-15, rtol=0,
        )

    def test_single_label_map(self):
        rng = np.random.default_rng(13)
        for self_relation in (0.0, 0.7):
            omega = np.full((3, 3), self_relation)
            assert_factored_matches_dense(*factored_graph(np.full((3, 4), 2), omega, rng))

    def test_vocab_larger_than_node_count(self):
        rng = np.random.default_rng(14)
        omega = rng.random((12, 12))
        v, adjacency = factored_graph(np.array([[11, 3], [3, 0]]), (omega + omega.T) / 2, rng)
        assert adjacency.mix.shape == (3, 3)
        assert_factored_matches_dense(v, adjacency)

    def test_random_cases(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            vocab = int(rng.integers(1, 9))
            omega = rng.random((vocab, vocab)) * (rng.random((vocab, vocab)) > 0.5)
            labels = rng.integers(0, vocab, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            v, adjacency = factored_graph(labels, (omega + omega.T) / 2, rng, int(rng.integers(1, 5)))
            np.testing.assert_array_equal(adjacency.sum(axis=1), 1.0)
            assert_block_matches_dense(adjacency)
            assert_factored_matches_dense(v, adjacency)


def assert_adjoint_matches_dense(v, adjacency, rng):
    """``propagate_adjoint`` in label space against the scalar loop's transpose."""
    n, c = v.shape
    y = rng.standard_normal((n, c))
    dense = np.asarray(adjacency)
    adjoint = nn.propagate_adjoint(adjacency, y)
    # <M V, Y> = <V, M^T Y>
    assert abs(np.sum(oracle.naive_propagate(dense, v) * y) - np.sum(v * adjoint)) <= 1e-12
    m = oracle.naive_propagate(dense, np.eye(n))
    assert oracle.compare(adjoint, m.T @ y).max_abs_deviation <= 1e-12
    assert oracle.compare(nn.propagate_adjoint(dense, y), m.T @ y).max_abs_deviation <= 1e-12


def assert_eval_only_pool_matches_dense(v, adjacency):
    """The eval-only mode pools through the adjoint; the oracle pools the propagation."""
    c = v.shape[1]
    baseline = md.DgnModel.assemble(md.AblationMode.BASELINE, c, c, 2, 0.0, np.zeros)
    _, _, record = md.forward_parts(baseline, v, adjacency, md.AblationMode.EVAL_ONLY_IODP)
    slow = nn.gap(oracle.naive_propagate(np.asarray(adjacency), v))
    assert oracle.compare(record.pooled, slow).max_abs_deviation <= 1e-12


class TestAdjoint:
    """``M^T`` of the label-space adjacency, on the fixtures of TestFactoredPropagation."""

    def test_all_zero_rows(self):
        rng = np.random.default_rng(16)
        omega = np.array([[1.0, 0.0], [0.0, 0.0]])
        v, adjacency = factored_graph(np.array([[0, 1, 1], [1, 0, 1]]), omega, rng)
        assert zero_affinity_rows(adjacency) == 4
        assert_adjoint_matches_dense(v, adjacency, rng)
        assert_eval_only_pool_matches_dense(v, adjacency)

    def test_every_row_zero(self):
        rng = np.random.default_rng(17)
        v, adjacency = factored_graph(np.array([[0, 1], [2, 1]]), np.zeros((3, 3)), rng)
        assert_adjoint_matches_dense(v, adjacency, rng)
        assert_eval_only_pool_matches_dense(v, adjacency)

    def test_single_label_map(self):
        rng = np.random.default_rng(18)
        for self_relation in (0.0, 0.7):
            v, adjacency = factored_graph(np.full((3, 4), 2), np.full((3, 3), self_relation), rng)
            assert_adjoint_matches_dense(v, adjacency, rng)
            assert_eval_only_pool_matches_dense(v, adjacency)

    def test_vocab_larger_than_node_count(self):
        rng = np.random.default_rng(19)
        omega = rng.random((12, 12))
        v, adjacency = factored_graph(np.array([[11, 3], [3, 0]]), (omega + omega.T) / 2, rng)
        assert_adjoint_matches_dense(v, adjacency, rng)
        assert_eval_only_pool_matches_dense(v, adjacency)

    def test_random_cases(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            vocab = int(rng.integers(1, 9))
            omega = rng.random((vocab, vocab)) * (rng.random((vocab, vocab)) > 0.5)
            labels = rng.integers(0, vocab, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            v, adjacency = factored_graph(labels, (omega + omega.T) / 2, rng, int(rng.integers(1, 5)))
            assert_adjoint_matches_dense(v, adjacency, rng)
            assert_eval_only_pool_matches_dense(v, adjacency)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            nn.propagate_adjoint(np.eye(3), np.ones((2, 2)))


class TestFdGradient:
    def test_quadratic(self):
        grads = oracle.fd_gradient(lambda p: float(p[0][0] ** 2), [np.array([3.0])])
        assert abs(grads[0][0] - 6.0) < 1e-6

    def test_constant(self):
        grads = oracle.fd_gradient(lambda p: 1.25, [np.ones((2, 2))])
        np.testing.assert_array_equal(grads[0], np.zeros((2, 2)))

    def test_multi_parameter(self):
        def loss(params):
            return float(np.sum(params[0] * 2) + np.sum(params[1] ** 2))

        grads = oracle.fd_gradient(loss, [np.ones(3), np.full(2, 5.0)])
        np.testing.assert_allclose(grads[0], np.full(3, 2.0), atol=1e-6)
        np.testing.assert_allclose(grads[1], np.full(2, 10.0), atol=1e-4)

    def test_non_finite_loss_rejected(self):
        with pytest.raises(FloatingPointError):
            oracle.fd_gradient(lambda p: float("nan"), [np.zeros(1)])


def test_compare_report():
    report = oracle.compare(np.array([1.0, 2.0]), np.array([1.0, 2.5]))
    assert report.max_abs_deviation == 0.5
    assert report.worst_location == (1,)
    assert report.max_rel_deviation == pytest.approx(0.2)


def tiny_training_run(lam, channels=3):
    """Five four-node instances of three classes, their prototype and a config.

    Three channels hold label sums (c < n); five take the wide path (c >= n).
    """
    spec = dgn.SyntheticSpec(
        num_classes=3, vocab_size=8, grid_cells=2, train_per_class=2, test_per_class=1,
        channels=channels, noise=1.0, seed=909,
    )
    full_corpus, _ = dgn.generate_synthetic_corpus(spec)
    proto = build_prototype(full_corpus, CooccurrenceMode.INDEPENDENT)
    # five instances in batches of two: the last batch is short
    corpus = Corpus(3, 8, full_corpus.instances[:5])
    config = md.TrainConfig(
        epochs=2, batch_size=2, lr=0.05, decay_epochs=(2,), weight_decay=0.1, lam=lam,
        hidden_dim=2, seed=31,
    )
    return corpus, proto, config


def dense_instances(corpus, proto):
    out = []
    for inst in corpus.instances:
        fm = inst.feature_map
        resized = nn_resize(inst.label_map, fm.width, fm.height)
        adjacency = np.asarray(build_graph(fm, resized, proto))
        out.append((fm.values.reshape(-1, fm.channels), adjacency, inst.scene_id))
    return out


TRAINING_CONFIGURATIONS = pytest.mark.parametrize(
    "mode, lam, stepped",
    [
        (md.AblationMode.BASELINE, 0.5, 2),
        (md.AblationMode.TRAIN_EVAL_IODP, 0.5, 3),
        (md.AblationMode.FULL, 0.5, 5),
        (md.AblationMode.FULL, 0.0, 3),
    ],
)


@TRAINING_CONFIGURATIONS
def test_train_matches_the_training_oracle(mode, lam, stepped):
    check_training_oracle(mode, lam, stepped, channels=3)


@TRAINING_CONFIGURATIONS
def test_train_matches_the_training_oracle_in_the_wide_regime(mode, lam, stepped):
    check_training_oracle(mode, lam, stepped, channels=5)


def check_training_oracle(mode, lam, stepped, channels):
    corpus, proto, config = tiny_training_run(lam, channels)
    h, w, c = corpus.feature_shape
    assert (c < h * w) == (channels == 3)  # label sums held, else the wide path
    initial = md.init_model(mode, channels, 3, config).blocks()
    trained, _ = md.train(corpus, proto, config, mode)
    expected = oracle.naive_train(dense_instances(corpus, proto), initial, config, mode)
    actual = trained.blocks()
    assert len(actual) == len(expected) == len(initial)
    for a, e in zip(actual, expected):
        assert oracle.compare(a, e).max_rel_deviation <= 1e-6
    # the stepped blocks move well past the tolerance; the others stay put
    for a, start in zip(actual[:stepped], initial[:stepped]):
        assert oracle.compare(a, start).max_rel_deviation > 1e-3
    for a, start in zip(actual[stepped:], initial[stepped:]):
        np.testing.assert_array_equal(a, start)

import numpy as np
import pytest

from dgn import model as md
from dgn import nn, oracle
from dgn.corpus import FeatureMap, LabelMap
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
        assert_factored_matches_dense(v, adjacency)
        lone = labels.reshape(-1) == 1
        np.testing.assert_allclose(
            nn.propagate(adjacency, v)[lone], (v[lone] + v.mean(axis=0)) / 2,
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
        assert adjacency.omega.shape == (3, 3)
        assert_factored_matches_dense(v, adjacency)

    def test_random_cases(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            vocab = int(rng.integers(1, 9))
            omega = rng.random((vocab, vocab)) * (rng.random((vocab, vocab)) > 0.5)
            labels = rng.integers(0, vocab, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            v, adjacency = factored_graph(labels, (omega + omega.T) / 2, rng, int(rng.integers(1, 5)))
            np.testing.assert_array_equal(adjacency.sum(axis=1), 1.0)
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

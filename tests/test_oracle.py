from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dgn
from dgn import graph as gr
from dgn import model as md
from dgn import nn, oracle
from dgn.corpus import Corpus, FeatureMap, Instance, LabelMap, nn_resize
from dgn.errors import ValidationError
from dgn.graph import build_graph
from dgn.prototype import CooccurrenceMode, DispersionMetric, Prototype, build_prototype
from tests.helpers import dense_adjacency, eval_only_pooled
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


class TestNaiveAdjacency:
    """The scalar-loop adjacency agrees with graph.py's label-space block and dense path."""

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_the_label_space_block_and_row_normalize(self, seed):
        rng = np.random.default_rng(seed)
        vocab = int(rng.integers(1, 8))
        omega = rng.random((vocab, vocab))
        if seed % 2:
            # about half the pairs relate to nothing; some rows may be all 0
            omega *= rng.random((vocab, vocab)) > 0.5
        omega = (omega + omega.T) / 2
        proto = Prototype(vocab, omega, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2)
        labels = rng.integers(0, vocab, size=tuple(rng.integers(1, 6, size=2)))
        ids = labels.reshape(-1)
        naive = oracle.naive_adjacency(ids, proto)
        a = build_graph(FeatureMap(rng.standard_normal((*labels.shape, 2))), LabelMap(labels, vocab), proto)
        zero = omega[np.ix_(ids, ids)].sum(axis=1) == 0
        for fast in (a.mix[np.ix_(a.inverse, a.inverse)], gr.row_normalize(gr.extract_local_knowledge(ids, proto))):
            assert oracle.compare(fast, naive).max_rel_deviation <= 1e-14
            np.testing.assert_array_equal(fast[zero], naive[zero])
        np.testing.assert_allclose(naive.sum(axis=1), 1.0, atol=1e-14, rtol=0)

    def test_rows_without_relations_are_uniform(self):
        proto = Prototype(2, np.array([[0.0, 0.0], [0.0, 2.0]]), CooccurrenceMode.INDEPENDENT,
                          DispersionMetric.COEFF_VAR, True, 2)
        np.testing.assert_array_equal(
            oracle.naive_adjacency([0, 1, 1], proto), [[1 / 3] * 3, [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
        )

    def test_out_of_range_id(self):
        proto = Prototype(2, np.ones((2, 2)), CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2)
        for ids in ([0, 2], [-1, 0]):
            with pytest.raises(ValidationError, match="out of range"):
                oracle.naive_adjacency(ids, proto)


def graph_over(values, labels, omega):
    """(node features, label-space graph, dense adjacency) of the map ``values`` over ``labels``.

    The node features are the graph's own.
    """
    proto = Prototype(
        omega.shape[0], omega, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
    )
    features = FeatureMap(values)
    adjacency = build_graph(features, LabelMap(labels, omega.shape[0]), proto)
    return adjacency.features, adjacency, dense_adjacency(labels.reshape(-1), proto)


def factored_graph(labels, omega, rng, channels=3):
    """(n x channels node features, label-space adjacency, dense adjacency) over ``labels``."""
    return graph_over(rng.standard_normal((*labels.shape, channels)), labels, omega)


def random_graph(rng, vocab, shape, channels, sparse=False):
    """A random symmetric prototype over ``vocab`` ids and a random map of ``shape``.

    ``sparse`` zeroes about half of the prototype, so some ids may relate
    to nothing.
    """
    omega = rng.random((vocab, vocab))
    if sparse:
        omega *= rng.random((vocab, vocab)) > 0.5
    return factored_graph(rng.integers(0, vocab, size=shape), (omega + omega.T) / 2, rng, channels)


def zero_affinity_rows(labels, omega):
    """How many nodes of the map ``labels`` relate to no node: their gathered affinity row is 0."""
    ids = labels.reshape(-1)
    return int((omega[np.ix_(ids, ids)].sum(axis=1) == 0).sum())


def assert_block_matches_dense(adjacency, dense):
    """``P mix P^T`` is the dense adjacency built from the prototype."""
    a = adjacency
    blown_up = a.mix[np.ix_(a.inverse, a.inverse)]
    assert oracle.compare(blown_up, dense).max_abs_deviation <= 1e-15


def assert_factored_matches_dense(v, adjacency, dense):
    # the identity weight propagates V itself
    fast = nn.propagate(adjacency, np.eye(v.shape[1]))
    slow = oracle.naive_propagate(dense, v)
    assert oracle.compare(fast, slow).max_abs_deviation <= 1e-12


class TestFactoredPropagation:
    """The label-space adjacency against the scalar loop over its dense form."""

    def test_all_zero_rows_fall_back_to_the_mean(self):
        rng = np.random.default_rng(12)
        omega = np.array([[1.0, 0.0], [0.0, 0.0]])  # id 1 relates to nothing
        labels = np.array([[0, 1, 1], [1, 0, 1]])
        v, adjacency, dense = factored_graph(labels, omega, rng)
        assert zero_affinity_rows(labels, omega) == 4
        assert_block_matches_dense(adjacency, dense)
        assert_factored_matches_dense(v, adjacency, dense)
        lone = labels.reshape(-1) == 1
        # v is the feature map's own (float32) array; the expectation is in float64
        v64 = v.astype(np.float64)
        np.testing.assert_allclose(
            nn.propagate(adjacency, np.eye(3))[lone], (v64[lone] + v64.mean(axis=0)) / 2,
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
        v, adjacency, dense = factored_graph(np.array([[11, 3], [3, 0]]), (omega + omega.T) / 2, rng)
        assert adjacency.mix.shape == (3, 3)
        assert_factored_matches_dense(v, adjacency, dense)

    def test_random_cases(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            vocab = int(rng.integers(1, 9))
            omega = rng.random((vocab, vocab)) * (rng.random((vocab, vocab)) > 0.5)
            labels = rng.integers(0, vocab, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            v, adjacency, dense = factored_graph(labels, (omega + omega.T) / 2, rng, int(rng.integers(1, 5)))
            np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-15, rtol=0)
            assert_block_matches_dense(adjacency, dense)
            assert_factored_matches_dense(v, adjacency, dense)


def assert_eval_only_pool_matches_dense(v, adjacency, dense):
    """The eval-only mode pools through the label counts; the oracle pools the propagation."""
    slow = nn.gap(oracle.naive_propagate(dense, v))
    assert oracle.compare(eval_only_pooled(adjacency), slow).max_abs_deviation <= 1e-12


class TestAdjoint:
    """``M^T 1/n``, the weights of eval-only pooling, on the fixtures of TestFactoredPropagation.

    ``M^T y`` for any ``y`` is checked through the backward, against the
    dense matrix (``tests/test_graph_layer.py``).
    """

    def test_all_zero_rows(self):
        rng = np.random.default_rng(16)
        omega = np.array([[1.0, 0.0], [0.0, 0.0]])
        labels = np.array([[0, 1, 1], [1, 0, 1]])
        v, adjacency, dense = factored_graph(labels, omega, rng)
        assert zero_affinity_rows(labels, omega) == 4
        assert_eval_only_pool_matches_dense(v, adjacency, dense)

    def test_every_row_zero(self):
        rng = np.random.default_rng(17)
        v, adjacency, dense = factored_graph(np.array([[0, 1], [2, 1]]), np.zeros((3, 3)), rng)
        assert_eval_only_pool_matches_dense(v, adjacency, dense)

    def test_single_label_map(self):
        rng = np.random.default_rng(18)
        for self_relation in (0.0, 0.7):
            v, adjacency, dense = factored_graph(np.full((3, 4), 2), np.full((3, 3), self_relation), rng)
            assert_eval_only_pool_matches_dense(v, adjacency, dense)

    def test_vocab_larger_than_node_count(self):
        rng = np.random.default_rng(19)
        omega = rng.random((12, 12))
        v, adjacency, dense = factored_graph(np.array([[11, 3], [3, 0]]), (omega + omega.T) / 2, rng)
        assert_eval_only_pool_matches_dense(v, adjacency, dense)

    def test_random_cases(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            vocab = int(rng.integers(1, 9))
            omega = rng.random((vocab, vocab)) * (rng.random((vocab, vocab)) > 0.5)
            labels = rng.integers(0, vocab, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            v, adjacency, dense = factored_graph(labels, (omega + omega.T) / 2, rng, int(rng.integers(1, 5)))
            assert_eval_only_pool_matches_dense(v, adjacency, dense)


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
        adjacency = dense_adjacency(resized.labels.reshape(-1), proto)
        out.append((fm.values.reshape(-1, fm.channels), adjacency, inst.scene_id))
    return out


# (mode, lam, blocks stepped): the four training configurations
TRAINING_RUNS = [
    (md.AblationMode.BASELINE, 0.5, 2),
    (md.AblationMode.TRAIN_EVAL_IODP, 0.5, 3),
    (md.AblationMode.FULL, 0.5, 5),
    (md.AblationMode.FULL, 0.0, 3),
]
TRAINING_CONFIGURATIONS = pytest.mark.parametrize("mode, lam, stepped", TRAINING_RUNS)


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


# checkpoint (mode, lam) -> the eval modes that can score it: the 8 supported pairs
EVAL_PAIRS = [
    (md.AblationMode.BASELINE, 0.5, md.AblationMode.BASELINE),
    (md.AblationMode.BASELINE, 0.5, md.AblationMode.EVAL_ONLY_IODP),
    (md.AblationMode.TRAIN_EVAL_IODP, 0.5, md.AblationMode.TRAIN_EVAL_IODP),
    (md.AblationMode.TRAIN_EVAL_IODP, 0.5, md.AblationMode.FULL),
    (md.AblationMode.FULL, 0.5, md.AblationMode.FULL),
    (md.AblationMode.FULL, 0.5, md.AblationMode.TRAIN_EVAL_IODP),
    (md.AblationMode.FULL, 0.0, md.AblationMode.FULL),
    (md.AblationMode.FULL, 0.0, md.AblationMode.TRAIN_EVAL_IODP),
]


@pytest.mark.parametrize("channels", [3, 5], ids=["label sums held", "wide"])
@pytest.mark.parametrize("checkpoint_mode, lam, eval_mode", EVAL_PAIRS)
def test_evaluate_matches_the_evaluation_oracle(checkpoint_mode, lam, eval_mode, channels):
    corpus, proto, config = tiny_training_run(lam, channels)
    model, _ = md.train(corpus, proto, config, checkpoint_mode)
    assert eval_mode in md._EVAL_MODES[checkpoint_mode]
    graphs = check_evaluation_oracle(model, corpus, proto, eval_mode)
    assert all(
        x.holds_label_sums == (channels == 3) for x, _ in graphs if isinstance(x, gr.LabelAdjacency)
    )


def check_evaluation_oracle(model, corpus, proto, eval_mode):
    """``forward_parts`` and ``model.evaluate`` against ``naive_evaluate``; returns the inputs."""
    logits = oracle.naive_evaluate(dense_instances(corpus, proto), model.blocks(), eval_mode)
    graphs = md._prepared_inputs(corpus, proto, eval_mode is not md.AblationMode.BASELINE)
    for (x, _), expected in zip(graphs, logits):
        fast = md.forward_parts(model, x, eval_mode).main_logits
        assert oracle.compare(fast, expected).max_abs_deviation <= 1e-12 * np.abs(expected).max()
    # argmax ties go to the lowest class, as np.argmax breaks them
    totals, hits = np.zeros(corpus.num_classes), np.zeros(corpus.num_classes)
    for row, (_, target) in zip(logits.tolist(), graphs):
        totals[target] += 1
        hits[target] += row.index(max(row)) == target
    report = md.evaluate(model, corpus, proto, eval_mode)
    assert report.accuracy == hits.sum() / totals.sum()
    per_class = np.where(totals > 0, hits / np.maximum(totals, 1), 0.0)
    np.testing.assert_array_equal(report.per_class, per_class)
    return graphs


# ---------------------------------------------------------------------------
# the training oracle over random shapes, in both label-sum regimes

# object ids 0-3; the draw makes some of them relate to nothing
ORACLE_VOCAB = 4


@dataclass(frozen=True, eq=False)
class TrainingDraw:
    """A tiny corpus over a random prototype, and how to train on it for two epochs."""

    mode: md.AblationMode
    lam: float
    channels: int
    hidden: int
    classes: int
    labels: tuple[np.ndarray, ...]  # one (h, w) map of object ids per instance
    targets: tuple[int, ...]
    inert: frozenset[int]  # ids whose prototype row is 0: zero-weight labels
    batch_size: int
    decay_epoch: int
    weight_decay: float
    seed: int

    def build(self):
        """(corpus, prototype, config); the seed draws the features and the prototype."""
        rng = np.random.default_rng(self.seed)
        omega = rng.random((ORACLE_VOCAB, ORACLE_VOCAB))
        omega = (omega + omega.T) / 2
        for i in self.inert:
            omega[i, :] = omega[:, i] = 0.0
        proto = Prototype(
            ORACLE_VOCAB, omega, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True,
            self.classes,
        )
        instances = [
            Instance(
                target,
                LabelMap(grid, ORACLE_VOCAB),
                FeatureMap(rng.standard_normal((*grid.shape, self.channels))),
            )
            for grid, target in zip(self.labels, self.targets)
        ]
        config = md.TrainConfig(
            epochs=2, batch_size=self.batch_size, lr=0.05, decay_epochs=(self.decay_epoch,),
            weight_decay=self.weight_decay, lam=self.lam, hidden_dim=self.hidden, seed=self.seed,
        )
        return Corpus(self.classes, ORACLE_VOCAB, instances), proto, config


@st.composite
def training_draws(draw):
    """1-9 nodes, 1-12 channels, hidden width 1-3, 2-3 classes and 2-5 instances."""
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9 // h))
    ids = st.integers(0, ORACLE_VOCAB - 1)
    count = draw(st.integers(2, 5))
    labels = tuple(
        np.full((h, w), draw(ids))
        if draw(st.booleans())  # a single-label map
        else draw(hnp.arrays(np.int64, (h, w), elements=ids))
        for _ in range(count)
    )
    classes = draw(st.integers(2, 3))
    mode, lam, _ = draw(st.sampled_from(TRAINING_RUNS))
    return TrainingDraw(
        mode=mode,
        lam=lam,
        channels=draw(st.integers(1, 12)),
        hidden=draw(st.integers(1, 3)),
        classes=classes,
        labels=labels,
        targets=tuple(draw(st.integers(0, classes - 1)) for _ in range(count)),
        inert=draw(st.frozensets(ids)),
        batch_size=draw(st.integers(1, count)),
        decay_epoch=draw(st.integers(1, 2)),
        weight_decay=draw(st.sampled_from([0.0, 1e-3, 0.1])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def example_draw(grid, channels):
    """Five instances in batches of two, a single-label map and a zero-weight label, id 3."""
    h, w = grid
    maps = [np.arange(h * w).reshape(h, w) % ORACLE_VOCAB, np.full(grid, 1)]
    maps += [np.roll(maps[0], shift) for shift in (1, 2, 5)]
    return TrainingDraw(
        mode=md.AblationMode.FULL, lam=0.5, channels=channels, hidden=2, classes=3,
        labels=tuple(maps), targets=(0, 1, 2, 1, 0), inert=frozenset({3}), batch_size=2,
        decay_epoch=2, weight_decay=0.1, seed=1717,
    )


@settings(max_examples=12, deadline=None)
@given(training_draws())
@example(example_draw((3, 3), channels=2))  # fewer channels than nodes: label sums held
@example(example_draw((2, 3), channels=7))  # wide: no label sums
def test_train_matches_the_training_oracle_on_random_shapes(case):
    corpus, proto, config = case.build()
    initial = md.init_model(case.mode, case.channels, case.classes, config).blocks()
    trained, _ = md.train(corpus, proto, config, case.mode)
    expected = oracle.naive_train(dense_instances(corpus, proto), initial, config, case.mode)
    # relative to each block's largest entry: Adam divides each gradient entry
    # by its own running scale, so the oracle's finite-difference error (about
    # 1e-13) on an entry near ADAM_EPS reaches the step almost undamped
    for a, e in zip(trained.blocks(), expected):
        assert oracle.compare(a, e).max_abs_deviation <= 1e-6 * np.abs(e).max()
    for eval_mode in md._EVAL_MODES[case.mode]:
        check_evaluation_oracle(trained, corpus, proto, eval_mode)
    if case.mode is md.AblationMode.BASELINE:
        return
    # holding the label sums S_V or not is exact either way: only rounding
    # may separate the trained blocks
    forced = []
    for held in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gr.LabelAdjacency, "holds_label_sums", property(lambda a, h=held: h))
            forced.append(md.train(corpus, proto, config, case.mode)[0].blocks())
    for held, node_sized in zip(*forced):
        assert np.abs(held - node_sized).max() <= 1e-10 * np.abs(node_sized).max()

import dataclasses
import functools
import itertools

import numpy as np
import pytest

import dgn
from dgn import graph as gr
from dgn import model as md
from dgn import nn, oracle
from dgn.errors import ValidationError
from dgn.model import AblationMode, TrainConfig
from dgn.prototype import CooccurrenceMode, DispersionMetric, Prototype
from tests.test_acceptance import _gradcheck_relative_error
from tests.test_oracle import factored_graph, zero_affinity_rows


def small_corpus(noise=3.0, seed=304, classes=3, per_class=30):
    spec = dgn.SyntheticSpec(
        num_classes=classes, vocab_size=10, grid_cells=5, train_per_class=per_class,
        test_per_class=6, channels=16, noise=noise, seed=seed,
    )
    return dgn.generate_synthetic_corpus(spec)


@pytest.fixture(scope="module")
def trained_setup():
    train_corpus, test_corpus = small_corpus()
    proto = dgn.build_prototype(train_corpus, CooccurrenceMode.INDEPENDENT)
    return train_corpus, test_corpus, proto


class TestForward:
    def test_baseline_pooled_affine(self):
        head = nn.ClassifierParams(np.array([[1.0, 0.0]]), np.zeros(2))
        model = md.DgnModel(AblationMode.BASELINE, 1, 1, 2, 0.0, head)
        logits, aux, _ = md.forward_parts(model, np.array([[1.0], [3.0]]), None)
        np.testing.assert_array_equal(logits, [2.0, 0.0])
        assert aux is None

    def test_single_node_main_equals_aux_with_equal_heads(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        head = nn.ClassifierParams(rng.standard_normal((4, 2)), rng.standard_normal(2))
        twin = nn.ClassifierParams(head.weight.copy(), head.bias.copy())
        model = md.DgnModel(
            AblationMode.FULL, 3, 4, 2, 0.25, head, gc_weight=w, aux_head=twin
        )
        v = rng.standard_normal((1, 3))
        # single node: adjacency [[1]], propagation returns V itself
        propagated = nn.propagate(np.array([[1.0]]), v)
        np.testing.assert_allclose(propagated, v, atol=1e-15, rtol=0)
        logits, aux_logits, _ = md.forward_parts(model, v, np.array([[1.0]]))
        np.testing.assert_allclose(logits, aux_logits, atol=1e-15, rtol=0)

    def test_eval_only_matches_baseline_on_half_mean_shift(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((6, 4))
        head = nn.ClassifierParams(rng.standard_normal((4, 3)), rng.standard_normal(3))
        baseline = md.DgnModel(AblationMode.BASELINE, 4, 4, 3, 0.0, head)
        # uniform relations: propagation equals (V + mean(V)) / 2
        plug_logits, _, _ = md.forward_parts(
            baseline, v, np.full((6, 6), 1.0 / 6), AblationMode.EVAL_ONLY_IODP
        )
        shifted = (v + v.mean(axis=0)) / 2
        base_logits, _, _ = md.forward_parts(baseline, shifted, None)
        np.testing.assert_allclose(plug_logits, base_logits, atol=1e-12, rtol=0)

    def test_graph_mode_requires_propagation(self):
        head = nn.ClassifierParams(np.zeros((2, 2)), np.zeros(2))
        model = md.DgnModel(AblationMode.BASELINE, 2, 2, 2, 0.0, head)
        with pytest.raises(ValidationError):
            md.forward_parts(model, np.ones((2, 2)), None, AblationMode.EVAL_ONLY_IODP)

    def test_shared_weight_is_same_storage(self):
        config = TrainConfig(seed=1)
        model = md.init_model(AblationMode.FULL, 3, 2, config)
        rng = np.random.default_rng(2)
        v = rng.standard_normal((4, 3))
        adjacency = np.full((4, 4), 0.25)
        _, _, record = md.forward_parts(model, v, adjacency)
        assert record.gc_weight is model.gc_weight
        # the aux path reads the same array: mutating it changes both paths
        before_main, before_aux, _ = md.forward_parts(model, v, adjacency)
        model.gc_weight[:] = 0.0
        after_main, after_aux, recer = md.forward_parts(model, v, adjacency)
        assert not np.array_equal(before_main, after_main)
        assert not np.array_equal(before_aux, after_aux)


def test_total_loss():
    assert md.total_loss(1.0, 0.8, 0.0) == 1.0
    assert md.total_loss(1.0, 0.8, 0.25) == 1.2
    assert md.total_loss(2.5, 0.0, 1.0) == 2.5


class TestTrain:
    def test_determinism_bitwise(self, trained_setup):
        train_corpus, _, proto = trained_setup
        config = TrainConfig(epochs=3, seed=304)
        m1, t1 = md.train(train_corpus, proto, config, AblationMode.FULL)
        m2, t2 = md.train(train_corpus, proto, config, AblationMode.FULL)
        np.testing.assert_array_equal(m1.gc_weight, m2.gc_weight)
        np.testing.assert_array_equal(m1.main_head.weight, m2.main_head.weight)
        np.testing.assert_array_equal(m1.aux_head.weight, m2.aux_head.weight)
        assert [s.loss for s in t1] == [s.loss for s in t2]

    def test_lambda_zero_leaves_aux_at_init(self, trained_setup):
        train_corpus, _, proto = trained_setup
        config = TrainConfig(epochs=3, seed=304, lam=0.0)
        model, _ = md.train(train_corpus, proto, config, AblationMode.FULL)
        init = md.init_model(AblationMode.FULL, 16, train_corpus.num_classes, config)
        np.testing.assert_array_equal(model.aux_head.weight, init.aux_head.weight)
        np.testing.assert_array_equal(model.aux_head.bias, init.aux_head.bias)
        assert not np.array_equal(model.gc_weight, init.gc_weight)

    def test_loss_decomposition_in_trace(self, trained_setup):
        train_corpus, _, proto = trained_setup
        config = TrainConfig(epochs=3, seed=304, lam=0.25)
        _, trace = md.train(train_corpus, proto, config, AblationMode.FULL)
        for s in trace:
            assert abs(s.loss - (s.loss_main + 0.25 * s.loss_aux)) <= 1e-12

    def test_loss_non_increasing_after_burn_in(self, trained_setup):
        train_corpus, _, proto = trained_setup
        config = TrainConfig(epochs=12, seed=304)
        _, trace = md.train(train_corpus, proto, config, AblationMode.FULL)
        losses = [s.loss for s in trace]
        for i in range(3, len(losses)):
            assert losses[i] <= losses[i - 1] + 1e-9

    def test_lr_schedule_decays_at_epochs_10_15_20(self, trained_setup):
        train_corpus, _, proto = trained_setup
        config = TrainConfig(epochs=21, seed=304)
        _, trace = md.train(train_corpus, proto, config, AblationMode.TRAIN_EVAL_IODP)
        by_epoch = {s.epoch: s.lr for s in trace}
        assert by_epoch[9] == 0.001
        assert by_epoch[10] == pytest.approx(0.0001)
        assert by_epoch[15] == pytest.approx(1e-5)
        assert by_epoch[20] == pytest.approx(1e-6)

    @pytest.mark.parametrize("batch_size", [1, 3, 32])
    def test_batched_baseline_step_is_the_mean_of_per_instance_gradients(self, batch_size):
        rng = np.random.default_rng(batch_size)
        count, n, c, k = 70, 9, 16, 5
        features = rng.standard_normal((count, n, c))
        targets = rng.integers(0, k, size=count)
        model = md.init_model(AblationMode.BASELINE, c, k, TrainConfig(seed=3))
        pooled = np.stack([nn.gap(v) for v in features])
        order = rng.permutation(count)
        sizes = []
        # 70 instances: batches of 3 end with 1, batches of 32 end with 6
        for start in range(0, count, batch_size):
            batch = order[start : start + batch_size]
            sizes.append(batch.size)
            losses, hits, grad_sums = md._baseline_batch(model, pooled[batch], targets[batch])
            per_instance, expected_hits = [], 0
            for j, i in enumerate(batch):
                logits, _, record = md.forward_parts(model, features[i], None)
                per_instance.append(list(nn.backward(record, int(targets[i]))))
                assert losses[j] == nn.softmax_ce(logits, int(targets[i]))
                expected_hits += int(np.argmax(logits) == targets[i])
            assert hits == expected_hits
            for block, g in enumerate(grad_sums):
                mean = sum(grads[block] for grads in per_instance) / batch.size
                error = np.linalg.norm(g / batch.size - mean) / np.linalg.norm(mean)
                assert error <= 1e-12
        assert sizes[-1] == (count % batch_size or batch_size)

    def test_baseline_trace_holds_plain_floats(self, trained_setup):
        train_corpus, _, _ = trained_setup
        _, trace = md.train(train_corpus, None, TrainConfig(epochs=2), AblationMode.BASELINE)
        for s in trace:
            assert all(type(v) is float for v in (s.lr, s.loss, s.loss_main, s.loss_aux, s.train_accuracy))
            assert s.loss == s.loss_main and s.loss_aux == 0.0

    def test_non_finite_baseline_loss_raises(self, trained_setup):
        # float32 features cannot hold values large enough to overflow the
        # loss; a huge learning rate drives the head weights there instead
        train_corpus, _, _ = trained_setup
        config = TrainConfig(epochs=2, batch_size=1, lr=1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite loss in epoch 1"
        ):
            md.train(train_corpus, None, config, AblationMode.BASELINE)

    def test_eval_only_mode_rejected(self, trained_setup):
        train_corpus, _, proto = trained_setup
        with pytest.raises(ValidationError):
            md.train(train_corpus, proto, TrainConfig(), AblationMode.EVAL_ONLY_IODP)

    def test_prototype_vocab_mismatch_rejected(self, trained_setup):
        train_corpus, _, _ = trained_setup
        wrong = Prototype(
            5, np.zeros((5, 5)), CooccurrenceMode.INDEPENDENT,
            DispersionMetric.COEFF_VAR, True, 3,
        )
        with pytest.raises(ValidationError):
            md.train(train_corpus, wrong, TrainConfig(epochs=1), AblationMode.FULL)


class TestEvaluate:
    def test_perfect_model(self):
        # class 0 features pool to 0, class 1 features pool to 1
        maps = [dgn.LabelMap(np.array([[0]]), 2), dgn.LabelMap(np.array([[1]]), 2)]
        feats = [dgn.FeatureMap(np.zeros((1, 1, 1))), dgn.FeatureMap(np.ones((1, 1, 1)))]
        corpus = dgn.Corpus(
            2, 2, tuple(dgn.Instance(i, m, f) for i, (m, f) in enumerate(zip(maps, feats)))
        )
        head = nn.ClassifierParams(np.array([[-5.0, 0.0]]), np.array([1.0, 0.0]))
        model = md.DgnModel(AblationMode.BASELINE, 1, 1, 2, 0.0, head)
        report = md.evaluate(model, corpus)
        assert report.accuracy == 1.0
        assert report.count == 2

    def test_constant_logits_hit_lowest_class_share(self):
        rng = np.random.default_rng(3)
        instances = []
        for scene in range(7):
            for _ in range(3):
                instances.append(
                    dgn.Instance(
                        scene,
                        dgn.LabelMap(np.array([[scene]]), 7),
                        dgn.FeatureMap(rng.standard_normal((1, 1, 2))),
                    )
                )
        corpus = dgn.Corpus(7, 7, tuple(instances))
        head = nn.ClassifierParams(np.zeros((2, 7)), np.zeros(7))
        model = md.DgnModel(AblationMode.BASELINE, 2, 2, 7, 0.0, head)
        report = md.evaluate(model, corpus)
        assert report.accuracy == pytest.approx(1 / 7)
        np.testing.assert_array_equal(report.per_class, [1.0, 0, 0, 0, 0, 0, 0])

    def test_constant_logit_shift_keeps_predictions(self, trained_setup):
        train_corpus, test_corpus, proto = trained_setup
        config = TrainConfig(epochs=2, seed=304)
        model, _ = md.train(train_corpus, proto, config, AblationMode.FULL)
        before = md.evaluate(model, test_corpus, proto)
        model.main_head.bias = model.main_head.bias + 17.5
        after = md.evaluate(model, test_corpus, proto)
        assert before.accuracy == after.accuracy
        np.testing.assert_array_equal(before.per_class, after.per_class)

    def test_eval_only_needs_baseline_shaped_model(self, trained_setup):
        train_corpus, test_corpus, proto = trained_setup
        config = TrainConfig(epochs=1, seed=304)
        full, _ = md.train(train_corpus, proto, config, AblationMode.FULL)
        with pytest.raises(ValidationError):
            md.evaluate(full, test_corpus, proto, AblationMode.EVAL_ONLY_IODP)

    def test_empty_corpus_rejected(self):
        head = nn.ClassifierParams(np.zeros((1, 2)), np.zeros(2))
        model = md.DgnModel(AblationMode.BASELINE, 1, 1, 2, 0.0, head)
        with pytest.raises(ValidationError):
            md.evaluate(model, dgn.Corpus(2, 2, ()))

    def test_eval_only_adds_no_parameters(self, trained_setup):
        train_corpus, test_corpus, proto = trained_setup
        config = TrainConfig(epochs=1, seed=304)
        baseline, _ = md.train(train_corpus, None, config, AblationMode.BASELINE)
        count_before = baseline.parameter_count()
        plug = md.evaluate(baseline, test_corpus, proto, AblationMode.EVAL_ONLY_IODP)
        assert baseline.parameter_count() == count_before
        assert baseline.gc_weight is None and baseline.aux_head is None
        assert 0.0 <= plug.accuracy <= 1.0

    def test_full_model_never_runs_the_aux_head(self, trained_setup, monkeypatch):
        train_corpus, test_corpus, proto = trained_setup
        config = TrainConfig(epochs=1, seed=304)
        full, _ = md.train(train_corpus, proto, config, AblationMode.FULL)
        expected = md.evaluate(full, test_corpus, proto, AblationMode.TRAIN_EVAL_IODP)
        calls = []

        def counted(x):
            calls.append(x.shape)
            return nn.sigmoid(x)

        monkeypatch.setattr(md, "sigmoid", counted)
        report = md.evaluate(full, test_corpus, proto)
        # one sigmoid per instance: the main path's hidden layer only
        assert len(calls) == len(test_corpus.instances)
        assert report.accuracy == expected.accuracy
        np.testing.assert_array_equal(report.per_class, expected.per_class)


def test_train_and_evaluate_build_no_dense_matrix(trained_setup, monkeypatch):
    train_corpus, test_corpus, proto = trained_setup

    def dense(*args, **kwargs):
        raise AssertionError("built a dense n x n matrix")

    monkeypatch.setattr(gr, "extract_local_knowledge", dense)
    monkeypatch.setattr(gr, "row_normalize", dense)
    inst = train_corpus.instances[0]
    adjacency = gr.build_graph(inst.feature_map, dgn.nn_resize(inst.label_map, 5, 5), proto)
    with pytest.raises(AssertionError):
        np.asarray(adjacency)  # the patches intercept the dense path

    config = TrainConfig(epochs=1, seed=304)
    baseline, _ = md.train(train_corpus, None, config, AblationMode.BASELINE)
    md.evaluate(baseline, test_corpus, proto, AblationMode.EVAL_ONLY_IODP)
    for mode in (AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL):
        model, _ = md.train(train_corpus, proto, config, mode)
        md.evaluate(model, test_corpus, proto)


def test_training_caches_graphs_and_propagates_only_the_hidden_width(trained_setup, monkeypatch):
    # the raw channels go through label space once per graph, as its label
    # sums; every step after that propagates only the hidden width, never an
    # n x c product
    train_corpus, test_corpus, proto = trained_setup
    data = md._prepared_inputs(train_corpus, proto, True)
    assert all(isinstance(adjacency, gr.LabelAdjacency) for _, adjacency, _ in data)
    summed, widths = [], []
    label_sums = gr.LabelAdjacency._label_sums

    def counted_label_sums(adjacency):
        summed.append(adjacency)
        return label_sums.func(adjacency)

    def counted(adjacency, features, weight=None, product=None):
        assert weight is not None
        out = nn.propagate(adjacency, features, weight, product)
        widths.append(out.shape[1])
        return out

    cached = functools.cached_property(counted_label_sums)
    cached.__set_name__(gr.LabelAdjacency, "_label_sums")
    monkeypatch.setattr(gr.LabelAdjacency, "_label_sums", cached)
    monkeypatch.setattr(md, "propagate", counted)
    config = TrainConfig(epochs=2, seed=304, hidden_dim=5)  # the corpus has 16 channels
    n_train, n_test = len(train_corpus.instances), len(test_corpus.instances)
    for mode in (AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL):
        model, _ = md.train(train_corpus, proto, config, mode)
        md.evaluate(model, test_corpus, proto)
    # one label-sum pass per graph, over two epochs and the evaluation ...
    assert len(summed) == len({id(a) for a in summed}) == 2 * (n_train + n_test)
    assert all(a._label_sums.shape == (a.mix.shape[0], 16) for a in summed)
    # ... and one weight-first propagation of the 5 hidden channels per forward
    assert widths == [5] * (2 * (2 * n_train + n_test))


def test_eval_only_pooling_computes_no_label_sums(trained_setup, tmp_path, monkeypatch):
    # eval-only pooling is A.T @ Z, which reads the one-hot P^T only: graphs
    # with fewer channels than nodes hold label sums, yet none is computed
    train_corpus, test_corpus, proto = trained_setup
    config = TrainConfig(epochs=1, seed=304)
    md.save_model(md.train(train_corpus, None, config, AblationMode.BASELINE)[0], tmp_path / "b.dgnm")
    baseline = md.load_model(tmp_path / "b.dgnm")
    graphs = []

    def recorded(*args):
        graphs.append(gr.build_graph(*args))
        return graphs[-1]

    monkeypatch.setattr(md, "build_graph", recorded)
    md.evaluate(baseline, test_corpus, proto, AblationMode.EVAL_ONLY_IODP)
    assert len(graphs) == len(test_corpus.instances)
    assert all(a.holds_label_sums for a in graphs)
    assert all("_one_hot" in vars(a) and "_label_sums" not in vars(a) for a in graphs)


def test_gradients_through_a_zero_weight_label_match_finite_differences():
    # criterion 6 in both graph modes on a label-space graph whose id 3
    # relates to nothing, so its nodes take the uniform row
    rng = np.random.default_rng(1010)
    omega = rng.random((5, 5))
    omega = (omega + omega.T) / 2
    omega[3, :] = omega[:, 3] = 0.0
    labels = rng.integers(0, 5, size=(3, 3))
    labels.flat[:2] = 3, 1
    d, k, target = 2, 3, 1
    # 3 channels over 9 nodes hold label sums, 12 channels do not
    for c, mode in itertools.product((3, 12), (AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL)):
        v, adjacency = factored_graph(labels, omega, rng, channels=c)
        assert 0 < zero_affinity_rows(adjacency) < adjacency.shape[0]
        assert adjacency.holds_label_sums == (c == 3)
        lam = 0.5 if mode is AblationMode.FULL else 0.0
        params = [rng.standard_normal(shape) * 0.6 for shape in ((c, d), (d, k), (k,), (d, k), (k,))]

        def model_of(p):
            return md.DgnModel(
                mode, c, d, k, lam, nn.ClassifierParams(p[1], p[2]),
                gc_weight=p[0], aux_head=nn.ClassifierParams(p[3], p[4]),
            )

        def loss_of(p):
            logits, aux_logits, _ = md.forward_parts(model_of(p), v, adjacency)
            loss_aux = nn.softmax_ce(aux_logits, target) if aux_logits is not None else 0.0
            return md.total_loss(nn.softmax_ce(logits, target), loss_aux, lam)

        _, _, record = md.forward_parts(model_of(params), v, adjacency)
        analytic = list(nn.backward(record, target))
        numeric = oracle.fd_gradient(loss_of, params)
        # train-eval-iodp never reads the aux head: its gradient blocks are absent
        assert len(analytic) == (5 if mode is AblationMode.FULL else 3)
        for a_, f_ in zip(analytic, numeric):
            assert _gradcheck_relative_error(a_, f_) <= 1e-6


def test_both_label_sum_regimes_train_the_same_blocks(monkeypatch):
    # a zero-weight label, a decay epoch, weight decay and a short last batch
    # (14 instances in batches of 4): holding the label sums S_V or not is
    # exact either way, so only rounding may separate the trained blocks
    spec = dgn.SyntheticSpec(
        num_classes=2, vocab_size=6, grid_cells=3, train_per_class=7, test_per_class=1,
        channels=4, noise=2.0, seed=1212,
    )
    train_corpus, _ = dgn.generate_synthetic_corpus(spec)
    proto = dgn.build_prototype(train_corpus, CooccurrenceMode.INDEPENDENT)
    omega = proto.omega.copy()
    omega[4, :] = omega[:, 4] = 0.0  # id 4 is a common object
    proto = dataclasses.replace(proto, omega=omega)
    graphs = [a for _, a, _ in md._prepared_inputs(train_corpus, proto, True)]
    assert any(zero_affinity_rows(a) for a in graphs)
    config = TrainConfig(epochs=3, batch_size=4, decay_epochs=(2,), weight_decay=1e-3, seed=1212)
    for mode in (AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL):
        trained = []
        for held in (True, False):
            monkeypatch.setattr(gr.LabelAdjacency, "holds_label_sums", property(lambda a, h=held: h))
            trained.append(md.train(train_corpus, proto, config, mode)[0].blocks())
        for held, node_sized in zip(*trained):
            assert np.abs(held - node_sized).max() <= 1e-10 * np.abs(node_sized).max()


class TestCheckpoints:
    def test_round_trip_all_saved_modes(self, tmp_path, trained_setup):
        train_corpus, _, proto = trained_setup
        config = TrainConfig(epochs=1, seed=304)
        for mode in (AblationMode.BASELINE, AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL):
            needs = None if mode is AblationMode.BASELINE else proto
            model, _ = md.train(train_corpus, needs, config, mode)
            path = tmp_path / f"{mode.value}.dgnm"
            md.save_model(model, path)
            loaded = md.load_model(path)
            assert loaded.mode is mode
            assert loaded.lam == model.lam
            np.testing.assert_array_equal(loaded.main_head.weight, model.main_head.weight)
            if mode is not AblationMode.BASELINE:
                np.testing.assert_array_equal(loaded.gc_weight, model.gc_weight)
                np.testing.assert_array_equal(loaded.aux_head.bias, model.aux_head.bias)
            second = tmp_path / f"{mode.value}-2.dgnm"
            md.save_model(loaded, second)
            assert path.read_bytes() == second.read_bytes()

    def test_corrupt_mode_byte(self, tmp_path):
        head = nn.ClassifierParams(np.zeros((1, 2)), np.zeros(2))
        model = md.DgnModel(AblationMode.BASELINE, 1, 1, 2, 0.0, head)
        path = tmp_path / "m.dgnm"
        md.save_model(model, path)
        # 1 is eval-only-iodp, an evaluation mode that no checkpoint holds
        for mode_byte in (1, 200):
            data = bytearray(path.read_bytes())
            data[8] = mode_byte
            bad = tmp_path / "bad.dgnm"
            bad.write_bytes(bytes(data))
            with pytest.raises(ValidationError):
                md.load_model(bad)

    def test_layout_orders_checkpoint_adam_and_gradients_alike(self, tmp_path, trained_setup):
        train_corpus, _, proto = trained_setup
        config = TrainConfig(epochs=1, seed=304)
        for mode in (AblationMode.BASELINE, AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL):
            needs = None if mode is AblationMode.BASELINE else proto
            model, _ = md.train(train_corpus, needs, config, mode)
            arrays = model.blocks()
            assert model.parameter_count() == sum(a.size for a in arrays)
            path = tmp_path / f"{mode.value}.dgnm"
            md.save_model(model, path)
            payload = b"".join(a.astype("<f8").tobytes() for a in arrays)
            assert path.read_bytes().endswith(payload)
            inst = train_corpus.instances[0]
            features = inst.feature_map.values.reshape(-1, model.in_channels)
            n = features.shape[0]
            _, _, record = md.forward_parts(model, features, np.zeros((n, n)))
            grads = list(nn.backward(record, inst.scene_id))
            expected = [a.shape for a in arrays]
            if mode is not AblationMode.FULL:
                expected = expected[: len(grads)]  # no aux loss, no aux gradients
            assert [g.shape for g in grads] == expected

    @pytest.mark.parametrize(
        "field,value",
        [("c", 0), ("d", 0), ("k", 0), ("lam", -0.25), ("lam", np.inf), ("lam", np.nan),
         ("gc_weight", np.nan), ("aux_bias", np.inf)],
    )
    def test_load_rejects_bad_header_or_block(self, tmp_path, field, value):
        model = md.init_model(AblationMode.FULL, 3, 2, TrainConfig(seed=1))
        path = tmp_path / "m.dgnm"
        md.save_model(model, path)
        data = bytearray(path.read_bytes())
        header = 4 + 4 + 1  # magic, version, mode byte
        if field in ("c", "d", "k"):
            at = header + 4 * "cdk".index(field)
            data[at : at + 4] = int(value).to_bytes(4, "little")
        else:
            at = {"lam": header + 12, "gc_weight": header + 20, "aux_bias": len(data) - 8}[field]
            data[at : at + 8] = np.float64(value).astype("<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError):
            md.load_model(path)

    def test_huge_header_fails_on_truncation_before_allocating(self, tmp_path):
        path = tmp_path / "m.dgnm"
        md.save_model(md.init_model(AblationMode.FULL, 3, 2, TrainConfig(seed=1)), path)
        data = bytearray(path.read_bytes())
        data[9:21] = (2**32 - 1).to_bytes(4, "little") * 3
        path.write_bytes(bytes(data))
        with pytest.raises(EOFError):
            md.load_model(path)

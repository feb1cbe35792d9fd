"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single pass line once its assertions hold, so
``pytest tests/test_acceptance.py -v -s`` yields one line per criterion.
"""

import math
import time

import numpy as np
import pytest

import dgn
from dgn import model as md
from dgn import nn, oracle
from dgn import prototype as pt
from dgn.model import AblationMode, TrainConfig
from dgn.prototype import CooccurrenceMode, DispersionMetric
from tests.helpers import run_python
from tests.test_prototype import presence_corpus, random_presence_corpus

SEEDS = (304, 305, 306)


def passed(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def toy_corpus():
    return presence_corpus(2, 3, [(0, {0, 1}), (0, {0}), (1, {1, 2}), (1, {2})])


def benchmark_spec(seed):
    return dgn.SyntheticSpec(
        num_classes=7,
        vocab_size=20,
        grid_cells=7,
        train_per_class=100,
        test_per_class=20,
        channels=32,
        noise=6.0,
        seed=seed,
    )


def test_criterion_1_prototype_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(50):
        corpus = random_presence_corpus(rng, max_classes=5, max_vocab=8, max_instances=20)
        for mode in CooccurrenceMode:
            for metric in DispersionMetric:
                for passivated in (True, False):
                    fast = pt.build_prototype(corpus, mode, metric, passivated).omega
                    slow = oracle.naive_prototype(corpus, mode, metric, passivated).omega
                    assert oracle.compare(fast, slow).max_abs_deviation <= 1e-12
                    checked += 1
    elapsed = time.monotonic() - start
    assert checked == 50 * 2 * 3 * 2
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    passed(1, "prototype oracle equivalence")


def test_criterion_2_posterior_normalization():
    rng = np.random.default_rng(1002)
    for _ in range(10):
        corpus = random_presence_corpus(rng)
        counts = pt.count(corpus)
        for mode in CooccurrenceMode:
            post = pt.class_posterior(counts, mode)
            assert post.shape == (counts.num_classes, counts.vocab_size, counts.vocab_size)
            assert (post >= 0).all()
            total = post.sum(axis=0)
            seen = total > 0
            assert np.abs(total[seen] - 1.0).max(initial=0.0) <= 1e-12
            assert (post[:, ~seen] == 0).all()
    passed(2, "posterior normalization")


def test_criterion_3_structural_suite():
    rng = np.random.default_rng(1003)
    for _ in range(15):
        corpus = random_presence_corpus(rng)
        for mode in CooccurrenceMode:
            proto = pt.build_prototype(corpus, mode)
            omega = proto.omega
            assert np.abs(omega - omega.T).max(initial=0.0) <= 1e-12
            assert (omega >= 0).all()
            bound = (corpus.num_classes - 1) ** 0.25
            assert omega.max(initial=0.0) <= bound + 1e-12

            obj_perm = rng.permutation(corpus.vocab_size)
            remapped = dgn.Corpus(
                corpus.num_classes,
                corpus.vocab_size,
                tuple(
                    dgn.Instance(
                        i.scene_id,
                        dgn.LabelMap(obj_perm[i.label_map.labels], corpus.vocab_size),
                    )
                    for i in corpus.instances
                ),
            )
            permuted = pt.build_prototype(remapped, mode).omega
            np.testing.assert_array_equal(permuted[np.ix_(obj_perm, obj_perm)], omega)

            scene_perm = rng.permutation(corpus.num_classes)
            relabeled = dgn.Corpus(
                corpus.num_classes,
                corpus.vocab_size,
                tuple(
                    dgn.Instance(int(scene_perm[i.scene_id]), i.label_map)
                    for i in corpus.instances
                ),
            )
            np.testing.assert_array_equal(pt.build_prototype(relabeled, mode).omega, omega)
    passed(3, "prototype structural suite")


def test_criterion_4_toy_corpus_exactness():
    toy = toy_corpus()
    for mode in CooccurrenceMode:
        omega = pt.build_prototype(toy, mode, DispersionMetric.COEFF_VAR, True).omega
        assert omega[0, 1] == 1.0
        assert omega[1, 1] == 0.0
        assert omega[0, 2] == 0.0
    passed(4, "toy corpus exactness")


def test_criterion_5_graph_suite():
    rng = np.random.default_rng(1005)
    for trial in range(10):
        vocab = int(rng.integers(2, 6))
        omega = rng.random((vocab, vocab)) * (rng.random((vocab, vocab)) > 0.3)
        omega = (omega + omega.T) / 2
        proto = pt.Prototype(
            vocab, omega, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 3
        )
        n = int(rng.integers(1, 8))
        sem = rng.integers(0, vocab, size=n)
        affinity = dgn.extract_local_knowledge(sem, proto)
        expected = np.array([[omega[a, b] for b in sem] for a in sem])
        np.testing.assert_array_equal(affinity, expected)
        adjacency = dgn.row_normalize(affinity)
        np.testing.assert_allclose(adjacency.sum(axis=1), 1.0, atol=1e-12, rtol=0)

    fm = dgn.FeatureMap(np.random.default_rng(1055).standard_normal((2, 3, 3)))
    uniform_proto = pt.Prototype(
        2, np.full((2, 2), 0.4), CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
    )
    adjacency = dgn.build_graph(
        fm,
        dgn.LabelMap(np.random.default_rng(9).integers(0, 2, size=(2, 3)), 2),
        uniform_proto,
    )
    # the graph propagates the feature map's own (float32) array, in float64
    v = fm.values.reshape(6, 3)
    v64 = v.astype(np.float64)
    np.testing.assert_allclose(
        nn.propagate(adjacency, v), (v64 + v64.mean(axis=0)) / 2, atol=1e-12, rtol=0
    )
    passed(5, "graph suite")


def _gradcheck_relative_error(analytic, numeric):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / scale).max(initial=0.0))


def test_criterion_6_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(1006)
    lams = (0.0, 0.25, 1.0)
    for trial in range(21):
        n = int(rng.integers(1, 7))
        c = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        C = int(rng.integers(2, 4))
        lam = lams[trial % 3]
        v = rng.standard_normal((n, c))
        a = rng.random((n, n))
        a /= a.sum(axis=1, keepdims=True)
        target = int(rng.integers(0, C))
        params = [
            rng.standard_normal((c, d)) * 0.6,
            rng.standard_normal((d, C)) * 0.6,
            rng.standard_normal(C) * 0.2,
            rng.standard_normal((d, C)) * 0.6,
            rng.standard_normal(C) * 0.2,
        ]

        def model_of(p):
            return md.DgnModel(
                AblationMode.FULL, c, d, C, lam,
                nn.ClassifierParams(p[1], p[2]),
                gc_weight=p[0],
                aux_head=nn.ClassifierParams(p[3], p[4]),
            )

        def loss_of(p):
            logits, aux_logits, _ = md.forward_parts(model_of(p), v, a)
            return md.total_loss(
                nn.softmax_ce(logits, target), nn.softmax_ce(aux_logits, target), lam
            )

        _, _, record = md.forward_parts(model_of(params), v, a)
        analytic = nn.backward(record, target)
        assert len(analytic) == 5
        numeric = oracle.fd_gradient(loss_of, params)
        for a_, f_ in zip(analytic, numeric):
            assert _gradcheck_relative_error(a_, f_) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    passed(6, "gradient check")


def test_criterion_7_gcn_numerics():
    a = np.array([[0.5, 0.5], [1.0, 0.0]])
    v = np.array([[1.0], [0.0]])
    model = md.DgnModel.assemble(AblationMode.TRAIN_EVAL_IODP, 1, 1, 2, 0.0, np.ones)
    propagated = nn.propagate(a, v)
    _, _, record = md.forward_parts(model, v, a)
    # with the unit hidden weight the propagation is the pre-activation
    np.testing.assert_array_equal(propagated.ravel(), [0.75, 0.5])
    expected = np.array([1 / (1 + math.exp(-0.75)), 1 / (1 + math.exp(-0.5))])
    assert np.abs(record.hidden.ravel() - expected).max() <= 1e-9
    passed(7, "graph convolution numerics")


def test_criterion_8_cli_determinism(tmp_path):
    gen_flags = [
        "gen", "--classes", 3, "--objects", 10, "--per-class", 12, "--cells", 4,
        "--channels", 8, "--noise", 2.0, "--seed", 304,
    ]
    for name in ("a", "b"):
        result = run_python("-m", "dgn", *gen_flags, "--out", tmp_path / name)
        assert result.returncode == 0, result.stderr
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes(), fa.name

    proto = tmp_path / "p.dgnp"
    assert run_python(
        "-m", "dgn", "iodp", "--manifest", tmp_path / "a" / "train.manifest", "--out", proto
    ).returncode == 0
    outputs = []
    for name in ("one", "two"):
        ckpt = tmp_path / f"{name}.dgnm"
        trace = tmp_path / f"{name}.trace.csv"
        result = run_python(
            "-m", "dgn", "train", "--manifest", tmp_path / "a" / "train.manifest",
            "--prototype", proto, "--epochs", 5, "--seed", 304, "--checkpoint", ckpt,
            "--out", trace,
        )
        assert result.returncode == 0, result.stderr
        outputs.append((ckpt.read_bytes(), trace.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    passed(8, "generation and training determinism")


def test_criterion_9_ablation_trend_at_desk_scale():
    start = time.monotonic()
    results = []
    for seed in SEEDS:
        train_corpus, test_corpus = dgn.generate_synthetic_corpus(benchmark_spec(seed))
        proto = pt.build_prototype(
            train_corpus, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True
        )
        config = TrainConfig(seed=seed)
        baseline, _ = md.train(train_corpus, None, config, AblationMode.BASELINE)
        acc_base = md.evaluate(baseline, test_corpus).accuracy
        acc_plug = md.evaluate(
            baseline, test_corpus, proto, AblationMode.EVAL_ONLY_IODP
        ).accuracy
        full, _ = md.train(train_corpus, proto, config, AblationMode.FULL)
        acc_full = md.evaluate(full, test_corpus, proto).accuracy
        results.append((seed, acc_base, acc_plug, acc_full))

    for seed, acc_base, acc_plug, acc_full in results:
        note = f"seed {seed}: baseline={acc_base:.3f} plug={acc_plug:.3f} full={acc_full:.3f}"
        assert 0.60 <= acc_base <= 0.90, note
        assert acc_plug >= acc_base - 0.005, note
        assert acc_plug <= acc_full, note
        assert acc_full - acc_base >= 0.05, note
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    passed(9, "ablation ordering at desk scale")


def test_criterion_10_lambda_and_plug_contracts():
    spec = dgn.SyntheticSpec(
        num_classes=3, vocab_size=10, grid_cells=4, train_per_class=20,
        test_per_class=5, channels=12, noise=3.0, seed=17,
    )
    train_corpus, test_corpus = dgn.generate_synthetic_corpus(spec)
    proto = pt.build_prototype(train_corpus, CooccurrenceMode.INDEPENDENT)

    config = TrainConfig(epochs=4, seed=304, lam=0.0)
    model, _ = md.train(train_corpus, proto, config, AblationMode.FULL)
    init = md.init_model(AblationMode.FULL, spec.channels, spec.num_classes, config)
    np.testing.assert_array_equal(model.aux_head.weight, init.aux_head.weight)
    np.testing.assert_array_equal(model.aux_head.bias, init.aux_head.bias)
    assert not np.array_equal(model.gc_weight, init.gc_weight)

    baseline, _ = md.train(train_corpus, None, TrainConfig(epochs=4, seed=304), AblationMode.BASELINE)
    count = baseline.parameter_count()
    report = md.evaluate(baseline, test_corpus, proto, AblationMode.EVAL_ONLY_IODP)
    assert baseline.parameter_count() == count
    assert baseline.gc_weight is None and baseline.aux_head is None
    assert 0.0 <= report.accuracy <= 1.0
    passed(10, "lambda and plug-and-play contracts")


def test_criterion_11_format_round_trips(tmp_path):
    rng = np.random.default_rng(1011)

    label = dgn.LabelMap(rng.integers(0, 9, size=(5, 7)), 9)
    p1, p2 = tmp_path / "m1.dgnl", tmp_path / "m2.dgnl"
    dgn.save_label_map(label, p1)
    dgn.save_label_map(dgn.load_label_map(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    feature = dgn.FeatureMap(rng.standard_normal((3, 4, 5)))
    f1, f2 = tmp_path / "f1.dgnf", tmp_path / "f2.dgnf"
    dgn.save_feature_map(feature, f1)
    dgn.save_feature_map(dgn.load_feature_map(f1), f2)
    assert f1.read_bytes() == f2.read_bytes()

    proto = pt.build_prototype(toy_corpus(), CooccurrenceMode.INDEPENDENT)
    g1, g2 = tmp_path / "p1.dgnp", tmp_path / "p2.dgnp"
    pt.save_prototype(proto, g1)
    pt.save_prototype(pt.load_prototype(g1), g2)
    assert g1.read_bytes() == g2.read_bytes()

    config = TrainConfig(epochs=1, seed=304)
    for mode in (AblationMode.BASELINE, AblationMode.FULL):
        head = nn.ClassifierParams(rng.standard_normal((4, 3)), rng.standard_normal(3))
        if mode is AblationMode.BASELINE:
            model = md.DgnModel(mode, 4, 4, 3, 0.0, head)
        else:
            model = md.DgnModel(
                mode, 4, 4, 3, 0.25, head,
                gc_weight=rng.standard_normal((4, 4)),
                aux_head=nn.ClassifierParams(rng.standard_normal((4, 3)), rng.standard_normal(3)),
            )
        m1 = tmp_path / f"{mode.value}-1.dgnm"
        m2 = tmp_path / f"{mode.value}-2.dgnm"
        md.save_model(model, m1)
        md.save_model(md.load_model(m1), m2)
        assert m1.read_bytes() == m2.read_bytes()
    passed(11, "format round trips")

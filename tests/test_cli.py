import shutil

import numpy as np
import pytest

import dgn
from dgn import cli, nn
from dgn.model import AblationMode, DgnModel, save_model
from dgn.prototype import CooccurrenceMode, DispersionMetric, Prototype, save_prototype
from tests.helpers import run_cli
from tests.test_prototype import TOY_OMEGA, presence_corpus


def parse_kv(stdout):
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


@pytest.fixture(scope="module")
def tiny_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    result = run_cli(
        "gen", "--classes", 3, "--objects", 10, "--per-class", 15, "--cells", 4,
        "--channels", 16, "--noise", 3.0, "--seed", 304, "--out", root / "data",
    )
    assert result.returncode == 0, result.stderr
    return root / "data", parse_kv(result.stdout)


class TestGen:
    def test_counts_and_manifests(self, tiny_corpus_dir):
        data, kv = tiny_corpus_dir
        assert kv["train_instances"] == "45"
        assert kv["test_instances"] == "9"
        assert (data / "train.manifest").exists()
        assert (data / "test.manifest").exists()
        corpus = dgn.load_corpus(data / "train.manifest")
        assert corpus.num_classes == 3 and corpus.vocab_size == 10

    def test_determinism_byte_identical_trees(self, tmp_path):
        for name in ("a", "b"):
            result = run_cli(
                "gen", "--classes", 2, "--objects", 8, "--per-class", 4, "--cells", 3,
                "--channels", 8, "--seed", 11, "--out", tmp_path / name,
            )
            assert result.returncode == 0
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_infeasible_spec_exits_2(self, tmp_path):
        result = run_cli("gen", "--classes", 6, "--objects", 5, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert result.stderr.strip()

    def test_unallocatable_size_exits_2_without_output(self, tmp_path):
        # a 10^7 x 10^7 label grid needs ~800 TB, more than any address
        # space holds, so the allocation fails at once and touches nothing
        result = run_cli("gen", "--cells", 10_000_000, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert result.stderr.startswith("error: out of memory: ")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []


    def test_features_beyond_float32_exit_2_without_output(self, tmp_path, capsys):
        # noise 1e39 is finite in float64 but overflows the float32 a .dgnf stores
        out = tmp_path / "D"
        code = cli.main([
            "gen", "--classes", "2", "--objects", "6", "--per-class", "2", "--cells", "2",
            "--channels", "2", "--noise", "1e39", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "float32" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, tmp_path):
        result = run_cli("gen", "--bogus", 3, "--out", tmp_path / "x")
        assert result.returncode == 1
        assert result.stderr.strip()

    def test_missing_required_flag_exits_1(self):
        result = run_cli("gen")
        assert result.returncode == 1

    def test_unknown_command_exits_1(self):
        result = run_cli("frobnicate")
        assert result.returncode == 1


class TestIodp:
    def test_toy_corpus_prototype(self, tmp_path):
        toy = presence_corpus(2, 3, [(0, {0, 1}), (0, {0}), (1, {1, 2}), (1, {2})])
        manifest = dgn.save_corpus(toy, tmp_path, "train")
        out = tmp_path / "toy.dgnp"
        result = run_cli("iodp", "--manifest", manifest, "--mode", "nonindependent", "--out", out)
        assert result.returncode == 0, result.stderr
        proto = dgn.load_prototype(out)
        np.testing.assert_array_equal(proto.omega, TOY_OMEGA)
        kv = parse_kv(result.stdout)
        assert kv["L"] == "3" and kv["C"] == "2"

    def test_default_metric_is_passivated_cv(self, tiny_corpus_dir, tmp_path):
        data, _ = tiny_corpus_dir
        out = tmp_path / "p.dgnp"
        result = run_cli("iodp", "--manifest", data / "train.manifest", "--out", out)
        assert result.returncode == 0
        proto = dgn.load_prototype(out)
        assert proto.metric is DispersionMetric.COEFF_VAR
        assert proto.passivated is True
        assert proto.mode is CooccurrenceMode.INDEPENDENT

    def test_mode_flag_changes_only_mode_byte_and_payload(self, tiny_corpus_dir, tmp_path):
        data, _ = tiny_corpus_dir
        paths = {}
        for mode in ("independent", "nonindependent"):
            out = tmp_path / f"{mode}.dgnp"
            assert run_cli(
                "iodp", "--manifest", data / "train.manifest", "--mode", mode, "--out", out
            ).returncode == 0
            paths[mode] = out.read_bytes()
        a, b = paths["independent"], paths["nonindependent"]
        assert len(a) == len(b)
        # identical headers except the mode byte at offset 12
        assert a[:12] == b[:12]
        assert a[12] != b[12]
        assert a[13:20] == b[13:20]

    def test_missing_manifest_exits_2(self, tmp_path):
        result = run_cli("iodp", "--manifest", tmp_path / "nope.manifest", "--out", tmp_path / "p")
        assert result.returncode == 2

    def test_pair_counts_past_the_limit_exit_2_without_output(self, tmp_path):
        # C=2 classes over L=65536 objects would count 2 * 65536^2 pairs, 64 GiB
        # per int64 array; iodp refuses before it allocates any of them
        corpus = presence_corpus(2, 65536, [(0, {0}), (1, {1})])
        manifest = dgn.save_corpus(corpus, tmp_path, "train")
        out = tmp_path / "p.dgnp"
        result = run_cli("iodp", "--manifest", manifest, "--out", out)
        assert result.returncode == 2
        assert result.stderr == (
            "error: C=2 classes and L=65536 objects would need 68719476736 bytes per "
            "C x L x L count array; iodp allows at most 134217728 entries\n"
        )
        assert result.stdout == ""
        assert not out.exists()

    def test_reads_no_feature_map(self, tiny_corpus_dir, tmp_path, capsys):
        # the prototype reads label maps only: with every .dgnf gone, iodp
        # still succeeds and writes the same bytes
        data, _ = tiny_corpus_dir
        labels_only = tmp_path / "data"
        shutil.copytree(data, labels_only)
        deleted = list(labels_only.rglob("*.dgnf"))
        assert deleted
        for path in deleted:
            path.unlink()
        outputs = {}
        for name, root in (("all", data), ("labels_only", labels_only)):
            outputs[name] = tmp_path / f"{name}.dgnp"
            argv = ["iodp", "--manifest", str(root / "train.manifest"), "--out", str(outputs[name])]
            assert cli.main(argv) == 0
        assert outputs["all"].read_bytes() == outputs["labels_only"].read_bytes()
        captured = capsys.readouterr()
        assert captured.err == ""


@pytest.fixture(scope="module")
def trained_artifacts(tiny_corpus_dir, tmp_path_factory):
    data, _ = tiny_corpus_dir
    root = tmp_path_factory.mktemp("artifacts")
    proto = root / "p.dgnp"
    assert run_cli("iodp", "--manifest", data / "train.manifest", "--out", proto).returncode == 0
    baseline = root / "baseline.dgnm"
    result = run_cli(
        "train", "--manifest", data / "train.manifest", "--mode", "baseline",
        "--epochs", 6, "--checkpoint", baseline,
    )
    assert result.returncode == 0, result.stderr
    full = root / "full.dgnm"
    result = run_cli(
        "train", "--manifest", data / "train.manifest", "--prototype", proto,
        "--epochs", 6, "--checkpoint", full,
    )
    assert result.returncode == 0, result.stderr
    return data, proto, baseline, full


class TestTrain:
    def test_writes_checkpoint_and_trace(self, trained_artifacts):
        _, _, baseline, full = trained_artifacts
        assert baseline.exists() and full.exists()
        trace = full.parent / (full.name + ".trace.csv")
        lines = trace.read_text().splitlines()
        assert lines[0] == "epoch,lr,loss,loss_main,loss_aux,train_accuracy"
        assert len(lines) == 7

    def test_default_hyperparameters_encoded(self, tiny_corpus_dir, tmp_path):
        data, _ = tiny_corpus_dir
        proto = tmp_path / "p.dgnp"
        assert run_cli("iodp", "--manifest", data / "train.manifest", "--out", proto).returncode == 0
        ckpt = tmp_path / "default.dgnm"
        result = run_cli(
            "train", "--manifest", data / "train.manifest", "--prototype", proto,
            "--checkpoint", ckpt,
        )
        assert result.returncode == 0
        model = dgn.load_model(ckpt)
        assert model.lam == 0.25
        assert model.hidden_dim == model.in_channels == 16
        assert model.mode is AblationMode.FULL
        trace = (tmp_path / "default.dgnm.trace.csv").read_text().splitlines()[1:]
        assert len(trace) == 30
        lr_by_epoch = {int(r.split(",")[0]): float(r.split(",")[1]) for r in trace}
        assert lr_by_epoch[1] == 0.001
        assert lr_by_epoch[10] == pytest.approx(1e-4)
        assert lr_by_epoch[15] == pytest.approx(1e-5)
        assert lr_by_epoch[20] == pytest.approx(1e-6)

    def test_rerun_is_byte_identical(self, tiny_corpus_dir, tmp_path):
        data, _ = tiny_corpus_dir
        outputs = []
        for name in ("one", "two"):
            ckpt = tmp_path / f"{name}.dgnm"
            result = run_cli(
                "train", "--manifest", data / "train.manifest", "--mode", "baseline",
                "--epochs", 4, "--checkpoint", ckpt, "--out", tmp_path / f"{name}.csv",
            )
            assert result.returncode == 0
            outputs.append((ckpt.read_bytes(), (tmp_path / f"{name}.csv").read_text()))
        assert outputs[0] == outputs[1]

    def test_graph_mode_without_prototype_is_usage_error(self, tiny_corpus_dir, tmp_path):
        data, _ = tiny_corpus_dir
        result = run_cli(
            "train", "--manifest", data / "train.manifest", "--checkpoint", tmp_path / "x.dgnm"
        )
        assert result.returncode == 1
        assert not (tmp_path / "x.dgnm").exists()

    def test_vocab_mismatch_exits_2_without_partial_output(self, tiny_corpus_dir, tmp_path):
        data, _ = tiny_corpus_dir
        wrong = Prototype(
            4, np.zeros((4, 4)), CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 3
        )
        proto_path = tmp_path / "wrong.dgnp"
        save_prototype(wrong, proto_path)
        ckpt = tmp_path / "x.dgnm"
        result = run_cli(
            "train", "--manifest", data / "train.manifest", "--prototype", proto_path,
            "--checkpoint", ckpt,
        )
        assert result.returncode == 2
        assert not ckpt.exists()

    def test_inspect_vocab_mismatch_exits_2_without_output(self, tmp_path, capsys):
        # the pair that train refuses: a label map of vocab 6, a prototype of vocab 9
        proto = Prototype(
            9, np.full((9, 9), 0.5), CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 3
        )
        save_prototype(proto, tmp_path / "wrong.dgnp")
        dgn.save_label_map(dgn.LabelMap(np.array([[0, 5], [2, 1]]), 6), tmp_path / "m.dgnl")
        code = cli.main(["inspect", str(tmp_path / "m.dgnl"), "--prototype", str(tmp_path / "wrong.dgnp")])
        assert code == 2
        assert "prototype vocab 9 != label map vocab 6" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.dgnl", "wrong.dgnp"]


def write_defective_prototype(path, vocab, defect):
    """A .dgnp file whose omega payload is patched after a valid save."""
    omega = np.full((vocab, vocab), 0.5)
    save_prototype(
        Prototype(vocab, omega, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 3),
        path,
    )
    i, j, value = {"nan": (0, 0, np.nan), "negative": (1, 1, -0.5), "asymmetric": (0, 1, 0.25)}[defect]
    omega[i, j] = value
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - omega.nbytes] + omega.astype("<f8").tobytes())


@pytest.mark.parametrize("defect", ["nan", "negative", "asymmetric"])
def test_defective_prototype_file_exits_2_at_load(trained_artifacts, tmp_path, defect):
    data, _, _, full = trained_artifacts
    bad = tmp_path / "bad.dgnp"
    write_defective_prototype(bad, 10, defect)
    ckpt = tmp_path / "x.dgnm"
    result = run_cli(
        "train", "--manifest", data / "train.manifest", "--prototype", bad, "--checkpoint", ckpt,
    )
    assert result.returncode == 2
    assert "omega" in result.stderr
    report = tmp_path / "r.csv"
    result = run_cli(
        "eval", "--manifest", data / "test.manifest", "--checkpoint", full,
        "--prototype", bad, "--out", report,
    )
    assert result.returncode == 2
    assert "omega" in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.dgnp"]


def write_defective_checkpoint(source, path, defect):
    """A copy of a baseline .dgnm with a NaN first weight or a negative lambda."""
    data = bytearray(source.read_bytes())
    header = 4 + 4 + 1 + 12  # magic, version, mode byte, c/d/num_classes
    offset, value = {"nan": (header + 8, np.nan), "negative-lambda": (header, -0.25)}[defect]
    data[offset : offset + 8] = np.float64(value).astype("<f8").tobytes()
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("defect", ["nan", "negative-lambda"])
def test_defective_checkpoint_exits_2_at_load(trained_artifacts, tmp_path, defect):
    data, _, baseline, _ = trained_artifacts
    bad = tmp_path / "bad.dgnm"
    write_defective_checkpoint(baseline, bad, defect)
    result = run_cli(
        "eval", "--manifest", data / "test.manifest", "--checkpoint", bad,
        "--out", tmp_path / "r.csv",
    )
    assert result.returncode == 2
    assert "accuracy" not in result.stdout
    result = run_cli("inspect", bad, "--out", tmp_path)
    assert result.returncode == 2
    assert result.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.dgnm"]


def relocated_manifest(data):
    """Header and rows of the train manifest with absolute map paths, so a
    copy can live outside the corpus directory."""
    header, *body = (data / "train.manifest").read_text().splitlines()
    rows = []
    for row in body:
        scene, label, feature = row.split("\t")
        rows.append("\t".join([scene, str(data / label), str(data / feature)]))
    return header, rows


def assert_manifest_refused(bad, baseline, message):
    """``iodp``, ``train`` and ``eval`` exit 2 naming ``bad`` and write nothing."""
    out = bad.parent
    for args in (
        ("iodp", "--manifest", bad, "--out", out / "p.dgnp"),
        ("train", "--manifest", bad, "--mode", "baseline", "--checkpoint", out / "x.dgnm"),
        ("eval", "--manifest", bad, "--checkpoint", baseline, "--out", out / "r.csv"),
    ):
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert message in result.stderr and bad.name in result.stderr
    assert sorted(p.name for p in out.iterdir()) == [bad.name]


def test_non_integer_scene_id_exits_2(trained_artifacts, tmp_path):
    data, proto, baseline, _ = trained_artifacts
    header, rows = relocated_manifest(data)
    rows[0] = "x" + rows[0]
    bad = tmp_path / "bad.manifest"
    bad.write_text("\n".join([header, *rows]) + "\n")
    assert_manifest_refused(bad, baseline, "scene id")


def test_non_utf8_manifest_exits_2(trained_artifacts, tmp_path):
    data, _, baseline, _ = trained_artifacts
    header, rows = relocated_manifest(data)
    bad = tmp_path / "bad.manifest"
    bad.write_bytes(("\n".join([header, *rows]) + "\n").encode() + b"\xff")
    assert_manifest_refused(bad, baseline, "UTF-8")


@pytest.mark.parametrize(
    "flags",
    [
        ("--mode", "baseline", "--lr", "nan"),
        ("--mode", "baseline", "--lr", "inf"),
        ("--mode", "baseline", "--weight-decay", "nan"),
        ("--mode", "baseline", "--weight-decay", "inf"),
        ("--mode", "train-eval-iodp", "--lambda", "nan"),
        ("--mode", "full", "--lambda", "inf"),
    ],
    ids=lambda flags: f"{flags[1]}{flags[2][1:]}={flags[3]}",
)
def test_non_finite_hyperparameter_exits_2(trained_artifacts, tmp_path, flags):
    data, proto, _, _ = trained_artifacts
    result = run_cli(
        "train", "--manifest", data / "train.manifest", "--prototype", proto, *flags,
        "--epochs", 1, "--batch", 1000, "--checkpoint", tmp_path / "m.dgnm",
    )
    assert result.returncode == 2, result.stderr
    assert "finite" in result.stderr
    assert list(tmp_path.iterdir()) == []  # no checkpoint, no trace


class TestEval:
    def test_perfect_model_fixture(self, tmp_path):
        maps = [dgn.LabelMap(np.array([[0]]), 2), dgn.LabelMap(np.array([[1]]), 2)]
        feats = [dgn.FeatureMap(np.zeros((1, 1, 1))), dgn.FeatureMap(np.ones((1, 1, 1)))]
        corpus = dgn.Corpus(
            2, 2, tuple(dgn.Instance(i, m, f) for i, (m, f) in enumerate(zip(maps, feats)))
        )
        manifest = dgn.save_corpus(corpus, tmp_path, "test")
        head = nn.ClassifierParams(np.array([[-5.0, 0.0]]), np.array([1.0, 0.0]))
        model = DgnModel(AblationMode.BASELINE, 1, 1, 2, 0.0, head)
        ckpt = tmp_path / "perfect.dgnm"
        save_model(model, ckpt)
        result = run_cli(
            "eval", "--manifest", manifest, "--checkpoint", ckpt, "--out", tmp_path / "r.csv"
        )
        assert result.returncode == 0
        kv = parse_kv(result.stdout)
        assert kv["accuracy"] == "1.000000"
        assert (tmp_path / "r.csv").read_text().splitlines()[-1] == "overall,1.000000"

    def test_overflowing_logits_exit_2_without_report(self, tmp_path):
        maps = [dgn.LabelMap(np.array([[0]]), 2), dgn.LabelMap(np.array([[1]]), 2)]
        feats = [dgn.FeatureMap(np.full((1, 1, 1), 10.0)), dgn.FeatureMap(np.ones((1, 1, 1)))]
        corpus = dgn.Corpus(
            2, 2, tuple(dgn.Instance(i, m, f) for i, (m, f) in enumerate(zip(maps, feats)))
        )
        manifest = dgn.save_corpus(corpus, tmp_path, "test")
        # finite weights whose product with the features overflows
        head = nn.ClassifierParams(np.array([[1e308, 0.0]]), np.zeros(2))
        ckpt = tmp_path / "huge.dgnm"
        save_model(DgnModel(AblationMode.BASELINE, 1, 1, 2, 0.0, head), ckpt)
        report = tmp_path / "r.csv"
        result = run_cli("eval", "--manifest", manifest, "--checkpoint", ckpt, "--out", report)
        assert result.returncode == 2, result.stderr
        assert "instance 0: non-finite logits" in result.stderr
        assert "Warning" not in result.stderr
        assert not report.exists()

    def test_accuracy_printed_to_six_decimals(self, trained_artifacts):
        data, proto, baseline, _ = trained_artifacts
        result = run_cli("eval", "--manifest", data / "test.manifest", "--checkpoint", baseline)
        assert result.returncode == 0
        kv = parse_kv(result.stdout)
        correct = round(float(kv["accuracy"]) * int(kv["instances"]))
        assert kv["accuracy"] == f"{correct / int(kv['instances']):.6f}"

    def test_plug_and_play_path(self, trained_artifacts):
        data, proto, baseline, _ = trained_artifacts
        result = run_cli(
            "eval", "--manifest", data / "test.manifest", "--checkpoint", baseline,
            "--prototype", proto, "--mode", "eval-only-iodp",
        )
        assert result.returncode == 0
        assert 0.0 <= float(parse_kv(result.stdout)["accuracy"]) <= 1.0

    def test_full_checkpoint_uses_prototype(self, trained_artifacts):
        data, proto, _, full = trained_artifacts
        result = run_cli(
            "eval", "--manifest", data / "test.manifest", "--checkpoint", full,
            "--prototype", proto,
        )
        assert result.returncode == 0

    def test_missing_prototype_for_graph_mode_exits_2(self, trained_artifacts):
        data, _, _, full = trained_artifacts
        result = run_cli("eval", "--manifest", data / "test.manifest", "--checkpoint", full)
        assert result.returncode == 2


@pytest.fixture(scope="module")
def criterion_8_checkpoints(tmp_path_factory):
    """The criterion-8 corpus, its default prototype and a 5-epoch model per training mode."""
    root = tmp_path_factory.mktemp("criterion8")
    assert run_cli(
        "gen", "--classes", 3, "--objects", 10, "--per-class", 12, "--cells", 4,
        "--channels", 8, "--noise", 2.0, "--seed", 304, "--out", root / "data",
    ).returncode == 0
    proto = root / "p.dgnp"
    assert run_cli("iodp", "--manifest", root / "data" / "train.manifest", "--out", proto).returncode == 0
    checkpoints = {}
    for mode in ("baseline", "train-eval-iodp", "full"):
        checkpoints[mode] = root / f"{mode}.dgnm"
        result = run_cli(
            "train", "--manifest", root / "data" / "train.manifest", "--prototype", proto,
            "--mode", mode, "--epochs", 5, "--seed", 304, "--checkpoint", checkpoints[mode],
        )
        assert result.returncode == 0, result.stderr
    return root / "data" / "test.manifest", proto, checkpoints


# checkpoint mode -> the eval modes that can score it, and the stdout they print
SUPPORTED_EVAL_MODES = {
    "baseline": ("baseline", "eval-only-iodp"),
    "train-eval-iodp": ("train-eval-iodp", "full"),
    "full": ("full", "train-eval-iodp"),
}
CRITERION_8_ACCURACY = {
    "baseline": ("0.666667", ("0.000000", "1.000000", "1.000000")),
    "train-eval-iodp": ("0.333333", ("0.000000", "1.000000", "0.000000")),
    "full": ("0.333333", ("0.000000", "1.000000", "0.000000")),
}


@pytest.mark.parametrize("eval_mode", ["baseline", "eval-only-iodp", "train-eval-iodp", "full"])
@pytest.mark.parametrize("checkpoint_mode", sorted(SUPPORTED_EVAL_MODES))
def test_eval_mode_must_suit_the_checkpoint(criterion_8_checkpoints, tmp_path, checkpoint_mode, eval_mode):
    manifest, proto, checkpoints = criterion_8_checkpoints
    report = tmp_path / "r.csv"
    result = run_cli(
        "eval", "--manifest", manifest, "--checkpoint", checkpoints[checkpoint_mode],
        "--prototype", proto, "--mode", eval_mode, "--out", report,
    )
    if eval_mode not in SUPPORTED_EVAL_MODES[checkpoint_mode]:
        assert result.returncode == 2, result.stderr
        assert checkpoint_mode in result.stderr and eval_mode in result.stderr
        assert not report.exists()
        return
    assert result.returncode == 0, result.stderr
    accuracy, per_class = CRITERION_8_ACCURACY[checkpoint_mode]
    expected = [f"accuracy={accuracy}", "instances=6"]
    expected += [f"class_{k}_accuracy={acc}" for k, acc in enumerate(per_class)]
    assert result.stdout.splitlines() == expected + [f"report={report}"]


@pytest.mark.parametrize("classes", [2, 5])
def test_eval_refuses_a_corpus_with_another_class_count(criterion_8_checkpoints, tmp_path, classes):
    _, _, checkpoints = criterion_8_checkpoints
    spec = dgn.SyntheticSpec(
        num_classes=classes, vocab_size=12, grid_cells=4, train_per_class=1,
        test_per_class=2, channels=8, seed=1,
    )
    _, test = dgn.generate_synthetic_corpus(spec)
    manifest = dgn.save_corpus(test, tmp_path / "data", "test")
    report = tmp_path / "r.csv"
    result = run_cli(
        "eval", "--manifest", manifest, "--checkpoint", checkpoints["baseline"], "--out", report
    )
    assert result.returncode == 2, result.stdout
    assert f"corpus has {classes} classes, the model 3" in result.stderr
    assert result.stdout == ""
    assert not report.exists()


def test_checkpoint_with_eval_only_mode_byte_exits_2(criterion_8_checkpoints, tmp_path):
    manifest, proto, checkpoints = criterion_8_checkpoints
    data = bytearray(checkpoints["baseline"].read_bytes())
    data[8] = 1  # eval-only-iodp is an evaluation mode; train never writes it
    bad = tmp_path / "eval-only.dgnm"
    bad.write_bytes(bytes(data))
    for args in (
        ("eval", "--manifest", manifest, "--checkpoint", bad, "--prototype", proto),
        ("inspect", bad),
    ):
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert "mode byte 1" in result.stderr


class TestInspect:
    def test_zero_prototype_renders_black(self, tmp_path):
        proto = Prototype(
            3, np.zeros((3, 3)), CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
        )
        path = tmp_path / "zero.dgnp"
        save_prototype(proto, path)
        assert run_cli("inspect", path).returncode == 0
        pgm = (tmp_path / "zero.omega.pgm").read_bytes()
        header = b"P5\n3 3\n65535\n"
        assert pgm.startswith(header)
        assert pgm[len(header):] == b"\x00" * 18

    def test_toy_prototype_white_at_0_1(self, tmp_path):
        proto = Prototype(
            3, TOY_OMEGA, CooccurrenceMode.NON_INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
        )
        path = tmp_path / "toy.dgnp"
        save_prototype(proto, path)
        assert run_cli("inspect", path).returncode == 0
        pgm = (tmp_path / "toy.omega.pgm").read_bytes()
        header = b"P5\n3 3\n65535\n"
        pixels = pgm[len(header):]
        value_01 = int.from_bytes(pixels[2:4], "big")
        value_02 = int.from_bytes(pixels[4:6], "big")
        assert value_01 == 65535
        assert value_02 == 0
        csv = (tmp_path / "toy.omega.csv").read_text().splitlines()
        assert csv[0].split(",")[1] == "1"

    def test_checkpoint_listing_shows_weight_shape(self, trained_artifacts, tmp_path):
        _, _, _, full = trained_artifacts
        result = run_cli("inspect", full, "--out", tmp_path)
        assert result.returncode == 0
        kv = parse_kv(result.stdout)
        assert kv["gc_weight"] == "16x16"
        assert kv["mode"] == "full"

    def test_label_map_graph_export(self, tmp_path):
        proto = Prototype(
            3, TOY_OMEGA, CooccurrenceMode.NON_INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
        )
        proto_path = tmp_path / "toy.dgnp"
        save_prototype(proto, proto_path)
        m = dgn.LabelMap(np.array([[0, 1]]), 3)
        map_path = tmp_path / "m.dgnl"
        dgn.save_label_map(m, map_path)
        result = run_cli("inspect", map_path, "--prototype", proto_path)
        assert result.returncode == 0
        adjacency = (tmp_path / "m.adjacency.csv").read_text().splitlines()
        assert [float(v) for v in adjacency[0].split(",")] == [0.5, 0.5]
        assert [float(v) for v in adjacency[1].split(",")] == [1.0, 0.0]

    def test_label_map_over_node_cap_exits_2_without_output(self, tmp_path):
        proto = Prototype(
            3, TOY_OMEGA, CooccurrenceMode.NON_INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
        )
        proto_path = tmp_path / "toy.dgnp"
        save_prototype(proto, proto_path)
        map_path = tmp_path / "m.dgnl"
        dgn.save_label_map(dgn.LabelMap(np.zeros((65, 65), dtype=np.int64), 3), map_path)
        result = run_cli("inspect", map_path, "--prototype", proto_path)
        assert result.returncode == 2
        assert f"4225 nodes would need {2 * 4225**2 * 8} bytes" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.dgnl", "toy.dgnp"]

    def test_label_map_without_prototype_exits_1(self, tmp_path):
        m = dgn.LabelMap(np.array([[0]]), 1)
        path = tmp_path / "m.dgnl"
        dgn.save_label_map(m, path)
        result = run_cli("inspect", path)
        assert result.returncode == 1

    def test_unknown_magic_exits_2(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        assert run_cli("inspect", path).returncode == 2

    def test_feature_map_summary(self, tmp_path):
        fm = dgn.FeatureMap(np.ones((2, 3, 4)))
        path = tmp_path / "f.dgnf"
        dgn.save_feature_map(fm, path)
        result = run_cli("inspect", path)
        assert result.returncode == 0
        kv = parse_kv(result.stdout)
        assert kv["width"] == "3" and kv["channels"] == "4"

    def test_feature_map_statistics_are_float64(self, tmp_path, capsys):
        # a float32 mean rounds differently: the summary keeps the float64 one
        values = np.random.default_rng(21).standard_normal((7, 5, 9)) * 3.0 + 0.1
        path = tmp_path / "f.dgnf"
        dgn.save_feature_map(dgn.FeatureMap(values), path)
        assert cli.main(["inspect", str(path)]) == 0
        kv = parse_kv(capsys.readouterr().out)
        loaded = dgn.load_feature_map(path).values.astype(np.float64)
        assert kv["mean"] == repr(float(loaded.mean()))
        assert kv["min"] == repr(float(loaded.min()))
        assert kv["max"] == repr(float(loaded.max()))


def overflowing_prototype(vocab):
    """A valid prototype, 1e308 on the diagonal and 0.5 elsewhere, whose row
    sums and label weights overflow wherever a label covers two nodes."""
    omega = np.full((vocab, vocab), 0.5)
    np.fill_diagonal(omega, 1e308)
    return Prototype(vocab, omega, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 3)


def test_overflowing_label_weights_exit_2_without_output(trained_artifacts, tmp_path):
    data, _, _, full = trained_artifacts
    big = tmp_path / "big.dgnp"
    save_prototype(overflowing_prototype(10), big)
    result = run_cli(
        "train", "--manifest", data / "train.manifest", "--prototype", big,
        "--checkpoint", tmp_path / "x.dgnm",
    )
    assert result.returncode == 2, result.stderr
    assert "overflow" in result.stderr
    result = run_cli(
        "eval", "--manifest", data / "test.manifest", "--checkpoint", full,
        "--prototype", big, "--out", tmp_path / "r.csv",
    )
    assert result.returncode == 2, result.stderr
    assert "overflow" in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.dgnp"]


def write_inspect_input(kind, root):
    """One artifact per ``inspect`` branch that writes no file; returns its path,
    extra flags and the expected exit code."""
    proto = Prototype(
        3, TOY_OMEGA, CooccurrenceMode.NON_INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
    )
    save_prototype(proto, root / "toy.dgnp")
    if kind == "unknown magic":
        (root / "junk.bin").write_bytes(b"JUNKJUNKJUNK")
        return root / "junk.bin", (), 2
    if kind == "truncated prototype":
        (root / "cut.dgnp").write_bytes((root / "toy.dgnp").read_bytes()[:-1])
        return root / "cut.dgnp", (), 2
    if kind == "label map over the node cap":
        dgn.save_label_map(dgn.LabelMap(np.zeros((65, 65), dtype=np.int64), 3), root / "m.dgnl")
        return root / "m.dgnl", ("--prototype", root / "toy.dgnp"), 2
    if kind == "label map with overflowing row sums":
        save_prototype(overflowing_prototype(3), root / "big.dgnp")
        dgn.save_label_map(dgn.LabelMap(np.array([[0, 0, 1, 1]]), 3), root / "m.dgnl")
        return root / "m.dgnl", ("--prototype", root / "big.dgnp"), 2
    if kind == "label map without prototype":
        dgn.save_label_map(dgn.LabelMap(np.zeros((2, 2), dtype=np.int64), 3), root / "m.dgnl")
        return root / "m.dgnl", (), 1
    if kind == "feature map":
        dgn.save_feature_map(dgn.FeatureMap(np.ones((2, 3, 4))), root / "f.dgnf")
        return root / "f.dgnf", (), 0
    head = nn.ClassifierParams(np.zeros((1, 2)), np.zeros(2))
    save_model(DgnModel(AblationMode.BASELINE, 1, 1, 2, 0.0, head), root / "m.dgnm")
    return root / "m.dgnm", (), 0


@pytest.mark.parametrize(
    "kind",
    [
        "unknown magic",
        "truncated prototype",
        "label map over the node cap",
        "label map with overflowing row sums",
        "label map without prototype",
        "feature map",
        "checkpoint",
    ],
)
def test_inspect_creates_no_directory_it_does_not_write(tmp_path, kind):
    artifact, flags, code = write_inspect_input(kind, tmp_path)
    out = tmp_path / "new"
    result = run_cli("inspect", artifact, *flags, "--out", out)
    assert result.returncode == code, result.stderr
    assert not out.exists()


def test_inspect_creates_the_directory_it_writes(tmp_path):
    proto = Prototype(
        3, TOY_OMEGA, CooccurrenceMode.NON_INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
    )
    save_prototype(proto, tmp_path / "toy.dgnp")
    dgn.save_label_map(dgn.LabelMap(np.array([[0, 1]]), 3), tmp_path / "m.dgnl")
    assert run_cli("inspect", tmp_path / "toy.dgnp", "--out", tmp_path / "a" / "b").returncode == 0
    assert (tmp_path / "a" / "b" / "toy.omega.pgm").exists()
    result = run_cli(
        "inspect", tmp_path / "m.dgnl", "--prototype", tmp_path / "toy.dgnp", "--out", tmp_path / "c"
    )
    assert result.returncode == 0
    assert (tmp_path / "c" / "m.adjacency.csv").exists()

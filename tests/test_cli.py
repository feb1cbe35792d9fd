import shutil
import tracemalloc

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
        # a 10^7 x 10^7 grid needs more than any address space holds, so the
        # allocation fails at once and touches nothing; at 64 channels the
        # 700-instance feature block's byte count overflows intp as well,
        # which numpy reports as ValueError rather than MemoryError
        for channels in (32, 64):
            result = run_cli(
                "gen", "--cells", 10_000_000, "--channels", channels, "--out", tmp_path / "x"
            )
            assert result.returncode == 2, (channels, result.stderr)
            assert result.stderr.startswith("error: out of memory: ")
            assert "Traceback" not in result.stderr
            assert result.stdout == ""
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "file, directory, out",
        [
            ("d", None, "d"),  # --out is a file
            ("d", None, "d/sub"),  # a parent of --out is a file
            ("d/train", None, "d"),
            ("d/test", None, "d"),
            (None, "d/train.manifest", "d"),
            (None, "d/test.manifest", "d"),
            # 2 classes of 5: gen writes train/00000-00009 and test/00000-00001
            (None, "d/train/00003.dgnl", "d"),
            (None, "d/train/00009.dgnf", "d"),
            (None, "d/test/00001.dgnf", "d"),
        ],
    )
    def test_refuses_an_out_it_cannot_fill_before_the_first_draw(
        self, tmp_path, monkeypatch, capsys, file, directory, out
    ):
        drawn = []
        draw = cli.generate_synthetic_corpus
        monkeypatch.setattr(cli, "generate_synthetic_corpus", lambda spec: drawn.append(spec) or draw(spec))
        if file:
            (tmp_path / file).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / file).write_bytes(b"kept")
        if directory:
            (tmp_path / directory).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        code = cli.main([
            "gen", "--classes", "2", "--objects", "6", "--per-class", "5", "--out", str(tmp_path / out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.out == ""
        if directory:
            assert captured.err == f"error: {tmp_path / directory}: output path is a directory\n"
        assert drawn == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_writes_beside_directories_that_no_instance_is_named(self, tmp_path):
        names = ["train/00010.dgnl", "test/00002.dgnf", "train/000003.dgnl", "train/3.dgnl",
                 "train/00003.dgnm", "train/00003.dgnl.d"]
        for name in names:
            (tmp_path / "d" / name).mkdir(parents=True)
        args = ["gen", "--classes", "2", "--objects", "6", "--per-class", "5", "--out", str(tmp_path / "d")]
        assert cli.main(args) == 0
        assert all((tmp_path / "d" / name).is_dir() for name in names)
        assert (tmp_path / "d" / "test.manifest").is_file()

    def test_writes_over_a_corpus_it_wrote(self, tmp_path):
        args = ["gen", "--classes", "2", "--objects", "6", "--per-class", "5", "--out", str(tmp_path / "d")]
        assert cli.main(args) == 0
        first = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert cli.main(args) == 0
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == first

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
        # C=2 classes over L=65536 objects: the default independent mode would
        # need a 32 GiB L x L omega, non-independent mode 64 GiB of int64 pair
        # counts; iodp refuses each before it allocates
        corpus = presence_corpus(2, 65536, [(0, {0}), (1, {1})])
        manifest = dgn.save_corpus(corpus, tmp_path, "train")
        out = tmp_path / "p.dgnp"
        refusals = {
            (): "error: L=65536 objects would need 34359738368 bytes per L x L prototype; "
            "iodp allows at most 134217728 entries\n",
            ("--mode", "nonindependent"): "error: C=2 classes and L=65536 objects would need "
            "68719476736 bytes per C x L x L count array; iodp allows at most 134217728 entries\n",
        }
        for flags, message in refusals.items():
            result = run_cli("iodp", "--manifest", manifest, "--out", out, *flags)
            assert result.returncode == 2, flags
            assert result.stderr == message
            assert result.stdout == ""
            assert not out.exists()

    def test_missing_class_exits_2_before_counting_pairs(self, tmp_path):
        # class 2 of 3 has no instance; at L=2048 the pair counts would take
        # 100 MB, and iodp refuses before it allocates them
        corpus = presence_corpus(3, 2048, [(0, {0, 1}), (1, {2})])
        manifest = dgn.save_corpus(corpus, tmp_path, "train")
        out = tmp_path / "p.dgnp"
        tracemalloc.start()
        try:
            result = run_cli("iodp", "--manifest", manifest, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.returncode == 2
        assert result.stderr == "error: scene class 2 has no instances\n"
        assert result.stdout == ""
        assert not out.exists()
        assert peak < 8 * 2**20

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

    def test_default_seed_is_304(self, tiny_corpus_dir, tmp_path):
        data, _ = tiny_corpus_dir
        written = {}
        for name, seed in (("default", ()), ("304", ("--seed", 304)), ("305", ("--seed", 305))):
            ckpt = tmp_path / f"{name}.dgnm"
            result = run_cli(
                "train", "--manifest", data / "train.manifest", "--mode", "baseline",
                "--epochs", 2, *seed, "--checkpoint", ckpt,
            )
            assert result.returncode == 0, result.stderr
            written[name] = ckpt.read_bytes()
        assert written["default"] == written["304"] != written["305"]

    def test_zero_learning_rate_exits_2_without_output(self, tiny_corpus_dir, tmp_path):
        data, _ = tiny_corpus_dir
        out = tmp_path / "out"
        out.mkdir()
        result = run_cli(
            "train", "--manifest", data / "train.manifest", "--mode", "baseline",
            "--lr", 0, "--epochs", 1, "--checkpoint", out / "m.dgnm",
        )
        assert result.returncode == 2, result.stderr
        assert "lr must be positive" in result.stderr
        assert list(out.iterdir()) == []  # no checkpoint, no trace

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


# the header offsets of a .dgnp: magic 0-3, version 4-7, vocab 8-11, then one
# byte each for the mode, the metric and the passivation flag
@pytest.mark.parametrize(
    "offset, value", [(12, 2), (13, 3), (14, 2)], ids=["mode 2", "metric 3", "passivation 2"]
)
def test_first_invalid_prototype_header_byte_exits_2(trained_artifacts, tmp_path, offset, value):
    data, proto, _, full = trained_artifacts
    raw = bytearray(proto.read_bytes())
    assert raw[12] in (0, 1) and raw[13] in (0, 1, 2) and raw[14] in (0, 1)
    raw[offset] = value
    bad = tmp_path / "bad.dgnp"
    bad.write_bytes(bytes(raw))
    result = run_cli(
        "eval", "--manifest", data / "test.manifest", "--checkpoint", full,
        "--prototype", bad, "--out", tmp_path / "r.csv",
    )
    assert result.returncode == 2
    assert "bad mode/metric/passivation byte" in result.stderr
    result = run_cli("inspect", bad, "--out", tmp_path)
    assert result.returncode == 2
    assert "bad mode/metric/passivation byte" in result.stderr
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

    @pytest.mark.parametrize(
        "checkpoint, mode",
        [("full", None), ("full", "full"), ("baseline", "eval-only-iodp")],
        ids=["full-checkpoint", "full-mode", "baseline-checkpoint-eval-only-iodp"],
    )
    def test_graph_mode_without_prototype_is_usage_error(self, trained_artifacts, tmp_path, checkpoint, mode):
        data, _, baseline, full = trained_artifacts
        report = tmp_path / "r.csv"
        mode_args = ("--mode", mode) if mode else ()
        # the mode comes from --mode or else from the checkpoint, which is read
        # before the corpus: a manifest that does not exist is never opened
        for manifest in (data / "test.manifest", tmp_path / "missing.manifest"):
            result = run_cli(
                "eval", "--manifest", manifest, "--checkpoint", full if checkpoint == "full" else baseline,
                *mode_args, "--out", report,
            )
            assert result.returncode == 1, result.stderr
            assert "requires --prototype" in result.stderr
            assert result.stdout == ""
            assert not report.exists()


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


@pytest.mark.parametrize(
    "artifact, output",
    [
        ("toy.dgnp", "toy.omega.pgm"),
        ("toy.dgnp", "toy.omega.csv"),
        ("m.dgnl", "m.affinity.pgm"),
        ("m.dgnl", "m.affinity.csv"),
        ("m.dgnl", "m.adjacency.pgm"),
        ("m.dgnl", "m.adjacency.csv"),
    ],
)
def test_inspect_refuses_an_output_that_is_a_directory_before_the_first_write(
    tmp_path, monkeypatch, capsys, artifact, output
):
    proto = Prototype(
        3, TOY_OMEGA, CooccurrenceMode.NON_INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2
    )
    save_prototype(proto, tmp_path / "toy.dgnp")
    dgn.save_label_map(dgn.LabelMap(np.array([[0, 1]]), 3), tmp_path / "m.dgnl")

    def refused(*args, **kwargs):
        raise AssertionError("the n x n matrices were built before the outputs were checked")

    monkeypatch.setattr(cli, "extract_local_knowledge", refused)
    (tmp_path / "o" / output).mkdir(parents=True)
    before = tree(tmp_path)
    code = cli.main([
        "inspect", str(tmp_path / artifact), "--prototype", str(tmp_path / "toy.dgnp"),
        "--out", str(tmp_path / "o"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {tmp_path / 'o' / output}: output path is a directory\n"
    assert captured.out == ""
    assert tree(tmp_path) == before


def magic_read_as_a_label_map(data: bytes, damage: str) -> bytes:
    """``data`` with its magic's last byte turned into the ``L`` of ``DGNL``."""
    buf = bytearray(data)
    if damage == "flip":
        buf[3] ^= 1  # DGNM -> DGNL
    else:
        buf[3] = ord("L")
    return bytes(buf)


@pytest.mark.parametrize(
    "artifact, damage",
    [
        ("full.dgnm", "flip"),
        ("baseline.dgnm", "flip"),
        ("full.dgnm", "overwrite"),
        ("p.dgnp", "overwrite"),
        ("data/train/00000.dgnf", "overwrite"),
    ],
)
def test_damaged_magic_reading_as_a_label_map_exits_2(trained_artifacts, tmp_path, artifact, damage):
    data, proto, _, _ = trained_artifacts
    source = proto.parent / artifact if not artifact.startswith("data/") else data / artifact[5:]
    damaged = tmp_path / source.name
    damaged.write_bytes(magic_read_as_a_label_map(source.read_bytes(), damage))
    assert damaged.read_bytes()[:4] == b"DGNL"
    result = run_cli("inspect", damaged, "--out", tmp_path / "out")
    assert result.returncode == 2, result.stderr
    assert "requires --prototype" not in result.stderr
    assert not (tmp_path / "out").exists()


MISSING = ("output directory", "does not exist")
A_DIRECTORY = ("output path is a directory",)
SAME_FILE = ("resolve to the same file",)


def tree(root):
    """Every path under ``root``, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def refused_before_any_work(tmp_path, messages, *argv):
    """Run ``dgn *argv`` beside an empty directory ``made``: exit 2 with
    ``messages`` on stderr, no stdout, nothing written."""
    (tmp_path / "made").mkdir()
    before = tree(tmp_path)
    result = run_cli(*argv)
    assert result.returncode == 2, result.stderr
    assert all(m in result.stderr for m in messages), result.stderr
    assert result.stdout == ""
    assert tree(tmp_path) == before


def copy_into(tmp_path, *files):
    """Copies of ``files`` in ``tmp_path``, under their own names."""
    for f in files:
        shutil.copyfile(f, tmp_path / f.name)


class TestMissingOutputDirectory:
    """An output in a directory that does not exist, or that is a directory, is
    refused before any work; so are two paths of one command that name one
    file, an output and another output or an input."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("work began before the outputs were checked")

        for name in ("load_corpus", "train", "evaluate"):
            monkeypatch.setattr(cli, name, refused)

    @pytest.mark.parametrize(
        "outputs, messages",
        [
            (("m.dgnm", "nodir/t.csv"), MISSING),
            (("nodir/m.dgnm", None), MISSING),
            (("m.dgnm", "made"), A_DIRECTORY),
            (("made", None), A_DIRECTORY),
        ],
        ids=[
            "missing trace directory",
            "missing checkpoint directory",
            "trace is a directory",
            "checkpoint is a directory",
        ],
    )
    def test_train(self, trained_artifacts, tmp_path, no_work, outputs, messages):
        data, proto, _, _ = trained_artifacts
        checkpoint, trace = outputs
        argv = [
            "train", "--manifest", data / "train.manifest", "--prototype", proto,
            "--epochs", 1, "--checkpoint", tmp_path / checkpoint,
        ]
        refused_before_any_work(
            tmp_path, messages, *argv, *(("--out", tmp_path / trace) if trace else ())
        )

    @pytest.mark.parametrize(
        "out, messages", [("nodir/p.dgnp", MISSING), ("made", A_DIRECTORY)],
        ids=["missing directory", "out is a directory"],
    )
    def test_iodp(self, tiny_corpus_dir, tmp_path, no_work, out, messages):
        data, _ = tiny_corpus_dir
        refused_before_any_work(
            tmp_path, messages, "iodp", "--manifest", data / "train.manifest", "--out", tmp_path / out
        )

    @pytest.mark.parametrize(
        "out, messages", [("nodir/r.csv", MISSING), ("made", A_DIRECTORY)],
        ids=["missing directory", "out is a directory"],
    )
    def test_eval(self, trained_artifacts, tmp_path, no_work, out, messages):
        data, proto, _, full = trained_artifacts
        refused_before_any_work(
            tmp_path, messages, "eval", "--manifest", data / "test.manifest", "--checkpoint", full,
            "--prototype", proto, "--out", tmp_path / out,
        )

    @pytest.mark.parametrize(
        "checkpoint, trace",
        [
            ("full.dgnm", "full.dgnm"),
            ("full.dgnm", "made/../full.dgnm"),
            ("train.manifest", None),
            ("full.dgnm", "p.dgnp"),
        ],
        ids=[
            "trace names the checkpoint",
            "trace names the checkpoint by another path",
            "checkpoint names the manifest",
            "trace names the prototype",
        ],
    )
    def test_train_paths_naming_one_file(self, trained_artifacts, tmp_path, no_work, checkpoint, trace):
        data, proto, _, full = trained_artifacts
        copy_into(tmp_path, data / "train.manifest", proto, full)
        argv = [
            "train", "--manifest", tmp_path / "train.manifest", "--prototype", tmp_path / "p.dgnp",
            "--epochs", 1, "--checkpoint", tmp_path / checkpoint,
        ]
        refused_before_any_work(
            tmp_path, SAME_FILE, *argv, *(("--out", tmp_path / trace) if trace else ())
        )

    @pytest.mark.parametrize(
        "out",
        ["full.dgnm", "made/../full.dgnm", "test.manifest", "p.dgnp"],
        ids=[
            "report names the checkpoint",
            "report names the checkpoint by another path",
            "report names the manifest",
            "report names the prototype",
        ],
    )
    def test_eval_report_naming_an_input(self, trained_artifacts, tmp_path, no_work, out):
        data, proto, _, full = trained_artifacts
        copy_into(tmp_path, data / "test.manifest", proto, full)
        refused_before_any_work(
            tmp_path, SAME_FILE, "eval", "--manifest", tmp_path / "test.manifest",
            "--checkpoint", tmp_path / "full.dgnm", "--prototype", tmp_path / "p.dgnp",
            "--out", tmp_path / out,
        )

    @pytest.mark.parametrize(
        "out", ["train.manifest", "made/../train.manifest"],
        ids=["prototype names the manifest", "prototype names the manifest by another path"],
    )
    def test_iodp_prototype_naming_the_manifest(self, tiny_corpus_dir, tmp_path, no_work, out):
        data, _ = tiny_corpus_dir
        copy_into(tmp_path, data / "train.manifest")
        refused_before_any_work(
            tmp_path, SAME_FILE, "iodp", "--manifest", tmp_path / "train.manifest",
            "--out", tmp_path / out,
        )


LISTED = ("a file", "lists")


class TestOutputIsAListedFile:
    """An output that is a label or feature map the manifest lists, by its own
    path, another spelling or a hard link, is refused with exit 2 and nothing
    written; rows that share a file are still read."""

    @pytest.fixture
    def corpus(self, trained_artifacts, tmp_path):
        data, proto, _, full = trained_artifacts
        shutil.copytree(data, tmp_path / "c")
        (tmp_path / "c" / "alias.dgnl").hardlink_to(tmp_path / "c" / "train" / "00003.dgnl")
        return tmp_path / "c", proto, full

    @pytest.mark.parametrize("out", ["train/00000.dgnl", "train/../train/00003.dgnf", "alias.dgnl"])
    def test_iodp(self, corpus, tmp_path, out):
        c, _, _ = corpus
        refused_before_any_work(tmp_path, LISTED, "iodp", "--manifest", c / "train.manifest", "--out", c / out)

    @pytest.mark.parametrize(
        "checkpoint, trace", [("train/00001.dgnf", None), ("m.dgnm", "train/00004.dgnl")]
    )
    def test_train(self, corpus, tmp_path, checkpoint, trace):
        c, proto, _ = corpus
        argv = [
            "train", "--manifest", c / "train.manifest", "--prototype", proto, "--epochs", 1,
            "--checkpoint", c / checkpoint, *(("--out", c / trace) if trace else ()),
        ]
        refused_before_any_work(tmp_path, LISTED, *argv)

    @pytest.mark.parametrize("out", ["test/00000.dgnf", "test/00001.dgnl"])
    def test_eval(self, corpus, tmp_path, out):
        c, proto, full = corpus
        refused_before_any_work(
            tmp_path, LISTED, "eval", "--manifest", c / "test.manifest", "--checkpoint", full,
            "--prototype", proto, "--out", c / out,
        )

    def test_rows_sharing_a_file_are_read(self, corpus, tmp_path):
        c, proto, _ = corpus
        lines = (c / "train.manifest").read_text().splitlines()
        scene, label_map, feature_map = lines[1].split("\t")
        lines[2] = "\t".join([scene, label_map, feature_map])
        (c / "train.manifest").write_text("\n".join(lines) + "\n")
        result = run_cli("iodp", "--manifest", c / "train.manifest", "--out", tmp_path / "p.dgnp")
        assert result.returncode == 0, result.stderr
        result = run_cli(
            "train", "--manifest", c / "train.manifest", "--prototype", proto, "--epochs", 1,
            "--checkpoint", tmp_path / "m.dgnm",
        )
        assert result.returncode == 0, result.stderr


class TestMatrixCsv:
    """``write_matrix_csv`` streams rows into one atomic write: the bytes of the
    whole-text join, no n^2 string, and no file left by a failed write."""

    @staticmethod
    def joined(matrix):
        return ("\n".join(",".join(format(v, ".17g") for v in row) for row in matrix) + "\n").encode()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 1), (5, 7)])
    def test_bytes_equal_the_join(self, tmp_path, shape):
        m = np.random.default_rng(sum(shape)).standard_normal(shape) * 10.0 ** np.arange(shape[1])
        m.flat[0] = 0.0
        m.flat[m.size // 2] = 1e-300
        cli.write_matrix_csv(m, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == self.joined(m)
        cli.write_matrix_csv(m.astype(np.float32), tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_bytes() == self.joined(m.astype(np.float32).astype(np.float64))

    def test_holds_one_row_of_text(self, tmp_path):
        # 1024-value rows, as a 1024-node adjacency has: the whole-text join
        # peaked at 63 MB for 1024 such rows, and at 7.9 MB for these 128
        m = np.random.default_rng(3).random((128, 1024))
        tracemalloc.start()
        try:
            cli.write_matrix_csv(m, tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20
        assert (tmp_path / "m.csv").read_bytes() == self.joined(m)

    def test_a_failure_mid_write_leaves_no_file(self, tmp_path, monkeypatch):
        calls = []

        def failing_format(value, spec):
            calls.append(value)
            if len(calls) == 20:
                raise RuntimeError("disk gone")
            return format(value, spec)

        monkeypatch.setattr(cli, "format", failing_format, raising=False)
        with pytest.raises(RuntimeError, match="disk gone"):
            cli.write_matrix_csv(np.ones((8, 8)), tmp_path / "m.csv")
        assert len(calls) == 20
        assert list(tmp_path.iterdir()) == []

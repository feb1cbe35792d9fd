import hashlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from dgn import corpus as cp
from dgn import model as md
from dgn import prototype as pt
from dgn.errors import FormatError, ValidationError


def test_label_map_round_trip_identity(tmp_path):
    m = cp.LabelMap(np.array([[0, 1], [2, 1]]), 3)
    path = tmp_path / "m.dgnl"
    cp.save_label_map(m, path)
    loaded = cp.load_label_map(path)
    assert loaded.vocab_size == 3
    np.testing.assert_array_equal(loaded.labels, m.labels)
    second = tmp_path / "m2.dgnl"
    cp.save_label_map(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_label_out_of_range_rejected():
    with pytest.raises(ValidationError):
        cp.LabelMap(np.array([[5]]), 3)
    with pytest.raises(ValidationError):
        cp.LabelMap(np.array([[-1]]), 3)


def test_loader_rejects_label_beyond_header_vocab(tmp_path):
    payload = b"DGNL" + struct.pack("<IIII", 1, 1, 1, 3) + struct.pack("<H", 5)
    path = tmp_path / "bad.dgnl"
    path.write_bytes(payload)
    with pytest.raises(ValidationError):
        cp.load_label_map(path)


def test_empty_map_rejected(tmp_path):
    with pytest.raises(ValidationError):
        cp.LabelMap(np.zeros((0, 0), dtype=np.int64), 3)
    payload = b"DGNL" + struct.pack("<IIII", 1, 0, 0, 3)
    path = tmp_path / "empty.dgnl"
    path.write_bytes(payload)
    with pytest.raises(ValidationError):
        cp.load_label_map(path)


def write_small_artifact(suffix, path):
    """Save a small artifact of the format ``suffix`` to ``path``; return its loader."""
    if suffix == "dgnl":
        cp.save_label_map(cp.LabelMap(np.array([[0, 1], [2, 1]]), 3), path)
        return cp.load_label_map
    if suffix == "dgnf":
        cp.save_feature_map(cp.FeatureMap(np.arange(12, dtype=np.float32).reshape(2, 2, 3)), path)
        return cp.load_feature_map
    if suffix == "dgnp":
        omega = np.array([[1.0, 0.5], [0.5, 0.0]])
        mode, metric = pt.CooccurrenceMode.INDEPENDENT, pt.DispersionMetric.COEFF_VAR
        pt.save_prototype(pt.Prototype(2, omega, mode, metric, True, 2), path)
        return pt.load_prototype
    rng = np.random.default_rng(23)
    model = md.DgnModel.assemble(md.AblationMode.FULL, 2, 3, 2, 0.5, rng.standard_normal)
    md.save_model(model, path)
    return md.load_model


# every binary format shares one frame: magic, u32 version, header, payload
FORMATS = {"dgnl": b"DGNL", "dgnf": b"DGNF", "dgnp": b"DGNP", "dgnm": b"DGNM"}


@pytest.mark.parametrize("suffix", FORMATS)
def test_bad_magic_and_version(tmp_path, suffix):
    good = tmp_path / f"good.{suffix}"
    load = write_small_artifact(suffix, good)
    data = good.read_bytes()
    assert data[:4] == FORMATS[suffix] and data[4:8] == struct.pack("<I", 1)
    for name, contents in (("bad_magic", b"NOPE" + data[4:]), ("short", data[:2]), ("empty", b"")):
        bad = tmp_path / f"{name}.{suffix}"
        bad.write_bytes(contents)
        with pytest.raises(FormatError, match=f"missing {FORMATS[suffix].decode()} magic"):
            load(bad)
    bad_version = tmp_path / f"bad_version.{suffix}"
    bad_version.write_bytes(data[:4] + struct.pack("<I", 9) + data[8:])
    with pytest.raises(FormatError, match="unsupported version 9"):
        load(bad_version)


@pytest.mark.parametrize("suffix", FORMATS)
def test_truncated_and_trailing_payload(tmp_path, suffix):
    good = tmp_path / f"good.{suffix}"
    load = write_small_artifact(suffix, good)
    data = good.read_bytes()
    for cut in (3, len(data) - 6):  # inside the payload, then inside the version
        truncated = tmp_path / f"short.{suffix}"
        truncated.write_bytes(data[:-cut])
        with pytest.raises(EOFError, match="truncated payload"):
            load(truncated)
    trailing = tmp_path / f"long.{suffix}"
    trailing.write_bytes(data + b"x")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load(trailing)


def test_feature_map_round_trip(tmp_path):
    fm = cp.FeatureMap(np.arange(12, dtype=np.float64).reshape(2, 2, 3) / 7.0)
    path = tmp_path / "f.dgnf"
    cp.save_feature_map(fm, path)
    loaded = cp.load_feature_map(path)
    assert (loaded.height, loaded.width, loaded.channels) == (2, 2, 3)
    # a feature map holds the stored precision, so loading is the identity
    assert loaded.values.dtype == fm.values.dtype == np.float32
    np.testing.assert_array_equal(loaded.values, fm.values)
    second = tmp_path / "f2.dgnf"
    cp.save_feature_map(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_feature_map_save_and_load_copy_the_payload_once(tmp_path):
    # a paper-shape map, 14 x 14 nodes of 512 channels: saving holds one copy
    # of the payload beside the map; loading holds the file bytes, the one
    # decoded copy and FeatureMap's quarter-size finiteness mask
    fm = cp.FeatureMap(np.random.default_rng(5).standard_normal((14, 14, 512)))
    path = tmp_path / "f.dgnf"
    calls = {"save": lambda: cp.save_feature_map(fm, path), "load": lambda: cp.load_feature_map(path)}
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size == 20 + fm.values.nbytes
    assert peaks["save"] < 1.25 * size, peaks
    assert peaks["load"] < 2.5 * size, peaks
    np.testing.assert_array_equal(cp.load_feature_map(path).values, fm.values)


def test_feature_map_rejects_non_finite():
    bad = np.ones((1, 1, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        cp.FeatureMap(bad)


@pytest.mark.parametrize("value", [1e39, -1e39, np.finfo(np.float64).max, 2.0**128])
def test_feature_map_refuses_values_beyond_float32(value):
    # finite in float64, but the float32 cast overflows to inf
    values = np.zeros((1, 2, 2))
    values[0, 1, 0] = value
    with pytest.raises(ValidationError, match="float32"):
        cp.FeatureMap(values)


def test_feature_map_keeps_contiguous_float32_without_a_copy():
    block = np.arange(24, dtype=np.float32).reshape(2, 2, 2, 3)
    slot = block[1]
    assert cp.FeatureMap(slot).values is slot
    # float64 input is cast into a new float32 array
    values = np.full((1, 2, 3), 0.1)
    cast = cp.FeatureMap(values)
    assert cast.values.dtype == np.float32
    assert not np.shares_memory(cast.values, values)
    np.testing.assert_array_equal(cast.values, values.astype(np.float32))


def test_feature_map_keeps_the_float32_extremes():
    top = float(np.finfo(np.float32).max)
    fm = cp.FeatureMap(np.array([[[top, -top, 1e-45, -0.0]]]))
    assert fm.values.dtype == np.float32
    assert fm.values.tolist() == [[[top, -top, float(np.float32(1e-45)), -0.0]]]
    assert np.signbit(fm.values[0, 0, 3])


def test_generated_corpus_survives_save_and_load(tmp_path):
    spec = cp.SyntheticSpec(3, 10, grid_cells=3, train_per_class=4, test_per_class=2, channels=5)
    for corpus, name in zip(cp.generate_synthetic_corpus(spec), ("train", "test")):
        loaded = cp.load_corpus(cp.save_corpus(corpus, tmp_path, name))
        assert (loaded.num_classes, loaded.vocab_size) == (corpus.num_classes, corpus.vocab_size)
        assert len(loaded.instances) == len(corpus.instances)
        for got, want in zip(loaded.instances, corpus.instances):
            assert got.scene_id == want.scene_id
            assert np.array_equal(got.label_map.labels, want.label_map.labels)
            assert got.feature_map.values.dtype == want.feature_map.values.dtype
            assert np.array_equal(got.feature_map.values, want.feature_map.values)


def test_load_corpus_can_skip_feature_maps(tmp_path):
    spec = cp.SyntheticSpec(2, 6, grid_cells=2, train_per_class=3, test_per_class=1, channels=3)
    train, _ = cp.generate_synthetic_corpus(spec)
    manifest = cp.save_corpus(train, tmp_path, "train")
    for path in (tmp_path / "train").glob("*.dgnf"):
        path.write_bytes(b"not a feature map")
    loaded = cp.load_corpus(manifest, features=False)
    assert loaded.feature_shape is None
    assert [i.scene_id for i in loaded.instances] == [i.scene_id for i in train.instances]
    for got, want in zip(loaded.instances, train.instances):
        assert got.feature_map is None
        assert np.array_equal(got.label_map.labels, want.label_map.labels)
    with pytest.raises(FormatError):
        cp.load_corpus(manifest)


class TestNnResize:
    def test_same_size_is_identity(self):
        m = cp.LabelMap(np.array([[0, 1], [2, 3]]), 4)
        out = cp.nn_resize(m, 2, 2)
        np.testing.assert_array_equal(out.labels, m.labels)

    def test_even_downsample_picks_columns_1_and_3(self):
        m = cp.LabelMap(np.array([[10, 11, 12, 13]]), 14)
        out = cp.nn_resize(m, 2, 1)
        np.testing.assert_array_equal(out.labels, [[11, 13]])

    def test_odd_downsample_picks_columns_0_and_2(self):
        m = cp.LabelMap(np.array([[10, 11, 12]]), 13)
        out = cp.nn_resize(m, 2, 1)
        np.testing.assert_array_equal(out.labels, [[10, 12]])

    def test_zero_target_rejected(self):
        m = cp.LabelMap(np.array([[0]]), 1)
        with pytest.raises(ValidationError):
            cp.nn_resize(m, 0, 1)

    def test_presence_shrinks(self):
        rng = np.random.default_rng(5)
        m = cp.LabelMap(rng.integers(0, 9, size=(8, 11)), 9)
        out = cp.nn_resize(m, 3, 2)
        assert not (cp.presence_mask(out) & ~cp.presence_mask(m)).any()
        assert out.vocab_size == m.vocab_size


def test_presence_mask_examples():
    def present(grid, vocab):
        return np.flatnonzero(cp.presence_mask(cp.LabelMap(np.array(grid), vocab))).tolist()

    assert present([[0, 0], [0, 0]], 1) == [0]
    assert present([[0, 1], [2, 1]], 3) == [0, 1, 2]
    assert present([[0, 1], [2, 3]], 4) == [0, 1, 2, 3]
    assert present([[3, 1], [1, 3]], 5) == [1, 3]


def test_corpus_validation():
    m = cp.LabelMap(np.array([[0]]), 2)
    with pytest.raises(ValidationError):
        cp.Corpus(1, 2, (cp.Instance(3, m),))
    with pytest.raises(ValidationError):
        cp.Corpus(1, 5, (cp.Instance(0, m),))  # vocab mismatch
    with pytest.raises(ValidationError):
        cp.Corpus(
            1,
            2,
            (
                cp.Instance(0, m, cp.FeatureMap(np.ones((1, 1, 2)))),
                cp.Instance(0, m, cp.FeatureMap(np.ones((1, 1, 3)))),
            ),
        )


def test_feature_file_with_signalling_nan_rejected(tmp_path):
    path = tmp_path / "f.dgnf"
    cp.save_feature_map(cp.FeatureMap(np.ones((1, 1, 2))), path)
    data = path.read_bytes()
    path.write_bytes(data[:-4] + struct.pack("<I", 0x7F800001))  # float32 signalling NaN
    with pytest.raises(ValidationError, match="non-finite"):
        cp.load_feature_map(path)


def test_manifest_round_trip(tmp_path):
    maps = [cp.LabelMap(np.array([[0, 1]]), 3), cp.LabelMap(np.array([[2]]), 3)]
    feats = [cp.FeatureMap(np.ones((1, 2, 2))), None]
    corpus = cp.Corpus(
        2, 3, tuple(cp.Instance(i, m, f) for i, (m, f) in enumerate(zip(maps, feats)))
    )
    manifest = cp.save_corpus(corpus, tmp_path, "train")
    assert manifest.name == "train.manifest"
    loaded = cp.load_corpus(manifest)
    assert loaded.num_classes == 2 and loaded.vocab_size == 3
    assert len(loaded.instances) == 2
    np.testing.assert_array_equal(loaded.instances[0].label_map.labels, maps[0].labels)
    assert loaded.instances[1].feature_map is None
    assert loaded.instances[0].feature_map is not None


def test_manifest_bad_header(tmp_path):
    path = tmp_path / "x.manifest"
    path.write_text("#WRONG v1 C=2 L=3\n")
    with pytest.raises(FormatError):
        cp.load_corpus(path)


def test_manifest_path_with_nul_byte_rejected(tmp_path):
    corpus = cp.Corpus(1, 1, (cp.Instance(0, cp.LabelMap(np.array([[0]]), 1)),))
    manifest = cp.save_corpus(corpus, tmp_path, "train")
    manifest.write_text(manifest.read_text().replace("train/", "tr\x00in/"))
    with pytest.raises(FormatError, match="bad manifest row"):
        cp.load_corpus(manifest)


class TestSyntheticCorpus:
    def test_instance_counts_and_classes(self):
        spec = cp.SyntheticSpec(
            num_classes=3, vocab_size=10, grid_cells=3, train_per_class=10,
            test_per_class=2, channels=4, noise=1.0, seed=1,
        )
        train, test = cp.generate_synthetic_corpus(spec)
        assert len(train.instances) == 30
        assert len(test.instances) == 6
        assert {i.scene_id for i in train.instances} == {0, 1, 2}

    def test_discriminative_objects_stay_in_their_class(self):
        spec = cp.SyntheticSpec(
            num_classes=3, vocab_size=10, grid_cells=4, train_per_class=20,
            test_per_class=4, channels=4, noise=1.0, seed=2,
        )
        train, test = cp.generate_synthetic_corpus(spec)
        k = cp.DISC_PER_CLASS
        for corpus in (train, test):
            for inst in corpus.instances:
                present = cp.presence_mask(inst.label_map)
                for other in range(spec.num_classes):
                    if other == inst.scene_id:
                        continue
                    assert not present[other * k : (other + 1) * k].any()
                # at least one cell from the instance's own class
                assert present[inst.scene_id * k : (inst.scene_id + 1) * k].any()

    def test_determinism_byte_identical(self, tmp_path):
        spec = cp.SyntheticSpec(
            num_classes=2, vocab_size=8, grid_cells=3, train_per_class=5,
            test_per_class=2, channels=4, noise=0.5, seed=7,
        )
        for run in ("a", "b"):
            train, test = cp.generate_synthetic_corpus(spec)
            cp.save_corpus(train, tmp_path / run, "train")
            cp.save_corpus(test, tmp_path / run, "test")
        files_a = sorted((tmp_path / "a").rglob("*"))
        files_b = sorted((tmp_path / "b").rglob("*"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            if fa.is_file():
                assert fa.read_bytes() == fb.read_bytes()

    def test_bytes_are_pinned(self):
        # sha256 of every scene id, label and feature byte of both splits,
        # recorded from the generator that drew each map into its own array,
        # so a change of RNG order or of the float32 cast fails here; the 2x2
        # grids also take the branch that plants a class-owned cell
        spec = cp.SyntheticSpec(
            num_classes=2, vocab_size=20, grid_cells=2, train_per_class=4,
            test_per_class=2, channels=5, noise=1.5, seed=11,
        )
        digest = hashlib.sha256()
        for split in cp.generate_synthetic_corpus(spec):
            for inst in split.instances:
                digest.update(np.uint32(inst.scene_id).tobytes())
                digest.update(inst.label_map.labels.astype("<u2").tobytes())
                digest.update(inst.feature_map.values.astype("<f4").tobytes())
        assert digest.hexdigest() == (
            "9967e259a5a05295d44e336915165bb63195fc2f2c5eff950ff5966f0583e467"
        )

    def test_each_split_is_one_float32_block(self):
        spec = cp.SyntheticSpec(
            num_classes=3, vocab_size=10, grid_cells=3, train_per_class=4,
            test_per_class=2, channels=4, noise=1.0, seed=5,
        )
        for split in cp.generate_synthetic_corpus(spec):
            maps = [inst.feature_map.values for inst in split.instances]
            block = maps[0].base
            assert block.shape == (len(maps), 3, 3, 4)
            assert block.dtype == np.float32 and block.flags.c_contiguous
            for i, values in enumerate(maps):
                assert values.base is block
                assert np.shares_memory(values, block[i])
                assert values.ctypes.data == block[i].ctypes.data

    def test_features_beyond_float32_refused_without_a_warning(self):
        # an overflow in the draw or its float32 cast is refused without a warning
        spec = cp.SyntheticSpec(
            num_classes=2, vocab_size=6, grid_cells=2, train_per_class=2,
            test_per_class=1, channels=2, noise=1e39, seed=304,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="float32"):
                cp.generate_synthetic_corpus(spec)

    def test_zero_noise_recovers_object_ids_exactly(self):
        spec = cp.SyntheticSpec(
            num_classes=3, vocab_size=12, grid_cells=4, train_per_class=6,
            test_per_class=2, channels=6, noise=0.0, seed=3,
        )
        train, _ = cp.generate_synthetic_corpus(spec)
        table: dict[int, np.ndarray] = {}
        pixels = []
        for inst in train.instances:
            cells = cp.nn_resize(inst.label_map, spec.grid_cells, spec.grid_cells)
            ids = cells.labels.reshape(-1)
            feats = inst.feature_map.values.reshape(-1, spec.channels)
            for oid, vec in zip(ids, feats):
                table.setdefault(int(oid), vec)
                pixels.append((int(oid), vec))
        known = sorted(table)
        matrix = np.stack([table[i] for i in known])
        for oid, vec in pixels:
            nearest = known[int(np.argmin(np.linalg.norm(matrix - vec, axis=1)))]
            assert nearest == oid

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValidationError):
            cp.SyntheticSpec(num_classes=5, vocab_size=4).validate()
        with pytest.raises(ValidationError):
            cp.SyntheticSpec(num_classes=2, vocab_size=8, train_per_class=0).validate()

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from dgn import prototype as pt
from dgn.corpus import Corpus, Instance, LabelMap, SyntheticSpec, generate_synthetic_corpus
from dgn.errors import ValidationError

Mode = pt.CooccurrenceMode
Metric = pt.DispersionMetric


def presence_corpus(num_classes, vocab, groups):
    """Corpus from per-instance presence sets, one row of pixels each."""
    instances = []
    for scene_id, present in groups:
        labels = np.array([sorted(present)])
        instances.append(Instance(scene_id, LabelMap(labels, vocab)))
    return Corpus(num_classes, vocab, tuple(instances))


@pytest.fixture()
def toy():
    # class 0 instances contain {0,1} and {0}; class 1 contains {1,2} and {2}
    return presence_corpus(2, 3, [(0, {0, 1}), (0, {0}), (1, {1, 2}), (1, {2})])


# expected toy matrix for sqrt(cv), both co-occurrence modes
TOY_OMEGA = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


class TestCounts:
    def test_toy_counts(self, toy):
        counts = pt.count(toy)
        np.testing.assert_array_equal(counts.instances_per_class, [2, 2])
        np.testing.assert_array_equal(counts.presence, [[2, 1, 0], [0, 1, 2]])
        assert counts.pair_presence[0, 0, 1] == 1
        assert counts.pair_presence[1, 1, 2] == 1
        assert counts.pair_presence[0, 0, 2] == 0

    def test_pair_counts_symmetric_with_presence_diagonal(self, toy):
        counts = pt.count(toy)
        np.testing.assert_array_equal(
            counts.pair_presence, counts.pair_presence.transpose(0, 2, 1)
        )
        for c in range(counts.num_classes):
            np.testing.assert_array_equal(np.diag(counts.pair_presence[c]), counts.presence[c])
            # pair counts never exceed either marginal nor the class size
            pairwise_cap = np.minimum(counts.presence[c][:, None], counts.presence[c][None, :])
            assert (counts.pair_presence[c] <= pairwise_cap).all()
            assert (counts.presence[c] <= counts.instances_per_class[c]).all()

    def test_single_instance_with_all_objects(self):
        corpus = presence_corpus(1, 3, [(0, {0, 1, 2})])
        counts = pt.count(corpus)
        np.testing.assert_array_equal(counts.pair_presence[0], np.ones((3, 3), dtype=np.int64))

    def test_missing_class_rejected(self):
        corpus = presence_corpus(3, 3, [(0, {0}), (1, {1})])
        with pytest.raises(ValidationError):
            pt.count(corpus)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            pt.count(Corpus(1, 3, ()))

    def test_pair_counts_are_sums_of_instance_outer_products(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            C, L = int(rng.integers(1, 6)), int(rng.integers(2, 12))
            groups = []
            for scene in range(C):
                # class 0 holds one instance; object L - 1 occurs in none
                for _ in range(1 if scene == 0 else int(rng.integers(1, 6))):
                    size = int(rng.integers(1, L))
                    groups.append((scene, set(rng.choice(L - 1, size=size, replace=False).tolist())))
            corpus = presence_corpus(C, L, [groups[i] for i in rng.permutation(len(groups))])
            expected = np.zeros((C, L, L), dtype=np.int64)
            for inst in corpus.instances:
                x = np.zeros(L, dtype=np.int64)
                x[np.unique(inst.label_map.labels)] = 1
                expected[inst.scene_id] += np.outer(x, x)
            counts = pt.count(corpus)
            assert counts.pair_presence.dtype == np.int64
            assert counts.presence.dtype == np.int64
            np.testing.assert_array_equal(counts.pair_presence, expected)
            np.testing.assert_array_equal(
                counts.pair_presence[:, np.arange(L), np.arange(L)], counts.presence
            )
            np.testing.assert_array_equal(
                counts.instances_per_class, np.bincount([g[0] for g in groups], minlength=C)
            )
            assert counts.instances_per_class[0] == 1
            assert not counts.pair_presence[:, L - 1].any()


def counted_pair_corpus(num_classes, per_class, together):
    """``per_class`` instances per class; ``together[c]`` of class c hold both 0 and 1."""
    groups = []
    for scene in range(num_classes):
        for idx in range(per_class):
            groups.append((scene, {0, 1} if idx < together[scene] else {2}))
    return presence_corpus(num_classes, 3, groups)


# 3 classes of 10 instances where pair (0,1) co-occurs 7, 2 and 1 times
HAND_CORPUS_TOGETHER = (7, 2, 1)


class TestCooccurrenceProb:
    """The pair likelihood per class, seen through the posterior it normalizes into."""

    def test_toy_values(self, toy):
        counts = pt.count(toy)
        # non-independent: 1 of 2 class-0 instances holds both; class 1 none
        # independent: 2/2 * 1/2 in class 0; object 0 never appears in class 1
        for mode in Mode:
            np.testing.assert_array_equal(pt.class_posterior(counts, mode)[:, 0, 1], [0.0, 1.0])
        # joint presence 0 and 2 of 2; marginal product 1/2 * 1/2 = 1/4 and 1
        corpus = presence_corpus(2, 2, [(0, {0}), (0, {1}), (1, {0, 1}), (1, {0, 1})])
        counts = pt.count(corpus)
        np.testing.assert_array_equal(
            pt.class_posterior(counts, Mode.NON_INDEPENDENT)[:, 0, 1], [0.0, 1.0]
        )
        np.testing.assert_allclose(
            pt.class_posterior(counts, Mode.INDEPENDENT)[:, 0, 1], [0.2, 0.8], atol=1e-15, rtol=0
        )


class TestPosterior:
    def test_normalizes(self):
        for together, expected in (((5, 0), [0.0, 1.0]), ((3, 1), [0.25, 0.75]), ((2,) * 4, [0.25] * 4)):
            corpus = counted_pair_corpus(len(together), 10, together)
            post = pt.class_posterior(pt.count(corpus), Mode.NON_INDEPENDENT)
            np.testing.assert_allclose(post[:, 0, 1], expected, atol=1e-15, rtol=0)

    def test_zero_evidence_marker(self, toy):
        # objects 0 and 2 never share an instance, nor a class
        for mode in Mode:
            post = pt.class_posterior(pt.count(toy), mode)
            np.testing.assert_array_equal(post[:, 0, 2], [0.0, 0.0])
            np.testing.assert_array_equal(post[:, 2, 0], [0.0, 0.0])


class TestDispersion:
    """Raw (unpassivated) prototype entries are the posterior's dispersion."""

    def test_uniform_vector_has_zero_spread(self):
        for num_classes in (2, 3, 4, 7):
            corpus = counted_pair_corpus(num_classes, 3, (2,) * num_classes)
            for metric in Metric:
                omega = pt.build_prototype(corpus, Mode.NON_INDEPENDENT, metric, False).omega
                assert abs(omega[0, 1]) <= 1e-15

    def test_one_hot(self, toy):
        # the toy pair (0,1) has posterior [0, 1] in both modes
        expected = {Metric.RANGE: 1.0, Metric.STD_DEV: 0.5, Metric.COEFF_VAR: 1.0}
        for mode in Mode:
            for metric, value in expected.items():
                assert pt.build_prototype(toy, mode, metric, False).omega[0, 1] == value

    def test_hand_computed_values(self):
        corpus = counted_pair_corpus(3, 10, HAND_CORPUS_TOGETHER)
        omega = {
            metric: pt.build_prototype(corpus, Mode.NON_INDEPENDENT, metric, False).omega[0, 1]
            for metric in Metric
        }
        assert abs(omega[Metric.RANGE] - 0.6) < 1e-12
        assert abs(omega[Metric.STD_DEV] - 0.262467) < 1e-6
        assert abs(omega[Metric.COEFF_VAR] - 0.787401) < 1e-6

    def test_zero_evidence_marker_maps_to_zero(self, toy):
        for mode in Mode:
            for metric in Metric:
                for passivated in (True, False):
                    omega = pt.build_prototype(toy, mode, metric, passivated).omega
                    assert omega[0, 2] == 0.0 and omega[2, 0] == 0.0

    def test_permutation_gives_bit_identical_result(self):
        rng = np.random.default_rng(11)
        corpus = counted_pair_corpus(7, 10, tuple(rng.integers(0, 11, size=7)))
        perm = rng.permutation(7)
        shuffled = Corpus(
            7, 3, tuple(Instance(int(perm[i.scene_id]), i.label_map) for i in corpus.instances)
        )
        for mode in Mode:
            for metric in Metric:
                np.testing.assert_array_equal(
                    pt.build_prototype(corpus, mode, metric, False).omega,
                    pt.build_prototype(shuffled, mode, metric, False).omega,
                )


class TestPassivate:
    """Passivation square-roots each entry; off, the raw dispersion stays."""

    def test_fixed_points_and_example(self):
        # the fixed points 0 and 1 are the toy matrix's entries
        corpus = counted_pair_corpus(3, 10, HAND_CORPUS_TOGETHER)
        omega = pt.build_prototype(corpus, Mode.NON_INDEPENDENT, Metric.COEFF_VAR, True).omega
        assert abs(omega[0, 1] - 0.887356) < 1e-6

    def test_disabled_is_identity(self):
        rng = np.random.default_rng(12)
        corpus = random_presence_corpus(rng)
        for mode in Mode:
            for metric in Metric:
                raw = pt.build_prototype(corpus, mode, metric, False).omega
                passivated = pt.build_prototype(corpus, mode, metric, True).omega
                np.testing.assert_array_equal(passivated, np.sqrt(raw))


class TestBuildPrototype:
    def test_toy_matrix_both_modes(self, toy):
        for mode in Mode:
            proto = pt.build_prototype(toy, mode)
            np.testing.assert_array_equal(proto.omega, TOY_OMEGA)
            assert proto.omega[0, 1] == 1.0
            assert proto.omega[1, 1] == 0.0
            assert proto.omega[0, 2] == 0.0

    def test_everything_everywhere_gives_zero_matrix(self):
        corpus = presence_corpus(2, 3, [(0, {0, 1, 2}), (1, {0, 1, 2})])
        for mode in Mode:
            proto = pt.build_prototype(corpus, mode)
            np.testing.assert_array_equal(proto.omega, np.zeros((3, 3)))

    def test_modes_can_differ(self):
        corpus = presence_corpus(2, 2, [(0, {0}), (0, {1}), (1, {0, 1}), (1, {0, 1})])
        non_ind = pt.build_prototype(corpus, Mode.NON_INDEPENDENT)
        ind = pt.build_prototype(corpus, Mode.INDEPENDENT)
        assert not np.array_equal(non_ind.omega, ind.omega)

    def test_symmetry_nonnegativity_and_cv_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            corpus = random_presence_corpus(rng)
            proto = pt.build_prototype(corpus, Mode.NON_INDEPENDENT)
            np.testing.assert_array_equal(proto.omega, proto.omega.T)
            assert (proto.omega >= 0).all()
            bound = (corpus.num_classes - 1) ** 0.25
            assert proto.omega.max(initial=0.0) <= bound + 1e-12

    def test_object_relabeling_equivariance_exact(self):
        rng = np.random.default_rng(1)
        corpus = random_presence_corpus(rng)
        perm = rng.permutation(corpus.vocab_size)
        remapped = Corpus(
            corpus.num_classes,
            corpus.vocab_size,
            tuple(
                Instance(i.scene_id, LabelMap(perm[i.label_map.labels], corpus.vocab_size))
                for i in corpus.instances
            ),
        )
        for mode in Mode:
            before = pt.build_prototype(corpus, mode).omega
            after = pt.build_prototype(remapped, mode).omega
            np.testing.assert_array_equal(after[np.ix_(perm, perm)], before)

    def test_scene_relabeling_invariance_exact(self):
        rng = np.random.default_rng(2)
        corpus = random_presence_corpus(rng)
        perm = rng.permutation(corpus.num_classes)
        remapped = Corpus(
            corpus.num_classes,
            corpus.vocab_size,
            tuple(
                Instance(int(perm[i.scene_id]), i.label_map, i.feature_map)
                for i in corpus.instances
            ),
        )
        for mode in Mode:
            np.testing.assert_array_equal(
                pt.build_prototype(corpus, mode).omega,
                pt.build_prototype(remapped, mode).omega,
            )

    def test_posterior_rows_sum_to_one(self, toy):
        counts = pt.count(toy)
        for mode in Mode:
            post = pt.class_posterior(counts, mode)
            total = post.sum(axis=0)
            seen = total > 0
            np.testing.assert_allclose(total[seen], 1.0, atol=1e-12, rtol=0)
            np.testing.assert_array_equal(post[:, ~seen], 0.0)


def omega_in_blocks_of(rows, corpus, mode, metric, passivated):
    """``build_prototype``'s omega built ``rows`` prototype rows at a time.

    Each block counts the classes with evidence for its pairs and gathers
    the posterior of only those seen in two or more classes.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pt, "POSTERIOR_BLOCK_ENTRIES", rows * corpus.num_classes * corpus.vocab_size)
        return pt.build_prototype(corpus, mode, metric, passivated).omega


# class 1 has one instance; objects 0 and 4 never share a class (zero
# evidence in both modes) and object 6 occurs nowhere
BLOCK_CORPUS_GROUPS = [
    (0, {0, 1, 2}), (0, {0, 3}), (0, {1, 2}),
    (1, {4}),
    (2, {2, 3, 5}), (2, {5}), (2, {1, 5}),
]


# per class, the object sets of its instances: object 0 only in class 0,
# 1 and 2 spread unevenly over all 9, and object 3 nowhere.  Picked so that
# the (2, 2) posterior's sums take other bytes pairwise than class by class
# in both modes, for every metric
EDGE_CLASSES = 9
EDGE_CORPUS_GROUPS = [
    (scene, present)
    for scene, instances in enumerate((
        ({0, 2}, {1, 2}, {1, 2}, {2}),
        ({1, 2}, {1, 2}, {2}, {2}, {1}),
        ({1, 2}, {1}),
        ({2}, {1, 2}, {1, 2}, {1, 2}, {1}),
        ({1, 2}, {1}),
        ({1}, {2}, {2}, {1, 2}),
        ({2}, {1, 2}, {1}, {2}, {2}, {2}),
        ({1}, {2}, {2}, {1}, {1}),
        ({1, 2}, {1}),
    ))
    for present in instances
]


class TestBlocks:
    """The prototype is built one block of rows at a time: each block counts
    the classes with evidence for its pairs, and gathers into one posterior
    only the pairs seen in two or more classes."""

    @pytest.mark.parametrize("passivated", [True, False])
    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_block_size_does_not_change_the_bytes(self, mode, metric, passivated):
        corpus = presence_corpus(3, 7, BLOCK_CORPUS_GROUPS)
        whole = omega_in_blocks_of(7, corpus, mode, metric, passivated)
        assert whole[0, 4] == 0.0 and not whole[6].any()
        # one row per block, and blocks of two that leave a short last block
        for rows in (1, 2):
            assert omega_in_blocks_of(rows, corpus, mode, metric, passivated).tobytes() == whole.tobytes()
        assert pt.build_prototype(corpus, mode, metric, passivated).omega.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("passivated", [True, False])
    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_block_with_one_multi_class_pair_keeps_the_bytes(self, mode, metric, passivated):
        # C = 9 classes, where numpy sums a (C, 1) posterior pairwise; in
        # blocks of 2 rows the second block, rows 2 and 3, holds one pair
        # seen in two or more classes, (2, 2), beside pairs with no evidence
        corpus = presence_corpus(EDGE_CLASSES, 4, EDGE_CORPUS_GROUPS)
        whole = omega_in_blocks_of(4, corpus, mode, metric, passivated)
        counts = pt.count(corpus)
        multi = (counts.pair_presence > 0).sum(axis=0) >= 2
        assert multi[1, 1] and multi[1, 2] and multi[2, 2]
        assert not multi[2:, 3].any() and not whole[3].any()
        assert omega_in_blocks_of(2, corpus, mode, metric, passivated).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("metric", [Metric.STD_DEV, Metric.COEFF_VAR])
    def test_one_object_has_the_bytes_of_the_same_pair_among_more(self, metric):
        # an object in every instance has a uniform posterior whose spread
        # numpy sums to 0 pairwise and to about 3e-17 class by class; a
        # one-object prototype holds a single pair and must sum it as
        # every wider block does
        one = presence_corpus(EDGE_CLASSES, 1, [(scene, {0}) for scene in range(EDGE_CLASSES)])
        two = presence_corpus(EDGE_CLASSES, 2, [(scene, {0, 1}) for scene in range(EDGE_CLASSES)])
        for mode in Mode:
            single = pt.build_prototype(one, mode, metric, False).omega
            pairs = pt.build_prototype(two, mode, metric, False).omega
            assert pairs[0, 0] > 0.0
            assert pairs.tobytes() == np.full((2, 2), single[0, 0]).tobytes()

    def test_only_nonindependent_builds_hold_a_pair_array(self):
        # each C x L x L array is 10.2 MB: NON_INDEPENDENT holds the pair
        # counts and peaks below one and a half of them; INDEPENDENT holds
        # none, its largest arrays being omega (1.3 MB) and one block
        C, L = 8, 400
        rng = np.random.default_rng(31)
        groups = [
            (scene, set(rng.choice(L, size=200, replace=False).tolist()))
            for scene in range(C)
            for _ in range(3)
        ]
        corpus = presence_corpus(C, L, groups)
        pair_bytes = C * L * L * 8
        peaks = {}
        for mode in Mode:
            tracemalloc.start()
            try:
                pt.build_prototype(corpus, mode, Metric.COEFF_VAR, True)
                peaks[mode] = tracemalloc.get_traced_memory()[1] / pair_bytes
            finally:
                tracemalloc.stop()
        assert 1.0 <= peaks[Mode.NON_INDEPENDENT] < 1.5, peaks
        assert peaks[Mode.INDEPENDENT] < 0.5, peaks


class TestLimits:
    """Each mode is refused past COUNT_MAX_ENTRIES entries of its largest array."""

    def test_limit_is_on_pair_counts_only_in_nonindependent_mode(self, monkeypatch):
        # C * L^2 = 1200 passes the limit, L^2 = 400 does not
        monkeypatch.setattr(pt, "COUNT_MAX_ENTRIES", 1000)
        C, L = 3, 20
        corpus = presence_corpus(C, L, [(scene, {scene, L - 1}) for scene in range(C)])
        proto = pt.build_prototype(corpus, Mode.INDEPENDENT)
        assert proto.omega.shape == (L, L)
        message = (
            "C=3 classes and L=20 objects would need 9600 bytes per C x L x L count array; "
            "iodp allows at most 1000 entries"
        )
        with pytest.raises(ValidationError) as refused:
            pt.build_prototype(corpus, Mode.NON_INDEPENDENT)
        assert str(refused.value) == message
        counts = pt.count(corpus)
        with pytest.raises(ValidationError):
            counts.pair_presence
        assert "pair_presence" not in vars(counts)


    @pytest.mark.parametrize(
        "mode, admitted, refused",
        [
            # C L^2 = 128 * 1024^2 is exactly 2^27; one more class passes it
            (Mode.NON_INDEPENDENT, (128, 1024), (129, 1024)),
            # no integer L has L^2 = 2^27: 11585^2 is the largest square under it
            (Mode.INDEPENDENT, (1, 11585), (1, 11586)),
        ],
    )
    def test_the_limit_admits_its_last_size_and_refuses_the_next(self, mode, admitted, refused):
        # a pure check on the sizes, so the real limit is tested without allocating
        C, L = admitted
        largest = C * L * L if mode is Mode.NON_INDEPENDENT else L * L
        assert largest <= pt.COUNT_MAX_ENTRIES == 2**27
        pt._refuse_past_limit(C, L, mode)
        with pytest.raises(ValidationError, match="iodp allows at most 134217728 entries"):
            pt._refuse_past_limit(*refused, mode)
        assert pt._refuse_past_limit(128, 1024, Mode.NON_INDEPENDENT) is None


def random_presence_corpus(rng, max_classes=5, max_vocab=8, max_instances=20):
    num_classes = int(rng.integers(2, max_classes + 1))
    vocab = int(rng.integers(2, max_vocab + 1))
    n = int(rng.integers(num_classes, max_instances + 1))
    groups = []
    for idx in range(n):
        scene = idx % num_classes  # every class occupied
        size = int(rng.integers(1, vocab + 1))
        present = set(rng.choice(vocab, size=size, replace=False).tolist())
        groups.append((scene, present))
    return presence_corpus(num_classes, vocab, groups)


def test_prototype_file_round_trip(tmp_path, toy):
    proto = pt.build_prototype(toy, Mode.INDEPENDENT, Metric.COEFF_VAR, True)
    path = tmp_path / "p.dgnp"
    pt.save_prototype(proto, path)
    loaded = pt.load_prototype(path)
    assert loaded.mode is Mode.INDEPENDENT
    assert loaded.metric is Metric.COEFF_VAR
    assert loaded.passivated is True
    assert loaded.num_classes == 2
    np.testing.assert_array_equal(loaded.omega, proto.omega)
    second = tmp_path / "p2.dgnp"
    pt.save_prototype(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_sqrt_cv_maximum_matches_one_hot_analytic():
    # a pair unique to one class out of C yields ((C-1)^0.5)^0.5 exactly;
    # class c holds object c and the shared object C, so (c, c) and (c, C)
    # are unique to class c, and two class objects share no class
    for C in (2, 3, 5, 8, 12, 67):
        corpus = presence_corpus(C, C + 1, [(c, {c, C}) for c in range(C)])
        unique = np.zeros((C + 1, C + 1), dtype=bool)
        unique[np.arange(C), np.arange(C)] = unique[:C, C] = unique[C, :C] = True
        for mode in Mode:
            omega = pt.build_prototype(corpus, mode).omega
            assert math.isclose(omega[0, 0], (C - 1) ** 0.25, rel_tol=0, abs_tol=1e-12)
            assert np.unique(omega[unique]).size == 1, (C, mode)
            assert not omega[:C, :C][~np.eye(C, dtype=bool)].any()


# sha256 of omega.tobytes() on PINNED_SPEC's train split, recorded before the
# prototype was built as an upper triangle plus its mirror
PINNED_SPEC = SyntheticSpec(num_classes=12, vocab_size=40, grid_cells=6, channels=1, train_per_class=5)
PINNED_OMEGA_SHA256 = {
    (Mode.NON_INDEPENDENT, Metric.RANGE, True): "ae2977f09b644457c4118ae286506faf7875b0c6aeface25b03ad270e481d846",
    (Mode.NON_INDEPENDENT, Metric.RANGE, False): "5c0c16fb56becad68a38029958690713c7ca88555874dffd63257c49e175d95e",
    (Mode.NON_INDEPENDENT, Metric.STD_DEV, True): "d186dd3b411b253549fcb8a535be7d093c62b2f911c4aaab2ff8c09202764659",
    (Mode.NON_INDEPENDENT, Metric.STD_DEV, False): "b7984cd582ea433fea7081d501a8fa368dfa51c02866890091f21dcc08c2cd43",
    (Mode.NON_INDEPENDENT, Metric.COEFF_VAR, True): "e8a8cd472472c175b7c4c0b6b6499429bf63e82cedbe0203616720dc0d6bb93a",
    (Mode.NON_INDEPENDENT, Metric.COEFF_VAR, False): "d631ddc32dcfb61fa24cd35d71e908324892d857ce47a874a9718d0192a265d8",
    (Mode.INDEPENDENT, Metric.RANGE, True): "40a998d44672ef9d4feace8544cd5e8eb42f75388c4c51b04f6d72817b72f663",
    (Mode.INDEPENDENT, Metric.RANGE, False): "a3b5a3a0c946abcc12f75a81d18a55138b7efba30bd7133685be03c7a323d347",
    (Mode.INDEPENDENT, Metric.STD_DEV, True): "ddb5d9bb05d43255cd02014a2bc49c42520bb3170f8116133cb1fa2f50bc3250",
    (Mode.INDEPENDENT, Metric.STD_DEV, False): "d94e0dce9557f6bbe140827ab9ec253589c4a20d681cab6cc3677f7811bbee53",
    (Mode.INDEPENDENT, Metric.COEFF_VAR, True): "d7a2c76fbcb2df36efa817424fef3aa5941bcb350ee508e5f6e6164c258862d4",
    (Mode.INDEPENDENT, Metric.COEFF_VAR, False): "1fb193cf47fb9e04a059716c8fe8d11781b953d37f2f40547907c1e79c9a5a58",
}


def test_prototype_bytes_are_pinned():
    train_corpus, _ = generate_synthetic_corpus(PINNED_SPEC)
    # one block of all 40 rows, and blocks of 3 rows that end in row 39 alone:
    # with C >= 8 classes numpy sums a (C, 1, 1) posterior pairwise, so that
    # last block must not be one column wide either
    for rows in (PINNED_SPEC.vocab_size, 3):
        got = {
            key: hashlib.sha256(omega_in_blocks_of(rows, train_corpus, *key).tobytes()).hexdigest()
            for key in PINNED_OMEGA_SHA256
        }
        assert got == PINNED_OMEGA_SHA256, rows


# sha256 of omega.tobytes() on PAPER_PINNED_SPEC's train split, the paper's
# C = 67 and L = 150, recorded before a posterior was built only for pairs
# seen in two or more classes.  Of its 11 325 upper-triangle pairs 8 844
# have no evidence, 2 345 are seen in one class and 136 in all 67 at one
# rate, so both modes agree and every range is 0 or 1.
PAPER_PINNED_SPEC = SyntheticSpec(num_classes=67, vocab_size=150, grid_cells=14, channels=1, train_per_class=3)
_PAPER_RANGE = "3f48891cc89a4f742468190a228b3179e72961ecd7711dceecb49f7e7ad9b8cf"
_PAPER_STD_DEV = {
    True: "b80294d480451ab58aa8516e3488226b8fd402c5e24842b8e1f8cc239f163dcc",
    False: "5e91c66ad38f73ec4e3c808959a7e03d68e637f21606ac585a78a57b0a9b4f7f",
}
_PAPER_COEFF_VAR = {
    True: "3afa7f72033c73e3eca963c31b2e89f7918e7503f912d2214a30e8e069845b32",
    False: "f085d89d35f5e4076c8ed1d6e17fef52ff927641977c7b9f714c39e1d8d8dc1a",
}
PAPER_PINNED_OMEGA_SHA256 = {
    (mode, metric, passivated): {
        Metric.RANGE: _PAPER_RANGE,
        Metric.STD_DEV: _PAPER_STD_DEV[passivated],
        Metric.COEFF_VAR: _PAPER_COEFF_VAR[passivated],
    }[metric]
    for mode in Mode
    for metric in Metric
    for passivated in (True, False)
}


def test_paper_shaped_prototype_bytes_are_pinned():
    train_corpus, _ = generate_synthetic_corpus(PAPER_PINNED_SPEC)
    got = {
        key: hashlib.sha256(pt.build_prototype(train_corpus, *key).omega.tobytes()).hexdigest()
        for key in PAPER_PINNED_OMEGA_SHA256
    }
    assert got == PAPER_PINNED_OMEGA_SHA256


def _omega_with(i, j, value):
    omega = np.full((3, 3), 0.5)
    omega[i, j] = value
    return omega


@pytest.mark.parametrize(
    "omega, num_classes",
    [
        (np.full((3, 2), 0.5), 2),  # not L x L
        (_omega_with(0, 0, np.nan), 2),
        (_omega_with(1, 1, np.inf), 2),
        (_omega_with(2, 2, -0.5), 2),
        (_omega_with(0, 1, 0.25), 2),  # asymmetric
        (np.zeros((3, 3)), 0),
    ],
)
def test_prototype_validated_at_construction(omega, num_classes):
    with pytest.raises(ValidationError):
        pt.Prototype(3, omega, Mode.INDEPENDENT, Metric.COEFF_VAR, True, num_classes)

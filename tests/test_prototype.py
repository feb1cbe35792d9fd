import math

import numpy as np
import pytest

from dgn import prototype as pt
from dgn.corpus import Corpus, Instance, LabelMap
from dgn.errors import ValidationError

Mode = pt.CooccurrenceMode
Metric = pt.DispersionMetric


def presence_corpus(num_classes, vocab, groups, split="train"):
    """Corpus from per-instance presence sets, one row of pixels each."""
    instances = []
    for scene_id, present in groups:
        labels = np.array([sorted(present)])
        instances.append(Instance(scene_id, LabelMap(labels, vocab)))
    return Corpus(num_classes, vocab, tuple(instances), split)


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
            pt.count(Corpus(1, 3, (), "train"))


class TestCooccurrenceProb:
    def test_toy_values(self, toy):
        counts = pt.count(toy)
        assert pt.cooccurrence_prob(counts, Mode.NON_INDEPENDENT, 0, 1, 0) == 0.5
        assert pt.cooccurrence_prob(counts, Mode.INDEPENDENT, 0, 1, 0) == 0.5
        # N_o[1][0] is 0, so the independence estimate vanishes
        assert pt.cooccurrence_prob(counts, Mode.INDEPENDENT, 0, 1, 1) == 0.0

    def test_bad_index(self, toy):
        counts = pt.count(toy)
        with pytest.raises(ValidationError):
            pt.cooccurrence_prob(counts, Mode.INDEPENDENT, 0, 9, 0)


class TestPosterior:
    def test_normalizes(self):
        np.testing.assert_allclose(pt.posterior([0.5, 0.0]), [1.0, 0.0])
        np.testing.assert_allclose(pt.posterior([0.3, 0.1]), [0.75, 0.25])
        np.testing.assert_allclose(pt.posterior([0.2] * 4), [0.25] * 4)

    def test_zero_evidence_marker(self):
        assert pt.posterior([0.0, 0.0]) is None

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            pt.posterior([-0.1, 0.5])


class TestDispersion:
    def test_uniform_vector_has_zero_spread(self):
        for n in (2, 3, 4, 7):
            p = np.full(n, 1.0 / n)
            for metric in Metric:
                assert abs(pt.dispersion(p, metric)) <= 1e-15

    def test_one_hot(self):
        p = np.array([1.0, 0.0])
        assert pt.dispersion(p, Metric.RANGE) == 1.0
        assert pt.dispersion(p, Metric.STD_DEV) == 0.5
        assert pt.dispersion(p, Metric.COEFF_VAR) == 1.0

    def test_hand_computed_values(self):
        p = np.array([0.7, 0.2, 0.1])
        assert abs(pt.dispersion(p, Metric.RANGE) - 0.6) < 1e-12
        assert abs(pt.dispersion(p, Metric.STD_DEV) - 0.262467) < 1e-6
        assert abs(pt.dispersion(p, Metric.COEFF_VAR) - 0.787401) < 1e-6

    def test_zero_evidence_marker_maps_to_zero(self):
        for metric in Metric:
            assert pt.dispersion(None, metric) == 0.0

    def test_permutation_gives_bit_identical_result(self):
        rng = np.random.default_rng(11)
        p = rng.random(7)
        p /= p.sum()
        shuffled = p[rng.permutation(7)]
        for metric in Metric:
            assert pt.dispersion(p, metric) == pt.dispersion(shuffled, metric)


class TestPassivate:
    def test_fixed_points_and_example(self):
        assert pt.passivate(0.0) == 0.0
        assert pt.passivate(1.0) == 1.0
        assert abs(pt.passivate(0.787401) - 0.887356) < 1e-6

    def test_disabled_is_identity(self):
        assert pt.passivate(0.64, enabled=False) == 0.64

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            pt.passivate(-1e-9)


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
            corpus.split,
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
            corpus.split,
        )
        for mode in Mode:
            np.testing.assert_array_equal(
                pt.build_prototype(corpus, mode).omega,
                pt.build_prototype(remapped, mode).omega,
            )

    def test_posterior_rows_sum_to_one(self, toy):
        counts = pt.count(toy)
        for mode in Mode:
            for i in range(3):
                for j in range(3):
                    lik = [
                        pt.cooccurrence_prob(counts, mode, i, j, c)
                        for c in range(counts.num_classes)
                    ]
                    post = pt.posterior(np.array(lik))
                    if post is not None:
                        assert abs(post.sum() - 1.0) <= 1e-12


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
    # a pair unique to one class out of C yields ((C-1)^0.5)^0.5 exactly
    for C in (2, 3, 5):
        groups = [(0, {0, 1})] + [(c, {1}) for c in range(1, C)]
        corpus = presence_corpus(C, 2, groups)
        proto = pt.build_prototype(corpus, Mode.NON_INDEPENDENT)
        assert math.isclose(proto.omega[0, 0], (C - 1) ** 0.25, rel_tol=0, abs_tol=1e-12)


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

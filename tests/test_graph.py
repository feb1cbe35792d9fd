import numpy as np
import pytest

from dgn import graph as gr
from dgn import nn
from dgn.corpus import FeatureMap, LabelMap
from dgn.errors import ValidationError
from dgn.prototype import CooccurrenceMode, DispersionMetric, Prototype

# toy relation matrix: strong (0,0)/(0,1) links, inert elsewhere except (1,2)/(2,2)
TOY_OMEGA = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def toy_prototype(omega=TOY_OMEGA, num_classes=2):
    return Prototype(
        omega.shape[0], omega, CooccurrenceMode.NON_INDEPENDENT,
        DispersionMetric.COEFF_VAR, True, num_classes,
    )


class TestFlatten:
    def test_single_pixel(self):
        features, semantics = gr.flatten(FeatureMap(np.ones((1, 1, 4))), LabelMap(np.array([[0]]), 1))
        assert semantics.shape == (1,)
        assert features.shape == (1, 4)

    def test_row_major_node_order(self):
        values = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        labels = LabelMap(np.array([[0, 1], [2, 3]]), 4)
        features, semantics = gr.flatten(FeatureMap(values), labels)
        # node order (0,0), (1,0), (0,1), (1,1)
        np.testing.assert_array_equal(semantics, [0, 1, 2, 3])
        np.testing.assert_array_equal(features[1], [2.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            gr.flatten(FeatureMap(np.ones((1, 2, 3))), LabelMap(np.array([[0]]), 1))


class TestExtractLocalKnowledge:
    def test_gather_from_toy(self):
        a0 = gr.extract_local_knowledge(np.array([0, 1]), toy_prototype())
        np.testing.assert_array_equal(a0, [[1.0, 1.0], [1.0, 0.0]])

    def test_all_same_object_with_zero_self_relation(self):
        a0 = gr.extract_local_knowledge(np.array([1, 1, 1]), toy_prototype())
        np.testing.assert_array_equal(a0, np.zeros((3, 3)))

    def test_single_node(self):
        a0 = gr.extract_local_knowledge(np.array([2]), toy_prototype())
        np.testing.assert_array_equal(a0, [[TOY_OMEGA[2, 2]]])

    def test_out_of_range_id(self):
        with pytest.raises(ValidationError):
            gr.extract_local_knowledge(np.array([3]), toy_prototype())

    def test_matches_double_loop_exactly(self):
        rng = np.random.default_rng(3)
        omega = rng.random((5, 5))
        omega = (omega + omega.T) / 2
        proto = toy_prototype(omega, 3)
        sem = rng.integers(0, 5, size=9)
        a0 = gr.extract_local_knowledge(sem, proto)
        expected = np.array([[omega[a, b] for b in sem] for a in sem])
        np.testing.assert_array_equal(a0, expected)


class TestRowNormalize:
    def test_plain_row(self):
        out = gr.row_normalize(np.array([[2.0, 1.0, 1.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.25, 0.25]])

    def test_toy_affinity(self):
        out = gr.row_normalize(np.array([[1.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [1.0, 0.0]])

    def test_zero_row_becomes_uniform(self):
        out = gr.row_normalize(np.array([[0.0, 0.0], [3.0, 1.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.75, 0.25]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        a0 = rng.random((17, 17)) * (rng.random((17, 17)) > 0.4)
        a0[3] = 0.0
        out = gr.row_normalize(a0)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(17), atol=1e-12, rtol=0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            gr.row_normalize(np.array([[-0.5, 1.0], [0.0, 1.0]]))


class TestBuildGraph:
    def test_toy_composition(self):
        fm = FeatureMap(np.array([[[1.0], [0.0]]]))
        labels = LabelMap(np.array([[0, 1]]), 3)
        a = gr.build_graph(fm, labels, toy_prototype())
        assert isinstance(a, gr.LabelAdjacency)
        np.testing.assert_array_equal(
            gr.extract_local_knowledge(a.semantics, a.prototype), [[1.0, 1.0], [1.0, 0.0]]
        )
        np.testing.assert_allclose(a, [[0.5, 0.5], [1.0, 0.0]])

    def test_uniform_relations_give_uniform_adjacency(self):
        proto = toy_prototype(np.full((3, 3), 0.7))
        fm = FeatureMap(np.arange(8, dtype=np.float64).reshape(2, 2, 2))
        labels = LabelMap(np.array([[0, 1], [2, 0]]), 3)
        a = gr.build_graph(fm, labels, proto)
        np.testing.assert_allclose(a, np.full((4, 4), 0.25))

    def test_single_node_graph(self):
        a = gr.build_graph(
            FeatureMap(np.ones((1, 1, 2))), LabelMap(np.array([[0]]), 3), toy_prototype()
        )
        np.testing.assert_array_equal(a, [[1.0]])

    def test_node_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        omega = rng.random((4, 4))
        proto = toy_prototype((omega + omega.T) / 2, 2)
        sem = rng.integers(0, 4, size=6)
        a0 = gr.extract_local_knowledge(sem, proto)
        perm = rng.permutation(6)
        a0_perm = gr.extract_local_knowledge(sem[perm], proto)
        np.testing.assert_array_equal(a0_perm, a0[np.ix_(perm, perm)])
        # row sums accumulate in permuted order, so normalization matches to rounding
        np.testing.assert_allclose(
            gr.row_normalize(a0_perm),
            gr.row_normalize(a0)[np.ix_(perm, perm)],
            atol=1e-15,
            rtol=0,
        )


def test_uniform_adjacency_propagation_matches_half_mean_shift():
    # constant positive relations: propagation averages each node with the
    # columnwise mean, i.e. (V + mean(V)) / 2
    rng = np.random.default_rng(8)
    v = rng.standard_normal((5, 3))
    proto = toy_prototype(np.full((2, 2), 0.3))
    labels = LabelMap(rng.integers(0, 2, size=(1, 5)), 2)
    a = gr.build_graph(FeatureMap(v.reshape(1, 5, 3)), labels, proto)
    out = nn.propagate(a, v)
    np.testing.assert_allclose(out, (v + v.mean(axis=0)) / 2, atol=1e-12, rtol=0)

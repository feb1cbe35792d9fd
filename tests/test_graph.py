import numpy as np
import pytest

from dgn import graph as gr
from dgn import model as md
from dgn import nn
from dgn.corpus import FeatureMap, LabelMap
from dgn.errors import ValidationError
from dgn.prototype import CooccurrenceMode, DispersionMetric, Prototype
from tests.helpers import dense_adjacency

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

    def test_overflowing_row_sum_rejected_without_a_warning(self):
        # finite entries whose sum is not; warnings are errors under pytest
        with pytest.raises(ValidationError, match="finite"):
            gr.row_normalize(np.array([[1e308, 1e308], [0.5, 0.5]]))


def blown_up(a):
    """The n x n adjacency ``P mix P^T`` that the label-space graph ``a`` stands for."""
    return a.mix[np.ix_(a.inverse, a.inverse)]


class TestBuildGraph:
    def test_toy_composition(self):
        fm = FeatureMap(np.array([[[1.0], [0.0]]]))
        labels = LabelMap(np.array([[0, 1]]), 3)
        a = gr.build_graph(fm, labels, toy_prototype())
        assert isinstance(a, gr.LabelAdjacency)
        np.testing.assert_array_equal(a.features, fm.values.reshape(2, 1))
        np.testing.assert_allclose(blown_up(a), [[0.5, 0.5], [1.0, 0.0]])
        np.testing.assert_allclose(dense_adjacency(np.array([0, 1]), toy_prototype()), blown_up(a))

    def test_uniform_relations_give_uniform_adjacency(self):
        proto = toy_prototype(np.full((3, 3), 0.7))
        fm = FeatureMap(np.arange(8, dtype=np.float64).reshape(2, 2, 2))
        labels = LabelMap(np.array([[0, 1], [2, 0]]), 3)
        a = gr.build_graph(fm, labels, proto)
        np.testing.assert_allclose(blown_up(a), np.full((4, 4), 0.25))

    def test_overflowing_label_weights_rejected_without_a_warning(self):
        omega = np.full((3, 3), 0.5)
        omega[0, 0] = omega[1, 1] = 1e308
        labels = LabelMap(np.array([[0, 0, 1, 1]]), 3)
        with pytest.raises(ValidationError, match="overflow"):
            gr.build_graph(FeatureMap(np.ones((1, 4, 2))), labels, toy_prototype(omega))
        # one node per label: each weight is 1e308 plus 0.5, still finite
        single = gr.build_graph(
            FeatureMap(np.ones((1, 2, 2))), LabelMap(np.array([[0, 1]]), 3), toy_prototype(omega)
        )
        np.testing.assert_array_equal(single.mix, np.array([[1e308, 0.5], [0.5, 1e308]]) / (1e308 + 0.5))

    def test_single_node_graph(self):
        a = gr.build_graph(
            FeatureMap(np.ones((1, 1, 2))), LabelMap(np.array([[0]]), 3), toy_prototype()
        )
        np.testing.assert_array_equal(blown_up(a), [[1.0]])

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


def test_the_graph_cannot_be_densified_by_accident(monkeypatch):
    rng = np.random.default_rng(9)
    fm = FeatureMap(rng.standard_normal((2, 3, 4)))
    a = gr.build_graph(fm, LabelMap(rng.integers(0, 3, size=(2, 3)), 3), toy_prototype())
    v = fm.values.reshape(6, 4)

    def dense(*args, **kwargs):
        raise AssertionError("built a dense n x n matrix")

    monkeypatch.setattr(gr, "extract_local_knowledge", dense)
    monkeypatch.setattr(gr, "row_normalize", dense)
    # numpy sees a 0-d object array, so products and sums raise before any
    # dense matrix exists
    for accident in (lambda: a @ v, lambda: v @ a, lambda: a + 1, lambda: np.matmul(a, v)):
        with pytest.raises((TypeError, ValueError)):
            accident()
    assert np.asarray(a).shape == ()
    # nor is the graph layer: an array in its place, dense or not, is refused
    model = md.DgnModel.assemble(md.AblationMode.FULL, 4, 2, 2, 0.5, np.ones)
    for array in (np.asarray(a), np.full((6, 6), 1.0 / 6), v):
        with pytest.raises(ValidationError, match="must be a graph.LabelAdjacency"):
            nn.propagate(array, model.gc_weight)
        with pytest.raises(ValidationError, match="must be a graph.LabelAdjacency"):
            md.forward_parts(model, array)


def test_uniform_adjacency_propagation_matches_half_mean_shift():
    # constant positive relations: propagation averages each node with the
    # columnwise mean, i.e. (V + mean(V)) / 2
    rng = np.random.default_rng(8)
    fm = FeatureMap(rng.standard_normal((1, 5, 3)))
    proto = toy_prototype(np.full((2, 2), 0.3))
    labels = LabelMap(rng.integers(0, 2, size=(1, 5)), 2)
    a = gr.build_graph(fm, labels, proto)
    # the graph propagates the feature map's own (float32) array, in float64
    v = fm.values.reshape(5, 3)
    out = nn.propagate(a, np.eye(3))  # the identity weight propagates V itself
    v64 = v.astype(np.float64)
    np.testing.assert_allclose(out, (v64 + v64.mean(axis=0)) / 2, atol=1e-12, rtol=0)

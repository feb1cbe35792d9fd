"""The graph layer's in-place and label-space forms keep their bytes and never alias.

``nn.propagate``, ``nn.propagate_adjoint`` and ``nn.backward`` build their
results in place.  A ``LabelAdjacency`` is ``A = P mix P^T``, and its
products are chains through its k x k block ``mix``, the label-space ones
from the label sums ``S_V = P^T V`` the graph holds.  Each is compared byte
for byte with the expression form of the same arithmetic, written out
below, and checked to leave its inputs untouched and return arrays of its
own.  The label-space layer is also checked against the scalar-loop oracle
and a dense-matrix backward over the dense adjacency the graph stands for.
"""

import numpy as np
import pytest

from dgn import model as md
from dgn import nn, oracle
from dgn.corpus import FeatureMap, LabelMap
from dgn.errors import ValidationError
from dgn.graph import build_graph
from dgn.model import AblationMode
from dgn.prototype import CooccurrenceMode, DispersionMetric, Prototype
from tests.helpers import gradients
from tests.test_oracle import factored_graph, random_graph, zero_affinity_rows

# ---------------------------------------------------------------------------
# the expression forms, one new array per operation


def expr_one_hot(a):
    """``P^T``, the k x n one-hot of node labels."""
    return (a.inverse == np.arange(a.mix.shape[0])[:, None]).astype(np.float64)


def expr_label_rows(a, v, w):
    """``mix P^T V W``, from the label sums ``S_V`` when the graph holds them."""
    if not a.holds_label_sums:
        return a.mix @ (expr_one_hot(a) @ (v if w is None else v @ w))
    sums = expr_one_hot(a) @ a.features
    return a.mix @ (sums if w is None else sums @ w)


def expr_adjoint_rows(a, z):
    """``mix^T P^T z``."""
    return a.mix.T @ (expr_one_hot(a) @ z)


def expr_feature_adjoint(a, y):
    return (expr_one_hot(a) @ a.features).T @ (a.mix.T @ (expr_one_hot(a) @ y))


def products(a, v, w):
    """The graph's label-space products."""
    out = [a.label_rows(v), a.label_rows(v @ w, w), a.adjoint_rows(v)]
    return out + [a.feature_adjoint(v @ w)] if a.holds_label_sums else out


def expr_products(a, v, w):
    out = [expr_label_rows(a, v, None), expr_label_rows(a, v, w), expr_adjoint_rows(a, v)]
    return out + [expr_feature_adjoint(a, v @ w)] if a.holds_label_sums else out


def expr_propagate(a, v, w=None):
    x = v if w is None else v @ w
    return (x + expr_label_rows(a, v, w)[a.inverse]) / 2.0


def expr_propagate_adjoint(a, y):
    # a row-stochastic adjacency: every degree is 2
    z = y / 2.0
    return z + expr_adjoint_rows(a, z)[a.inverse]


def expr_backward(model, record, target):
    delta_m = nn.softmax(record.main_logits)
    delta_m[target] -= 1.0
    a = record.adjacency
    n = a.inverse.size
    d_pooled = model.main_head.weight @ delta_m
    slope = record.hidden * (1.0 - record.hidden)
    if not a.holds_label_sums:
        d_fw = expr_propagate_adjoint(a, (d_pooled / n)[None, :] * slope)
        mixed = None
    else:
        d_fw = (d_pooled / (2 * n))[None, :] * slope
        mixed = expr_feature_adjoint(a, d_fw)
    grads = [np.outer(record.pooled, delta_m), delta_m]
    if record.aux_logits is not None:
        delta_a = nn.softmax(record.aux_logits)
        delta_a[target] -= 1.0
        delta_a *= model.lam
        grads += [np.outer(record.aux_pooled, delta_a), delta_a]
        d_aux_pooled = model.aux_head.weight @ delta_a
        d_fw = d_fw + (d_aux_pooled / n)[None, :] * (record.aux_hidden * (1.0 - record.aux_hidden))
    gc = np.asarray(a.features, dtype=np.float64).T @ d_fw
    # nn.backward adds into the batch sums: 0.0 + (-0.0) is +0.0
    return [np.zeros_like(g) + g for g in (gc if mixed is None else gc + mixed, *grads)]


# ---------------------------------------------------------------------------
# label-space adjacencies: a random sparse prototype over a random map, and
# fixed maps with and without zero-weight labels


def label_case(rng, zero_labels, channels=3):
    omega = rng.random((5, 5))
    omega = (omega + omega.T) / 2
    labels = rng.integers(0, 5, size=(3, 4))
    if zero_labels:
        # ids 3 and 4 relate to nothing: their rows are uniform
        omega[3:, :] = omega[:, 3:] = 0.0
        labels.flat[0] = 3
    assert (zero_affinity_rows(labels, omega) > 0) == zero_labels
    return factored_graph(labels, omega, rng, channels=channels)


def single_label_case(rng):
    omega = rng.random((5, 5))
    # every node has id 2: k = 1
    return factored_graph(np.full((3, 4), 2), (omega + omega.T) / 2, rng, channels=3)


CASES = {
    # 4-16 nodes over 1-8 ids, any of which may relate to nothing
    "random prototype and map": lambda rng: random_graph(
        rng, int(rng.integers(1, 9)), tuple(rng.integers(2, 5, size=2)), channels=3, sparse=True
    ),
    "label space": lambda rng: label_case(rng, zero_labels=False),
    "label space, zero-weight labels": lambda rng: label_case(rng, zero_labels=True),
    "label space, single label": single_label_case,
    # 16 channels over 12 nodes: the graph holds no label sums
    "label space, zero-weight labels, wide": lambda rng: label_case(rng, zero_labels=True, channels=16),
}


def graph_case(name, seed):
    """(the graph's node features, the graph, its dense adjacency)."""
    return CASES[name](np.random.default_rng(seed))


def records(v, a, seed):
    """(model, forward record) of a train-eval-iodp and a full model (lam > 0) on the graph ``a``."""
    rng = np.random.default_rng(seed)
    c, d, k = v.shape[1], 4, 3
    out = []
    for mode in (AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL):
        model = md.DgnModel.assemble(mode, c, d, k, 0.5, lambda shape: rng.standard_normal(shape))
        out.append((model, md.forward_parts(model, a)))
    return out


def hidden_weight(v, seed):
    return np.random.default_rng(seed).standard_normal((v.shape[1], 4))


def adjacency_arrays(a):
    """The arrays a graph holds between products; each product forms its own one-hot."""
    held = [a._label_sums] if a.holds_label_sums else []
    return [a.inverse, a.mix, a.features, *held]


def written_one_hot(a):
    """The one-hot a product multiplies by, checked to hold the graph's ``P^T``."""
    one_hot = a._one_hot()
    assert one_hot.flags.c_contiguous
    assert one_hot.tobytes() == expr_one_hot(a).tobytes()
    return one_hot


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestSameBytes:
    def test_products(self, name, seed):
        v, a, _ = graph_case(name, seed)
        w = hidden_weight(v, seed)
        fast, slow = products(a, v, w), expr_products(a, v, w)
        assert len(fast) == len(slow)
        for f, s in zip(fast, slow):
            assert f.tobytes() == s.tobytes()

    def test_propagate_and_adjoint(self, name, seed):
        v, a, _ = graph_case(name, seed)
        w = hidden_weight(v, seed)
        assert nn.propagate(a).tobytes() == expr_propagate(a, v).tobytes()
        assert nn.propagate(a, w).tobytes() == expr_propagate(a, v, w).tobytes()
        assert nn.propagate(a, w, v @ w).tobytes() == expr_propagate(a, v, w).tobytes()
        assert nn.propagate_adjoint(a, v).tobytes() == expr_propagate_adjoint(a, v).tobytes()

    def test_backward(self, name, seed):
        v, a, _ = graph_case(name, seed)
        for model, record in records(v, a, seed):
            for target in range(3):
                fast = gradients(model, record, target)
                slow = expr_backward(model, record, target)
                assert len(fast) == len(slow)
                for f, s in zip(fast, slow):
                    assert f.tobytes() == s.tobytes()


@pytest.mark.parametrize("name", CASES)
class TestNoAliasing:
    def test_products_and_propagation(self, name):
        v, a, _ = graph_case(name, 3)
        w = hidden_weight(v, 3)
        inputs = [w, *adjacency_arrays(a)]
        before = [x.copy() for x in inputs]
        first, second = products(a, v, w), products(a, v, w)
        product = v @ w
        given = product.copy()
        propagated = [nn.propagate(a), nn.propagate(a, w), nn.propagate(a, w, product), nn.propagate_adjoint(a, v)]
        for x, b in zip(inputs + [product], before + [given]):
            assert x.tobytes() == b.tobytes()
        # the layer builds its output in a copy of a given product
        assert not np.shares_memory(propagated[2], product)
        # two calls on the same (cached) adjacency give equal, separate arrays
        for f, s in zip(first, second):
            assert f.tobytes() == s.tobytes()
            assert not np.shares_memory(f, s)
        one_hot = written_one_hot(a)
        for r in first + second + propagated:
            assert not any(np.shares_memory(r, x) for x in [*inputs, one_hot])

    def test_backward(self, name):
        v, a, _ = graph_case(name, 4)
        for model, record in records(v, a, 4):
            inputs = [record.hidden, model.gc_weight, *adjacency_arrays(a)]
            if record.aux_hidden is not None:
                inputs.append(record.aux_hidden)
            before = [x.copy() for x in inputs]
            grads = gradients(model, record, 1)
            for x, b in zip(inputs, before):
                assert x.tobytes() == b.tobytes()
            one_hot = written_one_hot(a)
            for g in grads:
                assert not any(np.shares_memory(g, x) for x in [*inputs, one_hot])


def test_propagation_refuses_features_that_are_not_a_matrix():
    # a dense array is not a graph: the layer and every graph mode refuse it,
    # and so they refuse the graph's node features in its place
    v, a, dense = graph_case("label space", 8)
    n, c = v.shape
    full = md.DgnModel.assemble(AblationMode.FULL, c, 4, 3, 0.5, np.ones)
    baseline = md.DgnModel.assemble(AblationMode.BASELINE, c, c, 3, 0.0, np.ones)
    for array in (dense, np.full((n, n), 1.0 / n), np.asarray(a), v):
        with pytest.raises(ValidationError, match="must be a graph.LabelAdjacency"):
            nn.propagate(array)
        with pytest.raises(ValidationError, match="must be a graph.LabelAdjacency"):
            nn.propagate_adjoint(array, v)
        for model, mode in (
            (full, AblationMode.TRAIN_EVAL_IODP), (full, AblationMode.FULL),
            (baseline, AblationMode.EVAL_ONLY_IODP),
        ):
            with pytest.raises(ValidationError, match="must be a graph.LabelAdjacency"):
                md.forward_parts(model, array, mode)
    # a label-space graph refuses a gradient that is not one row per node
    for name in CASES:
        v, a, _ = graph_case(name, 8)
        n = v.shape[0]
        for y in (np.ones(n), np.ones((n - 1, 4)), np.ones((n + 1, 4)), np.ones((n, 4, 1))):
            with pytest.raises(ValidationError, match="shape mismatch"):
                nn.propagate_adjoint(a, y)


# ---------------------------------------------------------------------------
# the label-space layer against the oracle and the dense matrices


def relative_error(actual, expected):
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


def dense_hidden_weight_gradient(model, record, dense, target):
    """``V^T (M^T d_pre + d_aux_pre)`` with ``M = D^-1 (I + A)`` the dense matrix of the layer."""
    n = record.adjacency.inverse.size
    delta_m = nn.softmax(record.main_logits)
    delta_m[target] -= 1.0
    slope = record.hidden * (1.0 - record.hidden)
    d_pre = (model.main_head.weight @ delta_m / n)[None, :] * slope
    m = (np.eye(n) + dense) / (dense.sum(axis=1) + 1.0)[:, None]
    d_fw = m.T @ d_pre
    if record.aux_logits is not None:
        delta_a = nn.softmax(record.aux_logits)
        delta_a[target] -= 1.0
        aux_slope = record.aux_hidden * (1.0 - record.aux_hidden)
        d_fw = d_fw + (model.aux_head.weight @ (model.lam * delta_a) / n)[None, :] * aux_slope
    return np.asarray(record.adjacency.features, dtype=np.float64).T @ d_fw


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_label_space_layer_matches_the_dense_path_and_the_oracle(name, seed):
    v, a, dense = graph_case(name, seed)
    w = hidden_weight(v, seed)
    forward = nn.propagate(a, w)
    assert relative_error(forward, oracle.naive_propagate(dense, v @ w)) <= 1e-12
    for model, record in records(v, a, seed):
        for target in range(3):
            label_grad = gradients(model, record, target)[0]
            expected = dense_hidden_weight_gradient(model, record, dense, target)
            assert relative_error(label_grad, expected) <= 1e-12


@pytest.mark.parametrize("name", CASES)
def test_held_label_sums_are_the_one_hot_times_the_features(name):
    v, a, _ = graph_case(name, 5)
    one_hot = written_one_hot(a)
    np.testing.assert_array_equal(one_hot.sum(axis=0), 1.0)
    # label sums pay off only with fewer channels than nodes
    assert a.holds_label_sums == (v.shape[1] < v.shape[0]) == ("wide" not in name)
    if a.holds_label_sums:
        sums = a._label_sums
        assert sums.shape == (a.mix.shape[0], v.shape[1])
        np.testing.assert_array_equal(sums, one_hot @ v)
    else:
        # a wide graph's products never compute its label sums
        w = hidden_weight(v, 5)
        products(a, v, w)
        nn.propagate(a, w)
        nn.propagate_adjoint(a, v)
        for model, record in records(v, a, 5):
            gradients(model, record, 1)
        assert "_label_sums" not in vars(a)


# ---------------------------------------------------------------------------
# graphs of more than nn.TILE_ROWS nodes: the layer runs in several tiles


def tiled_graph(side, channels, seed):
    """A label-space graph over a ``side`` x ``side`` map of 8 ids, with no dense adjacency built."""
    rng = np.random.default_rng(seed)
    omega = rng.random((8, 8))
    proto = Prototype(8, (omega + omega.T) / 2, CooccurrenceMode.INDEPENDENT, DispersionMetric.COEFF_VAR, True, 2)
    values = rng.standard_normal((side, side, channels))
    return build_graph(FeatureMap(values), LabelMap(rng.integers(0, 8, size=(side, side)), 8), proto)


# 4096 nodes over 32 channels hold label sums; 576 nodes under 600 channels do not
TILED = {"label sums": (64, 32), "no label sums": (24, 600)}


@pytest.mark.parametrize("name", TILED)
def test_several_tiles_keep_the_expression_bytes(name):
    a = tiled_graph(*TILED[name], seed=12)
    v = a.features
    assert v.shape[0] > nn.TILE_ROWS
    assert a.holds_label_sums == (name == "label sums")
    # the bench's hidden width, the channel count: at it this build's OpenBLAS
    # gives a tile of V W the bytes of the same rows of the whole product
    w = np.random.default_rng(13).standard_normal((v.shape[1], v.shape[1]))
    assert nn.feature_product(a, w).tobytes() == (v.astype(np.float64) @ w).tobytes()
    assert nn.propagate(a).tobytes() == expr_propagate(a, v).tobytes()
    assert nn.propagate(a, w).tobytes() == expr_propagate(a, v, w).tobytes()
    assert nn.propagate(a, w, v @ w).tobytes() == expr_propagate(a, v, w).tobytes()


@pytest.mark.parametrize("name", TILED)
def test_several_tiles_give_the_single_product_gradients(name, monkeypatch):
    # the weight's gradient sums V_t^T y_t over the tiles, in node order
    a = tiled_graph(*TILED[name], seed=14)
    rng = np.random.default_rng(14)
    c, d, k = a.features.shape[1], 8, 3
    for mode in (AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL):
        model = md.DgnModel.assemble(mode, c, d, k, 0.5, lambda shape: rng.standard_normal(shape) / np.sqrt(shape[0]))
        record = md.forward_parts(model, a)
        for target in range(k):
            assert len(nn._row_chunks(a.inverse.shape)) > 1
            tiled = gradients(model, record, target)
            with monkeypatch.context() as m:
                m.setattr(nn, "TILE_ROWS", a.inverse.size)
                # the backward reads the patched bound, not tiles kept from before
                assert len(nn._row_chunks(a.inverse.shape)) == 1
                single = gradients(model, record, target)
            assert len(tiled) == len(single)
            assert np.abs(tiled[0]).max() > 0
            for t, s in zip(tiled, single):
                assert np.abs(t - s).max() <= 1e-12 * np.abs(s).max()


def test_a_graph_of_one_tile_forms_v_w_as_one_product():
    # 484 nodes under 600 channels: row blocks of 600-entry rows would be
    # 109 rows, and at 8 columns this build's OpenBLAS rounds such blocks of
    # V W differently from the whole product
    a = tiled_graph(22, 600, seed=15)
    v = a.features
    assert v.shape[0] <= nn.TILE_ROWS
    w = np.random.default_rng(15).standard_normal((v.shape[1], 8))
    assert nn.feature_product(a, w).tobytes() == (v.astype(np.float64) @ w).tobytes()
    assert nn.propagate(a, w).tobytes() == expr_propagate(a, v, w).tobytes()

"""The graph layer's in-place and label-space forms keep their bytes and never alias.

``nn.propagate``, ``nn.propagate_adjoint`` and ``nn.backward`` build their
results in place.  A ``LabelAdjacency`` is ``A = P mix P^T``, and its
products are chains through its k x k block ``mix``, the label-space ones
from the label sums ``S_V = P^T V`` the graph holds.  Each is compared byte
for byte with the expression form of the same arithmetic, written out
below, and checked to leave its inputs untouched and return arrays of its
own.  The label-space layer is also checked against the dense adjacency and
the scalar-loop oracle.
"""

import numpy as np
import pytest

from dgn import model as md
from dgn import nn, oracle
from dgn.errors import ValidationError
from dgn.model import AblationMode
from tests.test_oracle import factored_graph, zero_affinity_rows

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


def expr_label_rmatmul(a, z):
    return (a.mix.T @ (expr_one_hot(a) @ z))[a.inverse]


def expr_feature_adjoint(a, y):
    return (expr_one_hot(a) @ a.features).T @ (a.mix.T @ (expr_one_hot(a) @ y))


def products(a, v, w):
    """A dense adjacency's node-sized products; a label-space one's label-space products."""
    if isinstance(a, np.ndarray):
        return [a @ v, a.T @ v]
    out = [a.label_rows(v), a.label_rows(v @ w, w), a.T @ v]
    return out + [a.feature_adjoint(v @ w)] if a.holds_label_sums else out


def expr_products(a, v, w):
    if isinstance(a, np.ndarray):
        return [a @ v, a.T @ v]
    out = [expr_label_rows(a, v, None), expr_label_rows(a, v, w), expr_label_rmatmul(a, v)]
    return out + [expr_feature_adjoint(a, v @ w)] if a.holds_label_sums else out


def expr_propagate(a, v, w=None):
    x = v if w is None else v @ w
    if isinstance(a, np.ndarray):
        return (x + a @ x) / (a.sum(axis=1) + 1.0)[:, None]
    return (x + expr_label_rows(a, v, w)[a.inverse]) / 2.0


def expr_propagate_adjoint(a, y):
    z = y / (a.sum(axis=1) + 1.0)[:, None]
    return z + (a.T @ z if isinstance(a, np.ndarray) else expr_label_rmatmul(a, z))


def expr_backward(record, target):
    delta_m = nn.softmax(record.main_logits)
    delta_m[target] -= 1.0
    n = record.features.shape[0]
    a = record.adjacency
    d_pooled = record.main_head.weight @ delta_m
    slope = record.hidden * (1.0 - record.hidden)
    if isinstance(a, np.ndarray) or not a.holds_label_sums:
        d_fw = expr_propagate_adjoint(a, (d_pooled / n)[None, :] * slope)
        mixed = None
    else:
        d_fw = (d_pooled / (2 * n))[None, :] * slope
        mixed = expr_feature_adjoint(a, d_fw)
    grads = [np.outer(record.pooled, delta_m), delta_m]
    if record.aux_logits is not None:
        delta_a = nn.softmax(record.aux_logits)
        delta_a[target] -= 1.0
        delta_a *= record.lam
        grads += [np.outer(record.aux_pooled, delta_a), delta_a]
        d_aux_pooled = record.aux_head.weight @ delta_a
        d_fw = d_fw + (d_aux_pooled / n)[None, :] * (record.aux_hidden * (1.0 - record.aux_hidden))
    gc = record.features.T @ d_fw
    return [gc if mixed is None else gc + mixed, *grads]


# ---------------------------------------------------------------------------
# adjacencies: dense with arbitrary degrees, label space with and without
# zero-weight labels


def dense_case(rng):
    n, c = 7, 3
    # not row-stochastic, so the degrees are not 2 and every division rounds
    return rng.standard_normal((n, c)), rng.random((n, n)) * 3.0


def label_case(rng, zero_labels, channels=3):
    omega = rng.random((5, 5))
    omega = (omega + omega.T) / 2
    labels = rng.integers(0, 5, size=(3, 4))
    if zero_labels:
        # ids 3 and 4 relate to nothing: their rows are uniform
        omega[3:, :] = omega[:, 3:] = 0.0
        labels.flat[0] = 3
    return factored_graph(labels, omega, rng, channels=channels)


def single_label_case(rng):
    omega = rng.random((5, 5))
    # every node has id 2: k = 1
    return factored_graph(np.full((3, 4), 2), (omega + omega.T) / 2, rng, channels=3)


CASES = {
    "dense": dense_case,
    "label space": lambda rng: label_case(rng, zero_labels=False),
    "label space, zero-weight labels": lambda rng: label_case(rng, zero_labels=True),
    "label space, single label": single_label_case,
    # 16 channels over 12 nodes: the graph holds no label sums
    "label space, zero-weight labels, wide": lambda rng: label_case(rng, zero_labels=True, channels=16),
}
LABEL_CASES = [name for name in CASES if name != "dense"]


def graph_case(name, seed):
    v, a = CASES[name](np.random.default_rng(seed))
    if name != "dense":
        assert (zero_affinity_rows(a) > 0) == ("zero" in name)
    return v, a


def records(v, a, seed):
    """Forward records of a train-eval-iodp and a full model (lam > 0) on ``(v, a)``."""
    rng = np.random.default_rng(seed)
    c, d, k = v.shape[1], 4, 3
    out = []
    for mode in (AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL):
        model = md.DgnModel.assemble(mode, c, d, k, 0.5, lambda shape: rng.standard_normal(shape))
        out.append(md.forward_parts(model, v, a)[2])
    return out


def hidden_weight(v, seed):
    return np.random.default_rng(seed).standard_normal((v.shape[1], 4))


def adjacency_arrays(a):
    if isinstance(a, np.ndarray):
        return [a]
    held = [a._one_hot, a._label_sums] if a.holds_label_sums else [a._one_hot]
    return [a.semantics, a.inverse, a.mix, a.features, *held, a.prototype.omega]


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestSameBytes:
    def test_products(self, name, seed):
        v, a = graph_case(name, seed)
        w = hidden_weight(v, seed)
        fast, slow = products(a, v, w), expr_products(a, v, w)
        assert len(fast) == len(slow)
        for f, s in zip(fast, slow):
            assert f.tobytes() == s.tobytes()

    def test_propagate_and_adjoint(self, name, seed):
        v, a = graph_case(name, seed)
        w = hidden_weight(v, seed)
        assert nn.propagate(a, v).tobytes() == expr_propagate(a, v).tobytes()
        assert nn.propagate(a, v, w).tobytes() == expr_propagate(a, v, w).tobytes()
        assert nn.propagate(a, v, w, v @ w).tobytes() == expr_propagate(a, v, w).tobytes()
        assert nn.propagate_adjoint(a, v).tobytes() == expr_propagate_adjoint(a, v).tobytes()

    def test_backward(self, name, seed):
        v, a = graph_case(name, seed)
        for record in records(v, a, seed):
            for target in range(3):
                fast = list(nn.backward(record, target))
                slow = expr_backward(record, target)
                assert len(fast) == len(slow)
                for f, s in zip(fast, slow):
                    assert f.tobytes() == s.tobytes()


@pytest.mark.parametrize("name", CASES)
class TestNoAliasing:
    def test_products_and_propagation(self, name):
        v, a = graph_case(name, 3)
        w = hidden_weight(v, 3)
        inputs = [v, w, *adjacency_arrays(a)]
        before = [x.copy() for x in inputs]
        first, second = products(a, v, w), products(a, v, w)
        propagated = [nn.propagate(a, v), nn.propagate(a, v, w), nn.propagate_adjoint(a, v)]
        for x, b in zip(inputs, before):
            assert x.tobytes() == b.tobytes()
        # two calls on the same (cached) adjacency give equal, separate arrays
        for f, s in zip(first, second):
            assert f.tobytes() == s.tobytes()
            assert not np.shares_memory(f, s)
        for r in first + second + propagated:
            assert not any(np.shares_memory(r, x) for x in inputs)

    def test_backward(self, name):
        v, a = graph_case(name, 4)
        for record in records(v, a, 4):
            inputs = [v, record.hidden, record.gc_weight, *adjacency_arrays(a)]
            if record.aux_hidden is not None:
                inputs.append(record.aux_hidden)
            before = [x.copy() for x in inputs]
            grads = list(nn.backward(record, 1))
            for x, b in zip(inputs, before):
                assert x.tobytes() == b.tobytes()
            for g in grads:
                assert not any(np.shares_memory(g, x) for x in inputs)


def test_propagation_refuses_features_that_are_not_a_matrix():
    # a 1-D feature vector would otherwise broadcast against the degrees
    a = np.full((3, 3), 0.5)
    for f in (nn.propagate, nn.propagate_adjoint):
        with pytest.raises(ValidationError, match="shape mismatch"):
            f(a, np.ones(3))


# ---------------------------------------------------------------------------
# the label-space layer against the dense adjacency and the oracle


def relative_error(actual, expected):
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


@pytest.mark.parametrize("name", LABEL_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_label_space_layer_matches_the_dense_path_and_the_oracle(name, seed):
    v, a = graph_case(name, seed)
    dense = np.asarray(a)
    w = hidden_weight(v, seed)
    forward = nn.propagate(a, v, w)
    assert relative_error(forward, nn.propagate(dense, v, w)) <= 1e-12
    assert relative_error(forward, oracle.naive_propagate(dense, v @ w)) <= 1e-12
    for label_record, dense_record in zip(records(v, a, seed), records(v, dense, seed)):
        for target in range(3):
            label_grad = nn.backward(label_record, target)[0]
            assert relative_error(label_grad, nn.backward(dense_record, target)[0]) <= 1e-12


@pytest.mark.parametrize("name", LABEL_CASES)
def test_held_label_sums_are_the_one_hot_times_the_features(name):
    v, a = graph_case(name, 5)
    one_hot = a._one_hot
    np.testing.assert_array_equal(one_hot.sum(axis=0), 1.0)
    assert np.shares_memory(a.features, v)
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
        nn.propagate(a, v, w)
        nn.propagate_adjoint(a, v)
        for record in records(v, a, 5):
            nn.backward(record, 1)
        assert "_label_sums" not in vars(a)


@pytest.mark.parametrize("name", LABEL_CASES)
def test_features_that_are_not_the_graphs_own_are_refused(name):
    v, a = graph_case(name, 6)
    w = hidden_weight(v, 6)
    other, _ = graph_case(name, 7)
    model = md.DgnModel.assemble(AblationMode.FULL, v.shape[1], 4, 3, 0.5, np.ones)
    for foreign in (v.copy(), v + 1.0, other, v[::-1], np.asfortranarray(v)):
        with pytest.raises(ValidationError, match="features it was built over"):
            nn.propagate(a, foreign)
        with pytest.raises(ValidationError, match="features it was built over"):
            nn.propagate(a, foreign, w)
        with pytest.raises(ValidationError, match="features it was built over"):
            md.forward_parts(model, foreign, a)
    # the graph's own features, through any equal view of them, are accepted
    nn.propagate(a, v.reshape(v.shape), w)

"""The graph layer's in-place forms keep their bytes and never alias.

``nn.propagate``, ``nn.propagate_adjoint``, ``LabelAdjacency @`` and
``nn.backward`` build their node-sized results in place.  Each is compared
byte for byte with the expression form it replaced, written out below, and
checked to leave its inputs untouched and return arrays of its own.
"""

import numpy as np
import pytest

from dgn import model as md
from dgn import nn
from dgn.errors import ValidationError
from dgn.model import AblationMode
from tests.test_oracle import factored_graph

# ---------------------------------------------------------------------------
# the expression forms, one new array per operation


def expr_label_matmul(a, v):
    k = a.omega.shape[0]
    one_hot = (a.inverse == np.arange(k)[:, None]).astype(np.float64)
    weights = a.omega @ one_hot.sum(axis=1)
    zero = weights == 0
    mixed = a.omega @ (one_hot @ v)
    rows = np.where(zero[:, None], v.mean(axis=0), mixed / np.where(zero, 1.0, weights)[:, None])
    return rows[a.inverse]


def expr_label_rmatmul(a, z):
    k = a.omega.shape[0]
    one_hot = (a.inverse == np.arange(k)[:, None]).astype(np.float64)
    weights = a.omega @ one_hot.sum(axis=1)
    zero = weights == 0
    sums = one_hot @ z
    scaled = np.where(zero[:, None], 0.0, sums / np.where(zero, 1.0, weights)[:, None])
    out = (a.omega @ scaled)[a.inverse]
    if zero.any():
        out += sums[zero].sum(axis=0) / a.semantics.size
    return out


def expr_matmul(a, v):
    return a @ v if isinstance(a, np.ndarray) else expr_label_matmul(a, v)


def expr_rmatmul(a, z):
    return a.T @ z if isinstance(a, np.ndarray) else expr_label_rmatmul(a, z)


def expr_propagate(a, v):
    degrees = a.sum(axis=1) + 1.0
    return (v + expr_matmul(a, v)) / degrees[:, None]


def expr_propagate_adjoint(a, y):
    z = y / (a.sum(axis=1) + 1.0)[:, None]
    return z + expr_rmatmul(a, z)


def expr_backward(record, target):
    delta_m = nn.softmax(record.main_logits)
    delta_m[target] -= 1.0
    n = record.features.shape[0]
    d_pooled = record.main_head.weight @ delta_m
    d_pre = (d_pooled / n)[None, :] * (record.hidden * (1.0 - record.hidden))
    d_fw = expr_propagate_adjoint(record.adjacency, d_pre)
    grads = [np.outer(record.pooled, delta_m), delta_m]
    if record.aux_logits is not None:
        delta_a = nn.softmax(record.aux_logits)
        delta_a[target] -= 1.0
        delta_a *= record.lam
        grads += [np.outer(record.aux_pooled, delta_a), delta_a]
        d_aux_pooled = record.aux_head.weight @ delta_a
        d_fw += (d_aux_pooled / n)[None, :] * (record.aux_hidden * (1.0 - record.aux_hidden))
    return [record.features.T @ d_fw, *grads]


# ---------------------------------------------------------------------------
# adjacencies: dense with arbitrary degrees, label space with and without
# zero-weight labels


def dense_case(rng):
    n, c = 7, 3
    # not row-stochastic, so the degrees are not 2 and every division rounds
    return rng.standard_normal((n, c)), rng.random((n, n)) * 3.0


def label_case(rng, zero_labels):
    omega = rng.random((5, 5))
    omega = (omega + omega.T) / 2
    labels = rng.integers(0, 5, size=(3, 4))
    if zero_labels:
        # ids 3 and 4 relate to nothing: their rows are uniform
        omega[3:, :] = omega[:, 3:] = 0.0
        labels.flat[0] = 3
    return factored_graph(labels, omega, rng, channels=3)


CASES = {
    "dense": dense_case,
    "label space": lambda rng: label_case(rng, zero_labels=False),
    "label space, zero-weight labels": lambda rng: label_case(rng, zero_labels=True),
}


def graph_case(name, seed):
    v, a = CASES[name](np.random.default_rng(seed))
    if name != "dense":
        assert a._labels[2].any() == ("zero" in name)
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


def adjacency_arrays(a):
    if isinstance(a, np.ndarray):
        return [a]
    return [a.semantics, a.inverse, a.omega, a.weights, *a._labels, a.prototype.omega]


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestSameBytes:
    def test_products(self, name, seed):
        v, a = graph_case(name, seed)
        assert (a @ v).tobytes() == expr_matmul(a, v).tobytes()
        assert (a.T @ v).tobytes() == expr_rmatmul(a, v).tobytes()

    def test_propagate_and_adjoint(self, name, seed):
        v, a = graph_case(name, seed)
        assert nn.propagate(a, v).tobytes() == expr_propagate(a, v).tobytes()
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
        inputs = [v, *adjacency_arrays(a)]
        before = [x.copy() for x in inputs]
        results = [a @ v, a @ v, a.T @ v, a.T @ v, nn.propagate(a, v), nn.propagate_adjoint(a, v)]
        for x, b in zip(inputs, before):
            assert x.tobytes() == b.tobytes()
        # two calls on the same (cached) adjacency give equal, separate arrays
        for first, second in (results[0:2], results[2:4]):
            assert first.tobytes() == second.tobytes()
            assert not np.shares_memory(first, second)
        for r in results:
            assert not any(np.shares_memory(r, x) for x in inputs)

    def test_backward(self, name):
        v, a = graph_case(name, 4)
        for record in records(v, a, 4):
            inputs = [v, record.hidden, *adjacency_arrays(a)]
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

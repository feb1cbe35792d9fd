"""The graph layer and its gradients at the shapes the benchmark times.

The oracle checks elsewhere run on a few nodes and channels.  These run one
generated instance at each of the two graph regimes of ``bench/workloads.py``:

* ``paper``: 196 nodes under 512 channels, so the graph holds no label sums
  and the backward forms ``M^T`` at node size;
* ``large-n``: 4096 nodes over 32 channels, so the graph holds its label
  sums ``S_V = P^T V`` and the backward folds the degree into the pooled
  gradient.

Each model has the bench's hidden width (the channel count) and its Xavier
initialization.  The gradient of the full loss is checked along random
unit directions against ``oracle.directional_gradient``, which costs four
forwards whatever the parameter count.
"""

import dataclasses
import functools

import numpy as np
import pytest

import dgn
from dgn import graph as gr
from dgn import model as md
from dgn import nn, oracle
from dgn.model import AblationMode
from bench.workloads import SHAPES
from tests.helpers import gradients, loss_and_record, model_of

REGIMES = ["paper", "large-n"]
# (mode, lam): train-eval-iodp, and full with the auxiliary loss on and off
CONFIGURATIONS = [
    (AblationMode.TRAIN_EVAL_IODP, 0.25),
    (AblationMode.FULL, 0.25),
    (AblationMode.FULL, 0.0),
]


@functools.cache
def bench_instance(name):
    """(graph, scene id, class count) of one instance at the bench shape ``name``.

    The prototype is built from one label map per class; the instance's
    feature map is drawn at the bench's channel count.
    """
    shape = SHAPES[name]
    spec = dataclasses.replace(shape.spec(seed=22), train_per_class=1, test_per_class=1, channels=1)
    corpus, _ = dgn.generate_synthetic_corpus(spec)
    proto = dgn.build_prototype(corpus, dgn.CooccurrenceMode.INDEPENDENT)
    inst = corpus.instances[-1]
    g = shape.cells
    values = np.random.default_rng(22).standard_normal((g, g, shape.channels)) * shape.noise
    graph = dgn.build_graph(dgn.FeatureMap(values), dgn.nn_resize(inst.label_map, g, g), proto)
    assert graph.holds_label_sums == (name == "large-n")
    return graph, inst.scene_id, shape.classes


def xavier_blocks(mode, lam, classes, graph):
    """The five parameter blocks of a model at the bench's hidden width, the channel count."""
    c = graph.features.shape[1]
    return md.init_model(mode, c, classes, md.TrainConfig(lam=lam, seed=22)).blocks()


@pytest.mark.parametrize("mode, lam", CONFIGURATIONS, ids=["train-eval-iodp", "full", "full-lam0"])
@pytest.mark.parametrize("name", REGIMES)
def test_gradients_match_directional_derivatives(name, mode, lam):
    graph, target, classes = bench_instance(name)
    params = xavier_blocks(mode, lam, classes, graph)
    model = model_of(mode, lam, classes, params)
    _, record = loss_and_record(model, graph, target)
    grads = gradients(model, record, target)
    # train-eval-iodp has no auxiliary gradient: its loss does not read that head
    grads = list(grads) + [np.zeros_like(p) for p in params[len(grads):]]

    def loss_of(p):
        return loss_and_record(model_of(mode, lam, classes, p), graph, target)[0]

    rng = np.random.default_rng(8)
    for _ in range(4):
        direction = [rng.standard_normal(p.shape) for p in params]
        norm = np.sqrt(sum(np.sum(d * d) for d in direction))
        direction = [d / norm for d in direction]
        analytic = sum(np.sum(g * d) for g, d in zip(grads, direction))
        numeric = oracle.directional_gradient(loss_of, params, direction)
        assert abs(analytic - numeric) <= 1e-6 * abs(numeric)


@pytest.mark.parametrize("name", REGIMES)
def test_propagation_is_adjoint_and_row_stochastic(name):
    graph, _, _ = bench_instance(name)
    # <M V, Y> = <V, M^T Y>, to rounding of the sums
    y = np.random.default_rng(9).standard_normal(graph.features.shape)
    v = graph.features.astype(np.float64)
    mv = nn.propagate(graph)
    lhs, rhs = np.sum(mv * y), np.sum(v * nn.propagate_adjoint(graph, y))
    assert abs(lhs - rhs) <= 1e-12 * np.sqrt(np.sum(mv * mv) * np.sum(y * y))
    # every row of A = P mix P^T sums to 1: each row of mix, weighted by the
    # label counts
    counts = np.bincount(graph.inverse)
    np.testing.assert_allclose(graph.mix @ counts, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode, lam", CONFIGURATIONS, ids=["train-eval-iodp", "full", "full-lam0"])
def test_held_label_sums_give_the_node_sized_gradients(mode, lam, monkeypatch):
    graph, target, classes = bench_instance("large-n")
    model = model_of(mode, lam, classes, xavier_blocks(mode, lam, classes, graph))
    held = gradients(model, loss_and_record(model, graph, target)[1], target)
    monkeypatch.setattr(gr.LabelAdjacency, "holds_label_sums", property(lambda a: False))
    node_sized = gradients(model, loss_and_record(model, graph, target)[1], target)
    assert len(held) == len(node_sized)
    for h, s in zip(held, node_sized):
        assert np.abs(h - s).max() <= 1e-10 * np.abs(s).max()

"""The graph layer and its gradients at the shapes the benchmark times.

The oracle checks elsewhere run on a few nodes and channels.  These run one
generated instance at each of the two graph regimes of ``bench/workloads.py``:

* ``paper``: 196 nodes under 512 channels, so the graph holds no label sums
  and the backward forms ``M^T`` at node size;
* ``large-n``: 4096 nodes over 32 channels, so the graph holds its label
  sums ``S_V = P^T V``, the backward folds the degree into the pooled
  gradient, and the layer runs in eight tiles of ``nn.TILE_ROWS`` nodes.

Each model has the bench's hidden width (the channel count) and its Xavier
initialization.  The gradient of the full loss is checked along random
unit directions against ``oracle.directional_gradient``, which costs four
forwards whatever the parameter count.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

import dgn
from dgn import graph as gr
from dgn import model as md
from dgn import nn, oracle
from dgn.model import AblationMode
from bench.workloads import SHAPES
from tests.helpers import eval_only_pooled, gradients, loss_and_record, model_of

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
    # desk's 49 nodes over 32 channels hold label sums too
    assert graph.holds_label_sums == (name != "paper")
    # large-n's layer runs in several node tiles, paper's and desk's in one
    assert (graph.inverse.size > nn.TILE_ROWS) == (name == "large-n")
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


def dense_propagate(dense, features):
    """``(V + A V) / (1 + A 1)``, the scalar-loop oracle's propagation as two numpy products."""
    v = np.asarray(features, dtype=np.float64)
    return (v + dense @ v) / (1.0 + dense.sum(axis=1))[:, None]


# the scalar-loop oracle costs n^2 Python steps per channel (about 10 s for
# one channel at 4096 nodes), so it checks the dense reference at desk and
# at paper's first channels, and the reference checks every channel of the
# pooling at all three shapes
ORACLE_CHANNELS = {"desk": 32, "paper": 8}


@pytest.mark.parametrize("name", ["desk", *REGIMES])
def test_eval_only_pooling_matches_the_oracle(name):
    graph, _, _ = bench_instance(name)
    pooled = eval_only_pooled(graph)
    # at 4096 nodes the dense adjacency is the graph's block blown up
    # (134 MB), which tests/test_oracle.py checks against the scalar-loop
    # adjacency
    dense = graph.mix[np.ix_(graph.inverse, graph.inverse)]
    propagated = dense_propagate(dense, graph.features)
    if name in ORACLE_CHANNELS:
        channels = slice(ORACLE_CHANNELS[name])
        looped = oracle.naive_propagate(dense, graph.features[:, channels])
        assert np.abs(propagated[:, channels] - looped).max() <= 1e-12 * np.abs(looped).max()
    del dense
    expected = nn.gap(propagated)
    assert np.abs(pooled - expected).max() <= 1e-12 * np.abs(expected).max()
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


@pytest.mark.parametrize("mode, lam", CONFIGURATIONS, ids=["train-eval-iodp", "full", "full-lam0"])
def test_backward_casts_no_node_sized_copy_of_v(mode, lam):
    graph, target, classes = bench_instance("large-n")
    model = model_of(mode, lam, classes, xavier_blocks(mode, lam, classes, graph))
    record = loss_and_record(model, graph, target)[1]
    sums = [np.zeros_like(g) for g in gradients(model, record, target)]
    nn.backward(model, record, target, sums)
    tracemalloc.start()
    try:
        nn.backward(model, record, target, sums)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, c = graph.features.shape
    # beside the record: y, and at any one time the largest of the one-hot
    # P^T that V^T A^T y is taken through, one node-row chunk of the aux
    # slope, and a tile's float64 columns of V with a chunk of the weight
    one_hot = graph.mix.shape[0] * n * 8
    tile = nn.TILE_ROWS * c * 8 + 2 * model.gc_weight.nbytes
    bound = record.hidden.nbytes + max(one_hot, nn.CHUNK_ENTRIES * 8, tile) + 128 * 1024
    assert peak < bound
    # a float64 copy of the whole V beside y would not fit
    assert record.hidden.nbytes + n * c * 8 > bound


@pytest.mark.parametrize("mode", [AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL], ids=["train-eval-iodp", "full"])
def test_forward_casts_no_node_sized_copy_of_v(mode):
    graph, _, classes = bench_instance("large-n")
    model = model_of(mode, 0.25, classes, xavier_blocks(mode, 0.25, classes, graph))
    md.forward_parts(model, graph)  # the graph's label sums are formed once
    tracemalloc.start()
    try:
        record = md.forward_parts(model, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, c = graph.features.shape
    # the propagated array, and in the full mode V W as the aux activations,
    # beside one tile's float64 cast of V and its product
    outputs = record.hidden.nbytes * (2 if mode is AblationMode.FULL else 1)
    bound = outputs + nn.TILE_ROWS * (c + model.gc_weight.shape[1]) * 8 + 128 * 1024
    assert peak < bound
    assert outputs + n * c * 8 > bound


def test_eval_only_forward_casts_one_tile_of_v():
    graph, _, _ = bench_instance("large-n")
    eval_only_pooled(graph)
    tracemalloc.start()
    try:
        eval_only_pooled(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, c = graph.features.shape
    # the n node weights beside one tile's float64 cast of V
    bound = n * 8 + nn.TILE_ROWS * c * 8 + 128 * 1024
    assert peak < bound
    assert n * c * 8 > bound


@pytest.mark.parametrize("layer", [nn.propagate, nn.feature_product], ids=["propagate", "feature_product"])
def test_layer_makes_its_output_and_tile_scratch(layer):
    # the full mode's V W is freed before its propagation is made, so only
    # the layer's own peak shows a whole cast of V beside its output
    graph, _, _ = bench_instance("large-n")
    n, c = graph.features.shape
    w = np.random.default_rng(23).standard_normal((c, c))
    layer(graph, w)  # the graph's label sums are formed once
    tracemalloc.start()
    try:
        out = layer(graph, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = out.nbytes + nn.TILE_ROWS * 2 * c * 8 + 64 * 1024
    assert peak < bound
    assert out.nbytes + n * c * 8 > bound

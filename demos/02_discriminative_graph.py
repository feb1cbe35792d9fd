#!/usr/bin/env python3
"""From a label map and feature map to a graph, and what propagation does.

Nodes are feature-map pixels; edge weights come from the prototype entry of
the two pixels' object ids.  After row normalization, one propagation step
averages each node with its relation-weighted neighborhood: nodes of inert
(common) objects mostly listen to discriminative ones, which concentrates
class evidence and averages noise away.

``build_graph`` returns the adjacency in label space (one prototype block over
the object ids present), holding the node features it propagates.
``extract_local_knowledge`` gathers the raw n x n affinity from the node ids,
shown here to look at; the dense adjacency it normalizes to is built by the
oracle's scalar loops, to check the label-space graph against.  The demo
exits 1 if a check fails.
"""

import numpy as np

import dgn
from dgn import nn, oracle

rng = np.random.default_rng(0)


def check(claim, holds):
    print(f"{claim}: {holds}")
    assert holds, claim


spec = dgn.SyntheticSpec(
    num_classes=3, vocab_size=10, grid_cells=5, train_per_class=40,
    test_per_class=5, channels=12, noise=4.0, seed=7,
)
train, _ = dgn.generate_synthetic_corpus(spec)
proto = dgn.build_prototype(train, dgn.CooccurrenceMode.INDEPENDENT)

inst = train.instances[0]
cells = dgn.nn_resize(inst.label_map, spec.grid_cells, spec.grid_cells)
adjacency = dgn.build_graph(inst.feature_map, cells, proto)
# node i is pixel (i mod width, i div width), of the features as of the labels;
# the graph holds the features and propagates them
features, semantics = dgn.graph.flatten(inst.feature_map, cells)

n = features.shape[0]
print(f"instance of class {inst.scene_id}: {n} nodes, vocab {spec.vocab_size}")
print("node object ids:", semantics.reshape(spec.grid_cells, spec.grid_cells))

disc = semantics < dgn.corpus.DISC_PER_CLASS * spec.num_classes
print(f"\n{disc.sum()} discriminative nodes, {n - disc.sum()} common nodes")
print("affinity row of a common node (attention concentrates on the",
      "discriminative columns):")
affinity = dgn.extract_local_knowledge(semantics, proto)
print(np.round(affinity[np.flatnonzero(~disc)[0]], 2).reshape(spec.grid_cells, spec.grid_cells))
dense = oracle.naive_adjacency(semantics, proto)
k = adjacency.mix.shape[0]
print(f"label-space block mix {k}x{k} (A = P mix P^T),",
      f"dense adjacency {dense.shape[0]}x{dense.shape[1]}")
check("every adjacency row sums to one", np.allclose(dense.sum(axis=1), 1.0))
check("the label-space block blows up to the dense adjacency",
      np.allclose(adjacency.mix[np.ix_(adjacency.inverse, adjacency.inverse)], dense, atol=1e-15, rtol=0))
mixed = nn.propagate(adjacency)
check("label-space propagation equals the scalar loop over the dense adjacency",
      np.allclose(mixed, oracle.naive_propagate(dense, features), atol=1e-12, rtol=0))

# propagation pulls class signal into the common nodes
signal_channels = np.arange(inst.scene_id * 3, inst.scene_id * 3 + 3)

before = features[~disc][:, signal_channels].mean()
after = mixed[~disc][:, signal_channels].mean()
print(f"\nmean class-channel response of common nodes: {before:+.3f} before,"
      f" {after:+.3f} after propagation")

pooled_before = features.mean(axis=0)
pooled_after = mixed.mean(axis=0)
print("pooled class-channel response:",
      f"{pooled_before[signal_channels].mean():+.3f} before,",
      f"{pooled_after[signal_channels].mean():+.3f} after")

# the graph layer is weight-first: D^-1 (A + I) (V W) equals (D^-1 (A + I) V) W,
# so a trained model propagates V W and never keeps the propagated V; the
# label-space adjacency mixes V W from the label sums P^T V it holds
w = rng.standard_normal((spec.channels, 4))
print()
check("weight-first layer equals propagate-first",
      np.allclose(nn.propagate(adjacency, w), mixed @ w, atol=1e-12, rtol=0))
# the plug-and-play mode pools through the adjoint: gap(M V) = (M^T 1/n)^T V
weights = nn.propagate_adjoint(adjacency, np.full((n, 1), 1.0 / n))[:, 0]
check("pooling through the adjoint equals pooling the propagation",
      np.allclose(weights @ features, pooled_after, atol=1e-12, rtol=0))

# forward_parts takes the graph alone and returns the activations of a
# train-eval-iodp model: its hidden layer and logits
model = dgn.init_model(dgn.AblationMode.TRAIN_EVAL_IODP, spec.channels, spec.num_classes,
                       dgn.TrainConfig(hidden_dim=4))
record = dgn.model.forward_parts(model, adjacency)
print("hidden layer", record.hidden.shape, "logits", np.round(record.main_logits, 3))

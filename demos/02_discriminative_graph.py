#!/usr/bin/env python3
"""From a label map and feature map to a graph, and what propagation does.

Nodes are feature-map pixels; edge weights come from the prototype entry of
the two pixels' object ids.  After row normalization, one propagation step
averages each node with its relation-weighted neighborhood: nodes of inert
(common) objects mostly listen to discriminative ones, which concentrates
class evidence and averages noise away.

``build_graph`` returns the adjacency in label space (one prototype block over
the object ids present); ``np.asarray`` builds the dense n x n matrix to look
at, and ``extract_local_knowledge`` the raw affinity.
"""

import numpy as np

import dgn
from dgn import nn

rng = np.random.default_rng(0)

spec = dgn.SyntheticSpec(
    num_classes=3, vocab_size=10, grid_cells=5, train_per_class=40,
    test_per_class=5, channels=12, noise=4.0, seed=7,
)
train, _ = dgn.generate_synthetic_corpus(spec)
proto = dgn.build_prototype(train, dgn.CooccurrenceMode.INDEPENDENT)

inst = train.instances[0]
cells = dgn.nn_resize(inst.label_map, spec.grid_cells, spec.grid_cells)
adjacency = dgn.build_graph(inst.feature_map, cells, proto)
# node i is pixel (i mod width, i div width), of the features as of the labels
features = inst.feature_map.values.reshape(-1, spec.channels)

n = features.shape[0]
print(f"instance of class {inst.scene_id}: {n} nodes, vocab {spec.vocab_size}")
print("node object ids:", adjacency.semantics.reshape(spec.grid_cells, spec.grid_cells))

disc = adjacency.semantics < spec.disc_per_class * spec.num_classes
print(f"\n{disc.sum()} discriminative nodes, {n - disc.sum()} common nodes")
print("affinity row of a common node (attention concentrates on the",
      "discriminative columns):")
common_row = dgn.extract_local_knowledge(adjacency.semantics, proto)[np.flatnonzero(~disc)[0]]
print(np.round(common_row, 2).reshape(spec.grid_cells, spec.grid_cells))
dense = np.asarray(adjacency)
print(f"label-space block {adjacency.omega.shape[0]}x{adjacency.omega.shape[1]},",
      f"dense adjacency {dense.shape[0]}x{dense.shape[1]}")
print("every adjacency row sums to one:", np.allclose(dense.sum(axis=1), 1.0))
print("label-space propagation equals the dense one:",
      np.allclose(nn.propagate(adjacency, features),
                  nn.propagate(dense, features), atol=1e-12, rtol=0))

# propagation pulls class signal into the common nodes
mixed = nn.propagate(adjacency, features)
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
# so a trained model propagates V W and never keeps the propagated V
w = rng.standard_normal((spec.channels, 4))
print("\nweight-first layer equals propagate-first:",
      np.allclose(nn.propagate(adjacency, features @ w), mixed @ w,
                  atol=1e-12, rtol=0))
# the plug-and-play mode pools through the adjoint: gap(M V) = (M^T 1/n)^T V
weights = nn.propagate_adjoint(adjacency, np.full((n, 1), 1.0 / n))[:, 0]
print("pooling through the adjoint equals pooling the propagation:",
      np.allclose(weights @ features, pooled_after, atol=1e-12, rtol=0))

# forward_parts takes the adjacency itself; a train-eval-iodp model's hidden layer
model = dgn.init_model(dgn.AblationMode.TRAIN_EVAL_IODP, spec.channels, spec.num_classes,
                       dgn.TrainConfig(hidden_dim=4))
logits, _, record = dgn.model.forward_parts(model, features, adjacency)
print("hidden layer", record.hidden.shape, "logits", np.round(logits, 3))

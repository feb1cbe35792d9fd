#!/usr/bin/env python3
"""Analytic gradients of the full model versus central finite differences.

The network is one graph-convolution layer feeding a pooled main head, plus
an auxiliary head on the shared-weight per-node path.  Both paths start from
the same product ``V W``, so the shared weight's gradient is
``V^T (M^T d_pre + d_aux)`` through the propagation's adjoint ``M^T``.  On a
dense adjacency ``M^T d_pre`` is formed at node size.  On the label-space
adjacency that ``build_graph`` returns every degree is 2, so with
``y = d_pre / 2`` the gradient is ``V^T (y + d_aux) + V^T A^T y``, and
``V^T A^T y = S_V^T (mix^T (P^T y))`` comes from the label sums
``S_V = P^T V`` the graph holds, where ``A = P mix P^T``; a label that
relates to nothing has the uniform row of ``mix``.  Every gradient below is hand-derived; the finite-difference
oracle knows nothing about the chain rule, it only evaluates the loss at
perturbed parameters.  The demo exits 1 if any deviation passes 1e-6.
"""

import sys

import numpy as np

import dgn
from dgn import model as md
from dgn import nn, oracle

TOLERANCE = 1e-6

rng = np.random.default_rng(42)
c, d, C, lam = 3, 4, 3, 0.25
target = 1

# a dense row-stochastic adjacency over 5 nodes
dense_features = rng.standard_normal((5, c))
dense = rng.random((5, 5))
dense /= dense.sum(axis=1, keepdims=True)

# a label-space graph over a 2x3 feature map; id 2 relates to no present id,
# so its label weight is 0 and its nodes take the uniform row
omega = np.array([[0.9, 0.3, 0.0], [0.3, 0.5, 0.0], [0.0, 0.0, 0.0]])
proto = dgn.Prototype(3, omega, dgn.CooccurrenceMode.INDEPENDENT, dgn.DispersionMetric.COEFF_VAR, True, C)
feature_map = dgn.FeatureMap(rng.standard_normal((2, 3, c)))
label_map = dgn.LabelMap(np.array([[0, 1, 2], [1, 0, 0]]), 3)
graph = dgn.build_graph(feature_map, label_map, proto)
graph_features = feature_map.values.reshape(6, c)

params = [
    rng.standard_normal((c, d)) * 0.5,   # shared hidden weight
    rng.standard_normal((d, C)) * 0.5,   # main head weight
    rng.standard_normal(C) * 0.1,        # main head bias
    rng.standard_normal((d, C)) * 0.5,   # aux head weight
    rng.standard_normal(C) * 0.1,        # aux head bias
]
names = ["shared weight", "main weight", "main bias", "aux weight", "aux bias"]


def model_of(p):
    return md.DgnModel(
        md.AblationMode.FULL, c, d, C, lam,
        nn.ClassifierParams(p[1], p[2]), gc_weight=p[0],
        aux_head=nn.ClassifierParams(p[3], p[4]),
    )


worst = 0.0
for title, features, adjacency in (
    ("dense adjacency, 5 nodes", dense_features, dense),
    ("label-space graph, 6 nodes, one zero-weight label", graph_features, graph),
):

    def loss_of(p):
        logits, aux_logits, _ = md.forward_parts(model_of(p), features, adjacency)
        return md.total_loss(nn.softmax_ce(logits, target), nn.softmax_ce(aux_logits, target), lam)

    print(f"{title}: loss at the starting point {loss_of(params):.6f}")
    _, _, record = md.forward_parts(model_of(params), features, adjacency)
    analytic = list(nn.backward(record, target))
    numeric = oracle.fd_gradient(loss_of, params)
    for name, a, f in zip(names, analytic, numeric):
        report = oracle.compare(a, f)
        worst = max(worst, report.max_abs_deviation)
        print(f"  {name:14s} max |analytic - numeric| = {report.max_abs_deviation:.3e}")

print("\nwith lam = 0 the auxiliary path contributes nothing:")
record.lam = 0.0
zeroed = nn.backward(record, target)
print("aux weight gradient is exactly zero:", not zeroed[names.index("aux weight")].any())

if worst > TOLERANCE:
    sys.exit(f"a gradient deviates by {worst:.3e}, more than {TOLERANCE:g}")

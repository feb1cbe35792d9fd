#!/usr/bin/env python3
"""Analytic gradients of the full model versus central finite differences.

The network is one graph-convolution layer feeding a pooled main head, plus
an auxiliary head on the shared-weight per-node linear path.  Both paths
start from the same product ``V W``, so the shared weight's gradient is one
product ``V^T (M^T d_pre + d_aux)`` through the propagation's adjoint
``M^T``.  Every gradient below is hand-derived; the finite-difference oracle knows nothing about the
chain rule, it only evaluates the loss at perturbed parameters.
"""

import numpy as np

from dgn import model as md
from dgn import nn, oracle

rng = np.random.default_rng(42)
n, c, d, C, lam = 5, 3, 4, 3, 0.25

features = rng.standard_normal((n, c))
adjacency = rng.random((n, n))
adjacency /= adjacency.sum(axis=1, keepdims=True)
target = 1

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


def loss_of(p):
    logits, aux_logits, _ = md.forward_parts(model_of(p), features, adjacency)
    return md.total_loss(nn.softmax_ce(logits, target), nn.softmax_ce(aux_logits, target), lam)


print(f"loss at the starting point: {loss_of(params):.6f}")

_, _, record = md.forward_parts(model_of(params), features, adjacency)
grads = nn.backward(record, target)
analytic = [grads.gc_weight, grads.main_weight, grads.main_bias, grads.aux_weight, grads.aux_bias]
numeric = oracle.fd_gradient(loss_of, params)

for name, a, f in zip(names, analytic, numeric):
    report = oracle.compare(a, f)
    print(f"{name:14s} max |analytic - numeric| = {report.max_abs_deviation:.3e}")

print("\nwith lam = 0 the auxiliary path contributes nothing:")
record.lam = 0.0
zeroed = nn.backward(record, target)
print("aux weight gradient is exactly zero:", not zeroed.aux_weight.any())

#!/usr/bin/env python3
"""Analytic gradients of the full model versus central finite differences.

The network is one graph-convolution layer feeding a pooled main head, plus
an auxiliary head on the shared-weight per-node path.  Both paths start from
the same product ``V W``, so the shared weight's gradient is
``V^T (M^T d_pre + d_aux)`` through the propagation's adjoint ``M^T``.  The
adjacency that ``build_graph`` returns is ``A = P mix P^T``, with every
degree 2, and a label that relates to nothing has the uniform row of
``mix``.  The demo checks both label-sum regimes:

* a graph with fewer channels than nodes holds the label sums
  ``S_V = P^T V``; with ``y = d_pre / 2`` the gradient is
  ``V^T (y + d_aux) + V^T A^T y``, and ``V^T A^T y = S_V^T (mix^T (P^T y))``;
* a graph as wide as its channels holds none, and forms
  ``M^T d_pre = z + (mix^T (P^T z))[inverse]``, ``z = d_pre / 2``, at node
  size.

Every gradient below is hand-derived; the finite-difference oracle knows
nothing about the chain rule, it only evaluates the loss at perturbed
parameters.  ``nn.backward`` returns the two head losses it
differentiated, which the demo checks against the loss it perturbs.  It
exits 1 if any deviation passes 1e-6, or if at ``lam = 0`` the auxiliary
path adds anything: no aux gradient, and the shared weight's gradient of
the main path alone.
"""

import dataclasses

import numpy as np

import dgn
from dgn import model as md
from dgn import nn, oracle

TOLERANCE = 1e-6

rng = np.random.default_rng(42)
c, d, C, lam = 3, 4, 3, 0.25
target = 1

# id 2 relates to no present id, so its label weight is 0 and its nodes take
# the uniform row
omega = np.array([[0.9, 0.3, 0.0], [0.3, 0.5, 0.0], [0.0, 0.0, 0.0]])
proto = dgn.Prototype(3, omega, dgn.CooccurrenceMode.INDEPENDENT, dgn.DispersionMetric.COEFF_VAR, True, C)


def graph_over(labels):
    """The graph over ``labels`` of a random feature map; it holds the node features."""
    feature_map = dgn.FeatureMap(rng.standard_normal((*labels.shape, c)))
    return dgn.build_graph(feature_map, dgn.LabelMap(labels, 3), proto)


# a 2x3 map holds the label sums of its 3 channels; a 1x3 map is as wide as
# its channels and holds none
held = graph_over(np.array([[0, 1, 2], [1, 0, 0]]))
wide = graph_over(np.array([[0, 1, 1]]))
assert held.holds_label_sums and not wide.holds_label_sums

params = [
    rng.standard_normal((c, d)) * 0.5,   # shared hidden weight
    rng.standard_normal((d, C)) * 0.5,   # main head weight
    rng.standard_normal(C) * 0.1,        # main head bias
    rng.standard_normal((d, C)) * 0.5,   # aux head weight
    rng.standard_normal(C) * 0.1,        # aux head bias
]
names = ["shared weight", "main weight", "main bias", "aux weight", "aux bias"]


def gradients(model, record):
    """One instance's two head losses, and its gradients: ``nn.backward`` adds them into sums of zeros."""
    sums = [np.zeros_like(p) for p in model.blocks()]
    losses = nn.backward(model, record, target, sums)
    return losses, sums


def model_of(p):
    return md.DgnModel(
        md.AblationMode.FULL, c, d, C, lam,
        nn.ClassifierParams(p[1], p[2]), gc_weight=p[0],
        aux_head=nn.ClassifierParams(p[3], p[4]),
    )


worst = 0.0
for title, adjacency in (
    ("6 nodes, one zero-weight label, label sums held", held),
    ("3 nodes as wide as its channels, no label sums", wide),
):

    def loss_of(p):
        record = md.forward_parts(model_of(p), adjacency)
        loss_main, _ = nn.cross_entropy(record.main_logits, target)
        loss_aux, _ = nn.cross_entropy(record.aux_logits, target)
        return md.total_loss(loss_main, loss_aux, lam)

    print(f"{title}: loss at the starting point {loss_of(params):.6f}")
    model = model_of(params)
    record = md.forward_parts(model, adjacency)
    losses, analytic = gradients(model, record)
    assert md.total_loss(*losses, lam) == loss_of(params), "nn.backward returned other losses"
    numeric = oracle.fd_gradient(loss_of, params)
    for name, a, f in zip(names, analytic, numeric):
        report = oracle.compare(a, f)
        worst = max(worst, report.max_abs_deviation)
        print(f"  {name:14s} max |analytic - numeric| = {report.max_abs_deviation:.3e}")

print("\nwith lam = 0 the auxiliary path contributes nothing:")
# the same forward record, differentiated for the model with lam 0, and the
# main path alone: the train-eval-iodp forward of the same weights
zeroed = gradients(dataclasses.replace(model, lam=0.0), record)[1]
exactly_zero = not zeroed[names.index("aux weight")].any()
print("aux weight gradient is exactly zero:", exactly_zero)
main_only = dataclasses.replace(model, mode=md.AblationMode.TRAIN_EVAL_IODP)
main_path = gradients(main_only, md.forward_parts(main_only, adjacency))[1]
same_shared = zeroed[0].tobytes() == main_path[0].tobytes()
print("shared weight gradient is the main path's:", same_shared)
assert exactly_zero, "with lam = 0 the aux weight gradient is not zero"
assert same_shared, "with lam = 0 the aux path changes the shared weight's gradient"
assert worst <= TOLERANCE, f"a gradient deviates by {worst:.3e}, more than {TOLERANCE:g}"

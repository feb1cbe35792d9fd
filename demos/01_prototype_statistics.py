#!/usr/bin/env python3
"""How object co-occurrence turns into a discriminative prototype.

A four-instance toy corpus with two scene classes and three object ids is
small enough to follow every number by hand: count presence, normalize the
per-class pair likelihoods into a posterior over classes, score its spread,
and take the square root.
"""

import numpy as np

import dgn
from dgn import prototype as pt

# class 0 scenes contain objects {0,1} and {0}; class 1 scenes {1,2} and {2}
instances = [
    dgn.Instance(0, dgn.LabelMap(np.array([[0, 1]]), 3)),
    dgn.Instance(0, dgn.LabelMap(np.array([[0]]), 3)),
    dgn.Instance(1, dgn.LabelMap(np.array([[1, 2]]), 3)),
    dgn.Instance(1, dgn.LabelMap(np.array([[2]]), 3)),
]
corpus = dgn.Corpus(2, 3, tuple(instances))

counts = pt.count(corpus)
print("instances per class:", counts.instances_per_class)
print("object presence counts per class:\n", counts.presence)
print("pair (0,1) seen together in class 0:", counts.pair_presence[0, 0, 1], "of 2 instances")


def entry(mode, metric, passivated, i, j):
    return dgn.build_prototype(corpus, mode, metric, passivated).omega[i, j]


cv = dgn.DispersionMetric.COEFF_VAR
print("\npair (0,1): the class posterior (classes sorted by it), its cv, then sqrt(cv)")
for mode in dgn.CooccurrenceMode:
    post = pt.class_posterior(counts, mode)[:, 0, 1]
    print(f"  {mode.value:15s} posterior={post} cv={entry(mode, cv, False, 0, 1):.3f}"
          f" sqrt(cv)={entry(mode, cv, True, 0, 1):.3f}")

print("\npair (1,1) occurs in both classes equally, so it carries no signal:")
mode = dgn.CooccurrenceMode.NON_INDEPENDENT
print("  posterior", pt.class_posterior(counts, mode)[:, 1, 1], "->",
      ", ".join(f"{m.value}={entry(mode, m, False, 1, 1)}" for m in dgn.DispersionMetric))

print("\npair (0,2) never co-occurs anywhere: no evidence, entry stays 0")
print("  posterior", pt.class_posterior(counts, mode)[:, 0, 2], "-> entry", entry(mode, cv, True, 0, 2))

for mode in dgn.CooccurrenceMode:
    proto = dgn.build_prototype(corpus, mode)
    print(f"\nfull prototype, {mode.value} mode:\n{proto.omega}")

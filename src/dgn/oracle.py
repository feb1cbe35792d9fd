"""Brute-force reference implementations used to cross-check the fast paths.

These share only the domain types with the modules they verify: counting is
a pixel scan into Python sets, statistics are scalar loops, propagation is a
scalar triple loop, and gradients come from central finite differences.
They are deliberately unoptimized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import Corpus
from .errors import ValidationError
from .prototype import CooccurrenceMode, DispersionMetric, Prototype

# central-difference step of fd_gradient
FD_STEP = 1e-6


@dataclass(frozen=True)
class OracleReport:
    """Worst-case deviation between an implementation and its reference."""

    max_abs_deviation: float
    max_rel_deviation: float
    worst_location: tuple[int, ...]


def compare(actual: np.ndarray, expected: np.ndarray) -> OracleReport:
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    if a.shape != e.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {e.shape}")
    diff = np.abs(a - e)
    scale = np.maximum(np.abs(a), np.abs(e))
    rel = np.where(scale > 0, diff / np.where(scale > 0, scale, 1.0), 0.0)
    loc = np.unravel_index(int(np.argmax(diff)), a.shape) if a.size else ()
    return OracleReport(float(diff.max(initial=0.0)), float(rel.max(initial=0.0)), tuple(loc))


def naive_prototype(
    corpus: Corpus,
    mode: CooccurrenceMode,
    metric: DispersionMetric = DispersionMetric.COEFF_VAR,
    passivated: bool = True,
) -> Prototype:
    """Pairwise discriminative correlations by direct nested loops."""
    if not corpus.instances:
        raise ValidationError("cannot count an empty corpus")
    C, L = corpus.num_classes, corpus.vocab_size
    per_class: list[list[set[int]]] = [[] for _ in range(C)]
    for inst in corpus.instances:
        seen: set[int] = set()
        grid = inst.label_map.labels
        for y in range(inst.label_map.height):
            for x in range(inst.label_map.width):
                seen.add(int(grid[y][x]))
        per_class[inst.scene_id].append(seen)
    for scene, sets in enumerate(per_class):
        if not sets:
            raise ValidationError(f"scene class {scene} has no instances")

    omega = [[0.0] * L for _ in range(L)]
    for i in range(L):
        for j in range(L):
            likelihood = []
            for scene in range(C):
                total = len(per_class[scene])
                if mode is CooccurrenceMode.NON_INDEPENDENT:
                    both = sum(1 for s in per_class[scene] if i in s and j in s)
                    likelihood.append(both / total)
                else:
                    has_i = sum(1 for s in per_class[scene] if i in s)
                    has_j = sum(1 for s in per_class[scene] if j in s)
                    likelihood.append(has_i * has_j / (total * total))
            evidence = sum(likelihood)
            if evidence == 0.0:
                continue
            post = sorted(p / evidence for p in likelihood)
            if metric is DispersionMetric.RANGE:
                theta = post[-1] - post[0]
            else:
                mean = sum(post) / C
                theta = math.sqrt(sum((p - mean) ** 2 for p in post) / C)
                if metric is DispersionMetric.COEFF_VAR:
                    theta *= C
            omega[i][j] = math.sqrt(theta) if passivated else theta
    return Prototype(L, np.array(omega, dtype=np.float64), mode, metric, passivated, C)


def naive_propagate(adjacency: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Self-loop propagation as a scalar triple loop."""
    a = np.asarray(adjacency, dtype=np.float64)
    v = np.asarray(features, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != v.shape[0]:
        raise ValidationError(f"shape mismatch: adjacency {a.shape}, features {v.shape}")
    n, c = v.shape
    out = np.zeros((n, c))
    for i in range(n):
        degree = 1.0 + sum(float(a[i][j]) for j in range(n))
        for k in range(c):
            mixed = float(v[i][k])
            for j in range(n):
                mixed += float(a[i][j]) * float(v[j][k])
            out[i][k] = mixed / degree
    return out


def fd_gradient(
    loss_fn: Callable[[list[np.ndarray]], float],
    params: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Central-difference gradient of ``loss_fn`` per parameter coordinate, step ``FD_STEP``."""
    grads = []
    for idx, p in enumerate(params):
        grad = np.zeros_like(p, dtype=np.float64)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            where = it.multi_index
            plus = [q.copy() for q in params]
            plus[idx][where] += FD_STEP
            minus = [q.copy() for q in params]
            minus[idx][where] -= FD_STEP
            f_plus, f_minus = loss_fn(plus), loss_fn(minus)
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError("loss is not finite at perturbed parameters")
            grad[where] = (f_plus - f_minus) / (2.0 * FD_STEP)
        grads.append(grad)
    return grads

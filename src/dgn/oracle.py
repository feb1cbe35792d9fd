"""Brute-force reference implementations used to cross-check the fast paths.

These share only the domain types with the modules they verify: counting is
a pixel scan into Python sets, statistics are scalar loops, the dense
adjacency is a gather and a row division in scalar loops, propagation is a
scalar triple loop, gradients come from five-point central differences,
training is those gradients fed to a scalar-loop AdamW, and evaluation is
the scalar-loop forward over the dense adjacency.  A directional derivative
checks a gradient of any size with four loss evaluations.  They are
deliberately unoptimized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import Corpus
from .errors import ValidationError
from .model import DECAY_FACTOR, AblationMode, TrainConfig
from .nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from .prototype import CooccurrenceMode, DispersionMetric, Prototype

# step of fd_gradient's five-point stencil: near eps ** (1/5), where its
# h^4 truncation error and its eps / h rounding error balance (~1e-13)
FD_STEP = 1e-3


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


def naive_adjacency(semantics: Sequence[int], prototype: Prototype) -> np.ndarray:
    """The dense row-stochastic adjacency over the node ids ``semantics``, in scalar loops.

    Entry (i, j) is the prototype entry of the ids of nodes i and j over its
    row's sum; a row whose sum is 0 is ``1/n`` throughout.
    """
    ids = [int(s) for s in np.asarray(semantics).reshape(-1)]
    if any(not 0 <= s < prototype.vocab_size for s in ids):
        raise ValidationError(f"object id out of range for prototype vocab {prototype.vocab_size}")
    n = len(ids)
    out = np.zeros((n, n))
    for i in range(n):
        row = [float(prototype.omega[ids[i]][ids[j]]) for j in range(n)]
        total = sum(row)
        out[i] = [1.0 / n if total == 0.0 else w / total for w in row]
    return out


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


def _five_point(loss_at: Callable[[float], float]) -> float:
    """``(8 (f(+h) - f(-h)) - (f(+2h) - f(-2h))) / 12h`` of ``f = loss_at``, ``h = FD_STEP``."""
    f = {}
    for shift in (-2, -1, 1, 2):
        f[shift] = loss_at(shift * FD_STEP)
        if not math.isfinite(f[shift]):
            raise FloatingPointError("loss is not finite at perturbed parameters")
    return (8.0 * (f[1] - f[-1]) - (f[2] - f[-2])) / (12.0 * FD_STEP)


def fd_gradient(
    loss_fn: Callable[[list[np.ndarray]], float],
    params: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Five-point central-difference gradient of ``loss_fn`` per parameter coordinate.

    ``(8 (f(+h) - f(-h)) - (f(+2h) - f(-2h))) / 12h`` with ``h = FD_STEP``:
    its error is about 1e-13 on the oracle's losses, where the rounding error
    of the plain ``(f(+h) - f(-h)) / 2h`` at ``h = 1e-6`` is about 1e-10.  AdamW divides each
    gradient entry by its own running scale, so an entry near ``ADAM_EPS``
    passes that error on to the step almost undamped.
    """
    grads = []
    for idx, p in enumerate(params):
        grad = np.zeros_like(p, dtype=np.float64)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            where = it.multi_index

            def loss_at(step: float) -> float:
                trial = [q.copy() for q in params]
                trial[idx][where] += step
                return loss_fn(trial)

            grad[where] = _five_point(loss_at)
        grads.append(grad)
    return grads


def directional_gradient(
    loss_fn: Callable[[list[np.ndarray]], float],
    params: Sequence[np.ndarray],
    direction: Sequence[np.ndarray],
) -> float:
    """The derivative of ``loss_fn`` along ``direction``, one block per parameter block.

    ``fd_gradient``'s five-point stencil along the line ``params + t
    direction``: four loss evaluations whatever the parameter count, to
    compare with ``sum(<gradient block, direction block>)``.  A direction
    of unit norm keeps the error near ``fd_gradient``'s.
    """
    return _five_point(lambda t: loss_fn([p + t * d for p, d in zip(params, direction)]))


def _affine(x: Sequence[float], weight: np.ndarray, bias: np.ndarray) -> list[float]:
    """``x @ weight + bias`` in scalar sums."""
    return [
        sum(float(x[j]) * float(weight[j][k]) for j in range(len(x))) + float(bias[k])
        for k in range(len(bias))
    ]


def _ce(logits: Sequence[float], target: int) -> float:
    """Cross-entropy of the softmax of ``logits`` against ``target``."""
    top = max(logits)
    return math.log(sum(math.exp(z - top) for z in logits)) - (logits[target] - top)


def _pooled_sigmoid(x: np.ndarray) -> list[float]:
    n, d = x.shape
    return [sum(1.0 / (1.0 + math.exp(-float(x[i][m]))) for i in range(n)) / n for m in range(d)]


def _naive_forward(
    params: Sequence[np.ndarray], features: np.ndarray, adjacency: np.ndarray | None, mode: AblationMode
) -> tuple[list[float], list[float] | None]:
    """One instance's main-head logits in ``mode``, in scalar loops, and in ``full`` the aux head's."""
    n, c = features.shape
    if mode in (AblationMode.BASELINE, AblationMode.EVAL_ONLY_IODP):
        x = features if mode is AblationMode.BASELINE else naive_propagate(adjacency, features)
        pooled = [sum(float(x[i][j]) for i in range(n)) / n for j in range(c)]
        return _affine(pooled, params[0], params[1]), None
    # V W, row by row, as an affine map with zero bias
    fw = np.array([_affine(features[i], params[0], [0.0] * params[0].shape[1]) for i in range(n)])
    logits = _affine(_pooled_sigmoid(naive_propagate(adjacency, fw)), params[1], params[2])
    aux = _affine(_pooled_sigmoid(fw), params[3], params[4]) if mode is AblationMode.FULL else None
    return logits, aux


def naive_evaluate(
    instances: Sequence[tuple[np.ndarray, np.ndarray | None, int]],
    params: Sequence[np.ndarray],
    mode: AblationMode,
) -> np.ndarray:
    """Reference for ``model.evaluate``'s scores: the (N, k) main-head logits.

    ``instances`` and ``params`` are as for :func:`naive_train`.
    """
    return np.array([_naive_forward(params, v, a, mode)[0] for v, a, _ in instances])


def naive_train(
    instances: Sequence[tuple[np.ndarray, np.ndarray | None, int]],
    params: Sequence[np.ndarray],
    config: TrainConfig,
    mode: AblationMode,
) -> list[np.ndarray]:
    """Reference for ``model.train``: the trained parameter blocks.

    ``instances`` are (node features V, dense adjacency or None, target);
    ``params`` are the initial blocks in checkpoint order.  Each batch of
    ``model.train``'s permutation stream is one AdamW step on the
    ``fd_gradient`` of the batch-mean loss, with the same learning-rate
    schedule.  The auxiliary head is stepped only in ``full`` mode with
    ``lam > 0``; the blocks not stepped come back unchanged.
    """
    params = [np.array(p, dtype=np.float64) for p in params]
    lam = config.lam if mode is AblationMode.FULL else 0.0
    stepped = 2 if mode is AblationMode.BASELINE else 5 if lam > 0 else 3
    m = [np.zeros_like(p) for p in params[:stepped]]
    v = [np.zeros_like(p) for p in params[:stepped]]
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[3])
    t = 0
    for epoch in range(1, config.epochs + 1):
        lr = config.lr * DECAY_FACTOR ** sum(1 for boundary in config.decay_epochs if epoch >= boundary)
        order = rng.permutation(len(instances))
        for start in range(0, len(order), config.batch_size):
            batch = [instances[i] for i in order[start : start + config.batch_size]]

            def batch_loss(trial: list[np.ndarray]) -> float:
                total = 0.0
                for features, adjacency, target in batch:
                    logits, aux = _naive_forward(trial + params[stepped:], features, adjacency, mode)
                    loss = _ce(logits, target)
                    total += loss if aux is None else loss + lam * _ce(aux, target)
                return total / len(batch)

            grads = fd_gradient(batch_loss, params[:stepped])
            t += 1
            for p, g, mp, vp in zip(params, grads, m, v):
                for where in np.ndindex(p.shape):
                    mp[where] = ADAM_BETA1 * mp[where] + (1.0 - ADAM_BETA1) * g[where]
                    vp[where] = ADAM_BETA2 * vp[where] + (1.0 - ADAM_BETA2) * g[where] ** 2
                    m_hat = mp[where] / (1.0 - ADAM_BETA1**t)
                    v_hat = vp[where] / (1.0 - ADAM_BETA2**t)
                    decayed = p[where] * (1.0 - lr * config.weight_decay)
                    p[where] = decayed - lr * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
    return params

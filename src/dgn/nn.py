"""Dense numeric core: propagation, pooling, heads, losses, gradients, Adam.

Everything runs in float64.  The network is small enough (one graph
convolution plus two affine heads) that hand-derived gradients are simpler
and more testable than an autodiff layer; the shared hidden weight receives
the sum of the main-path and auxiliary-path contributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as ``0.5 * (1 + tanh(x / 2))``, in one new array.

    It cannot overflow; below about -37 it returns exactly 0 where
    ``1 / (1 + e^-x)`` would give ``e^x``.
    """
    out = np.multiply(x, 0.5, dtype=np.float64)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def propagate(adjacency: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Self-loop-augmented, degree-normalized propagation.

    Adds the identity to the adjacency, then divides each row by its degree;
    for a row-stochastic adjacency every degree is 2, so each node returns
    the average of its own feature and its neighborhood mixture.  The
    adjacency is a dense array or a ``graph.LabelAdjacency``.
    """
    a = adjacency
    v = np.asarray(features, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != v.shape[0]:
        raise ValidationError(f"shape mismatch: adjacency {a.shape}, features {v.shape}")
    degrees = a.sum(axis=1) + 1.0
    return (v + a @ v) / degrees[:, None]


def propagate_adjoint(adjacency: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``M^T y`` for the map ``M = D^-1 (I + A)`` that ``propagate`` applies.

    With ``z = y / deg`` it is ``z + A^T z``; a ``graph.LabelAdjacency``
    supplies ``A^T`` in label space, as a dense array does through ``.T``.
    So ``<propagate(A, V), Y> = <V, propagate_adjoint(A, Y)>``.
    """
    a = adjacency
    y = np.asarray(y, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or y.ndim != 2 or a.shape[0] != y.shape[0]:
        raise ValidationError(f"shape mismatch: adjacency {a.shape}, gradient {y.shape}")
    z = y / (a.sum(axis=1) + 1.0)[:, None]
    return z + a.T @ z


def gap(x: np.ndarray) -> np.ndarray:
    """Global average pooling: columnwise mean over nodes."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError("gap expects a non-empty (n, d) matrix")
    return x.mean(axis=0)


@dataclass(eq=False)
class ClassifierParams:
    """Affine head: logits = x @ weight + bias."""

    weight: np.ndarray  # (in_dim, num_classes)
    bias: np.ndarray  # (num_classes,)


def linear(x: np.ndarray, params: ClassifierParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.weight.shape[0],):
        raise ValidationError(f"input shape {x.shape} does not match head {params.weight.shape}")
    return x @ params.weight + params.bias


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_ce(logits: np.ndarray, target: int) -> float:
    """Cross-entropy of softmax(logits) against a class index, max-subtracted."""
    z = np.asarray(logits, dtype=np.float64)
    if not 0 <= target < z.size:
        raise ValidationError(f"target {target} out of range for {z.size} classes")
    z = z - z.max()
    return float(np.log(np.exp(z).sum()) - z[target])


# ---------------------------------------------------------------------------
# forward record and analytic gradients


@dataclass(eq=False)
class ForwardRecord:
    """Everything the backward pass needs from one forward evaluation.

    ``adjacency`` and ``gc_weight`` are None for the plain pooled-feature
    path (no graph layer); the auxiliary fields are None when the auxiliary
    head is absent.
    """

    features: np.ndarray  # V, (n, c)
    pooled: np.ndarray  # input to the main head
    main_head: ClassifierParams
    main_logits: np.ndarray
    lam: float = 0.0
    adjacency: np.ndarray | None = None  # A, dense or a graph.LabelAdjacency
    gc_weight: np.ndarray | None = None  # shared hidden weight W
    hidden: np.ndarray | None = None  # sigmoid(propagate(A, V @ W))
    aux_hidden: np.ndarray | None = None  # per-node sigmoid(V @ W)
    aux_pooled: np.ndarray | None = None
    aux_head: ClassifierParams | None = None
    aux_logits: np.ndarray | None = None


@dataclass(eq=False)
class Gradients:
    gc_weight: np.ndarray | None
    main_weight: np.ndarray
    main_bias: np.ndarray
    aux_weight: np.ndarray | None
    aux_bias: np.ndarray | None

    def __iter__(self):
        """The present gradients, in the model's parameter block order."""
        blocks = (self.gc_weight, self.main_weight, self.main_bias, self.aux_weight, self.aux_bias)
        return (g for g in blocks if g is not None)


def backward(record: ForwardRecord, target: int) -> Gradients:
    """Exact gradients of loss_main + lam * loss_aux for every parameter.

    Both paths start from ``V @ W``, so the shared weight's gradient is one
    product ``V^T (M^T d_pre + d_aux_pre)``, with ``M^T`` from
    :func:`propagate_adjoint`.
    """
    delta_m = softmax(record.main_logits)
    delta_m[target] -= 1.0
    main_w_grad = np.outer(record.pooled, delta_m)
    main_b_grad = delta_m

    if record.gc_weight is None:
        return Gradients(None, main_w_grad, main_b_grad, None, None)

    n = record.features.shape[0]
    d_pooled = record.main_head.weight @ delta_m  # (d,)
    # GAP spreads the pooled gradient evenly; sigmoid' = s * (1 - s)
    d_pre = (d_pooled / n)[None, :] * (record.hidden * (1.0 - record.hidden))
    d_fw = propagate_adjoint(record.adjacency, d_pre)

    aux_w_grad = aux_b_grad = None
    if record.aux_logits is not None:
        delta_a = record.lam * (softmax(record.aux_logits) - _one_hot(target, record.aux_logits.size))
        aux_w_grad = np.outer(record.aux_pooled, delta_a)
        aux_b_grad = delta_a
        d_aux_pooled = record.aux_head.weight @ delta_a
        d_fw += (d_aux_pooled / n)[None, :] * (record.aux_hidden * (1.0 - record.aux_hidden))

    gc_grad = record.features.T @ d_fw
    return Gradients(gc_grad, main_w_grad, main_b_grad, aux_w_grad, aux_b_grad)


def _one_hot(index: int, size: int) -> np.ndarray:
    v = np.zeros(size)
    v[index] = 1.0
    return v


# ---------------------------------------------------------------------------
# optimizer and initialization


@dataclass(eq=False)
class AdamState:
    """Adam moments plus learning-rate and decoupled weight-decay settings."""

    lr: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float, weight_decay: float = 0.0) -> "AdamState":
        state = cls(lr=lr, weight_decay=weight_decay)
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        return state


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> list[np.ndarray]:
    """One Adam update with bias correction and decoupled weight decay.

    Decay multiplies parameters by (1 - lr * wd) before the moment update,
    so a zero-gradient step with decay is a pure shrink.  Updates ``params``
    and the moments in place, leaves ``grads`` alone and returns ``params``.
    Each update is ``p *= 1 - lr * wd; p -= lr * (m / bc1) / (sqrt(v / bc2)
    + eps)``, in that operation order.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValidationError("params/grads/state length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValidationError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        step = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += step
        np.multiply(g, 1.0 - state.beta2, out=step)
        step *= g
        v *= state.beta2
        v += step
        np.divide(v, bc2, out=step)
        np.sqrt(step, out=step)
        step += state.eps
        update = np.divide(m, bc1)
        update *= state.lr
        update /= step
        p *= 1.0 - state.lr * state.weight_decay
        p -= update
    return params


def xavier_init(rows: int, cols: int, seed) -> np.ndarray:
    """Uniform draw from +-sqrt(6 / (rows + cols)), deterministic per seed."""
    if rows < 1 or cols < 1:
        raise ValidationError("dimensions must be positive")
    bound = np.sqrt(6.0 / (rows + cols))
    return np.random.default_rng(seed).uniform(-bound, bound, size=(rows, cols))

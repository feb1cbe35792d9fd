"""Dense numeric core: propagation, pooling, heads, losses, gradients, Adam.

Everything runs in float64.  Node features arrive as the float32 arrays a
``corpus.FeatureMap`` holds and are cast to float64 at use, which is exact;
a training step casts them once and ``backward`` reuses the cast.  The
network is small enough (one graph convolution plus two affine heads) that
hand-derived gradients are simpler and more testable than an autodiff
layer; the shared hidden weight receives the sum of the main-path and
auxiliary-path contributions.
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


def propagate(
    adjacency: np.ndarray,
    features: np.ndarray,
    weight: np.ndarray | None = None,
    product: np.ndarray | None = None,
) -> np.ndarray:
    """Self-loop-augmented, degree-normalized propagation of ``V W``.

    Adds the identity to the adjacency, then divides each row by its degree;
    for a row-stochastic adjacency every degree is 2, so each node returns
    the average of its own feature and its neighborhood mixture.  ``weight``
    defaults to the identity; ``product`` is ``features @ weight`` when the
    caller holds it already.  A dense adjacency multiplies ``V W`` at node
    size.  A ``graph.LabelAdjacency`` mixes ``V W`` in label space
    (:meth:`~dgn.graph.LabelAdjacency.label_rows`), from the label sums it
    holds of its own features when it holds them, and refuses any other
    features, checked before ``V`` is cast to float64.
    """
    a = adjacency
    v = np.asarray(features)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or v.ndim != 2 or a.shape[0] != v.shape[0]:
        raise ValidationError(f"shape mismatch: adjacency {a.shape}, features {v.shape}")
    if not isinstance(a, np.ndarray):
        a.check_features(v)
    if weight is None:
        x = np.asarray(v, dtype=np.float64)
    else:
        x = np.asarray(v, dtype=np.float64) @ weight if product is None else product
    if isinstance(a, np.ndarray):
        degrees = a.sum(axis=1) + 1.0
        # one node-sized array, finished in place: (A X + X) / deg has the
        # bytes of (X + A X) / deg, since IEEE addition commutes
        out = a @ x
        out += x
        out /= degrees[:, None]
        return out
    out = a.label_rows(x, weight)[a.inverse]
    out += x
    out *= 0.5
    return out


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
    out = a.T @ z
    out += z
    return out


def gap(x: np.ndarray) -> np.ndarray:
    """Global average pooling: the column sums over nodes, one GEMV, divided by n.

    Summing first keeps the overflow of the column sums: features whose sum
    passes the float64 range pool to inf rather than to a finite mean.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError("gap expects a non-empty (n, d) matrix")
    return (np.ones(x.shape[0]) @ x) / x.shape[0]


@dataclass(eq=False)
class ClassifierParams:
    """Affine head: logits = x @ weight + bias."""

    weight: np.ndarray  # (in_dim, num_classes)
    bias: np.ndarray  # (num_classes,)


def linear(x: np.ndarray, params: ClassifierParams) -> np.ndarray:
    """``x @ weight + bias`` for one input vector or a (B, in_dim) block of rows.

    A block goes through numpy's stacked matmul as B one-row products, each
    the vector-matrix product of a single vector, so every row of the result
    has the bytes of its per-vector call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.weight.shape[0]:
        raise ValidationError(f"input shape {x.shape} does not match head {params.weight.shape}")
    if x.ndim == 1:
        return x @ params.weight + params.bias
    return (x[:, None, :] @ params.weight)[:, 0, :] + params.bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted; a (B, k) block row by row."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_ce(logits: np.ndarray, target: int | np.ndarray) -> float | np.ndarray:
    """Cross-entropy of softmax(logits) against a class index, max-subtracted.

    One (k,) logit vector and an int give a float; a (B, k) block and B
    targets give the (B,) per-row losses, each with the bytes of its
    per-row call.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 1:
        fits = 0 <= target < z.size
    else:
        t = np.asarray(target)
        fits = z.ndim == 2 and t.shape == z.shape[:1] and bool(((t >= 0) & (t < z.shape[1])).all())
    if not fits:
        raise ValidationError(f"targets {target} do not fit logits of shape {z.shape}")
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    if z.ndim == 1:
        return float(lse - z[target])
    return lse - z[np.arange(z.shape[0]), target]


# ---------------------------------------------------------------------------
# forward record and analytic gradients


@dataclass(eq=False)
class ForwardRecord:
    """Everything the backward pass needs from one forward evaluation.

    ``adjacency`` and ``gc_weight`` are None for the plain pooled-feature
    path (no graph layer); the auxiliary fields are None when the auxiliary
    head is absent.
    """

    features: np.ndarray  # V, (n, c); in graph modes its float64 cast, which backward reuses
    pooled: np.ndarray  # input to the main head
    main_head: ClassifierParams
    main_logits: np.ndarray
    lam: float = 0.0
    adjacency: np.ndarray | None = None  # A, dense or a graph.LabelAdjacency
    gc_weight: np.ndarray | None = None  # shared hidden weight W
    hidden: np.ndarray | None = None  # sigmoid(propagate(A, V, W))
    aux_hidden: np.ndarray | None = None  # per-node sigmoid(V @ W)
    aux_pooled: np.ndarray | None = None
    aux_head: ClassifierParams | None = None
    aux_logits: np.ndarray | None = None


def _sigmoid_grad(s: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """``d_out[None, :] * (s * (1 - s))`` in one new array, same bytes."""
    grad = 1.0 - s
    grad *= s
    grad *= d_out[None, :]
    return grad


def backward(record: ForwardRecord, target: int) -> list[np.ndarray]:
    """Exact gradients of loss_main + lam * loss_aux for every parameter.

    Returns them in ``DgnModel.blocks()`` order, skipping blocks the record
    does not hold: hidden weight, main weight and bias, aux weight and bias.

    Both paths start from ``V @ W``, so the shared weight's gradient is
    ``V^T (M^T d_pre + d_aux_pre)``, with ``M^T d_pre`` formed at node size
    by :func:`propagate_adjoint`.  A ``graph.LabelAdjacency`` that holds
    its label sums has every degree 2, so with the 2 folded into the
    pooled-gradient scale, ``y = s (1 - s) (W_head delta / 2n)`` and
    ``M^T d_pre = y + A^T y``; the gradient is then
    ``V^T (y + d_aux_pre) + V^T A^T y``, whose second term comes from the
    label sums (:meth:`~dgn.graph.LabelAdjacency.feature_adjoint`), with no
    node-sized gather.
    """
    delta_m = softmax(record.main_logits)
    delta_m[target] -= 1.0
    heads = [np.outer(record.pooled, delta_m), delta_m]
    if record.gc_weight is None:
        return heads

    n = record.features.shape[0]
    d_pooled = record.main_head.weight @ delta_m  # (d,)
    # GAP spreads the pooled gradient evenly; sigmoid' = s * (1 - s)
    a = record.adjacency
    if isinstance(a, np.ndarray) or not a.holds_label_sums:
        d_fw = propagate_adjoint(a, _sigmoid_grad(record.hidden, d_pooled / n))
        mixed = None
    else:
        d_fw = _sigmoid_grad(record.hidden, d_pooled / (2 * n))
        mixed = a.feature_adjoint(d_fw)

    if record.aux_logits is not None:
        delta_a = softmax(record.aux_logits)
        delta_a[target] -= 1.0
        delta_a *= record.lam
        heads += [np.outer(record.aux_pooled, delta_a), delta_a]
        d_aux_pooled = record.aux_head.weight @ delta_a
        d_fw += _sigmoid_grad(record.aux_hidden, d_aux_pooled / n)

    gc_grad = record.features.T @ d_fw
    if mixed is not None:
        gc_grad += mixed
    return [gc_grad, *heads]


# ---------------------------------------------------------------------------
# optimizer and initialization


# Adam's published constants (Kingma & Ba)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(eq=False)
class AdamState:
    """Adam moments plus learning-rate and decoupled weight-decay settings.

    The moment decays and epsilon are the fixed ``ADAM_BETA1``,
    ``ADAM_BETA2`` and ``ADAM_EPS``.
    """

    lr: float
    weight_decay: float = 0.0
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
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        step = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += step
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        step *= g
        v *= ADAM_BETA2
        v += step
        np.divide(v, bc2, out=step)
        np.sqrt(step, out=step)
        step += ADAM_EPS
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

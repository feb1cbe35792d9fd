"""Numeric core: propagation, pooling, heads, losses, gradients, Adam.

Everything runs in float64.  Node features arrive as the float32 arrays a
``corpus.FeatureMap`` holds and are cast to float64 at use, which is exact;
a training step casts them in ``forward_parts`` and again in ``backward``,
so no record holds a float64 copy of them between the two.  The
network is small enough (one graph convolution plus two affine heads) that
hand-derived gradients are simpler and more testable than an autodiff
layer; the shared hidden weight receives the sum of the main-path and
auxiliary-path contributions.  ``backward`` reads the parameters from the
model and the activations of one forward pass from its ``ForwardRecord``,
and adds each gradient into the batch sums that its caller owns as soon as
it is formed.  It and ``adam_step`` work through a weight, and the graph
layer's adjoint through its node rows, in row chunks of at most
``CHUNK_ENTRIES`` entries: a training step makes no temporary of a
weight's size, and the backward holds one node-sized array beside its
record.  The chunks are elementwise, so they keep every byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .graph import LabelAdjacency

if TYPE_CHECKING:
    from .model import DgnModel

# The shared weight's gradient, each Adam step and the backward's node-sized
# sums run in row chunks of at most this many entries (512 KiB of float64),
# so no temporary of a weight's or a node array's size is made.  At the
# paper's 512 x 512 weight that is 128 rows, which ran at parity with one
# full-size product; 64-row chunks cost about 3 % of an instance-step.  The
# baseline's 512 x 67 head is one chunk.
CHUNK_ENTRIES = 65536


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
    adjacency: LabelAdjacency,
    weight: np.ndarray | None = None,
    product: np.ndarray | None = None,
) -> np.ndarray:
    """Self-loop-augmented, degree-normalized propagation of ``V W``.

    Adds the identity to the row-stochastic adjacency ``A`` of a
    ``graph.LabelAdjacency``, so every degree is 2 and each node returns the
    average of its own feature and its neighborhood mixture,
    ``(V W + A V W) / 2``, with ``V`` the features the graph holds.
    ``weight`` defaults to the identity; ``product`` is ``V @ weight`` when
    the caller holds it already.  ``A V W`` is mixed in label space
    (:meth:`~dgn.graph.LabelAdjacency.label_rows`), from the graph's label
    sums when it holds them.  Any other adjacency is refused.
    """
    a = adjacency
    if not isinstance(a, LabelAdjacency):
        raise ValidationError(f"the adjacency must be a graph.LabelAdjacency, not {type(a).__name__}")
    if weight is None:
        x = np.asarray(a.features, dtype=np.float64)
    else:
        x = np.asarray(a.features, dtype=np.float64) @ weight if product is None else product
    out = a.label_rows(x, weight)[a.inverse]
    out += x
    out *= 0.5
    return out


def propagate_adjoint(adjacency: LabelAdjacency, y: np.ndarray) -> np.ndarray:
    """``M^T y`` for the map ``M = (I + A) / 2`` that ``propagate`` applies.

    With ``z = y / 2`` it is ``z + A^T z``, so ``<M V, Y> =
    <V, propagate_adjoint(A, Y)>``.  ``A^T z`` comes from label space
    (:meth:`~dgn.graph.LabelAdjacency.adjoint_rows`) and is added into
    ``z`` in node-row chunks, so ``z`` is the one node-sized array made.
    Any adjacency other than a ``graph.LabelAdjacency`` is refused.
    """
    a = adjacency
    if not isinstance(a, LabelAdjacency):
        raise ValidationError(f"the adjacency must be a graph.LabelAdjacency, not {type(a).__name__}")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != a.inverse.size:
        raise ValidationError(f"shape mismatch: {a.inverse.size} nodes, gradient {y.shape}")
    # every degree of a row-stochastic adjacency is 2; y * 0.5 has the bytes
    # of y / 2.0
    return _add_adjoint(a, y * 0.5)


def _row_chunks(shape: tuple[int, ...]) -> list[slice]:
    """Row slices over an array of ``shape``, each of at most ``CHUNK_ENTRIES`` entries or one row.

    An array without rows gets one empty slice.
    """
    step = max(1, CHUNK_ENTRIES // max(1, math.prod(shape[1:])))
    return [slice(start, start + step) for start in range(0, shape[0] or 1, step)]


def _add_adjoint(a: LabelAdjacency, z: np.ndarray) -> np.ndarray:
    """Add ``A^T z`` into ``z`` and return ``z``: ``M^T y`` for ``z = y / 2``.

    The k x d rows ``mix^T P^T z`` are formed from the whole of ``z`` first
    and then gathered to the nodes one row chunk at a time, so no node-sized
    gather is made.  ``z + A^T z`` has the bytes of ``A^T z + z``.
    """
    label_rows = a.adjoint_rows(z)
    for rows in _row_chunks(z.shape):
        z[rows] += label_rows[a.inverse[rows]]
    return z


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
    """The activations of one forward pass; ``backward`` reads the parameters from the model.

    ``adjacency`` is None in the baseline mode and ``hidden`` without a graph
    layer; the auxiliary fields are set in the full mode only.  The node
    features ``V`` are not kept: the graph holds them.
    """

    pooled: np.ndarray  # input to the main head
    main_logits: np.ndarray
    adjacency: LabelAdjacency | None = None  # A
    hidden: np.ndarray | None = None  # sigmoid(propagate(A, W))
    aux_hidden: np.ndarray | None = None  # per-node sigmoid(V @ W)
    aux_pooled: np.ndarray | None = None
    aux_logits: np.ndarray | None = None


def _sigmoid_grad(s: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """``d_out[None, :] * (s * (1 - s))`` in one new array, same bytes."""
    grad = 1.0 - s
    grad *= s
    grad *= d_out[None, :]
    return grad


def backward(model: DgnModel, record: ForwardRecord, target: int, sums: list[np.ndarray]) -> None:
    """Add one instance's exact gradients of loss_main + lam * loss_aux into ``sums``.

    ``record`` is ``model.forward_parts`` of ``model``, whose weights and
    ``lam`` are read.  ``sums`` are the batch's gradient sums in
    ``DgnModel.blocks()`` order, each of its block's shape: hidden weight
    (graph modes only), main weight and bias, aux weight and bias.  Each
    gradient is added into its sum as soon as it is formed.  Aux gradients
    are added only when the record ran the aux head and ``sums`` holds its
    blocks, so a list without them leaves out an untrained aux head.  Sums
    of zeros give one instance's gradients.

    Both paths start from ``V @ W``, so the shared weight's gradient is
    ``V^T (M^T d_pre + d_aux_pre)``.  GAP spreads the pooled gradient
    evenly and every degree is 2, so the degree is folded into the
    pooled-gradient scale, ``y = s (1 - s) (W_head delta / 2n)``, and
    ``M^T d_pre = y + A^T y``.  A graph without label sums adds ``A^T y``
    into ``y`` in node-row chunks.  A graph that holds them leaves ``y`` as
    it is and takes ``V^T A^T y`` from the label sums
    (:meth:`~dgn.graph.LabelAdjacency.feature_adjoint`), with no node-sized
    gather.  The full mode adds its aux slope ``d_aux_pre`` into ``y`` in
    the same row chunks.  ``V^T (...)`` is formed in row chunks of the
    weight, each from its own columns of ``V`` cast to float64, and added
    straight into the sum.  So beside the record the backward holds ``y``
    and one chunk, and no weight-sized array.
    """
    delta_m = softmax(record.main_logits)
    delta_m[target] -= 1.0
    head_sums = sums if model.gc_weight is None else sums[1:]
    head_sums[0] += np.outer(record.pooled, delta_m)
    head_sums[1] += delta_m
    if model.gc_weight is None:
        return

    a = record.adjacency
    n = a.inverse.size
    d_pooled = model.main_head.weight @ delta_m  # (d,)
    # sigmoid' = s * (1 - s); (x / n) * 0.5 has the bytes of x / (2n)
    y = _sigmoid_grad(record.hidden, d_pooled / (2 * n))
    mixed = a.feature_adjoint(y) if a.holds_label_sums else None
    if mixed is None:
        _add_adjoint(a, y)

    if record.aux_logits is not None:
        delta_a = softmax(record.aux_logits)
        delta_a[target] -= 1.0
        delta_a *= model.lam
        # a sum list without the aux blocks leaves out an untrained aux head
        if len(sums) == len(model.blocks()):
            head_sums[2] += np.outer(record.aux_pooled, delta_a)
            head_sums[3] += delta_a
        d_aux = (model.aux_head.weight @ delta_a) / n
        for rows in _row_chunks(y.shape):
            y[rows] += _sigmoid_grad(record.aux_hidden[rows], d_aux)

    gc_sum = sums[0]
    for rows in _row_chunks(gc_sum.shape):
        part = np.ascontiguousarray(a.features[:, rows], dtype=np.float64).T @ y
        if mixed is not None:
            part += mixed[rows]
        gc_sum[rows] += part
        del part  # the next chunk is not made beside this one


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
    weight_decay: float
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
    + eps)``, in that operation order.  A block is updated in row chunks of
    at most ``CHUNK_ENTRIES`` entries, through two chunk-sized scratch
    arrays, so the step makes no temporary of a large block's size.
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
        chunks = _row_chunks(p.shape)
        scratch = np.empty((2, *p[chunks[0]].shape))
        for rows in chunks:
            gr, mr, vr, pr = g[rows], m[rows], v[rows], p[rows]
            step, update = scratch[0, : len(pr)], scratch[1, : len(pr)]
            np.multiply(gr, 1.0 - ADAM_BETA1, out=step)
            mr *= ADAM_BETA1
            mr += step
            np.multiply(gr, 1.0 - ADAM_BETA2, out=step)
            step *= gr
            vr *= ADAM_BETA2
            vr += step
            np.divide(vr, bc2, out=step)
            np.sqrt(step, out=step)
            step += ADAM_EPS
            np.divide(mr, bc1, out=update)
            update *= state.lr
            update /= step
            pr *= 1.0 - state.lr * state.weight_decay
            pr -= update
    return params


def xavier_init(rows: int, cols: int, seed) -> np.ndarray:
    """Uniform draw from +-sqrt(6 / (rows + cols)), deterministic per seed."""
    if rows < 1 or cols < 1:
        raise ValidationError("dimensions must be positive")
    bound = np.sqrt(6.0 / (rows + cols))
    return np.random.default_rng(seed).uniform(-bound, bound, size=(rows, cols))

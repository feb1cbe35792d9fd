"""Numeric core: propagation, pooling, heads, losses, gradients, Adam.

Everything runs in float64.  Node features arrive as the float32 arrays a
``corpus.FeatureMap`` holds and are cast to float64 at use, which is exact.
The network is small enough (one graph convolution plus two affine heads)
that hand-derived gradients are simpler and more testable than an autodiff
layer; the shared hidden weight receives the sum of the main-path and
auxiliary-path contributions.  ``backward`` reads the parameters from the
model and the activations of one forward pass from its ``ForwardRecord``,
and adds each gradient into the batch sums that its caller owns as soon as
it is formed.

Every loop over node or weight rows runs in the row blocks of
``_row_chunks``: at most ``TILE_ROWS`` rows and ``CHUNK_ENTRIES`` entries
(or one row).  The graph layer reads ``V`` one tile of node rows at a
time, twice per training step (for ``V W`` and for ``V^T d``); numpy casts
each tile to float64 in a tile-sized temporary, and no record holds a
float64 copy of ``V``.  The one whole cast is the label sums ``S_V = P^T
V`` of a graph that holds them (``graph.LabelAdjacency``), made once per
graph: in a training graph's first step, and in each graph-mode eval
forward, whose graph is new (1 MiB at 4096 nodes and 32 channels).
A training step makes no temporary of a weight's size, and the backward
holds one node-sized array beside its record.  Each node-sized (n x d)
result is built in one array and finished in place, never in an input,
with the bytes of the expression its docstring gives.
``model.forward_parts`` runs its sigmoids in place, so a large-n forward
makes its output and, in the full mode, ``V W``, and no other node-sized
array: at 4096 nodes each is 1 MiB, which the C library returns to the
kernel when freed, so every temporary saved is a page-fault round trip
saved per step.

Row blocks of an elementwise update keep every byte.  A graph of at most
``TILE_ROWS`` nodes is one tile, with the bytes of whole-graph products.
A larger one sums the shared weight's gradient over its tiles, which
rounds differently from one product over all nodes, and its tiles of
``V W`` have the bytes of the whole product only where the BLAS computes a
block of rows as it computes the whole: this build's OpenBLAS does at the
bench's 4096 x 32 x 32 and at 576 x 600 x 600, not at 576 x 600 x 8.  So a
wide graph (at least as many channels as nodes) of more than ``TILE_ROWS``
nodes, which no bench shape has, may differ in the last bits from one
whole product.
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

# A row block holds at most this many entries (512 KiB of float64), so no
# temporary of a weight's or a node array's size is made.  At the paper's
# 512 x 512 weight that is 128 rows, which ran at parity with one full-size
# product; 64-row chunks cost about 3 % of an instance-step.  The
# baseline's 512 x 67 head is one block.
CHUNK_ENTRIES = 65536

# A row block holds at most this many rows: the graph layer forms V W and
# V^T d, and gathers its label rows, one tile of at most this many node rows
# at a time, so numpy's float64 casts of V and its gathers are of a tile's
# size, made and freed per tile.  A graph of at most this many nodes
# (the paper's 196, the desk's 49) is one tile, whose products are the
# whole-graph ones.  At 4096 nodes and 32 channels a tile's cast is 128 KiB
# where the whole cast is 1 MiB; 2048-row gathers, which the entry bound
# alone allows there, lift the forward's traced peak past a tile's.
TILE_ROWS = 512


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as ``0.5 * (1 + tanh(x / 2))``, in a new array or in ``out``.

    ``out`` may be ``x`` itself, which then holds the result.  It cannot
    overflow; below about -37 it returns exactly 0 where ``1 / (1 + e^-x)``
    would give ``e^x``.
    """
    out = np.multiply(x, 0.5, out=out, dtype=np.float64)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _row_chunks(shape: tuple[int, ...]) -> list[slice]:
    """Row slices over an array of ``shape``, in order, each of at most ``TILE_ROWS`` rows.

    Each also holds at most ``CHUNK_ENTRIES`` entries, unless it is one row.
    An array without rows gets one empty slice.
    """
    step = min(TILE_ROWS, max(1, CHUNK_ENTRIES // max(1, math.prod(shape[1:]))))
    return [slice(start, start + step) for start in range(0, shape[0] or 1, step)]


def feature_product(adjacency: LabelAdjacency, weight: np.ndarray | None = None) -> np.ndarray:
    """``V W`` for the graph's node features ``V``, as a new (n, d) float64 array.

    ``weight`` defaults to the identity: a float64 copy of ``V``.  Otherwise
    ``V W`` is formed one tile of ``TILE_ROWS`` node rows at a time, into
    the tile's rows of the output; numpy casts each tile of ``V`` to float64
    in a tile-sized temporary, so no float64 copy of the whole ``V`` is
    made.
    """
    v = adjacency.features
    if weight is None:
        return np.array(v, dtype=np.float64)
    out = np.empty((v.shape[0], weight.shape[1]))
    for tile in _row_chunks(v.shape[:1]):
        np.matmul(v[tile], weight, out=out[tile])
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
    the caller holds it already, and is left as it is.  ``A V W`` is mixed
    in label space (:meth:`~dgn.graph.LabelAdjacency.label_rows`).  Any
    other adjacency is refused.

    It is ``out = X; out += R[inverse]; out *= 0.5``: ``X = V W`` from
    ``feature_product`` or a copy of ``product``, and the label rows ``R =
    mix (P^T X)``, or ``mix (S_V W)`` where the graph holds its label sums
    ``S_V = P^T V``, added in node-row blocks (``_add_label_rows``).
    """
    a = adjacency
    if not isinstance(a, LabelAdjacency):
        raise ValidationError(f"the adjacency must be a graph.LabelAdjacency, not {type(a).__name__}")
    out = feature_product(a, weight) if product is None else np.array(product, dtype=np.float64)
    _add_label_rows(a, out, a.label_rows(out, weight))
    out *= 0.5
    return out


def propagate_adjoint(adjacency: LabelAdjacency, y: np.ndarray) -> np.ndarray:
    """``M^T y`` for the map ``M = (I + A) / 2`` that ``propagate`` applies.

    With ``z = y / 2`` it is ``z + A^T z``, so ``<M V, Y> =
    <V, propagate_adjoint(A, Y)>``.  ``A^T z`` comes from label space
    (:meth:`~dgn.graph.LabelAdjacency.adjoint_rows`) and is added into
    ``z`` in node-row blocks, so ``z`` is the one node-sized array made.
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
    z = y * 0.5
    return _add_label_rows(a, z, a.adjoint_rows(z))


def _add_label_rows(a: LabelAdjacency, z: np.ndarray, label_rows: np.ndarray) -> np.ndarray:
    """Add ``label_rows[inverse]`` into the (n, d) array ``z`` and return ``z``.

    ``label_rows`` are the k x d rows of one label each, ``A V W``'s or
    ``A^T z``'s.  They are gathered to the nodes one row block at a time,
    each block's gather a new array, so no node-sized gather is made.
    ``z + R[inverse]`` has the bytes of ``R[inverse] + z``.
    """
    for rows in _row_chunks(z.shape):
        z_rows = z[rows]
        z_rows += label_rows.take(a.inverse[rows], axis=0)
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
    """``d_out[None, :] * (s * (1 - s))``, in a new array, with that expression's bytes."""
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
    ``M^T d_pre = y + A^T y``.  ``y`` is ``g = 1 - s; g *= s; g *= d /
    (2n)``.  A graph without label sums adds ``A^T y`` into ``y`` in
    node-row blocks, without ``propagate_adjoint``'s halving pass.  A graph
    that holds them leaves ``y`` as it is and takes ``V^T A^T y`` from the
    label sums (:meth:`~dgn.graph.LabelAdjacency.feature_adjoint`), with no
    node-sized gather.  The full mode adds its aux slope ``d_aux_pre`` into
    ``y`` in the same blocks, each block's slope a new array.  Each row
    block of ``V^T (...)`` is the sum over the node tiles, in node order, of
    ``V_t[:, rows]^T y_t``, from a float64 copy of the tile's columns,
    added straight into the sum.
    """
    delta_m = softmax(record.main_logits)
    delta_m[target] -= 1.0
    head_sums = sums if model.gc_weight is None else sums[1:]
    head_sums[0] += np.outer(record.pooled, delta_m)
    head_sums[1] += delta_m
    if model.gc_weight is None:
        return

    a = record.adjacency
    v = a.features
    n = v.shape[0]
    d_pooled = model.main_head.weight @ delta_m  # (d,)
    # sigmoid' = s * (1 - s); (x / n) * 0.5 has the bytes of x / (2n)
    y = _sigmoid_grad(record.hidden, d_pooled / (2 * n))
    mixed = a.feature_adjoint(y) if a.holds_label_sums else None
    if mixed is None:
        _add_label_rows(a, y, a.adjoint_rows(y))

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
            y_rows = y[rows]
            y_rows += _sigmoid_grad(record.aux_hidden[rows], d_aux)

    gc_sum = sums[0]
    tiles = _row_chunks((n,))
    for rows in _row_chunks(gc_sum.shape):
        # cast first: numpy's mixed-dtype matmul of the float32 columns took
        # about 1.6 times as long over the tiles of a 4096 x 32 V
        part = v[tiles[0], rows].astype(np.float64).T @ y[tiles[0]]
        for tile in tiles[1:]:
            part += v[tile, rows].astype(np.float64).T @ y[tile]
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

"""Scene classifier assembly: ablation modes, training loop, evaluation.

Four modes cover the ablation grid:

* ``baseline``         -- pooled raw features into a single affine head.
* ``eval-only-iodp``   -- plug-and-play: degree-normalized graph propagation
                          (no weights, no activation) applied to the features
                          of a trained baseline at evaluation time.
* ``train-eval-iodp``  -- one trained graph-convolution layer, main head only.
* ``full``             -- graph layer plus an auxiliary head on the shared-
                          weight per-node path, active in training only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .corpus import Corpus, nn_resize
from .errors import ValidationError
from .graph import LabelAdjacency, build_graph
from .nn import (
    AdamState,
    ClassifierParams,
    ForwardRecord,
    _row_chunks,
    adam_step,
    backward,
    cross_entropy,
    feature_product,
    gap,
    linear,
    propagate,
    sigmoid,
    xavier_init,
)
from .prototype import Prototype

MODEL_MAGIC = b"DGNM"


class AblationMode(enum.Enum):
    BASELINE = "baseline"
    EVAL_ONLY_IODP = "eval-only-iodp"
    TRAIN_EVAL_IODP = "train-eval-iodp"
    FULL = "full"


# byte 1 is eval-only-iodp, an evaluation mode that no checkpoint holds
_MODE_BYTE = {AblationMode.BASELINE: 0, AblationMode.TRAIN_EVAL_IODP: 2, AblationMode.FULL: 3}
_BYTE_MODE = {v: k for k, v in _MODE_BYTE.items()}

# checkpoint mode -> the eval modes that can score it; its keys are the modes
# ``train`` writes
_EVAL_MODES = {
    AblationMode.BASELINE: (AblationMode.BASELINE, AblationMode.EVAL_ONLY_IODP),
    AblationMode.TRAIN_EVAL_IODP: (AblationMode.TRAIN_EVAL_IODP, AblationMode.FULL),
    AblationMode.FULL: (AblationMode.FULL, AblationMode.TRAIN_EVAL_IODP),
}


@dataclass(eq=False)
class DgnModel:
    """Trainable parameters plus the mode they were trained for.

    The hidden weight ``gc_weight`` is shared storage between the graph
    convolution and the auxiliary per-node linear path; the auxiliary head's
    own parameters are independent of the main head.
    """

    mode: AblationMode
    in_channels: int
    hidden_dim: int
    num_classes: int
    lam: float
    main_head: ClassifierParams
    gc_weight: np.ndarray | None = None
    aux_head: ClassifierParams | None = None

    @classmethod
    def assemble(cls, mode: AblationMode, c: int, d: int, k: int, lam: float, block) -> DgnModel:
        """The parameter layout: which blocks ``mode`` has and their shapes.

        For ``c`` input channels, hidden width ``d`` and ``k`` classes, the
        baseline has a (c, k) main head; graph modes have the shared (c, d)
        hidden weight plus (d, k) main and auxiliary heads.  ``block(shape)``
        supplies each block and is called in checkpoint order, the order of
        :meth:`blocks`.
        """
        if mode is AblationMode.BASELINE:
            return cls(mode, c, d, k, lam, ClassifierParams(block((c, k)), block((k,))))
        gc_weight = block((c, d))
        main_head = ClassifierParams(block((d, k)), block((k,)))
        aux_head = ClassifierParams(block((d, k)), block((k,)))
        return cls(mode, c, d, k, lam, main_head, gc_weight, aux_head)

    def blocks(self, aux: bool = True) -> list[np.ndarray]:
        """Every parameter block, in checkpoint order.

        The order is shared hidden weight, main weight, main bias, aux weight,
        aux bias, skipping blocks the model does not have, the order in
        which ``nn.backward`` adds gradients; ``aux=False`` leaves out the
        auxiliary head, as ``train`` does for a model whose ``lam`` is 0.
        """
        out = [] if self.gc_weight is None else [self.gc_weight]
        out += [self.main_head.weight, self.main_head.bias]
        if aux and self.aux_head is not None:
            out += [self.aux_head.weight, self.aux_head.bias]
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.blocks())


# the learning rate drops by this factor at each epoch in ``decay_epochs``
DECAY_FACTOR = 0.1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.001
    decay_epochs: tuple[int, ...] = (10, 15, 20)
    weight_decay: float = 1e-5
    lam: float = 0.25
    hidden_dim: int | None = None  # None: match the feature channel count
    seed: int = 304

    def validate(self) -> None:
        if not all(math.isfinite(x) for x in (self.lr, self.weight_decay, self.lam)):
            raise ValidationError("lr, weight_decay and lam must be finite")
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ValidationError("epochs, batch_size and lr must be positive")
        if self.lam < 0 or self.weight_decay < 0:
            raise ValidationError("lam and weight_decay must be >= 0")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValidationError("hidden_dim must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    """One epoch of training; the fields are the trace CSV's columns, in order."""

    epoch: int
    lr: float
    loss: float
    loss_main: float
    loss_aux: float
    train_accuracy: float


@dataclass(frozen=True, eq=False)
class EvalReport:
    accuracy: float
    per_class: np.ndarray
    count: int


def init_model(
    mode: AblationMode, in_channels: int, num_classes: int, config: TrainConfig
) -> DgnModel:
    """Deterministic Xavier initialization; weights per sub-seed, biases zero."""
    keys = np.random.SeedSequence(config.seed).spawn(3)
    lam = config.lam if mode is AblationMode.FULL else 0.0
    d = in_channels if mode is AblationMode.BASELINE or config.hidden_dim is None else config.hidden_dim
    model = DgnModel.assemble(mode, in_channels, d, num_classes, lam, np.zeros)
    model.main_head.weight = xavier_init(*model.main_head.weight.shape, keys[1])
    if model.gc_weight is not None:
        model.gc_weight = xavier_init(*model.gc_weight.shape, keys[0])
        model.aux_head.weight = xavier_init(*model.aux_head.weight.shape, keys[2])
    return model


def total_loss(loss_main: float, loss_aux: float, lam: float) -> float:
    return loss_main + lam * loss_aux


def forward_parts(
    model: DgnModel,
    x: np.ndarray | LabelAdjacency,
    mode: AblationMode | None = None,
) -> ForwardRecord:
    """Forward pass of one instance; its ``ForwardRecord`` holds the activations and logits.

    ``x`` is the node-feature matrix in the baseline mode, and in the graph
    modes the ``graph.LabelAdjacency`` that ``build_graph`` made, which
    holds the node features; the graph modes refuse anything else.  The
    graph layer is weight-first, ``(A + I) (V W) / 2`` with ``A V W`` mixed
    in label space, so the full mode's auxiliary path reuses the same
    ``V W``.  The eval-only mode has no weight, so its pooled propagation
    ``gap(M V)`` is the fixed map ``(u[inverse] @ V) / (2n)``, with one
    weight per label ``u = 1 + mix^T cnt`` from the label counts ``cnt``,
    since ``M^T 1 = (1 + A^T 1) / 2``.  The features may be a feature map's
    float32 array; the graph modes cast them to float64 one tile of node
    rows at a time, to form ``V W`` (``nn.feature_product``, on which
    ``nn.propagate`` builds) or the eval-only sum, and the record keeps no
    copy of them.  The sigmoids run in place: over the propagated array,
    and in the full mode over ``V W`` itself, which becomes the aux path's
    activations.
    """
    mode = mode or model.mode
    if mode is AblationMode.BASELINE:
        pooled = gap(x)
        logits = linear(pooled, model.main_head)
        return ForwardRecord(pooled, logits)
    if not isinstance(x, LabelAdjacency):
        raise ValidationError(
            f"mode {mode.value}: the input must be a graph.LabelAdjacency, not {type(x).__name__}"
        )
    if mode is AblationMode.EVAL_ONLY_IODP:
        n = x.inverse.size
        # row i of M^T 1 is (1 + (A^T 1)_i) / 2, and A^T 1 = (mix^T cnt)[inverse];
        # every label of the graph has a node, so the counts are k long
        weights = (1.0 + x.mix.T @ np.bincount(x.inverse))[x.inverse]
        tiles = _row_chunks((n,))
        pooled = weights[tiles[0]] @ x.features[tiles[0]]
        for tile in tiles[1:]:
            pooled += weights[tile] @ x.features[tile]
        pooled /= 2 * n
        logits = linear(pooled, model.main_head)
        return ForwardRecord(pooled, logits, adjacency=x)

    # only the full mode's aux path needs the whole V W beside the layer
    fw = feature_product(x, model.gc_weight) if mode is AblationMode.FULL else None
    hidden = propagate(x, model.gc_weight, fw)
    sigmoid(hidden, out=hidden)
    pooled = gap(hidden)
    logits = linear(pooled, model.main_head)
    record = ForwardRecord(pooled, logits, adjacency=x, hidden=hidden)
    if mode is AblationMode.FULL:
        record.aux_hidden = sigmoid(fw, out=fw)
        record.aux_pooled = gap(record.aux_hidden)
        record.aux_logits = linear(record.aux_pooled, model.aux_head)
    return record


# ---------------------------------------------------------------------------
# training and evaluation


def _prepared_inputs(
    corpus: Corpus, prototype: Prototype | None, needs_graph: bool
) -> list[tuple[np.ndarray | LabelAdjacency, int]]:
    """(forward input, scene id) per instance: node features, or their graph.

    A cached graph holds no k x n array: each of its products forms its
    one-hot ``P^T`` and frees it.
    """
    shape = corpus.feature_shape
    if shape is None:
        raise ValidationError("corpus carries no feature maps")
    h1, w1, c = shape
    out = []
    for inst in corpus.instances:
        if inst.feature_map is None:
            raise ValidationError("every instance needs a feature map")
        if needs_graph:
            resized = nn_resize(inst.label_map, w1, h1)
            x = build_graph(inst.feature_map, resized, prototype)
        else:
            x = inst.feature_map.values.reshape(h1 * w1, c)
        out.append((x, inst.scene_id))
    return out


def _check_graph_args(mode: AblationMode, corpus: Corpus, prototype: Prototype | None) -> None:
    if mode is not AblationMode.BASELINE:
        if prototype is None:
            raise ValidationError(f"mode {mode.value} requires a prototype")
        if prototype.vocab_size != corpus.vocab_size:
            raise ValidationError(
                f"prototype vocab {prototype.vocab_size} != corpus vocab {corpus.vocab_size}"
            )


def _baseline_batch(
    model: DgnModel, pooled: np.ndarray, targets: np.ndarray
) -> tuple[list[float], int, list[np.ndarray]]:
    """Losses, hits and summed gradients of a baseline batch of pooled vectors.

    ``pooled`` is the batch's (B, c) block.  The losses are per instance,
    and the summed gradients are one ``(c, B) @ (B, k)`` weight product and
    the column sum of the deltas ``softmax - onehot`` that
    ``nn.cross_entropy`` gives with the losses.
    """
    logits = linear(pooled, model.main_head)
    losses, delta = cross_entropy(logits, targets)
    hits = int((logits.argmax(axis=1) == targets).sum())
    return losses.tolist(), hits, [pooled.T @ delta, delta.sum(axis=0)]


def train(
    train_corpus: Corpus,
    prototype: Prototype | None,
    config: TrainConfig,
    mode: AblationMode = AblationMode.FULL,
) -> tuple[DgnModel, list[EpochStats]]:
    """Train a model of the given mode; deterministic under ``config.seed``.

    Each batch is one optimizer step on the mean of its per-instance
    losses.  The baseline pools every instance once, before the first
    epoch, since pooling carries no weight; a batch step is then one head
    forward and one gradient product over the batch's (B, c) block.  Graph
    modes run ``forward_parts`` per instance, and ``backward`` adds its
    gradients into the batch sums that the loop owns, so no instance makes
    a gradient array of a weight's size, and returns the instance's two
    head losses; ``adam_step`` then updates each
    block in row chunks.  The learning rate drops by ``DECAY_FACTOR`` at
    each epoch in ``decay_epochs``.
    """
    config.validate()
    if mode is AblationMode.EVAL_ONLY_IODP:
        raise ValidationError("eval-only-iodp is an evaluation mode; train a baseline instead")
    if not train_corpus.instances:
        raise ValidationError("cannot train on an empty corpus")
    _check_graph_args(mode, train_corpus, prototype)

    data = _prepared_inputs(train_corpus, prototype, mode is not AblationMode.BASELINE)
    c = train_corpus.feature_shape[2]
    model = init_model(mode, c, train_corpus.num_classes, config)
    # the auxiliary head is optimized only when its loss has weight
    params = model.blocks(aux=model.lam > 0)
    state = AdamState.for_params(params, config.lr, config.weight_decay)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[3])
    if mode is AblationMode.BASELINE:
        pooled = np.stack([gap(x) for x, _ in data])
        targets = np.array([target for _, target in data])

    trace: list[EpochStats] = []
    n_total = len(data)
    for epoch in range(1, config.epochs + 1):
        drops = sum(1 for boundary in config.decay_epochs if epoch >= boundary)
        state.lr = config.lr * DECAY_FACTOR**drops
        order = shuffle_rng.permutation(n_total)
        sums = {"loss": 0.0, "main": 0.0, "aux": 0.0}
        correct = 0
        for start in range(0, n_total, config.batch_size):
            batch = order[start : start + config.batch_size]
            batch_loss = 0.0
            if mode is AblationMode.BASELINE:
                losses, hits, grad_sums = _baseline_batch(model, pooled[batch], targets[batch])
                for loss in losses:
                    batch_loss += loss
                    sums["loss"] += loss
                    sums["main"] += loss
                correct += hits
            else:
                grad_sums = [np.zeros_like(p) for p in params]
                for idx in batch:
                    x, target = data[idx]
                    record = forward_parts(model, x, mode)
                    # adds into the sums in block order; an untrained aux head gets nothing
                    loss_main, loss_aux = backward(model, record, target, grad_sums)
                    loss = total_loss(loss_main, loss_aux, model.lam)
                    batch_loss += loss
                    sums["loss"] += loss
                    sums["main"] += loss_main
                    sums["aux"] += loss_aux
                    correct += int(np.argmax(record.main_logits) == target)
                    # free the activations now, not when the next forward rebinds
                    # the name: no forward_parts or adam_step runs beside them
                    del record
            if not np.isfinite(batch_loss):
                raise FloatingPointError(f"non-finite loss in epoch {epoch}")
            # the loop owns the sums, so their mean is taken in place
            for g in grad_sums:
                g /= batch.size
            adam_step(params, grad_sums, state)
        # the means of the loss, main and aux sums, in EpochStats' field order
        trace.append(EpochStats(epoch, state.lr, *(s / n_total for s in sums.values()), correct / n_total))
    return model, trace


def evaluate(
    model: DgnModel,
    corpus: Corpus,
    prototype: Prototype | None = None,
    mode: AblationMode | None = None,
) -> EvalReport:
    """Top-1 accuracy of the main head; argmax ties go to the lowest class."""
    mode = mode or model.mode
    if not corpus.instances:
        raise ValidationError("cannot evaluate an empty corpus")
    if mode not in _EVAL_MODES.get(model.mode, ()):
        raise ValidationError(f"a {model.mode.value} model cannot be evaluated in mode {mode.value}")
    if corpus.feature_shape is not None and corpus.feature_shape[2] != model.in_channels:
        raise ValidationError(
            f"corpus has {corpus.feature_shape[2]} feature channels, the model {model.in_channels}"
        )
    if corpus.num_classes != model.num_classes:
        raise ValidationError(
            f"corpus has {corpus.num_classes} classes, the model {model.num_classes}"
        )
    _check_graph_args(mode, corpus, prototype)
    # the auxiliary head is training-only: a full model is scored on its main
    # path, which is the train-eval-iodp forward, so the aux head never runs
    if mode is AblationMode.FULL:
        mode = AblationMode.TRAIN_EVAL_IODP
    totals = np.zeros(corpus.num_classes, dtype=np.int64)
    hits = np.zeros(corpus.num_classes, dtype=np.int64)
    data = _prepared_inputs(corpus, prototype, mode is not AblationMode.BASELINE)
    # finite weights, prototype and features can still overflow together;
    # such logits are refused rather than scored
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (x, target) in enumerate(data):
            logits = forward_parts(model, x, mode).main_logits
            if not np.isfinite(logits).all():
                raise ValidationError(f"instance {i}: non-finite logits; the inputs overflow")
            totals[target] += 1
            hits[target] += int(np.argmax(logits) == target)
    per_class = np.where(totals > 0, hits / np.maximum(totals, 1), 0.0)
    return EvalReport(float(hits.sum() / totals.sum()), per_class, int(totals.sum()))


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: DgnModel, path: str | Path) -> None:
    """Binary checkpoint: a header, then ``model.blocks()`` in order.

    Every block is row-major little-endian float64.
    """
    fileio.write_artifact(
        path,
        MODEL_MAGIC,
        fileio.pack_u8(_MODE_BYTE[model.mode]),
        fileio.pack_u32(model.in_channels, model.hidden_dim, model.num_classes),
        fileio.pack_f64(model.lam),
        *(p.astype("<f8").tobytes() for p in model.blocks()),
    )


def load_model(path: str | Path) -> DgnModel:
    """Read a checkpoint; the header and every parameter block are validated."""
    r = fileio.Reader(path, MODEL_MAGIC)
    mode_byte = r.u8()
    mode = _BYTE_MODE.get(mode_byte)
    if mode is None:
        raise ValidationError(f"{path}: mode byte {mode_byte} is not a trained model's mode")
    c, d, num_classes = r.u32(), r.u32(), r.u32()
    lam = r.f64()
    if min(c, d, num_classes) < 1:
        raise ValidationError(
            f"{path}: in_channels, hidden_dim and num_classes must be >= 1, "
            f"got {c}, {d}, {num_classes}"
        )
    if not (math.isfinite(lam) and lam >= 0):
        raise ValidationError(f"{path}: lambda must be finite and >= 0, got {lam!r}")

    def block(shape: tuple[int, ...]) -> np.ndarray:
        values = r.array("<f8", math.prod(shape)).reshape(shape)
        if not np.isfinite(values).all():
            raise ValidationError(f"{path}: non-finite value in a {shape} parameter block")
        return values

    model = DgnModel.assemble(mode, c, d, num_classes, lam, block)
    r.done()
    return model

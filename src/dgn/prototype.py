"""Inter-object discriminative prototype built from co-occurrence statistics.

For every pair of object ids the corpus yields per-class co-occurrence
likelihoods, a posterior over scene classes (uniform prior), and a dispersion
score of that posterior: pairs whose presence concentrates the posterior on
few classes are discriminative, pairs spread evenly are not.  An optional
square root flattens overly sharp contrasts.  The resulting symmetric
vocab_size x vocab_size matrix is the prototype.

Pairs come in three kinds: seen in no class (entry 0), seen in one class
(a one-hot posterior, so one constant entry), and seen in two or more
classes, the only pairs whose posterior is built.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .corpus import Corpus, presence_mask
from .errors import ValidationError

PROTOTYPE_MAGIC = b"DGNP"
# a build's largest array, 8-byte entries, is refused beyond this many entries
# (1 GiB) rather than allocated without bound: the C x L x L pair counts in
# NON_INDEPENDENT mode, omega (L x L) in INDEPENDENT mode
COUNT_MAX_ENTRIES = 2**27
# the prototype is built for as many rows at a time as a (C, rows, L) float64
# posterior of this many entries (1 MiB) holds, at least one row: the bound
# on one block's gathered posterior
POSTERIOR_BLOCK_ENTRIES = 2**17


class CooccurrenceMode(enum.Enum):
    """How the pair likelihood P(i, j | class) is estimated.

    NON_INDEPENDENT counts joint presence directly; INDEPENDENT multiplies
    the two marginal presence rates, a lower-variance estimate for small
    corpora.
    """

    NON_INDEPENDENT = "nonindependent"
    INDEPENDENT = "independent"


class DispersionMetric(enum.Enum):
    RANGE = "range"
    STD_DEV = "std"
    COEFF_VAR = "cv"


_MODE_BYTE = {CooccurrenceMode.NON_INDEPENDENT: 0, CooccurrenceMode.INDEPENDENT: 1}
_METRIC_BYTE = {DispersionMetric.RANGE: 0, DispersionMetric.STD_DEV: 1, DispersionMetric.COEFF_VAR: 2}
_BYTE_MODE = {v: k for k, v in _MODE_BYTE.items()}
_BYTE_METRIC = {v: k for k, v in _METRIC_BYTE.items()}


@dataclass(frozen=True, eq=False)
class CooccurrenceCounts:
    """Presence counts per scene class, and the per-instance presence they sum.

    ``presence[c, i]`` is the number of class-c instances containing i.
    ``pair_presence[c, i, j]``, the number containing both i and j, is built
    from ``present`` on first read and kept; its diagonal equals
    ``presence[c]``.  Only NON_INDEPENDENT posteriors read it, so an
    INDEPENDENT build holds no C x L x L array.
    """

    num_classes: int
    vocab_size: int
    instances_per_class: np.ndarray  # (C,) int64
    presence: np.ndarray  # (C, L) int64
    present: np.ndarray  # (N, L) bool, one row per corpus instance
    scene: np.ndarray  # (N,) int64, each instance's class

    @functools.cached_property
    def pair_presence(self) -> np.ndarray:
        """(C, L, L) int64: ``X_c^T X_c`` for each class's (instances, L) presence ``X_c``.

        The float64 product is exact, every sum being an integer below
        2**53.  Refused past ``COUNT_MAX_ENTRIES`` before it is allocated.
        """
        C, L = self.num_classes, self.vocab_size
        _refuse_past_limit(C, L, CooccurrenceMode.NON_INDEPENDENT)
        pair = np.empty((C, L, L), dtype=np.int64)
        for c in range(C):
            x = self.present[self.scene == c].astype(np.float64)
            pair[c] = x.T @ x
        return pair


@dataclass(frozen=True, eq=False)
class Prototype:
    """Symmetric matrix of discriminative correlation between object ids."""

    vocab_size: int
    omega: np.ndarray  # (L, L) float64, finite, non-negative, exactly symmetric
    mode: CooccurrenceMode
    metric: DispersionMetric
    passivated: bool
    num_classes: int

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=np.float64)
        L = self.vocab_size
        if omega.shape != (L, L):
            raise ValidationError(f"omega shape {omega.shape} does not match vocab_size={L}")
        if not np.isfinite(omega).all():
            raise ValidationError("omega contains non-finite values")
        if (omega < 0).any():
            raise ValidationError("omega entries must be non-negative")
        if not (omega == omega.T).all():
            raise ValidationError("omega must be exactly symmetric")
        if self.num_classes < 1:
            raise ValidationError("num_classes must be positive")
        object.__setattr__(self, "omega", omega)


def _refuse_past_limit(C: int, L: int, mode: CooccurrenceMode) -> None:
    """Refuse a build whose largest array would pass ``COUNT_MAX_ENTRIES``, before allocating it."""
    if mode is CooccurrenceMode.NON_INDEPENDENT:
        if C * L * L > COUNT_MAX_ENTRIES:
            raise ValidationError(
                f"C={C} classes and L={L} objects would need {C * L * L * 8} bytes per "
                f"C x L x L count array; iodp allows at most {COUNT_MAX_ENTRIES} entries"
            )
    elif L * L > COUNT_MAX_ENTRIES:
        raise ValidationError(
            f"L={L} objects would need {L * L * 8} bytes per L x L prototype; "
            f"iodp allows at most {COUNT_MAX_ENTRIES} entries"
        )


def count(corpus: Corpus) -> CooccurrenceCounts:
    """Tally per-class object presence at full resolution.

    Keeps the (N, L) presence matrix and the scene ids, from which
    ``pair_presence`` is built if it is read.
    """
    if not corpus.instances:
        raise ValidationError("cannot count an empty corpus")
    C, L = corpus.num_classes, corpus.vocab_size
    scene = np.fromiter((inst.scene_id for inst in corpus.instances), np.int64, len(corpus.instances))
    n_inst = np.bincount(scene, minlength=C)
    if (n_inst == 0).any():
        missing = int(np.flatnonzero(n_inst == 0)[0])
        raise ValidationError(f"scene class {missing} has no instances")
    present = np.stack([presence_mask(inst.label_map) for inst in corpus.instances])
    instance, obj = np.nonzero(present)
    presence = np.bincount(scene[instance] * L + obj, minlength=C * L).reshape(C, L)
    return CooccurrenceCounts(C, L, n_inst, presence, present, scene)


def class_posterior(
    counts: CooccurrenceCounts,
    mode: CooccurrenceMode,
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Class posterior of the object pairs ``(rows, cols)`` under a uniform prior, (C, *pairs).

    ``rows`` and ``cols`` are index arrays broadcast against each other; by
    default they are every pair, and the result is (C, L, L).  The pair
    likelihood per class is the joint presence rate (NON_INDEPENDENT) or
    the product of the two marginal rates (INDEPENDENT); with equal priors
    the posterior is that likelihood normalized over classes.  The
    likelihood is gathered C-contiguous and its class axis sorted, so every
    reduction over that axis runs class by class, and each pair's bytes do
    not depend on which other pairs are gathered with it nor on scene-id
    order, except that numpy sums a (C, 1) posterior pairwise.  Both
    likelihoods are symmetric in the pair, so the posterior of (j, i) has
    the bytes of (i, j).  A pair with no evidence in any class has
    posterior 0 in every class.
    """
    if rows is None:
        rows, cols = np.arange(counts.vocab_size)[:, None], np.arange(counts.vocab_size)[None, :]
    # one C-contiguous array, updated in place: the in-place forms give the
    # same bytes as fresh arrays
    n = counts.instances_per_class.astype(np.float64)
    if mode is CooccurrenceMode.NON_INDEPENDENT:
        lik = np.ascontiguousarray(counts.pair_presence[:, rows, cols], dtype=np.float64)
    else:
        marg = counts.presence.astype(np.float64)
        lik = np.take(marg, rows, axis=1) * np.take(marg, cols, axis=1)
        n = n * n
    lik /= n.reshape((-1,) + (1,) * (lik.ndim - 1))
    lik.sort(axis=0)
    evidence = lik.sum(axis=0)
    # a pair without evidence is 0 in every class already
    np.divide(lik, evidence, out=lik, where=evidence > 0)
    return lik


def _dispersion(post: np.ndarray, metric: DispersionMetric, passivated: bool) -> np.ndarray:
    """Each pair's dispersion of a sorted (C, P) posterior, (P,); overwrites ``post``.

    The range, population standard deviation or coefficient of variation
    (std over the mean 1/C), square-rooted when ``passivated``.
    """
    if metric is DispersionMetric.RANGE:
        theta = post[-1] - post[0]
    else:
        post -= post.mean(axis=0)
        np.square(post, out=post)
        theta = np.sqrt(post.mean(axis=0))
        if metric is DispersionMetric.COEFF_VAR:
            theta *= post.shape[0]
    if passivated:
        np.sqrt(theta, out=theta)
    return theta


def build_prototype(
    corpus: Corpus,
    mode: CooccurrenceMode,
    metric: DispersionMetric = DispersionMetric.COEFF_VAR,
    passivated: bool = True,
) -> Prototype:
    """Compute the full pairwise discriminative-correlation matrix.

    Each entry is the dispersion of the pair's class posterior, and there
    are three kinds of pair.  A pair with no evidence in any class is 0.  A
    pair seen in one class has the sorted posterior ``[0, ..., 0, 1]``, so
    its entry is one constant, computed once.  Only pairs seen in two or
    more classes have their posterior built, gathered into one (C, P)
    array per block.  The prototype is built one block of rows ``[s, e)``
    at a time over the columns ``[s, L)`` only: each block counts the
    classes with evidence for its pairs and writes its entries straight
    into ``omega``, and its columns left of ``s`` are copied from the rows
    above, which hold their mirror.  Every reduction runs over the class
    axis, so the bytes do not depend on the block size.  Refused past
    ``COUNT_MAX_ENTRIES`` before anything is counted.
    """
    _refuse_past_limit(corpus.num_classes, corpus.vocab_size, mode)
    counts = count(corpus)
    C, L = counts.num_classes, counts.vocab_size
    block = max(1, POSTERIOR_BLOCK_ENTRIES // (C * L))
    one_hot = np.zeros((C, 2))
    one_hot[-1] = 1.0
    one_class = _dispersion(one_hot, metric, passivated)[0]
    # 0/1 per class and object: its products count classes exactly
    seen = (counts.presence > 0).astype(np.float64)
    omega = np.empty((L, L))
    for start in range(0, L, block):
        stop = min(start + block, L)
        if mode is CooccurrenceMode.NON_INDEPENDENT:
            classes = np.count_nonzero(counts.pair_presence[:, start:stop, start:], axis=0)
        else:
            classes = seen[:, start:stop].T @ seen[:, start:]
        theta = omega[start:stop, start:]
        theta[...] = np.where(classes == 1, one_class, 0.0)
        i, j = np.nonzero(classes >= 2)
        if i.size:
            # never one pair wide: numpy sums a (C, 1) posterior pairwise,
            # not class by class, which would change the bytes
            reps = 2 if i.size == 1 else 1
            post = class_posterior(counts, mode, np.repeat(i, reps) + start, np.repeat(j, reps) + start)
            theta[i, j] = _dispersion(post, metric, passivated)[: i.size]
        omega[start:stop, :start] = omega[:start, start:stop].T
    return Prototype(L, omega, mode, metric, passivated, C)


def save_prototype(prototype: Prototype, path: str | Path) -> None:
    fileio.write_artifact(
        path,
        PROTOTYPE_MAGIC,
        fileio.pack_u32(prototype.vocab_size),
        fileio.pack_u8(_MODE_BYTE[prototype.mode]),
        fileio.pack_u8(_METRIC_BYTE[prototype.metric]),
        fileio.pack_u8(1 if prototype.passivated else 0),
        fileio.pack_u32(prototype.num_classes),
        prototype.omega.astype("<f8").tobytes(),
    )


def load_prototype(path: str | Path) -> Prototype:
    r = fileio.Reader(path, PROTOTYPE_MAGIC)
    vocab = r.u32()
    mode_byte, metric_byte, passivated = r.u8(), r.u8(), r.u8()
    if mode_byte not in _BYTE_MODE or metric_byte not in _BYTE_METRIC or passivated > 1:
        raise ValidationError(f"{path}: bad mode/metric/passivation byte")
    num_classes = r.u32()
    omega = r.array("<f8", vocab * vocab).reshape(vocab, vocab)
    r.done()
    return Prototype(
        vocab, omega, _BYTE_MODE[mode_byte], _BYTE_METRIC[metric_byte], bool(passivated), num_classes
    )

"""Inter-object discriminative prototype built from co-occurrence statistics.

For every pair of object ids the corpus yields per-class co-occurrence
likelihoods, a posterior over scene classes (uniform prior), and a dispersion
score of that posterior: pairs whose presence concentrates the posterior on
few classes are discriminative, pairs spread evenly are not.  An optional
square root flattens overly sharp contrasts.  The resulting symmetric
vocab_size x vocab_size matrix is the prototype.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .corpus import Corpus, presence_mask
from .errors import ValidationError

PROTOTYPE_MAGIC = b"DGNP"
# counting and the posterior hold C x L x L arrays of 8-byte entries; refuse
# beyond this many entries (1 GiB per array) rather than allocate without bound
COUNT_MAX_ENTRIES = 2**27


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
    """Presence counts per scene class.

    ``pair_presence[c, i, j]`` is the number of class-c instances containing
    both i and j; its diagonal equals ``presence[c]``.
    """

    num_classes: int
    vocab_size: int
    instances_per_class: np.ndarray  # (C,) int64
    presence: np.ndarray  # (C, L) int64
    pair_presence: np.ndarray  # (C, L, L) int64


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


def count(corpus: Corpus) -> CooccurrenceCounts:
    """Tally per-class object and object-pair presence at full resolution."""
    if not corpus.instances:
        raise ValidationError("cannot count an empty corpus")
    C, L = corpus.num_classes, corpus.vocab_size
    if C * L * L > COUNT_MAX_ENTRIES:
        raise ValidationError(
            f"C={C} classes and L={L} objects would need {C * L * L * 8} bytes per "
            f"C x L x L count array; iodp allows at most {COUNT_MAX_ENTRIES} entries"
        )
    n_inst = np.zeros(C, dtype=np.int64)
    pair = np.zeros((C, L, L), dtype=np.int64)
    for inst in corpus.instances:
        indicator = presence_mask(inst.label_map)
        n_inst[inst.scene_id] += 1
        pair[inst.scene_id] += np.outer(indicator, indicator)
    if (n_inst == 0).any():
        missing = int(np.flatnonzero(n_inst == 0)[0])
        raise ValidationError(f"scene class {missing} has no instances")
    presence = pair[:, np.arange(L), np.arange(L)].copy()
    return CooccurrenceCounts(C, L, n_inst, presence, pair)


def class_posterior(counts: CooccurrenceCounts, mode: CooccurrenceMode) -> np.ndarray:
    """Class posterior of every object pair under a uniform prior, (C, L, L).

    The pair likelihood per class is the joint presence rate
    (NON_INDEPENDENT) or the product of the two marginal rates (INDEPENDENT);
    with equal priors the posterior is that likelihood normalized over
    classes.  The class axis is sorted, so every reduction over it is
    bit-identical under scene-id permutation.  A pair with no evidence in
    any class has posterior 0 in every class.
    """
    # one (C, L, L) array, updated in place: fresh arrays of that size cost
    # page faults, and the in-place forms give the same bytes
    n = counts.instances_per_class.astype(np.float64)[:, None, None]
    if mode is CooccurrenceMode.NON_INDEPENDENT:
        lik = counts.pair_presence.astype(np.float64)
        lik /= n
    else:
        marg = counts.presence.astype(np.float64)
        lik = marg[:, :, None] * marg[:, None, :]
        lik /= n * n
    lik.sort(axis=0)
    evidence = lik.sum(axis=0)
    # a pair without evidence is 0 in every class already
    np.divide(lik, evidence[None, :, :], out=lik, where=(evidence > 0)[None, :, :])
    return lik


def build_prototype(
    corpus: Corpus,
    mode: CooccurrenceMode,
    metric: DispersionMetric = DispersionMetric.COEFF_VAR,
    passivated: bool = True,
) -> Prototype:
    """Compute the full pairwise discriminative-correlation matrix.

    Each entry is the range, population standard deviation or coefficient of
    variation (std over the mean 1/C) of the pair's class posterior,
    square-rooted when ``passivated``; 0 for a pair with no evidence.
    """
    counts = count(corpus)
    C = counts.num_classes
    post = class_posterior(counts, mode)
    if metric is DispersionMetric.RANGE:
        theta = post[-1] - post[0]
    else:
        deviation = post - post.mean(axis=0)
        np.square(deviation, out=deviation)
        theta = np.sqrt(np.mean(deviation, axis=0))
        if metric is DispersionMetric.COEFF_VAR:
            theta = theta * C
    omega = np.sqrt(theta) if passivated else theta
    return Prototype(counts.vocab_size, omega, mode, metric, passivated, C)


def save_prototype(prototype: Prototype, path: str | Path) -> None:
    payload = (
        PROTOTYPE_MAGIC
        + fileio.pack_u32(fileio.FORMAT_VERSION)
        + fileio.pack_u32(prototype.vocab_size)
        + fileio.pack_u8(_MODE_BYTE[prototype.mode])
        + fileio.pack_u8(_METRIC_BYTE[prototype.metric])
        + fileio.pack_u8(1 if prototype.passivated else 0)
        + fileio.pack_u32(prototype.num_classes)
        + prototype.omega.astype("<f8").tobytes()
    )
    fileio.atomic_write_bytes(path, payload)


def load_prototype(path: str | Path) -> Prototype:
    r = fileio.Reader(Path(path).read_bytes(), str(path))
    r.magic(PROTOTYPE_MAGIC)
    r.version()
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

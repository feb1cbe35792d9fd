"""Per-instance discriminative graph over pixel-level feature nodes.

Every feature-map pixel becomes a node; the edge weight between two nodes is
the prototype entry for their object ids, gathered from the label map at
feature resolution.  Row normalization turns the gathered weights into a
row-stochastic adjacency matrix.

That adjacency is ``A = D^-1 P omega P^T``, where ``P`` is the n x L one-hot
matrix of node object ids, so ``build_graph`` returns it in label space: over
the k <= min(n, L) ids present, ``A @ V`` costs O(nkc + k^2 c) time and
O(nc + k^2) memory instead of O(n^2 c) and O(n^2).  The dense n x n
affinity and adjacency are built only on request, through
``extract_local_knowledge`` and ``row_normalize``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .corpus import FeatureMap, LabelMap
from .errors import ValidationError
from .prototype import Prototype


@dataclass(frozen=True, eq=False)
class LabelAdjacency:
    """Row-stochastic n x n adjacency held as its k x k prototype block.

    With ``S`` the per-label sums of ``V`` and ``cnt`` the per-label node
    counts, row i of ``A @ V`` is ``(omega_k S)[l] / (omega_k cnt)[l]`` for
    the label l of node i.  A row whose affinity sums to 0 is uniform, as in
    ``row_normalize``, so it yields ``mean(V)``.  Every row sums to exactly 1.
    ``A.T @ Z`` is the transposed product, in label space too.
    ``np.asarray`` builds the dense matrix.
    """

    semantics: np.ndarray  # (n,) object id per node
    prototype: Prototype
    inverse: np.ndarray  # (n,) index of each node's id among the present ids
    omega: np.ndarray  # (k, k) prototype block of the present ids
    weights: np.ndarray  # (k,) label weights omega_k cnt, all finite

    ndim = 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.semantics.size, self.semantics.size)

    def sum(self, axis: int) -> np.ndarray:
        """Row sums (``axis=1``), all exactly 1."""
        if axis != 1:
            raise ValidationError("a label-space adjacency only sums its rows")
        return np.ones(self.semantics.size)

    @functools.cached_property
    def _labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k x n one-hot of node labels, label weights ``omega_k cnt``, zero mask).

        Computed once per graph, at its first product, and shared by
        ``A @ V`` and ``A.T @ Z``.
        """
        k = self.omega.shape[0]
        one_hot = (self.inverse == np.arange(k)[:, None]).astype(np.float64)
        return one_hot, self.weights, self.weights == 0

    @property
    def T(self) -> _TransposedLabelAdjacency:
        return _TransposedLabelAdjacency(self)

    def __matmul__(self, features: np.ndarray) -> np.ndarray:
        v = np.asarray(features, dtype=np.float64)
        one_hot, weights, zero = self._labels
        mixed = self.omega @ (one_hot @ v)
        if zero.any():
            rows = np.where(zero[:, None], v.mean(axis=0), mixed / np.where(zero, 1.0, weights)[:, None])
        else:
            rows = mixed / weights[:, None]
        return rows[self.inverse]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("the dense adjacency is always built anew")
        dense = row_normalize(extract_local_knowledge(self.semantics, self.prototype))
        return dense if dtype is None else dense.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class _TransposedLabelAdjacency:
    """``A.T`` of a :class:`LabelAdjacency`, for the product ``A.T @ Z``.

    With ``S`` the per-label sums of ``Z`` and ``w`` the label weights,
    ``A.T @ Z`` is ``(omega_k (S / w))[inv]`` plus ``1/n`` of the sums of
    the zero-weight labels, whose rows are uniform; ``omega_k`` is
    symmetric, so it serves as its own transpose.
    """

    adjacency: LabelAdjacency

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        a = self.adjacency
        one_hot, weights, zero = a._labels
        sums = one_hot @ np.asarray(z, dtype=np.float64)
        scaled = np.where(zero[:, None], 0.0, sums / np.where(zero, 1.0, weights)[:, None])
        out = (a.omega @ scaled)[a.inverse]
        if zero.any():
            out += sums[zero].sum(axis=0) / a.semantics.size
        return out


def flatten(feature_map: FeatureMap, resized_labels: LabelMap) -> tuple[np.ndarray, np.ndarray]:
    """(n x channels features, n object ids); node i is pixel (i mod width, i div width)."""
    if (resized_labels.height, resized_labels.width) != (feature_map.height, feature_map.width):
        raise ValidationError(
            f"label map {resized_labels.height}x{resized_labels.width} does not match "
            f"feature map {feature_map.height}x{feature_map.width}"
        )
    n = feature_map.height * feature_map.width
    features = feature_map.values.reshape(n, feature_map.channels)
    semantics = resized_labels.labels.reshape(n).astype(np.int64)
    return features, semantics


def _checked_ids(semantics: np.ndarray, prototype: Prototype) -> np.ndarray:
    sem = np.asarray(semantics, dtype=np.int64)
    if sem.size and (sem.min() < 0 or sem.max() >= prototype.vocab_size):
        raise ValidationError(
            f"object id out of range for prototype vocab {prototype.vocab_size}"
        )
    return sem


def extract_local_knowledge(semantics: np.ndarray, prototype: Prototype) -> np.ndarray:
    """Gather the prototype entry for every pair of node object ids."""
    sem = _checked_ids(semantics, prototype)
    return prototype.omega[sem[:, None], sem[None, :]]


def row_normalize(affinity: np.ndarray) -> np.ndarray:
    """Divide each row by its sum; an all-zero row becomes uniform.

    The uniform fallback keeps the result row-stochastic and degrades to
    plain feature averaging for nodes without discriminative relations.
    """
    a = np.asarray(affinity, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValidationError("affinity must be a non-empty 2-D matrix")
    if (a < 0).any():
        raise ValidationError("affinity entries must be non-negative")
    with np.errstate(over="ignore"):
        sums = a.sum(axis=1)
    if not np.isfinite(sums).all():
        raise ValidationError("affinity row sums must be finite; the entries are too large")
    zero = sums == 0
    out = np.empty_like(a)
    np.divide(a, np.where(zero, 1.0, sums)[:, None], out=out)
    out[zero] = 1.0 / a.shape[1]
    return out


def build_graph(
    feature_map: FeatureMap, resized_labels: LabelMap, prototype: Prototype
) -> LabelAdjacency:
    """The adjacency of the graph over the pixels of ``feature_map``.

    Refuses a prototype whose label weights ``omega_k cnt`` overflow.
    """
    sem = _checked_ids(flatten(feature_map, resized_labels)[1], prototype)
    present, inverse = np.unique(sem, return_inverse=True)
    omega = prototype.omega[np.ix_(present, present)]
    counts = np.bincount(inverse, minlength=present.size).astype(np.float64)
    with np.errstate(over="ignore"):
        weights = omega @ counts
    if not np.isfinite(weights).all():
        raise ValidationError("label weights omega_k cnt overflow: the prototype's entries are too large")
    return LabelAdjacency(sem, prototype, inverse, omega, weights)

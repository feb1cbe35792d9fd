"""Per-instance discriminative graph over pixel-level feature nodes.

Every feature-map pixel becomes a node; the edge weight between two nodes is
the prototype entry for their object ids, gathered from the label map at
feature resolution.  Row normalization turns the gathered weights into a
row-stochastic adjacency matrix.

That adjacency is ``A = P mix P^T``, where ``P`` is the n x k one-hot matrix
of the k <= min(n, L) object ids present and ``mix`` is the k x k prototype
block of those ids, row-normalized over the nodes, so ``build_graph``
returns it in label space: a graph-layer product with a c x d weight costs
O(nkd + k^2 d) time and O(nd + k^2) memory instead of O(n^2 d) and O(n^2).
With fewer channels than nodes, the graph holds the label sums ``P^T V``,
computed in O(nkc) by the first product that reads them, and a forward
product costs O(kcd + k^2 d) plus an O(nd) gather.  The dense n x n
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
    """Row-stochastic n x n adjacency ``P mix P^T`` held as its k x k block.

    With ``w`` the label weights ``omega_k cnt``, ``mix[l, m]`` is
    ``omega_k[l, m] / w[l]``; a label whose weight is 0 relates to nothing,
    and its row is ``1/n`` throughout, the uniform row of ``row_normalize``.
    The graph keeps the node features ``V`` it was built over (a view of the
    feature map's float32 values, cast to float64 in every product), so the
    graph layer runs in label space: ``A V W`` is ``(mix P^T V W)[inverse]``
    (:meth:`label_rows`).  When ``V`` has fewer channels than nodes, the
    first product that reads them caches the label sums ``S_V = P^T V``
    (:attr:`holds_label_sums`): ``P^T V W`` is then ``S_V W``, and
    ``V^T A^T y`` is ``S_V^T mix^T P^T y`` (:meth:`feature_adjoint`).
    ``A.T @ Z``, eval-only pooling's product, is ``(mix^T P^T Z)[inverse]``.
    ``np.asarray`` builds the dense matrix from the prototype, not from
    ``mix``.
    """

    semantics: np.ndarray  # (n,) object id per node
    prototype: Prototype
    inverse: np.ndarray  # (n,) index of each node's id among the present ids
    mix: np.ndarray  # (k, k) row-normalized prototype block of the present ids
    features: np.ndarray  # (n, c) node features V, a float32 view of the feature map

    ndim = 2
    # numpy operators return NotImplemented, so ``A @ V`` raises instead of
    # silently building the dense matrix through ``__array__``
    __array_ufunc__ = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.semantics.size, self.semantics.size)

    def sum(self, axis: int) -> np.ndarray:
        """Row sums (``axis=1``), all exactly 1."""
        if axis != 1:
            raise ValidationError("a label-space adjacency only sums its rows")
        return np.ones(self.semantics.size)

    @property
    def holds_label_sums(self) -> bool:
        """Whether the graph holds ``S_V``: only for fewer channels than nodes.

        Per product with a c x d weight, ``S_V W`` costs kcd where
        ``P^T (V W)`` costs knd, and the backward's ``S_V^T`` product costs
        kcd where the node-sized adjoint costs about nd.
        """
        n, c = self.features.shape
        return c < n

    @functools.cached_property
    def _one_hot(self) -> np.ndarray:
        """The k x n one-hot ``P^T`` of node labels, computed at the graph's first product."""
        k = self.mix.shape[0]
        return (self.inverse == np.arange(k)[:, None]).astype(np.float64)

    @functools.cached_property
    def _label_sums(self) -> np.ndarray:
        """The k x c label sums ``S_V = P^T V``, read only when :attr:`holds_label_sums`."""
        return self._one_hot @ self.features

    def check_features(self, features: np.ndarray) -> None:
        """Refuse node features other than the ones the graph was built over.

        ``features`` must be the held array itself (same memory, shape,
        strides and dtype), not a cast or a copy of it.
        """
        own = self.features
        if not (
            features.shape == own.shape
            and features.strides == own.strides
            and features.dtype == own.dtype
            and features.__array_interface__["data"][0] == own.__array_interface__["data"][0]
        ):
            raise ValidationError("a label-space graph propagates only the features it was built over")

    def label_rows(self, product: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
        """(k, d): row l is the row of ``A V W`` at every node of label l.

        ``product`` is ``V W`` for the graph's own ``V`` and ``weight`` is
        ``W``, the identity by default.  The label sums ``P^T V W`` are
        ``S_V W`` when the graph holds ``S_V``, else ``P^T product``.
        """
        if not self.holds_label_sums:
            return self.mix @ (self._one_hot @ product)
        sums = self._label_sums
        return self.mix @ (sums if weight is None else sums @ weight)

    def feature_adjoint(self, y: np.ndarray) -> np.ndarray:
        """``V^T A^T y`` = ``S_V^T mix^T P^T y``, (c, d), for a graph that holds ``S_V``."""
        return self._label_sums.T @ (self.mix.T @ (self._one_hot @ y))

    @property
    def T(self) -> _TransposedLabelAdjacency:
        return _TransposedLabelAdjacency(self)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("the dense adjacency is always built anew")
        dense = row_normalize(extract_local_knowledge(self.semantics, self.prototype))
        return dense if dtype is None else dense.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class _TransposedLabelAdjacency:
    """``A.T`` of a :class:`LabelAdjacency`, for the product ``A.T @ Z = (mix^T P^T Z)[inverse]``."""

    adjacency: LabelAdjacency

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        a = self.adjacency
        return (a.mix.T @ (a._one_hot @ z))[a.inverse]


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
    features, semantics = flatten(feature_map, resized_labels)
    sem = _checked_ids(semantics, prototype)
    present, inverse = np.unique(sem, return_inverse=True)
    mix = prototype.omega[np.ix_(present, present)]
    counts = np.bincount(inverse, minlength=present.size).astype(np.float64)
    with np.errstate(over="ignore"):
        weights = mix @ counts
    if not np.isfinite(weights).all():
        raise ValidationError("label weights omega_k cnt overflow: the prototype's entries are too large")
    # the row of a zero-weight label is all 0; it becomes the uniform row
    zero = weights == 0
    mix /= np.where(zero, 1.0, weights)[:, None]
    mix[zero] = 1.0 / sem.size
    return LabelAdjacency(sem, prototype, inverse, mix, features)

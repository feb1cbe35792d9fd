"""Per-instance discriminative graph over pixel-level feature nodes.

Every feature-map pixel becomes a node; the edge weight between two nodes is
the prototype entry for their object ids, gathered from the label map at
feature resolution.  Row normalization turns the gathered weights into a
row-stochastic adjacency matrix.

``build_graph`` returns that adjacency in label space, as a
:class:`LabelAdjacency` over the k <= min(n, L) object ids present and the
node features ``V``: a graph-layer product with a c x d weight costs
O(nkd + k^2 d) time and O(nd + kn) memory instead of O(n^2 d) and O(n^2),
and O(kcd + k^2 d) plus an O(nd) gather once the graph holds its label sums
``P^T V``.  The graph is the one input of the graph layer
(``nn.propagate``) and of the graph modes (``model.forward_parts``).
Between products a graph holds O(n) indices and O(k^2 + kc) floats; each
product forms the k x n one-hot ``P^T`` it multiplies by and frees it.
The dense n x n affinity and adjacency are built only on request, by
``extract_local_knowledge`` and ``row_normalize`` over the node ids, as
``dgn inspect`` builds them.
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

    ``P`` is the n x k one-hot matrix of the node ids among the k present.
    With ``w`` the label weights ``omega_k cnt``, ``mix[l, m]`` is
    ``omega_k[l, m] / w[l]``; a label whose weight is 0 relates to nothing,
    and its row is ``1/n`` throughout, the uniform row of ``row_normalize``.
    The graph keeps its node features ``V`` (a view of the feature map's
    float32 values, cast to float64 in every product), so the graph layer
    takes the graph alone and runs in label space: ``A V W`` is
    ``(mix P^T V W)[inverse]`` (:meth:`label_rows`).  When ``V`` has fewer
    channels than nodes, the first product that reads them caches the label
    sums ``S_V = P^T V`` (:attr:`holds_label_sums`): ``P^T V W`` is then
    ``S_V W``, and ``V^T A^T y`` is ``S_V^T mix^T P^T y``
    (:meth:`feature_adjoint`).
    ``A^T y``, which the backward of a graph without label sums reads, is
    ``(mix^T P^T y)[inverse]`` (:meth:`adjoint_rows`).  Eval-only pooling
    reads ``A^T 1 = (mix^T cnt)[inverse]`` for the label counts ``cnt``,
    with no one-hot and no label sums.  The graph is not an array: ``A @ V``
    and ``A + 1`` raise.

    A cached graph holds its indices, ``mix`` and label sums but no k x n
    array: every product forms its one-hot ``P^T`` and frees it.
    """

    inverse: np.ndarray  # (n,) index of each node's id among the present ids
    mix: np.ndarray  # (k, k) row-normalized prototype block of the present ids
    features: np.ndarray  # (n, c) node features V, a float32 view of the feature map

    @property
    def holds_label_sums(self) -> bool:
        """Whether the graph holds ``S_V``: only for fewer channels than nodes.

        Per product with a c x d weight, ``S_V W`` costs kcd where
        ``P^T (V W)`` costs knd, and the backward's ``S_V^T`` product costs
        kcd where the node-sized adjoint costs about nd.
        """
        n, c = self.features.shape
        return c < n

    def _one_hot(self) -> np.ndarray:
        """(k, n), a new array: row l of ``P^T`` is 1 at the nodes of label l."""
        n = self.inverse.size
        out = np.zeros((self.mix.shape[0], n))
        out[self.inverse, np.arange(n)] = 1.0
        return out

    @functools.cached_property
    def _label_sums(self) -> np.ndarray:
        """The k x c label sums ``S_V = P^T V``, read only when :attr:`holds_label_sums`."""
        return self._one_hot() @ self.features

    def label_rows(self, product: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """(k, d): row l is the row of ``A V W`` at every node of label l.

        ``product`` is ``V W`` for the graph's own ``V`` and ``weight`` is
        ``W``.  The label sums ``P^T V W`` are ``S_V W`` when the graph
        holds ``S_V``, else ``P^T product``.
        """
        if not self.holds_label_sums:
            return self.mix @ (self._one_hot() @ product)
        return self.mix @ (self._label_sums @ weight)

    def adjoint_rows(self, y: np.ndarray) -> np.ndarray:
        """(k, d): ``mix^T P^T y``, row l of ``A^T y`` at every node of label l."""
        return self.mix.T @ (self._one_hot() @ y)

    def feature_adjoint(self, y: np.ndarray) -> np.ndarray:
        """``V^T A^T y`` = ``S_V^T mix^T P^T y``, (c, d), for a graph that holds ``S_V``."""
        return self._label_sums.T @ self.adjoint_rows(y)


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


def _unique_ids(sem: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(sem, return_inverse=True, return_counts=True)`` of checked ids, without its sort.

    The ids are non-negative, so one count per id finds the present ones,
    their counts and, by a running count of the present, each node's index
    among them.
    """
    occurrences = np.bincount(sem)
    present = np.flatnonzero(occurrences)
    return present, (np.cumsum(occurrences > 0) - 1)[sem], occurrences[present]


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
    feature_map: FeatureMap,
    resized_labels: LabelMap,
    prototype: Prototype,
) -> LabelAdjacency:
    """The adjacency of the graph over the pixels of ``feature_map``.

    Refuses a prototype whose label weights ``omega_k cnt`` overflow.
    """
    features, semantics = flatten(feature_map, resized_labels)
    sem = _checked_ids(semantics, prototype)
    present, inverse, counts = _unique_ids(sem)
    mix = prototype.omega[np.ix_(present, present)]
    counts = counts.astype(np.float64)
    with np.errstate(over="ignore"):
        weights = mix @ counts
    if not np.isfinite(weights).all():
        raise ValidationError("label weights omega_k cnt overflow: the prototype's entries are too large")
    # the row of a zero-weight label is all 0; it becomes the uniform row
    zero = weights == 0
    mix /= np.where(zero, 1.0, weights)[:, None]
    mix[zero] = 1.0 / sem.size
    return LabelAdjacency(inverse, mix, features)

"""Graph construction from point clouds.

k-nearest-neighbour graphs with inverse-distance weights, plus the weight
normalization that keeps regularization parameters comparable across graphs
of different scale, on the sparse :class:`Graph` arrays: no N x N array.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateDistanceError, InvalidGraphError, NoEdgesError
from .graphs import Graph

# Two points closer than this are treated as coincident: an inverse-distance
# weight would blow up, so we refuse instead of silently clipping.
MIN_NEIGHBOR_DISTANCE = 1e-12
# Rows of the distance matrix held at once while picking neighbours.
KNN_BLOCK_ROWS = 128


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between every row of ``a`` and every row of ``b``.

    Squares are summed in place one coordinate at a time, as numpy sums a
    short last axis, so the bits match ``sqrt(sum(diff**2, axis=2))`` below
    8 coordinates; from 8 on numpy sums pairwise and they may differ.
    """
    sq = np.zeros((a.shape[0], b.shape[0]))
    for c in range(a.shape[1]):
        diff = a[:, c, None] - b[None, :, c]
        sq += np.multiply(diff, diff, out=diff)
    return np.sqrt(sq, out=sq)


def knn_graph(
    points: np.ndarray,
    k: int,
    weighted: bool = True,
    values: np.ndarray | None = None,
) -> Graph:
    """Symmetric k-nearest-neighbour graph over rows of ``points``.

    Each point is connected to its ``k`` nearest neighbours by Euclidean
    distance, and the directed neighbour sets are merged by union, so a node
    can end up with more than ``k`` edges.  Distance ties are broken toward
    the lower point index.  Weights are ``1 / distance`` when ``weighted``,
    else 1.  By default the weight distance is the coordinate distance;
    passing ``values`` (a per-node vector or scalar array) switches the
    weight formula to distances between signal values while neighbour
    selection still uses the coordinates.  Raises
    :class:`DegenerateDistanceError` if a weight distance of a selected pair
    falls below ``MIN_NEIGHBOR_DISTANCE``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InvalidGraphError(f"points must be a 2-d array, got shape {points.shape}")
    n = points.shape[0]
    if n < 2:
        raise InvalidGraphError("need at least 2 points")
    if not (1 <= k <= n - 1):
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if not np.all(np.isfinite(points)):
        raise InvalidGraphError("points must be finite")
    if values is not None:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != n:
            raise ValueError("values must have one row per point")

    # Exact distances, KNN_BLOCK_ROWS rows at a time; only the selected
    # pairs are kept, so memory stays O(KNN_BLOCK_ROWS * N + N k).
    pairs = []
    for start in range(0, n, KNN_BLOCK_ROWS):
        dist = _pairwise_distances(points[start : start + KNN_BLOCK_ROWS], points)
        local = np.arange(dist.shape[0])
        dist[local, local + start] = np.inf
        # The first k of a stable argsort: every entry below the k-th
        # smallest, then the lowest-index entries equal to it.  Only a row
        # with more than k entries at or below the k-th needs the tie rule.
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
        keep = dist <= kth
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
        if len(over):
            sub, sub_kth = dist[over], kth[over]
            tied = sub == sub_kth
            room = k - np.sum(sub < sub_kth, axis=1, keepdims=True)
            keep[over] = (sub < sub_kth) | (tied & (np.cumsum(tied, axis=1) <= room))
        local, j = np.nonzero(keep)
        i = local + start
        if values is None:
            d = dist[local, j]
        else:
            diff = values[i] - values[j]
            d = np.sqrt(np.sum(diff * diff, axis=1))
        bad = np.flatnonzero(d < MIN_NEIGHBOR_DISTANCE) if weighted else []
        if len(bad):
            # Report the pair that a row-by-row scan in neighbour order meets first.
            first = bad[i[bad] == i[bad[0]]]
            pick = first[np.lexsort((j[first], dist[local[first], j[first]]))[0]]
            raise DegenerateDistanceError(
                f"points {i[pick]} and {j[pick]} are closer than {MIN_NEIGHBOR_DISTANCE:g}"
            )
        # Distances are exactly symmetric: a pair chosen from both ends gets one weight.
        pairs.append((i, j, 1.0 / d if weighted else np.ones(len(i))))
    i, j, w = (np.concatenate(part) for part in zip(*pairs))
    return Graph.from_edges(i, j, w, n)


def normalize_weights(graph: Graph) -> Graph:
    """Rescale all weights so the maximum edge weight is 1.

    Solutions of the quadratic smoothing problems are invariant to a common
    rescaling of the weights and the regularization strength, so normalizing
    here lets one parameter range serve graphs built at different spatial
    scales.
    """
    w_max = graph.weights.max(initial=0.0)
    if w_max <= 0:
        raise NoEdgesError("graph has no edges to normalize")
    return Graph(graph.indptr, graph.indices, graph.weights / w_max, graph.n_nodes)

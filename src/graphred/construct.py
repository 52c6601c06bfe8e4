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
# Rows of the distance matrix held at once while picking neighbours exactly.
KNN_BLOCK_ROWS = 128
# Candidate distances (rows x padded candidates) the grid search holds at once:
# a block's nine or so live arrays of this many entries take about 2 MB.
KNN_CANDIDATE_ENTRIES = 1 << 15
# The grid bins points on at most this many coordinates, the widest first.
GRID_AXES = 3


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the points of ``a`` and ``b`` (at least one
    coordinate, on the last axis), broadcast over the other axes.

    Squares are summed in place one coordinate at a time, from the first
    one's, as numpy sums a short last axis, so the bits match
    ``sqrt(sum(diff**2, axis=-1))`` below 8 coordinates; from 8 on numpy
    sums pairwise and they may differ.
    """
    return _root_sum_squares(a[..., c] - b[..., c] for c in range(a.shape[-1]))


def _root_sum_squares(diffs) -> np.ndarray:
    """``sqrt`` of the summed squares of the arrays ``diffs`` yields, one coordinate's differences each.

    Each is squared in place and added to the first one's square, so a
    generator keeps one difference array alive besides the sum.
    """
    diffs = iter(diffs)
    sq = next(diffs)
    np.multiply(sq, sq, out=sq)
    for diff in diffs:
        sq += np.multiply(diff, diff, out=diff)
    return np.sqrt(sq, out=sq)


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between every row of ``a`` and every row of ``b``, by :func:`_distances`."""
    return _distances(a[:, None, :], b[None, :, :])


def _first_k(dist: np.ndarray, kth: np.ndarray, ids, k: int) -> np.ndarray:
    """Mask of each row's first ``k`` entries by (distance, point index).

    ``kth`` is each row's k-th smallest distance as a column and ``ids`` the
    point index of every entry (broadcast against ``dist``).  That is every
    entry below the k-th smallest, then the lowest-index entries equal to
    it: the first k of a stable argsort over points in index order.  Only a
    row with more than k entries at or below the k-th needs the tie rule.
    """
    keep = dist <= kth
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if len(over):
        sub, sub_kth, sub_ids = dist[over], kth[over], np.broadcast_to(ids, dist.shape)[over]
        below, tied = sub < sub_kth, sub == sub_kth
        room = k - np.count_nonzero(below, axis=1)
        last = np.sort(np.where(tied, sub_ids, np.iinfo(np.intp).max), axis=1)[np.arange(len(over)), room - 1]
        keep[over] = below | (tied & (sub_ids <= last[:, None]))
    return keep


def _grid_cells(rel: np.ndarray, k: int):
    """Integer cells of the points (offsets ``rel`` from the lowest corner).

    The cell side starts at the widest span and shrinks by sqrt(2) while the
    occupied cells still hold ``3k / 4`` points on average, there is at most
    one cell per point along each axis, and cell keys stay inside int64.
    """
    n = len(rel)
    side, cells = float(rel.max()), None
    while True:
        finer = np.floor(rel / side).astype(np.intp)
        shape = finer.max(axis=0) + 1
        if shape.max() > n or np.prod(shape, dtype=float) >= 2.0**62:
            return cells
        keys = np.sort(np.ravel_multi_index(tuple(finer.T), shape))
        if cells is not None and 4 * n < 3 * k * (1 + np.count_nonzero(np.diff(keys))):
            return cells
        side, cells = side / np.sqrt(2.0), finer


def _grid_neighbours(points: np.ndarray, k: int):
    """Neighbours of the rows a uniform grid certifies, and the other rows.

    Points are binned into cells on up to ``GRID_AXES`` coordinates, and a
    row's candidates are the points in its cell's 3^m block of neighbouring
    cells, with :func:`_distances`' bits; candidate coordinates are gathered
    one coordinate at a time.  A row is certified when its k-th candidate
    distance is strictly below ``reach``: every point outside the block is
    apart from it by at least that gap along one binned coordinate, and the
    computed distance never falls below the computed gap, as each rounding
    step is monotone and the other coordinates only add.  Its first k
    candidates by (distance, index) are then its first k of all points.
    Returns ``(found, rest)``: a list of ``(i, j, dist)`` arrays of the
    certified rows' pairs, and the rows left (outliers, dense clusters, rows
    with fewer than k candidates), ascending.
    """
    n = len(points)
    lo, span = points.min(axis=0), np.ptp(points, axis=0)
    axes = np.argsort(-span, kind="stable")[:GRID_AXES]
    axes = axes[span[axes] > 0]
    if not len(axes):
        return [], np.arange(n)
    cells = _grid_cells(points[:, axes] - lo[axes], k)
    shape = cells.max(axis=0) + 1

    # Each point's gap to the nearest point two or more cells away along a
    # binned coordinate: the block's nearest inner face, or beyond.
    gap = np.full(n, np.inf)
    for x, c, m in zip(points[:, axes].T, cells.T, shape):
        below = np.full(m + 2, -np.inf)  # below[c]: max x in cells <= c - 2
        np.maximum.at(below, c + 2, x)
        above = np.full(m + 2, np.inf)  # above[c]: min x in cells >= c
        np.minimum.at(above, c, x)
        below, above = np.maximum.accumulate(below)[c], np.minimum.accumulate(above[::-1])[::-1][c + 2]
        gap = np.minimum(gap, np.minimum(x - below, above - x))
    reach = np.sqrt(gap * gap)

    # Occupied cells in key order, and each one's neighbour cells as runs of `order`.
    key = np.ravel_multi_index(tuple(cells.T), shape)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    first = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    occupied, count = sorted_key[first], np.diff(np.r_[first, n])
    cell_of = np.searchsorted(occupied, key)
    offsets = np.stack(np.meshgrid(*[[-1, 0, 1]] * len(axes), indexing="ij"), axis=-1).reshape(-1, len(axes))
    near = cells[order[first]][:, None, :] + offsets
    near_key = np.ravel_multi_index(tuple(np.moveaxis(near, -1, 0)), shape, mode="clip")
    pos = np.minimum(np.searchsorted(occupied, near_key), len(occupied) - 1)
    hit = np.all((near >= 0) & (near < shape), axis=2) & (occupied[pos] == near_key)
    run_start, run_count = first[pos], np.where(hit, count[pos], 0)
    total = run_count.sum(axis=1)

    # Rows by candidate count, so a block pads little, in blocks of about
    # KNN_CANDIDATE_ENTRIES candidates; index n is a point at infinity.
    rows = order[np.argsort(total[cell_of[order]], kind="stable")]
    width = np.maximum(total[cell_of[rows]], k)
    coords = np.hstack([points.T, np.full((points.shape[1], 1), np.inf)])  # (d, n + 1), a row per coordinate
    found, rest = [], []
    start = 0
    while start < n:
        guess = width[min(start + KNN_CANDIDATE_ENTRIES // width[start], n) - 1]
        stop = min(start + max(1, KNN_CANDIDATE_ENTRIES // guess), n)
        block = rows[start:stop]
        # Each cell's candidates once: the runs of its neighbour cells, end to end.
        new = np.r_[True, cell_of[block][1:] != cell_of[block][:-1]]
        ids = cell_of[block][new]
        lengths, starts, totals = run_count[ids].ravel(), run_start[ids].ravel(), total[ids]
        flat = np.arange(totals.sum())
        table = np.full((len(ids), width[stop - 1]), n)
        table[np.repeat(np.arange(len(ids)), totals), flat - np.repeat(np.cumsum(totals) - totals, totals)] = order[
            np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + flat
        ]
        cand = table[np.cumsum(new) - 1]
        own = points[block]
        dist = _root_sum_squares(own[:, None, c] - coords[c][cand] for c in range(len(coords)))
        dist[cand == block[:, None]] = np.inf
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
        ok = kth[:, 0] < reach[block]
        dist, cand = dist[ok], cand[ok]
        keep = _first_k(dist, kth[ok], cand, k)
        found.append((block[ok][np.nonzero(keep)[0]], cand[keep], dist[keep]))
        rest.append(block[~ok])
        start = stop
    return found, np.sort(np.concatenate(rest))


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

    Above ``KNN_BLOCK_ROWS`` points, a uniform grid finds the neighbours of
    most rows from nearby cells (:func:`_grid_neighbours`).  The rows it
    cannot certify, and every row of a smaller cloud, take exact distances
    to all points, at most ``KNN_BLOCK_ROWS`` rows and about
    ``KNN_CANDIDATE_ENTRIES`` distances at a time.  Both give the same
    distance bits and the same tie rule, so the graph does not depend on
    which path a row took.  Either path's block of arrays takes about 2 MB
    (256 KiB per float64 array of ``KNN_CANDIDATE_ENTRIES``) besides the
    O(N k) pairs.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or not points.shape[1]:
        raise InvalidGraphError(f"points must be a 2-d array with coordinates, got shape {points.shape}")
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

    found, rest = _grid_neighbours(points, k) if n > KNN_BLOCK_ROWS else ([], np.arange(n))
    # Memory stays O(N k) besides one block.
    rows = min(KNN_BLOCK_ROWS, max(1, KNN_CANDIDATE_ENTRIES // n))
    for start in range(0, len(rest), rows):
        block = rest[start : start + rows]
        dist = _pairwise_distances(points[block], points)
        local = np.arange(len(block))
        dist[local, block] = np.inf
        keep = _first_k(dist, np.partition(dist, k - 1, axis=1)[:, k - 1 : k], np.arange(n), k)
        local, j = np.nonzero(keep)
        found.append((block[local], j, dist[local, j]))
    i, j, dist = (np.concatenate(part) for part in zip(*found))
    del found  # the graph's assembly holds a few arrays of the pairs' size; free the parts first
    if values is None:
        d = dist
    else:
        diff = values[i] - values[j]
        d = np.sqrt(np.sum(diff * diff, axis=1))
    bad = np.flatnonzero(d < MIN_NEIGHBOR_DISTANCE) if weighted else []
    if len(bad):
        # Report the pair that a row-by-row scan in neighbour order meets first.
        first = bad[i[bad] == i[bad].min()]
        pick = first[np.lexsort((j[first], dist[first]))[0]]
        raise DegenerateDistanceError(f"points {i[pick]} and {j[pick]} are closer than {MIN_NEIGHBOR_DISTANCE:g}")
    # Distances are exactly symmetric: a pair chosen from both ends gets one weight.
    return Graph.from_edges(i, j, np.divide(1.0, d, out=d) if weighted else np.ones(len(i)), n)


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
    return Graph(graph.indptr, graph.indices, graph.weights / w_max, graph.n_nodes, _symmetric=True)

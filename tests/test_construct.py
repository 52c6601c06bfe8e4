import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphred.construct
from graphred import (
    DegenerateDistanceError,
    NoEdgesError,
    knn_graph,
    normalize_weights,
)
from graphred.construct import MIN_NEIGHBOR_DISTANCE, _pairwise_distances
from graphred.datasets import generate_sensor_points
from graphred.graphs import Graph


def knn_oracle(points, k, weighted=True, values=None):
    """Dense kNN adjacency: full distance matrix, stable argsort, pair-by-pair fill."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    dist = _pairwise_distances(points, points)
    np.fill_diagonal(dist, np.inf)
    weight_dist = dist
    if values is not None:
        values = np.asarray(values, dtype=float).reshape(n, -1)
        weight_dist = _pairwise_distances(values, values)
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
    adjacency = np.zeros((n, n))
    for i in range(n):
        for j in neighbors[i]:
            d = weight_dist[i, j]
            if weighted and d < MIN_NEIGHBOR_DISTANCE:
                raise DegenerateDistanceError(
                    f"points {i} and {j} are closer than {MIN_NEIGHBOR_DISTANCE:g}"
                )
            adjacency[i, j] = adjacency[j, i] = 1.0 / d if weighted else 1.0
    return adjacency


def integer_grid(side):
    return np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2).astype(float)


class TestKnnGraph:
    def test_hand_example_union_symmetrization(self):
        # 0's nearest is 1 (d=1); 1's nearest is 0; 2's nearest is 1 (d=2)
        pts = np.array([[0.0], [1.0], [3.0]])
        g = knn_graph(pts, 1)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        expected[1, 2] = expected[2, 1] = 0.5
        assert np.allclose(g.adjacency, expected, atol=1e-15)

    def test_inverse_distance_weights(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, size=(20, 2))
        g = knn_graph(pts, 3)
        for i, j, w in g.edges():
            assert abs(w - 1.0 / np.linalg.norm(pts[i] - pts[j])) <= 1e-12

    def test_scaling_halves_weights(self):
        pts = generate_sensor_points(25, seed=1)
        g1 = knn_graph(pts, 4)
        g2 = knn_graph(2.0 * pts, 4)
        assert np.allclose(g2.adjacency, 0.5 * g1.adjacency, atol=1e-12)

    def test_scale_invariance_after_normalization(self):
        for seed in range(5):
            pts = generate_sensor_points(30, seed=seed)
            base = normalize_weights(knn_graph(pts, 5)).adjacency
            for c in (0.1, 2.0, 317.0):
                scaled = normalize_weights(knn_graph(c * pts, 5)).adjacency
                assert np.max(np.abs(scaled - base)) <= 1e-12

    def test_complete_graph_at_full_k(self):
        pts = generate_sensor_points(8, seed=2)
        g = knn_graph(pts, 7)
        off_diag = g.adjacency[~np.eye(8, dtype=bool)]
        assert np.all(off_diag > 0)

    def test_distance_ties_prefer_lower_index(self):
        # node 1 is equidistant from 0 and 2; k=1 must pick node 0
        pts = np.array([[0.0], [1.0], [2.0]])
        g = knn_graph(pts, 1)
        assert g.adjacency[1, 0] > 0
        assert g.adjacency[0, 2] == 0.0

    def test_duplicate_points_rejected(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateDistanceError):
            knn_graph(pts, 1)

    def test_k_out_of_range(self):
        pts = generate_sensor_points(5, seed=0)
        with pytest.raises(ValueError):
            knn_graph(pts, 5)
        with pytest.raises(ValueError):
            knn_graph(pts, 0)

    def test_unweighted_mode(self):
        pts = generate_sensor_points(10, seed=3)
        g = knn_graph(pts, 2, weighted=False)
        weights = g.adjacency[g.adjacency > 0]
        assert np.all(weights == 1.0)

    def test_signal_value_weighting_keeps_topology(self):
        # neighbor choice stays coordinate-based; weights come from values
        pts = generate_sensor_points(15, seed=4)
        rng = np.random.default_rng(5)
        vals = rng.uniform(0, 5, size=(15, 3))
        g_coord = knn_graph(pts, 3)
        g_val = knn_graph(pts, 3, values=vals)
        assert np.array_equal(g_coord.adjacency > 0, g_val.adjacency > 0)
        for i, j, w in g_val.edges():
            assert abs(w - 1.0 / np.linalg.norm(vals[i] - vals[j])) <= 1e-12

    def test_symmetry(self):
        for seed in range(5):
            pts = generate_sensor_points(30, seed=seed)
            g = knn_graph(pts, 4)
            assert np.array_equal(g.adjacency, g.adjacency.T)


class TestBlockedKnnMatchesDenseOracle:
    rng = np.random.default_rng(21)
    CASES = {
        "uniform_2d": (rng.uniform(0, 10, size=(100, 2)), 5, True, None),
        "uniform_3d_values": (rng.uniform(0, 10, size=(100, 3)), 8, True, rng.uniform(0, 5, size=(100, 3))),
        "scalar_values": (rng.uniform(0, 10, size=(100, 2)), 3, True, rng.uniform(0, 5, size=100)),
        "unweighted": (rng.uniform(0, 10, size=(100, 2)), 6, False, None),
        # Every interior point has 4 neighbours at distance 1 and 4 at sqrt(2).
        "tied_grid_k1": (integer_grid(10), 1, True, None),
        "tied_grid_k3": (integer_grid(10), 3, True, None),
        "tied_grid_k6": (integer_grid(10), 6, True, None),
        "tied_grid_unweighted": (integer_grid(10), 5, False, None),
    }

    @pytest.mark.parametrize("block_rows", [16, 256])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_adjacency(self, case, block_rows, monkeypatch):
        points, k, weighted, values = self.CASES[case]
        # 100 rows in blocks of 16 spans seven blocks, the last one partial.
        monkeypatch.setattr(graphred.construct, "KNN_BLOCK_ROWS", block_rows)
        got = knn_graph(points, k, weighted=weighted, values=values).adjacency
        assert np.array_equal(got, knn_oracle(points, k, weighted=weighted, values=values))

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 3),
        side=st.integers(2, 12),
        k=st.integers(1, 12),
        block_rows=st.integers(1, 64),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_integer_grid_subsets(self, d, side, k, block_rows, weighted, seed):
        # Distinct integer points: ties at the k-th distance in most rows.
        grid = np.stack(np.meshgrid(*[np.arange(side)] * d), axis=-1).reshape(-1, d).astype(float)
        rng = np.random.default_rng(seed)
        points = grid[rng.permutation(len(grid))[: rng.integers(2, min(len(grid), 200) + 1)]]
        k = min(k, len(points) - 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphred.construct, "KNN_BLOCK_ROWS", block_rows)
            got = knn_graph(points, k, weighted=weighted).adjacency
        assert np.array_equal(got, knn_oracle(points, k, weighted=weighted))

    def test_default_blocks_at_several_blocks(self):
        points = integer_grid(24) + np.random.default_rng(22).uniform(0, 1e-3, size=(576, 2))
        assert 576 > 2 * graphred.construct.KNN_BLOCK_ROWS
        assert np.array_equal(knn_graph(points, 7).adjacency, knn_oracle(points, 7))
        grid = integer_grid(24)
        assert np.array_equal(knn_graph(grid, 6).adjacency, knn_oracle(grid, 6))

    @pytest.mark.parametrize(
        "points, k, values",
        [
            # 0's neighbours in order are 3 (d=1) then 1 (d=2), both with 0's value.
            (np.array([[0.0], [2.0], [10.0], [1.0]]), 2, np.array([5.0, 5.0, 0.0, 5.0])),
            # The first coincident pair lies in a later block.
            (np.array([[0.0], [3.0], [7.0], [9.0], [12.0], [9.0]]), 1, None),
            (np.array([[0.0], [3.0], [7.0], [9.0], [12.0], [9.0]]), 3, None),
        ],
    )
    def test_degenerate_message(self, points, k, values, monkeypatch):
        monkeypatch.setattr(graphred.construct, "KNN_BLOCK_ROWS", 2)
        with pytest.raises(DegenerateDistanceError) as expected:
            knn_oracle(points, k, values=values)
        with pytest.raises(DegenerateDistanceError) as got:
            knn_graph(points, k, values=values)
        assert str(got.value) == str(expected.value)


class TestPairwiseDistances:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 7),
        rows=st.integers(1, 30),
        cols=st.integers(1, 30),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_match_difference_tensor_sum(self, d, rows, cols, scale, seed):
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal((rows, d))
        b = np.vstack([a[: cols // 2], scale * rng.standard_normal((cols - cols // 2, d))])
        diff = a[:, None, :] - b[None, :, :]
        assert _pairwise_distances(a, b).tobytes() == np.sqrt(np.sum(diff * diff, axis=2)).tobytes()


class TestNormalizeWeights:
    def test_already_normalized_unchanged(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        g = normalize_weights(knn_graph(pts, 1))
        weights = sorted(w for _, _, w in g.edges())
        assert weights == [0.5, 1.0]

    def test_divides_by_max(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        w[1, 2] = w[2, 1] = 4.0
        g = normalize_weights(Graph.from_dense(w))
        assert sorted(x for _, _, x in g.edges()) == [0.5, 1.0]

    def test_idempotent(self):
        pts = generate_sensor_points(20, seed=6)
        g1 = normalize_weights(knn_graph(pts, 3))
        g2 = normalize_weights(g1)
        assert np.array_equal(g1.adjacency, g2.adjacency)

    def test_max_weight_is_one(self):
        pts = generate_sensor_points(20, seed=7)
        g = normalize_weights(knn_graph(pts, 3))
        assert abs(max(w for _, _, w in g.edges()) - 1.0) <= 1e-15

    def test_no_edges_rejected(self):
        with pytest.raises(NoEdgesError):
            normalize_weights(Graph.from_dense(np.zeros((3, 3))))

import numpy as np
import pytest

from graphred import (
    Denoiser,
    FilterResponse,
    apply_denoiser,
    build_laplacian,
    compare_responses,
    eigendecompose,
    h_lr,
    h_red,
    knn_graph,
    lr_denoise,
    normalize_weights,
    red_filter_matrix,
    write_response_csv,
)
from graphred.datasets import generate_sensor_points


def setup_graph(seed=0, n=50, k=5):
    pts = generate_sensor_points(n, seed=seed)
    lap = build_laplacian(normalize_weights(knn_graph(pts, k)))
    return lap, eigendecompose(lap)


class TestHLr:
    def test_zero_at_dc(self):
        assert h_lr(np.array([0.0]), 1.0).response[0] == 0.0

    def test_linear_formula(self):
        assert abs(h_lr(np.array([3.0]), 2.0).response[0] - 6.0) <= 1e-15

    def test_monotone_increasing(self):
        lam = np.linspace(0.0, 8.0, 50)
        resp = h_lr(lam, 0.7).response
        assert np.all(np.diff(resp) > 0)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            h_lr(np.array([1.0]), 0.0)


class TestHRed:
    def test_zero_at_dc(self):
        assert h_red(np.array([0.0]), 2.0, 1.0).response[0] == 0.0

    def test_hand_value(self):
        assert abs(h_red(np.array([1.0]), 1.0, 1.0).response[0] - 0.5) <= 1e-15

    def test_saturates_at_alpha_red(self):
        a_red = 2.7
        val = h_red(np.array([1e6]), a_red, 1.0).response[0]
        assert abs(val - a_red) <= 1e-5
        lam = np.linspace(0.0, 50.0, 200)
        assert np.max(h_red(lam, a_red, 1.0).response) <= a_red

    def test_frequency_dependent_scaling_of_h_lr(self):
        lam = np.linspace(0.1, 5.0, 40)
        a_red, a_lr = 1.3, 0.8
        ratio = h_red(lam, a_red, a_lr).response / h_lr(lam, a_lr).response
        assert np.allclose(ratio, a_red / (1.0 + a_lr * lam), atol=1e-12)


class TestCompareResponses:
    def test_rows_and_dc(self):
        lap, dec = setup_graph()
        cmp = compare_responses(dec, 1.5, 2.0)
        assert len(cmp.eigenvalues) == lap.n_nodes
        assert abs(cmp.h_lr[0]) <= 1e-10
        assert abs(cmp.h_red[0]) <= 1e-10

    def test_ratio_monotone_non_increasing(self):
        _, dec = setup_graph(1)
        cmp = compare_responses(dec, 1.0, 1.0)
        pos = cmp.eigenvalues > 1e-10
        ratio = cmp.h_red[pos] / cmp.h_lr[pos]
        assert np.all(np.diff(ratio) <= 1e-12)

    def test_accepts_laplacian(self):
        lap, dec = setup_graph(2)
        via_lap = compare_responses(lap, 1.0, 1.0)
        via_dec = compare_responses(dec, 1.0, 1.0)
        assert np.allclose(via_lap.eigenvalues, via_dec.eigenvalues, atol=1e-12)

    def test_eigenvalue_grid_gives_the_responses_bits(self):
        lam = np.linspace(0.0, 10.0, 200)
        cmp = compare_responses(lam, 2.0, 0.5)
        assert cmp.eigenvalues is lam
        assert cmp.h_lr.tobytes() == h_lr(lam, 0.5).response.tobytes()
        assert cmp.h_red.tobytes() == h_red(lam, 2.0, 0.5).response.tobytes()
        _, dec = setup_graph(5)
        via_grid = compare_responses(dec.eigenvalues, 2.0, 0.5)
        via_dec = compare_responses(dec, 2.0, 0.5)
        assert via_grid.rows() == via_dec.rows()

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            compare_responses(np.eye(3), 1.0, 1.0)


class TestMatrixIdentity:
    def test_filter_matrix_equals_red_gradient_term(self):
        lap, dec = setup_graph(3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a_red = rng.uniform(0.3, 3.0)
            a_lr = rng.uniform(0.3, 3.0)
            x = rng.standard_normal(lap.n_nodes)
            lhs = red_filter_matrix(dec, a_red, a_lr) @ x
            rhs = a_red * (x - lr_denoise(lap, x, a_lr))
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_filter_matrix_symmetric(self):
        _, dec = setup_graph(4)
        h = red_filter_matrix(dec, 1.0, 1.0)
        assert np.allclose(h, h.T, atol=1e-12)


class TestCsvExport:
    def test_header_and_roundtrip(self, tmp_path):
        _, dec = setup_graph(5)
        cmp = compare_responses(dec, 1.0, 2.0)
        path = tmp_path / "spectrum.csv"
        write_response_csv(path, cmp)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda,h_lr,h_red"
        data = np.array([l.split(",") for l in lines[1:]], dtype=float)
        assert np.array_equal(data[:, 0], cmp.eigenvalues)
        assert np.array_equal(data[:, 1], cmp.h_lr)
        assert np.array_equal(data[:, 2], cmp.h_red)


class TestFilterResponseType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FilterResponse(eigenvalues=np.array([0.0, 1.0]), response=np.array([0.0]), label="x")

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FilterResponse(eigenvalues=np.array([0.0]), response=np.array([np.inf]), label="x")

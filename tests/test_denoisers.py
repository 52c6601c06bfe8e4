import numpy as np
import pytest

from graphred import (
    ConvergenceError,
    Denoiser,
    apply_denoiser,
    build_laplacian,
    denoiser_gains,
    eigendecompose,
    gft,
    igft,
    knn_graph,
    lr_denoise,
    lr_denoise_cg,
    lr_denoise_spectral,
    lr_gains,
    normalize_weights,
    pnp_admm_denoise,
)
from graphred.datasets import generate_sensor_points
from graphred.graphs import Graph


def two_node_lap():
    return build_laplacian(Graph(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]])))


def synthetic_lap(seed=0, n=50, k=5):
    pts = generate_sensor_points(n, seed=seed)
    return build_laplacian(normalize_weights(knn_graph(pts, k)))


class TestLrDenoise:
    def test_two_node_hand_solve(self):
        x = lr_denoise(two_node_lap(), np.array([1.0, 0.0]), 1.0)
        assert np.allclose(x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_alpha_zero_is_identity(self):
        y = np.array([3.0, -1.0])
        x = lr_denoise(two_node_lap(), y, 0.0)
        assert np.array_equal(x, y)

    def test_preserves_constants(self):
        lap = synthetic_lap()
        for alpha in (0.1, 1.0, 50.0):
            x = lr_denoise(lap, 2.5 * np.ones(lap.n_nodes), alpha)
            assert np.max(np.abs(x - 2.5)) <= 1e-9

    def test_residual_of_solve(self):
        lap = synthetic_lap(1)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(lap.n_nodes)
        x = lr_denoise(lap, y, 2.0)
        res = np.linalg.norm((np.eye(lap.n_nodes) + 2.0 * lap.matrix) @ x - y)
        assert res / np.linalg.norm(y) <= 1e-8

    def test_linearity(self):
        lap = synthetic_lap(2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            y1 = rng.standard_normal(lap.n_nodes)
            y2 = rng.standard_normal(lap.n_nodes)
            a, b = rng.uniform(-2, 2, size=2)
            lhs = lr_denoise(lap, a * y1 + b * y2, 1.5)
            rhs = a * lr_denoise(lap, y1, 1.5) + b * lr_denoise(lap, y2, 1.5)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))

    def test_passivity(self):
        lap = synthetic_lap(3)
        rng = np.random.default_rng(2)
        for _ in range(100):
            y = rng.standard_normal(lap.n_nodes)
            assert np.linalg.norm(lr_denoise(lap, y, 1.0)) <= np.linalg.norm(y)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            lr_denoise(two_node_lap(), np.ones(2), -0.5)

    def test_batched_matches_columns(self):
        lap = synthetic_lap(4)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((lap.n_nodes, 3))
        x = lr_denoise(lap, y, 1.2)
        for j in range(3):
            assert np.allclose(x[:, j], lr_denoise(lap, y[:, j], 1.2), atol=1e-12)


class TestLrDenoiseSpectral:
    def test_matches_direct(self):
        lap = synthetic_lap(5)
        dec = eigendecompose(lap)
        rng = np.random.default_rng(4)
        y = rng.standard_normal(lap.n_nodes)
        a = lr_denoise(lap, y, 2.0)
        b = lr_denoise_spectral(dec, y, 2.0)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)

    def test_gains_formula(self):
        lam = np.array([0.0, 0.5, 2.0])
        assert np.allclose(lr_gains(lam, 2.0), 1.0 / (1.0 + 2.0 * lam), atol=1e-15)


class TestLrDenoiseCg:
    def test_matches_dense_solve(self):
        lap = synthetic_lap(0, n=100)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(100)
        direct = lr_denoise(lap, y, 1.0)
        viacg = lr_denoise_cg(lap, y, 1.0, tol=1e-10)
        assert np.linalg.norm(viacg - direct) / np.linalg.norm(direct) <= 1e-7

    def test_finite_termination_bound(self):
        lap = synthetic_lap(1, n=60)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(60)
        x = lr_denoise_cg(lap, y, 5.0, tol=1e-6, max_iters=60)
        res = np.linalg.norm((np.eye(60) + 5.0 * lap.matrix) @ x - y)
        assert res / np.linalg.norm(y) <= 1e-6

    def test_zero_rhs_returns_zero(self):
        lap = synthetic_lap(2)
        x = lr_denoise_cg(lap, np.zeros(lap.n_nodes), 1.0)
        assert np.array_equal(x, np.zeros(lap.n_nodes))

    def test_convergence_error_carries_diagnostics(self):
        lap = synthetic_lap(3, n=80)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(80)
        with pytest.raises(ConvergenceError) as exc:
            lr_denoise_cg(lap, y, 100.0, tol=1e-14, max_iters=2)
        assert exc.value.iterations == 2
        assert exc.value.residual > 0


class TestPnpAdmm:
    def test_constant_preserved(self):
        lap = synthetic_lap(4)
        y = 1.7 * np.ones(lap.n_nodes)
        for iters in (1, 3, 10):
            x = pnp_admm_denoise(lap, y, 1.0, 1.0, iters=iters)
            assert np.max(np.abs(x - 1.7)) <= 1e-9

    def test_large_rho_single_iter_approximates_lr(self):
        lap = synthetic_lap(5)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(lap.n_nodes)
        x = pnp_admm_denoise(lap, y, 2.0, 1e6, iters=1)
        ref = lr_denoise(lap, y, 2.0)
        assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 0.01

    def test_fixed_point_is_stationary(self):
        # constant input solves x = v = D(x), u = 0, x = (y + rho x)/(1 + rho)
        lap = synthetic_lap(6)
        y = -0.8 * np.ones(lap.n_nodes)
        one = pnp_admm_denoise(lap, y, 1.3, 0.7, iters=1)
        many = pnp_admm_denoise(lap, y, 1.3, 0.7, iters=25)
        assert np.allclose(one, y, atol=1e-10)
        assert np.allclose(many, one, atol=1e-10)

    def test_linearity_hence_homogeneity(self):
        lap = synthetic_lap(8)
        rng = np.random.default_rng(10)
        for _ in range(10):
            y = rng.standard_normal(lap.n_nodes)
            a = pnp_admm_denoise(lap, 1.1 * y, 0.8, 2.0, iters=10)
            b = 1.1 * pnp_admm_denoise(lap, y, 0.8, 2.0, iters=10)
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_empirical_passivity(self):
        lap = synthetic_lap(9)
        rng = np.random.default_rng(11)
        for _ in range(100):
            y = rng.standard_normal(lap.n_nodes)
            ratio = np.sum(pnp_admm_denoise(lap, y, 1.0, 1.0) ** 2) / np.sum(y**2)
            assert ratio <= 1.0 + 1e-6

    def test_iters_validated(self):
        with pytest.raises(ValueError):
            pnp_admm_denoise(two_node_lap(), np.ones(2), 1.0, 1.0, iters=0)


class TestGainsAndDispatch:
    def test_pnp_gains_reproduce_node_run(self):
        lap = synthetic_lap(10)
        dec = eigendecompose(lap)
        rng = np.random.default_rng(12)
        y = rng.standard_normal(lap.n_nodes)
        node = pnp_admm_denoise(lap, y, 1.3, 0.7, iters=10)
        gains = denoiser_gains(Denoiser(kind="pnp", alpha=1.3, rho=0.7, iters=10), dec.eigenvalues)
        via_gains = igft(dec, gains * gft(dec, y))
        assert np.linalg.norm(node - via_gains) <= 1e-10 * np.linalg.norm(node)

    def test_spectral_apply_matches_node_apply(self):
        lap = synthetic_lap(11)
        dec = eigendecompose(lap)
        rng = np.random.default_rng(13)
        y = rng.standard_normal(lap.n_nodes)
        for den in (
            Denoiser(kind="lr", alpha=2.0),
            Denoiser(kind="pnp", alpha=1.0, rho=1.5, iters=10),
        ):
            a = apply_denoiser(den, lap, y)
            b = apply_denoiser(den, lap, y, decomp=dec)
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)

    def test_denoiser_validation(self):
        with pytest.raises(ValueError):
            Denoiser(kind="wavelet", alpha=1.0)
        with pytest.raises(ValueError):
            Denoiser(kind="lr", alpha=-1.0)
        with pytest.raises(ValueError):
            Denoiser(kind="pnp", alpha=1.0)  # rho missing
        with pytest.raises(ValueError):
            Denoiser(kind="pnp", alpha=1.0, rho=1.0, iters=0)

    def test_gain_overrides(self):
        lam = np.linspace(0.0, 3.0, 7)
        den = Denoiser(kind="lr", alpha=1.0)
        assert np.allclose(denoiser_gains(den, lam, alpha=3.0), lr_gains(lam, 3.0), atol=1e-15)

import os
import re

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

import graphred
from graphred import (
    ConvergenceError,
    Denoiser,
    NumericalError,
    apply_denoiser,
    build_laplacian,
    denoiser_gains,
    eigendecompose,
    gft,
    igft,
    knn_graph,
    lr_denoise,
    lr_denoise_cg,
    lr_gains,
    normalize_weights,
)
from graphred.datasets import generate_sensor_points
from graphred.denoisers import KINDS, gain_table, pnp_gains
from graphred.graphs import Graph

from oracles import lr_smoother, pnp_admm_denoise


def two_node_lap():
    return build_laplacian(Graph.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])))


def synthetic_lap(seed=0, n=50, k=5):
    pts = generate_sensor_points(n, seed=seed)
    return build_laplacian(normalize_weights(knn_graph(pts, k)))


@pytest.fixture
def splu_calls(monkeypatch):
    """Count sparse LU factorizations."""
    calls = []
    real = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


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

    COLUMNS = {
        "random": lambda rng, dec: rng.standard_normal(dec.n_nodes),
        "constant": lambda rng, dec: np.full(dec.n_nodes, rng.uniform(-3.0, 3.0)),
        "eigenvector": lambda rng, dec: 2.0 * dec.basis[:, rng.integers(1, dec.n_nodes)],
    }

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(1e-3, 1e3)),
        columns=st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=3),
        batched=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(alpha=0.0, columns=sorted(COLUMNS), batched=True, seed=0)
    @example(alpha=0.0, columns=["random"], batched=False, seed=0)
    def test_matches_sparse_lu_oracle(self, graph50, alpha, columns, batched, seed):
        lap, dec = graph50
        rng = np.random.default_rng(seed)
        y = np.column_stack([self.COLUMNS[c](rng, dec) for c in columns])
        y = y if batched else y[:, 0]
        got = lr_denoise(lap, y, alpha)
        want = lr_smoother(lap, alpha)(y)
        assert got.shape == y.shape
        if alpha == 0:
            assert got.tobytes() == y.tobytes()
        # The bound TestLanczosNodePath puts on apply_denoiser against the same oracle.
        cond = 1.0 + alpha * dec.eigenvalues[-1]
        assert np.linalg.norm(got - want) <= 1e-13 * cond * np.linalg.norm(want)

    @pytest.mark.parametrize("shape", [(3,), (3, 2)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            lr_denoise(two_node_lap(), np.ones(shape), 1.0)


class TestLrSmoother:
    def test_matches_dense_solve(self):
        lap = synthetic_lap(14)
        y = np.random.default_rng(15).standard_normal((lap.n_nodes, 3))
        for alpha in (0.1, 2.0, 500.0):
            smooth = lr_smoother(lap, alpha)
            ref = np.linalg.solve(np.eye(lap.n_nodes) + alpha * lap.matrix, y)
            assert np.linalg.norm(smooth(y) - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.array_equal(smooth(y[:, 1]), smooth(y)[:, 1])

    def test_alpha_zero_is_identity_copy(self, splu_calls):
        y = np.array([1.0, -2.0])
        x = lr_smoother(two_node_lap(), 0.0)(y)
        assert np.array_equal(x, y) and x is not y
        assert splu_calls == []

    def test_factors_once_for_many_solves(self, splu_calls):
        lap = synthetic_lap(16)
        smooth = lr_smoother(lap, 1.0)
        for _ in range(5):
            smooth(np.ones(lap.n_nodes))
        assert len(splu_calls) == 1

    def test_failed_factorization_is_numerical_error(self, monkeypatch):
        def singular(matrix):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        with pytest.raises(NumericalError, match="singular"):
            lr_smoother(synthetic_lap(17), 1.0)

    def test_inaccurate_solve_is_numerical_error(self, monkeypatch):
        class Sloppy:
            def solve(self, v):
                return 1.01 * v

        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda matrix: Sloppy())
        smooth = lr_smoother(synthetic_lap(18), 1.0)
        with pytest.raises(NumericalError, match="residual"):
            smooth(np.arange(50.0))

    def test_signal_shape_checked(self):
        with pytest.raises(ValueError):
            lr_smoother(two_node_lap(), 1.0)(np.ones(3))


    @pytest.mark.parametrize("alpha", [0.3, 2.0, 5e-324])
    def test_factors_the_matrix_a_dense_build_gives(self, alpha):
        # The system comes from the sparse rows; SuperLU must see the matrix
        # that summing the identity and alpha times the dense Laplacian makes.
        lap = synthetic_lap(4, n=80)
        y = np.random.default_rng(8).standard_normal((80, 2))
        dense = scipy.sparse.identity(80, format="csc") + alpha * scipy.sparse.csc_matrix(lap.matrix)
        assert lr_smoother(lap, alpha)(y).tobytes() == scipy.sparse.linalg.splu(dense).solve(y).tobytes()


class TestLrDenoiseCg:
    def test_matches_dense_solve(self):
        lap = synthetic_lap(0, n=100)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(100)
        direct = lr_smoother(lap, 1.0)(y)
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
        ref = lr_smoother(lap, 2.0)(y)
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

    def test_node_path_factors_once(self, splu_calls):
        lap = synthetic_lap(19)
        pnp_admm_denoise(lap, np.arange(lap.n_nodes, dtype=float), 1.0, 1.0, iters=10)
        assert len(splu_calls) == 1


@pytest.fixture(scope="module")
def graph50():
    lap = synthetic_lap(11)
    return lap, eigendecompose(lap)


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

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]),
        alpha=st.floats(1e-3, 1e3),
        rho=st.floats(1e-2, 1e2),
        iters=st.integers(1, 20),
        batched=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectral_apply_matches_node_apply(self, graph50, kind, alpha, rho, iters, batched, seed):
        lap, dec = graph50
        den = Denoiser(kind=kind, alpha=alpha, rho=rho if kind == "pnp" else None, iters=iters)
        y = np.random.default_rng(seed).standard_normal((lap.n_nodes, 3) if batched else lap.n_nodes)
        node = apply_denoiser(den, lap, y)
        spectral = apply_denoiser(den, lap, y, decomp=dec)
        assert spectral.shape == y.shape
        # Both paths round; their difference grows with the condition of I + alpha L.
        cond = 1.0 + alpha * dec.eigenvalues[-1]
        assert np.linalg.norm(node - spectral) <= 1e-13 * cond * np.linalg.norm(node)
        const = np.full(y.shape, -1.7)
        for out in (apply_denoiser(den, lap, const), apply_denoiser(den, lap, const, decomp=dec)):
            assert np.max(np.abs(out - const)) <= 1e-9
        # The eigenvalue of the constant vector rounds to about -1e-16, so gains may exceed 1 by rounding.
        assert np.sum(spectral**2) <= (1.0 + 1e-10) * np.sum(y**2)
        assert np.sum(node**2) <= (1.0 + 1e-10) * np.sum(y**2)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]),
        spectral=st.booleans(),
        alpha=st.floats(1e-3, 1e3),
        rho=st.floats(1e-2, 1e2),
        iters=st.integers(1, 20),
        c=st.floats(0.1, 10.0),
        batched=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_homogeneity(self, graph50, kind, spectral, alpha, rho, iters, c, batched, seed):
        lap, dec = graph50
        den = Denoiser(kind=kind, alpha=alpha, rho=rho if kind == "pnp" else None, iters=iters)
        decomp = dec if spectral else None
        y = np.random.default_rng(seed).standard_normal((lap.n_nodes, 3) if batched else lap.n_nodes)
        scaled_in = apply_denoiser(den, lap, c * y, decomp=decomp)
        scaled_out = c * apply_denoiser(den, lap, y, decomp=decomp)
        # Both denoisers are linear; over 3,000 random cases the rounding stayed under 1.3e-14.
        assert np.linalg.norm(scaled_in - scaled_out) <= 1e-12 * np.linalg.norm(scaled_out)

    def test_lr_gains_formula(self):
        lam = np.array([0.0, 0.5, 2.0])
        assert np.allclose(lr_gains(lam, 2.0), 1.0 / (1.0 + 2.0 * lam), atol=1e-15)

    def test_denoiser_validation(self):
        with pytest.raises(ValueError):
            Denoiser(kind="wavelet", alpha=1.0)
        with pytest.raises(ValueError):
            Denoiser(kind="lr", alpha=-1.0)
        with pytest.raises(ValueError):
            Denoiser(kind="pnp", alpha=1.0)  # rho missing
        with pytest.raises(ValueError):
            Denoiser(kind="pnp", alpha=1.0, rho=1.0, iters=0)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]),
        rows=st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(1e-2, 1e2)), min_size=1, max_size=30),
        iters=st.integers(1, 20),
    )
    def test_gain_table_rows_equal_per_row_gains(self, graph50, kind, rows, iters):
        # One broadcast recursion over all rows runs each row's elementwise steps.
        lam = graph50[1].eigenvalues
        params = [row[:1] for row in rows] if kind == "lr" else rows
        table = gain_table(kind, lam, iter(params), iters)
        for row, p in zip(table, params):
            assert np.array_equal(row, lr_gains(lam, p[0]) if kind == "lr" else pnp_gains(lam, *p, iters))
        # The exact gradient's gains are the same rows.
        gains, jac = KINDS[kind].jacobian(lam[None, :], np.array(params).T[:, :, None], iters)
        assert np.array_equal(gains, table) and jac.shape == (len(params[0]),) + table.shape


# A branch on a kind or method name: endswith("lr"), startswith("red_"), == "pnp", in ("lr", "pnp"), ...
KIND_SWITCH = re.compile(
    r"""\.endswith\(\s*["'](lr|pnp)["']|\.startswith\(\s*["']red_["']"""
    r"""|[!=]=\s*["'](lr|pnp)["']|["'](lr|pnp)["']\s*[!=]="""
    r"""|\bin\s*[(\[{]\s*["'](red_)?(lr|pnp)["']"""
)


def test_no_kind_switch_outside_the_registry():
    """A denoiser kind is one ``denoisers.KINDS`` entry: no other module branches on its name.

    The one exception is ``train``'s check that ``analytic_linear``, the
    LR-only alias of the exact gradient, runs on an LR solver.
    """
    src = os.path.dirname(graphred.__file__)
    found = []
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py") and n != "denoisers.py"):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if KIND_SWITCH.search(line) and "analytic_linear" not in line:
                    found.append(f"{name}:{number}: {line.strip()}")
    assert not found, "\n".join(found)

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import graphred.denoisers
import graphred.graphs
from graphred import (
    Denoiser,
    DivergenceError,
    RedProblem,
    StagnationError,
    apply_denoiser,
    build_laplacian,
    check_homogeneity,
    check_passivity,
    denoiser_gains,
    eigendecompose,
    gft,
    igft,
    knn_graph,
    normalize_weights,
    red_cg_layers,
    red_cg_solve,
    red_gradient,
    red_gradient_descent,
    red_objective,
)
from graphred.datasets import generate_sensor_points
from graphred.graphs import Graph
from graphred.cli import SCREEN_MARGIN
from graphred.denoisers import gain_table
from graphred.red import CONVERGED_TOL, candidate_mse, krylov_screen_mse

from oracles import lr_denoise, pnp_admm_denoise


def setup_graph(seed=0, n=50, k=5):
    pts = generate_sensor_points(n, seed=seed)
    lap = build_laplacian(normalize_weights(knn_graph(pts, k)))
    return lap, eigendecompose(lap)


def lr_problem(y, alpha_red, alpha_lr, lap, decomp=None):
    return RedProblem(
        y=y, alpha_red=alpha_red, denoiser=Denoiser(kind="lr", alpha=alpha_lr), lap=lap, decomp=decomp
    )


def stationarity_oracle(lap, y, alpha_red, alpha_lr):
    # direct solve of x - y + alpha_red (x - (I + alpha_lr L)^-1 x) = 0
    n = lap.n_nodes
    inner = np.linalg.inv(np.eye(n) + alpha_lr * lap.matrix)
    return np.linalg.solve((1 + alpha_red) * np.eye(n) - alpha_red * inner, y)


class TestObjective:
    def test_zero_at_constant_fixed_point(self):
        lap, _ = setup_graph()
        y = 2.0 * np.ones(lap.n_nodes)
        prob = lr_problem(y, 3.0, 1.0, lap)
        assert abs(red_objective(prob, y)) <= 1e-10

    def test_alpha_red_zero_is_data_term(self):
        lap, _ = setup_graph(1)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(lap.n_nodes)
        x = rng.standard_normal(lap.n_nodes)
        prob = lr_problem(y, 0.0, 1.0, lap)
        assert abs(red_objective(prob, x) - 0.5 * np.sum((x - y) ** 2)) <= 1e-12

    def test_two_node_hand_value(self):
        lap = build_laplacian(Graph.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])))
        y = np.array([1.0, 0.0])
        prob = lr_problem(y, 1.0, 1.0, lap)
        # x = y: data 0, regularizer x^T (x - (2/3, 1/3)) / 2 = 1/6
        assert abs(red_objective(prob, y) - 1.0 / 6.0) <= 1e-12


class TestGradient:
    def test_zero_at_constant(self):
        lap, _ = setup_graph(2)
        y = -1.2 * np.ones(lap.n_nodes)
        prob = lr_problem(y, 2.0, 1.5, lap)
        assert np.max(np.abs(red_gradient(prob, y))) <= 1e-10

    def test_alpha_red_zero(self):
        lap, _ = setup_graph(3)
        rng = np.random.default_rng(1)
        y = rng.standard_normal(lap.n_nodes)
        x = rng.standard_normal(lap.n_nodes)
        prob = lr_problem(y, 0.0, 1.0, lap)
        assert np.allclose(red_gradient(prob, x), x - y, atol=1e-14)

    def test_matches_finite_differences(self):
        lap, dec = setup_graph(4, n=50)
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(5):
            y = rng.standard_normal(lap.n_nodes)
            x = rng.standard_normal(lap.n_nodes)
            a_red = rng.uniform(0.2, 3.0)
            a_lr = rng.uniform(0.2, 3.0)
            prob = lr_problem(y, a_red, a_lr, lap, dec)
            grad = red_gradient(prob, x)
            fd = np.zeros_like(grad)
            for i in range(lap.n_nodes):
                e = np.zeros(lap.n_nodes)
                e[i] = h
                fd[i] = (red_objective(prob, x + e) - red_objective(prob, x - e)) / (2 * h)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-5


class TestGradientDescent:
    def test_alpha_red_zero_one_exact_step(self):
        lap, _ = setup_graph(5)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(lap.n_nodes)
        prob = lr_problem(y, 0.0, 1.0, lap)
        report = red_gradient_descent(prob, 1.0, 3)
        assert np.array_equal(report.x, y)
        assert report.gradient_norm_history[1] == 0.0

    def test_gradient_norm_decreases(self):
        lap, dec = setup_graph(6)
        rng = np.random.default_rng(4)
        y = rng.standard_normal(lap.n_nodes)
        prob = lr_problem(y, 1.0, 2.0, lap, dec)
        report = red_gradient_descent(prob, 0.1, 50)
        assert report.gradient_norm_history[-1] < report.gradient_norm_history[0]

    def test_converges_to_stationarity_oracle(self):
        lap, dec = setup_graph(7, n=100)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(100)
        a_red, a_lr = 1.0, 2.0
        prob = lr_problem(y, a_red, a_lr, lap, dec)
        report = red_gradient_descent(prob, 1.0 / (1 + a_red), 300)
        oracle = stationarity_oracle(lap, y, a_red, a_lr)
        assert np.linalg.norm(report.x - oracle) / np.linalg.norm(oracle) <= 1e-5

    def test_divergence_detected(self):
        lap, _ = setup_graph(8)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(lap.n_nodes)
        prob = lr_problem(y, 5.0, 1.0, lap)
        with pytest.raises(DivergenceError):
            red_gradient_descent(prob, 50.0, 200)

    def test_history_lengths(self):
        lap, _ = setup_graph(9)
        prob = lr_problem(np.ones(lap.n_nodes), 1.0, 1.0, lap)
        report = red_gradient_descent(prob, 0.1, 7)
        assert report.iterations == 7
        assert len(report.gradient_norm_history) == 8
        assert len(report.objective_history) == 8

    def test_step_validated(self):
        lap, _ = setup_graph(9)
        prob = lr_problem(np.ones(lap.n_nodes), 1.0, 1.0, lap)
        with pytest.raises(ValueError):
            red_gradient_descent(prob, 0.0, 5)


class TestCgSolve:
    def test_alpha_red_zero_converges_first_iteration(self):
        lap, dec = setup_graph(0)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(lap.n_nodes)
        for decomp in (None, dec):
            prob = lr_problem(y, 0.0, 1.0, lap, decomp)
            report = red_cg_solve(prob, 10)
            assert report.iterations == 1
            assert np.allclose(report.x, y, rtol=0, atol=1e-12 * np.linalg.norm(y))

    def test_matches_stationarity_oracle(self):
        lap, dec = setup_graph(1, n=100)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(100)
        prob = lr_problem(y, 1.5, 0.8, lap, dec)
        report = red_cg_solve(prob, 60)
        oracle = stationarity_oracle(lap, y, 1.5, 0.8)
        assert np.linalg.norm(report.x - oracle) / np.linalg.norm(oracle) <= 1e-6

    def test_objective_history_non_increasing(self):
        lap, dec = setup_graph(2)
        rng = np.random.default_rng(9)
        y = rng.standard_normal(lap.n_nodes)
        prob = lr_problem(y, 1.0, 2.0, lap, dec)
        report = red_cg_solve(prob, 10)
        objs = np.array(report.objective_history, dtype=float)
        assert np.all(np.diff(objs) <= 1e-12)

    def test_beats_gradient_descent_at_equal_budget(self):
        # CG uses 2K+1 denoiser evaluations for K iterations
        lap, dec = setup_graph(3, n=100)
        rng = np.random.default_rng(10)
        y = rng.standard_normal(100)
        prob = lr_problem(y, 1.0, 2.0, lap, dec)
        K = 10
        cg = red_cg_solve(prob, K)
        gd = red_gradient_descent(prob, 1.0 / 2.0, 2 * K + 1)
        assert cg.objective_history[-1] <= gd.objective_history[-1] + 1e-12

    def test_spectral_path_matches_node_path(self):
        lap, dec = setup_graph(4)
        rng = np.random.default_rng(11)
        y = rng.standard_normal(lap.n_nodes)
        a = red_cg_solve(lr_problem(y, 1.2, 1.0, lap, None), 8)
        b = red_cg_solve(lr_problem(y, 1.2, 1.0, lap, dec), 8)
        assert np.linalg.norm(a.x - b.x) <= 1e-9 * np.linalg.norm(a.x)
        assert np.allclose(a.objective_history, b.objective_history, rtol=1e-9, atol=1e-12)

    def test_batched_matches_columns(self):
        lap, dec = setup_graph(5)
        rng = np.random.default_rng(12)
        y = rng.standard_normal((lap.n_nodes, 4))
        batched = red_cg_solve(lr_problem(y, 1.0, 1.5, lap, dec), 10)
        for j in range(4):
            single = red_cg_solve(lr_problem(y[:, j], 1.0, 1.5, lap, dec), 10)
            assert np.allclose(batched.x[:, j], single.x, rtol=1e-9, atol=1e-12)

    def test_pnp_inner_denoiser_runs(self):
        lap, dec = setup_graph(6)
        rng = np.random.default_rng(13)
        y = rng.standard_normal(lap.n_nodes)
        prob = RedProblem(
            y=y, alpha_red=1.0, denoiser=Denoiser(kind="pnp", alpha=1.0, rho=1.0), lap=lap, decomp=dec
        )
        report = red_cg_solve(prob, 10)
        assert np.all(np.isfinite(report.x))
        assert report.objective_history[-1] < report.objective_history[0]

    def test_per_layer_params_change_result(self):
        lap, dec = setup_graph(7)
        rng = np.random.default_rng(14)
        y = rng.standard_normal(lap.n_nodes)
        prob = lr_problem(y, 1.0, 1.0, lap, dec)
        K = 5
        flat = red_cg_solve(prob, K)
        varied = red_cg_solve(
            prob,
            K,
            alpha_red_layers=np.linspace(0.5, 2.0, K + 1),
            alpha_denoiser_layers=np.linspace(0.5, 2.0, K + 1),
        )
        assert not np.allclose(flat.x, varied.x)

    def test_layer_length_validated(self):
        lap, _ = setup_graph(8)
        prob = lr_problem(np.ones(lap.n_nodes), 1.0, 1.0, lap)
        with pytest.raises(ValueError):
            red_cg_solve(prob, 5, alpha_red_layers=[1.0] * 5)
        with pytest.raises(ValueError):
            red_cg_solve(prob, 0)
        with pytest.raises(ValueError):
            red_cg_solve(prob, 5, pnp_rho_layers=[1.0] * 6)

    def test_report_serializes_to_json(self):
        lap, _ = setup_graph(9)
        prob = lr_problem(np.ones(lap.n_nodes), 1.0, 1.0, lap)
        report = red_cg_solve(prob, 3)
        payload = json.dumps(report.to_dict())
        assert '"iterations"' in payload


@pytest.fixture(scope="module")
def graph30():
    return setup_graph(10, n=30)


class TestSharedCgCore:
    # (alpha_red, denoiser kind, denoiser alpha, rho, constant observation)
    COLUMN = st.tuples(
        st.floats(0.0, 100.0),
        st.sampled_from(["lr", "pnp"]),
        st.floats(1e-3, 1e3),
        st.floats(1e-2, 1e2),
        st.booleans(),
    )

    @settings(max_examples=40, deadline=None)
    @given(
        columns=st.lists(COLUMN, min_size=1, max_size=5),
        K=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_per_column_parameters_match_column_solves(self, graph30, columns, K, seed):
        lap, dec = graph30
        y = np.random.default_rng(seed).standard_normal((lap.n_nodes, len(columns)))
        denoisers, a_red = [], np.empty(len(columns))
        for j, (alpha_red, kind, alpha, rho, constant) in enumerate(columns):
            if constant:  # a fixed point of both denoisers: converges early
                y[:, j] = y[0, j]
            denoisers.append(Denoiser(kind=kind, alpha=alpha, rho=rho if kind == "pnp" else None))
            a_red[j] = alpha_red
        shortfall = np.column_stack([1.0 - denoiser_gains(d, dec.eigenvalues) for d in denoisers])
        report = red_cg_layers(gft(dec, y), [lambda v: shortfall * v] * (K + 1), [a_red] * (K + 1))
        x = igft(dec, report.x)
        for j, den in enumerate(denoisers):
            prob = RedProblem(y=y[:, j], alpha_red=a_red[j], denoiser=den, lap=lap, decomp=dec)
            single = red_cg_solve(prob, K).x
            assert np.linalg.norm(x[:, j] - single) <= 1e-12 * np.linalg.norm(single)

    def test_converged_column_keeps_its_iterate(self, graph30):
        lap, dec = graph30
        y = np.random.default_rng(4).standard_normal((lap.n_nodes, 2))
        y[:, 0] = 2.0
        s = 1.0 - denoiser_gains(Denoiser(kind="lr", alpha=1.0), dec.eigenvalues)
        reg = lambda v: s[:, None] * v  # noqa: E731
        one = red_cg_layers(gft(dec, y), [reg] * 2, [1.0] * 2)
        ten = red_cg_layers(gft(dec, y), [reg] * 11, [1.0] * 11)
        assert ten.iterations == 10
        assert ten.gradient_norm_history[1][0] <= CONVERGED_TOL * np.linalg.norm(y[:, 0])
        assert np.array_equal(ten.x[:, 0], one.x[:, 0])
        assert not np.array_equal(ten.x[:, 1], one.x[:, 1])

    def test_later_layer_unconverges_a_lone_column(self):
        # An exact eigenvector converges in one layer; a later layer's weight un-converges it.
        s = np.linspace(0.1, 0.9, 6)
        e = np.zeros((6, 1))
        e[2] = 1.0
        reg = lambda v: s[:, None] * v  # noqa: E731
        a_red = [1.0, 1.0, 5.0, 5.0]
        alone = red_cg_layers(np.hstack([e, e]), [reg] * 4, a_red).x
        beside = red_cg_layers(np.hstack([e, np.random.default_rng(0).standard_normal((6, 3))]), [reg] * 4, a_red).x
        assert np.array_equal(alone[:, 0], beside[:, 0])
        assert alone[2, 0] == pytest.approx(1.0 / (1.0 + 5.0 * s[2]), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["eigenvector", "constant", "zero", "random"]), min_size=2, max_size=5),
        # (alpha_red, LR alpha) per layer, from few values so that layers repeat
        layers=st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 5.0]), st.sampled_from([0.3, 2.0])), min_size=2, max_size=9
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # Layers 2-3 repeat one op and weight, but layer 1, which converges the eigenvector, differs.
    @example(kinds=["eigenvector", "random"], layers=[(1.0, 2.0), (1.0, 2.0), (5.0, 2.0), (5.0, 2.0)], seed=0)
    def test_column_output_does_not_depend_on_its_neighbours(self, graph30, kinds, layers, seed):
        lap, dec = graph30
        rng = np.random.default_rng(seed)
        columns = {
            "eigenvector": lambda: 3.0 * dec.basis[:, rng.integers(1, lap.n_nodes)],
            "constant": lambda: np.full(lap.n_nodes, 2.0),
            "zero": lambda: np.zeros(lap.n_nodes),
            "random": lambda: rng.standard_normal(lap.n_nodes),
        }
        z = gft(dec, np.column_stack([columns[kind]() for kind in kinds]))
        ops = {}  # equal layers share one op object, as red_cg_solve's layers do
        for a_red, alpha in layers:
            if alpha not in ops:
                s = 1.0 - denoiser_gains(Denoiser(kind="lr", alpha=alpha), dec.eigenvalues)
                ops[alpha] = lambda v, s=s[:, None]: s * v
        regs = [ops[alpha] for _, alpha in layers]
        a_red = [a for a, _ in layers]
        batch = red_cg_layers(z, regs, a_red).x
        for j in range(len(kinds)):
            # Two copies: numpy sums a lone column in another order than wider arrays.
            alone = red_cg_layers(np.tile(z[:, j : j + 1], 2), regs, a_red).x
            assert np.array_equal(alone[:, 0], batch[:, j]) and np.array_equal(alone[:, 1], batch[:, j])

    def test_resumed_columns_match_a_full_run(self, graph30):
        lap, dec = graph30
        z = gft(dec, np.random.default_rng(5).standard_normal((lap.n_nodes, 3)))
        alphas = (1.0, 0.5, 2.0, 4.0, 3.0)
        regs = [
            lambda v, s=1.0 - denoiser_gains(Denoiser(kind="lr", alpha=a), dec.eigenvalues)[:, None]: s * v
            for a in alphas
        ]
        a_red = [1.0, 2.0, 0.7, 1.5, 3.0]
        tape = []
        full = red_cg_layers(z, regs, a_red, tape)
        xs = [np.zeros_like(z)] + [row[6] for row in tape]
        entering = lambda k: tuple(a.copy() for a in (xs[k - 1],) + tape[k - 1][:3])  # noqa: E731
        for k in (2, 4):  # every column resumes at layer k
            out = red_cg_layers(z, [None] * k + regs[k:], [None] * k + a_red[k:], start=(k, entering(k)))
            assert np.array_equal(out.x, full.x)
            assert out.iterations == 4 and len(out.gradient_norm_history) == 5 - k

    @pytest.mark.parametrize("blowup, iteration", [(np.inf, 1), (1e200, 2)])
    def test_divergence_is_reported_at_its_layer(self, graph30, blowup, iteration):
        lap, dec = graph30
        y = gft(dec, np.random.default_rng(8).standard_normal((lap.n_nodes, 2)))
        # Layer 1's op returns inf (a non-finite gradient there) or 1e200 (a
        # finite gradient whose squared norm overflows, non-finite one layer on).
        regs = [lambda v: 0.5 * v, lambda v: np.full_like(v, blowup), lambda v: 0.5 * v]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            red_cg_layers(y, regs, [1.0] * 3)
        assert err.value.iteration == iteration

    def test_overflowing_weight_raises_instead_of_stepping_by_zero(self, graph30):
        lap, dec = graph30
        y = gft(dec, np.random.default_rng(4).standard_normal((lap.n_nodes, 2)))
        shortfall = 1.0 - denoiser_gains(Denoiser(kind="lr", alpha=1.0), dec.eigenvalues)[:, None]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError, match="line search") as err:
            red_cg_layers(y, [lambda v: shortfall * v] * 3, [np.array([1.0, 1e308])] * 3)
        assert err.value.iteration == 1

    def test_objective_only_when_asked(self, graph30):
        lap, dec = graph30
        z = gft(dec, np.random.default_rng(6).standard_normal((lap.n_nodes, 3)))
        regs = [
            lambda v, s=1.0 - denoiser_gains(Denoiser(kind="pnp", alpha=a, rho=1.0), dec.eigenvalues)[:, None]: s * v
            for a in (1.0, 0.5, 2.0, 4.0)
        ]
        a_red = [1.0, 2.0, 0.7, 1.5]
        runs = {}
        for objective in (False, True):
            tape = []
            runs[objective] = red_cg_layers(z, regs, a_red, tape, objective=objective), tape
        (plain, plain_tape), (full, full_tape) = runs[False], runs[True]
        assert plain.objective_history == [] and len(full.objective_history) == full.iterations + 1
        assert plain.x.tobytes() == full.x.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(plain.gradient_norm_history, full.gradient_norm_history))
        assert all(
            np.asarray(a).tobytes() == np.asarray(b).tobytes()
            for row_a, row_b in zip(plain_tape, full_tape, strict=True) for a, b in zip(row_a, row_b)
        )
        prob = RedProblem(y=z[:, 0], alpha_red=1.0, denoiser=Denoiser(kind="pnp", alpha=1.0, rho=1.0), lap=lap, decomp=dec)
        solved = red_cg_solve(prob, 3)
        assert len(solved.objective_history) == 4

    def test_unconverged_stalled_column_raises(self, graph30):
        lap, dec = graph30
        y = gft(dec, np.random.default_rng(3).standard_normal((lap.n_nodes, 2)))
        a_red = np.array([1.0, 2.0])
        # Column 1 has reg = -v / alpha_red, so its operator I + alpha_red reg is zero.
        shortfall = np.column_stack([np.full(lap.n_nodes, 0.5), np.full(lap.n_nodes, -0.5)])
        with pytest.raises(StagnationError):
            red_cg_layers(y, [lambda v: shortfall * v] * 4, [a_red] * 4)

    def test_flat_pnp_solve_computes_gains_once(self, graph30, monkeypatch):
        calls = []
        real = graphred.denoisers.pnp_gains
        monkeypatch.setattr(
            graphred.denoisers, "pnp_gains", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        lap, dec = graph30
        den = Denoiser(kind="pnp", alpha=1.0, rho=1.0)
        y = np.arange(lap.n_nodes, dtype=float)
        prob = RedProblem(y=y, alpha_red=1.0, denoiser=den, lap=lap, decomp=dec)
        red_cg_solve(prob, 10)
        assert len(calls) == 1


class TestKrylovScreen:
    @staticmethod
    def cg_mse(y, target, shortfalls, alpha_red, K):
        """The oracle: every candidate as columns of the CG core, alpha-major as the screen orders them."""
        n_rows, n_sig = len(shortfalls), y.shape[1]

        def solve(cand, obs):
            shortfall = np.repeat(shortfalls[cand % n_rows].T, n_sig, axis=1)
            a_red = np.repeat(alpha_red[cand // n_rows], n_sig)
            return red_cg_layers(obs, [lambda v: shortfall * v] * (K + 1), [a_red] * (K + 1)).x

        return candidate_mse(y, target, n_rows * len(alpha_red), solve)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(5, 60),
        K=st.integers(1, 12),
        kind=st.sampled_from(["lr", "pnp"]),
        params=st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(1e-2, 1e2)), min_size=1, max_size=3),
        alpha_red=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
        n_random=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # Basis far from orthogonal: screen and core differ by 2.3e-6 relative,
    # which only the spread covers.
    @example(
        n=60, K=11, kind="pnp", params=[(56.34030417634007, 0.03282252828174962), (0.24458458188085258, 1.120268075074834)],
        alpha_red=[385.19109420359695], n_random=1, seed=529351283,
    )
    def test_matches_cg_core(self, n, K, kind, params, alpha_red, n_random, seed):
        rng = np.random.default_rng(seed)
        lap, dec = setup_graph(seed % 7, n=n, k=min(4, n - 1))
        j = int(rng.integers(1, n))
        # Columns that exhaust their Krylov space early: a constant and a
        # single eigenvector in node space, the same eigenvector exactly in
        # coefficients (breakdown at beta = 0), and a zero observation.
        node = np.column_stack([np.full(n, 2.5), 3.0 * dec.basis[:, j], rng.normal(0, 10, (n, n_random))])
        exact = np.zeros((n, 2))
        exact[j, 0] = -4.0
        y = np.hstack([gft(dec, node), exact])
        target = gft(dec, rng.normal(0, 10, (n, y.shape[1])))
        grid = [(a,) for a, _ in params] if kind == "lr" else params
        shortfalls = 1.0 - gain_table(kind, dec.eigenvalues, grid)
        alpha_red = np.array(alpha_red)
        screened, spread = krylov_screen_mse(y, target, shortfalls, alpha_red, K)
        expected = self.cg_mse(y, target, shortfalls, alpha_red, K)
        assert np.all(np.abs(screened - expected) <= spread + SCREEN_MARGIN / 100 * expected)
        # Column by column, as the tuner screens records in stages: each
        # column's CG error lies within that column's own share of the spread.
        for col in range(y.shape[1]):
            one = slice(col, col + 1)
            screened, spread = krylov_screen_mse(y[:, one], target[:, one], shortfalls, alpha_red, K)
            expected = self.cg_mse(y[:, one], target[:, one], shortfalls, alpha_red, K)
            assert np.all(np.abs(screened - expected) <= spread + SCREEN_MARGIN / 100 * expected), col

    def test_breakdown_keeps_zero_and_eigenvector_columns_exact(self, graph30):
        lap, dec = graph30
        y = np.zeros((lap.n_nodes, 2))
        y[3, 1] = 2.0
        target = np.ones_like(y)
        shortfalls = 1.0 - gain_table("lr", dec.eigenvalues, [(1.0,)])
        # x = 0 for the zero column; x = 2 e_3 / (1 + a s_3) for the eigenvector.
        x3 = 2.0 / (1.0 + 5.0 * shortfalls[0, 3])
        expected = (2 * lap.n_nodes - 1 + (x3 - 1.0) ** 2) / (2 * lap.n_nodes)
        got, spread = krylov_screen_mse(y, target, shortfalls, np.array([5.0]), 6)
        assert abs(got[0] - expected) <= 1e-15 * expected
        assert spread[0] == 0.0

    def test_needed_candidates_run_in_the_blocks_of_a_full_pass(self):
        rng = np.random.default_rng(9)
        y, target = rng.standard_normal((2, 7, 3))
        # An output that depends on the whole block shows any change of blocking.
        solve = lambda cand, obs: obs * cand.sum()  # noqa: E731
        full = candidate_mse(y, target, 250, solve)
        part = candidate_mse(y, target, 250, solve, needed=[5, 40, 41, 249])
        ran = np.flatnonzero(~np.isnan(part))
        # BLOCK_COLUMNS = 100 over 3 signals: blocks of 33 candidates.
        assert np.array_equal(ran, np.r_[0:66, 231:250])
        assert part[ran].tobytes() == full[ran].tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight_diverges(self, graph30, bad):
        lap, dec = graph30
        y = gft(dec, np.random.default_rng(6).standard_normal((lap.n_nodes, 2)))
        shortfalls = 1.0 - gain_table("lr", dec.eigenvalues, [(1.0,)])
        for K in (1, 4):
            with pytest.raises(DivergenceError):
                krylov_screen_mse(y, y, shortfalls, np.array([1.0, bad]), K)

    def test_zero_layers_rejected(self, graph30):
        lap, dec = graph30
        y = gft(dec, np.random.default_rng(6).standard_normal((lap.n_nodes, 2)))
        with pytest.raises(ValueError, match="K must be >= 1"):
            krylov_screen_mse(y, y, 1.0 - gain_table("lr", dec.eigenvalues, [(1.0,)]), np.array([1.0]), 0)


class TestNodeSpacePath:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]),
        per_layer=st.booleans(),
        batched=st.booleans(),
        K=st.integers(1, 10),
        alpha_red=st.floats(0.0, 100.0),
        alpha=st.floats(1e-3, 1e3),
        rho=st.floats(1e-2, 1e2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_spectral_path(self, graph30, kind, per_layer, batched, K, alpha_red, alpha, rho, seed):
        lap, dec = graph30
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((lap.n_nodes, 3) if batched else lap.n_nodes)
        den = Denoiser(kind=kind, alpha=alpha, rho=rho if kind == "pnp" else None)
        layers = {}
        if per_layer:
            layers["alpha_red_layers"] = alpha_red * rng.uniform(0.5, 2.0, K + 1)
            layers["alpha_denoiser_layers"] = alpha * rng.uniform(0.5, 2.0, K + 1)
            if kind == "pnp":
                layers["pnp_rho_layers"] = rho * rng.uniform(0.5, 2.0, K + 1)
        node = red_cg_solve(RedProblem(y=y, alpha_red=alpha_red, denoiser=den, lap=lap), K, **layers)
        prob = RedProblem(y=y, alpha_red=alpha_red, denoiser=den, lap=lap, decomp=dec)
        spectral = red_cg_solve(prob, K, **layers)
        # Rounding in either path grows with the condition bound of the RED
        # operator times that of I + alpha L; past 1e3 the bound scales with it.
        a_red_max = np.max(layers.get("alpha_red_layers", alpha_red))
        alpha_max = np.max(layers.get("alpha_denoiser_layers", alpha))
        cond = (1.0 + a_red_max) * (1.0 + alpha_max * dec.eigenvalues[-1])
        tol = 1e-10 * max(1.0, cond / 1e3)
        assert np.linalg.norm(node.x - spectral.x) <= tol * np.linalg.norm(spectral.x)

    def test_one_lanczos_basis_per_column(self, graph30, monkeypatch):
        rows = []
        real = graphred.graphs.lanczos
        monkeypatch.setattr(graphred.graphs, "lanczos", lambda m, b, *a: rows.append(len(b)) or real(m, b, *a))
        lap, _ = graph30
        den = Denoiser(kind="pnp", alpha=1.0, rho=1.0)
        for y in (np.arange(lap.n_nodes, dtype=float), np.random.default_rng(0).standard_normal((lap.n_nodes, 3))):
            prob = RedProblem(y=y, alpha_red=1.0, denoiser=den, lap=lap)
            red_cg_solve(prob, 10)
            red_cg_solve(prob, 10, pnp_rho_layers=np.linspace(0.5, 2.0, 11))
            red_cg_solve(prob, 10, alpha_denoiser_layers=np.linspace(0.5, 2.0, 11))
            red_cg_solve(prob, 10, alpha_red_layers=np.linspace(0.5, 2.0, 11))
        assert rows == [1] * 4 + [3] * 4


@pytest.fixture(scope="module")
def graph300():
    return setup_graph(3, n=300)


class TestLanczosNodePath:
    """The Lanczos node path against the sparse-LU oracle: the node-space CG the path replaced."""

    COLUMNS = {
        "random": lambda rng, dec: rng.standard_normal(dec.n_nodes),
        "zero": lambda rng, dec: np.zeros(dec.n_nodes),
        "constant": lambda rng, dec: np.full(dec.n_nodes, rng.uniform(-3.0, 3.0)),
        "eigenvector": lambda rng, dec: 2.0 * dec.basis[:, rng.integers(1, dec.n_nodes)],
    }

    @staticmethod
    def oracle_reg(lap, kind, alpha, rho, iters):
        if kind == "lr":
            return lambda v: v - lr_denoise(lap, v, alpha)
        return lambda v: v - pnp_admm_denoise(lap, v, alpha, rho, iters)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]),
        per_layer=st.booleans(),
        columns=st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=3),
        K=st.integers(1, 10),
        alpha_red=st.floats(0.0, 100.0),
        alpha=st.floats(1e-3, 1e3),
        rho=st.floats(1e-2, 1e2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="pnp", per_layer=True, columns=["random", "zero", "constant"], K=10, alpha_red=3.0,
             alpha=0.3, rho=1.0, seed=1)
    def test_matches_sparse_lu_oracle(self, graph300, kind, per_layer, columns, K, alpha_red, alpha, rho, seed):
        lap, dec = graph300
        rng = np.random.default_rng(seed)
        y = np.column_stack([self.COLUMNS[c](rng, dec) for c in columns])
        y = y[:, 0] if len(columns) == 1 else y
        spread = lambda v: v * rng.uniform(0.5, 2.0, K + 1) if per_layer else np.full(K + 1, v)  # noqa: E731
        a_red, a_den, rhos = spread(alpha_red), spread(alpha), spread(rho)
        den = Denoiser(kind=kind, alpha=alpha, rho=rho if kind == "pnp" else None)
        layers = {"alpha_red_layers": a_red, "alpha_denoiser_layers": a_den}
        if kind == "pnp":
            layers["pnp_rho_layers"] = rhos
        got = red_cg_solve(RedProblem(y=y, alpha_red=alpha_red, denoiser=den, lap=lap), K, **layers)
        regs = [self.oracle_reg(lap, kind, a, r, den.iters) for a, r in zip(a_den, rhos)]
        want = red_cg_layers(y, regs, list(a_red), objective=True)
        applied = apply_denoiser(den, lap, y)
        applied_want = lr_denoise(lap, y, alpha) if kind == "lr" else pnp_admm_denoise(lap, y, alpha, rho)
        # Both paths round by about eps times the condition bound of the RED
        # operator times that of I + alpha L.  Over 4,000 random cases the
        # solves' gap stayed below 2.8e-11 of that bound; the largest were
        # eigenvector columns under per-layer parameters, where the CG
        # recursion amplifies rounding and the spectral path is as far from
        # both.  The denoisers' gap stayed below 2e-15 of it, and the
        # histories' below 5e-13 of it times their largest entry.
        cond = (1.0 + np.max(a_red)) * (1.0 + np.max(a_den) * dec.eigenvalues[-1])
        assert np.linalg.norm(got.x - want.x) <= 1e-10 * cond * np.linalg.norm(want.x)
        assert np.linalg.norm(applied - applied_want) <= 1e-13 * cond * np.linalg.norm(applied_want)
        # Either may stop early once every column converged; the layers both ran agree.
        for name in ("gradient_norm_history", "objective_history"):
            a, b = (np.array(getattr(r, name)[: min(got.iterations, want.iterations) + 1]) for r in (got, want))
            assert np.all(np.abs(a - b) <= 1e-11 * cond * np.max(np.abs(b), axis=0))


class TestProblemValidation:
    def test_rejects_nonfinite_observation(self):
        lap, _ = setup_graph(0)
        y = np.ones(lap.n_nodes)
        y[0] = np.nan
        with pytest.raises(ValueError):
            lr_problem(y, 1.0, 1.0, lap)

    def test_rejects_negative_alpha_red(self):
        lap, _ = setup_graph(0)
        with pytest.raises(ValueError):
            lr_problem(np.ones(lap.n_nodes), -0.1, 1.0, lap)

    def test_rejects_mismatched_decomp(self):
        lap, _ = setup_graph(0, n=20)
        _, other = setup_graph(1, n=30)
        with pytest.raises(ValueError):
            lr_problem(np.ones(20), 1.0, 1.0, lap, other)


class TestConditionCheckers:
    def test_lr_homogeneity_machine_precision(self):
        lap, dec = setup_graph(1)
        den = Denoiser(kind="lr", alpha=1.0)
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = rng.standard_normal(lap.n_nodes)
            assert check_homogeneity(den, x, 1.1, lap=lap, decomp=dec) <= 1e-12

    def test_any_denoiser_exact_at_unit_scale(self):
        lap, _ = setup_graph(2)
        den = Denoiser(kind="pnp", alpha=1.0, rho=1.0)
        rng = np.random.default_rng(16)
        x = rng.standard_normal(lap.n_nodes)
        assert check_homogeneity(den, x, 1.0, lap=lap) == 0.0

    def test_lr_passivity_bounded_by_one(self):
        lap, _ = setup_graph(3)
        den = Denoiser(kind="lr", alpha=2.0)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.standard_normal(lap.n_nodes)
            assert check_passivity(den, x, lap=lap) <= 1.0

    def test_all_ones_probe_ratio_is_one(self):
        lap, _ = setup_graph(4)
        den = Denoiser(kind="lr", alpha=1.0)
        ratio = check_passivity(den, np.ones(lap.n_nodes), lap=lap)
        assert abs(ratio - 1.0) <= 1e-12

    def test_callable_denoiser_accepted(self):
        lap, _ = setup_graph(5)
        rng = np.random.default_rng(18)
        x = rng.standard_normal(lap.n_nodes)
        half = lambda v: 0.5 * v
        assert check_homogeneity(half, x, 1.1) <= 1e-15
        assert abs(check_passivity(half, x) - 0.25) <= 1e-12

    def test_input_validation(self):
        lap, _ = setup_graph(6)
        den = Denoiser(kind="lr", alpha=1.0)
        with pytest.raises(ValueError):
            check_homogeneity(den, np.zeros(lap.n_nodes), lap=lap)
        with pytest.raises(ValueError):
            check_homogeneity(den, np.ones(lap.n_nodes), c=-1.0, lap=lap)
        with pytest.raises(ValueError):
            check_passivity(den, np.zeros(lap.n_nodes), lap=lap)

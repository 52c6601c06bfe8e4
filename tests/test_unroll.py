import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import graphred.red
import graphred.unroll
from graphred import (
    AdamState,
    ConfigError,
    Denoiser,
    RedProblem,
    TrainConfig,
    TrainSample,
    UnrolledParams,
    adam_step,
    build_laplacian,
    eigendecompose,
    knn_graph,
    load_params,
    make_n2n_pair,
    mse,
    normalize_weights,
    red_cg_solve,
    rmse,
    save_loss_history,
    save_params,
    softplus,
    softplus_inv,
    train,
    unrolled_forward,
)
from graphred.datasets import add_noise, generate_bandlimited, generate_sensor_points
from graphred.denoisers import KINDS, gain_table
from graphred.graphs import gft
from graphred.red import CONVERGED_TOL, candidate_mse, red_cg_layers
from graphred.unroll import FD_STEP, _epoch_pairs, _exact_loss_grad, _fd_loss_grad, _spectral_pairs


def setup_training(seed=0, n=40, k=4, n_samples=3, sigma=0.5):
    pts = generate_sensor_points(n, seed=seed)
    lap = build_laplacian(normalize_weights(knn_graph(pts, k)))
    dec = eigendecompose(lap)
    x = generate_bandlimited(dec)
    y = np.column_stack([add_noise(x, sigma, seed=s) for s in range(n_samples)])
    target = np.repeat(x[:, None], n_samples, axis=1)
    return lap, dec, y, target


def random_params(K, kind, seed=0, flat_from=None):
    """Per-layer parameters of every field of ``kind``, drawn in (0.2, 3); layers ``flat_from`` on repeat one row."""
    layers = {}
    for name in UnrolledParams.layer_names(kind):
        layers[name] = np.random.default_rng([seed, len(layers)]).uniform(0.2, 3.0, K + 1)
        if flat_from is not None:
            layers[name][flat_from:] = layers[name][flat_from]
    return UnrolledParams(K=K, denoiser_kind=kind, **layers)


class TestUnrolledParams:
    def test_parameter_counts_match_table(self):
        assert UnrolledParams.constant(10, "lr", 1.0, 1.0).n_params == 22
        assert UnrolledParams.constant(10, "pnp", 1.0, 1.0, 1.0).n_params == 33
        for kind, spec in KINDS.items():
            for K in (1, 4):
                assert random_params(K, kind).n_params == (1 + len(spec.fields)) * (K + 1)

    def test_layer_lengths_validated(self):
        with pytest.raises(ValueError):
            UnrolledParams(
                K=3,
                denoiser_kind="lr",
                alpha_red_layers=np.ones(3),
                alpha_denoiser_layers=np.ones(4),
            )

    def test_shape_and_finiteness_are_reported_apart(self):
        with pytest.raises(ValueError, match=r"alpha_red_layers must hold K \+ 1 = 4 values, not shape \(3,\)"):
            UnrolledParams(K=3, denoiser_kind="lr", alpha_red_layers=np.ones(3), alpha_denoiser_layers=np.ones(4))
        layers = np.ones(4)
        layers[2] = np.inf
        with pytest.raises(ValueError, match="alpha_denoiser_layers must be finite, got inf at layer 2"):
            UnrolledParams(K=3, denoiser_kind="lr", alpha_red_layers=np.ones(4), alpha_denoiser_layers=layers)

    def test_pnp_requires_rho(self):
        with pytest.raises(ValueError):
            UnrolledParams(
                K=2,
                denoiser_kind="pnp",
                alpha_red_layers=np.ones(3),
                alpha_denoiser_layers=np.ones(3),
            )

    def test_lr_forbids_rho(self):
        with pytest.raises(ValueError):
            UnrolledParams(
                K=2,
                denoiser_kind="lr",
                alpha_red_layers=np.ones(3),
                alpha_denoiser_layers=np.ones(3),
                pnp_rho_layers=np.ones(3),
            )

    def test_theta_roundtrip(self):
        for kind in KINDS:
            p = random_params(4, kind)
            theta = p.to_theta()
            assert theta.shape == (p.n_params,)
            q = UnrolledParams.from_theta(4, kind, theta)
            # theta holds one block of K + 1 entries per used field, alpha_red first.
            for name, block in zip(UnrolledParams.layer_names(kind), theta.reshape(-1, 5)):
                assert np.array_equal(getattr(q, name), softplus(block))
                assert np.allclose(getattr(q, name), getattr(p, name), rtol=1e-12)
            unused = {"alpha_denoiser_layers", "pnp_rho_layers"} - set(UnrolledParams.layer_names(kind))
            assert all(getattr(q, name) is None for name in unused)

    def test_decoded_alphas_always_positive(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(-20, 20, size=10)
        p = UnrolledParams.from_theta(4, "lr", theta)
        assert np.all(np.asarray(p.alpha_red_layers) > 0)
        assert np.all(np.asarray(p.alpha_denoiser_layers) > 0)

    def test_softplus_inverse(self):
        for a in (1e-6, 0.5, 3.0, 40.0):
            assert abs(softplus(softplus_inv(a)) - a) <= 1e-12 * max(1.0, a)
        with pytest.raises(ValueError):
            softplus_inv(0.0)

    def test_json_roundtrip_exact(self, tmp_path):
        for kind in KINDS:
            p = random_params(10, kind, seed=1)
            path = tmp_path / f"params_{kind}.json"
            save_params(p, path)
            q = load_params(path)
            assert q.K == p.K and q.denoiser_kind == kind
            for name in ("alpha_red_layers", "alpha_denoiser_layers", "pnp_rho_layers"):
                a, b = getattr(q, name), getattr(p, name)
                assert (a is None and b is None) or np.array_equal(a, b)
            assert list(json.loads(path.read_text())) == ["K", "denoiser_kind", *UnrolledParams.layer_names(kind)]

    def test_unknown_json_key_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(UnrolledParams.constant(2, "lr", 1.0, 1.0), path)
        payload = path.read_text().replace('"K"', '"extra": 1, "K"', 1)
        path.write_text(payload)
        with pytest.raises(ConfigError):
            load_params(path)


class TestForward:
    def test_flat_params_reduce_to_scalar_solver(self):
        lap, dec, y, _ = setup_training()
        params = UnrolledParams.constant(6, "lr", 1.3, 2.1)
        prob = RedProblem(y=y, alpha_red=1.3, denoiser=Denoiser(kind="lr", alpha=2.1), lap=lap, decomp=dec)
        assert np.array_equal(unrolled_forward(lap, y, params, decomp=dec), red_cg_solve(prob, 6).x)

    def test_flat_pnp_params_reduce_to_scalar_solver(self):
        lap, dec, y, _ = setup_training(1)
        params = UnrolledParams.constant(5, "pnp", 1.3, 2.1, 0.8)
        prob = RedProblem(
            y=y, alpha_red=1.3, denoiser=Denoiser(kind="pnp", alpha=2.1, rho=0.8), lap=lap, decomp=dec
        )
        assert np.array_equal(unrolled_forward(lap, y, params, decomp=dec), red_cg_solve(prob, 5).x)

    @pytest.mark.parametrize("spectral", [True, False])
    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("per_layer", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_red_cg_solve(self, kind, per_layer, columns, spectral):
        # unrolled_forward runs the per-layer solve directly; red_cg_solve, given the
        # same layers through its arguments, is its oracle, bit for bit.
        lap, dec, y, _ = setup_training({"lr": 0, "pnp": 1}[kind], n_samples=columns or 1)
        y = y if columns else y[:, 0]
        K = 6
        # Repeated layers share an op object, as red_cg_solve's flat layers do.
        params = random_params(K, kind, seed=2, flat_from=3) if per_layer else UnrolledParams.constant(K, kind, 1.3, 2.1, 0.8)
        den = Denoiser(kind=kind, alpha=2.1, rho=0.8)
        prob = RedProblem(y=y, alpha_red=1.3, denoiser=den, lap=lap, decomp=dec if spectral else None)
        # red_cg_solve's per-layer arguments are named as the UnrolledParams fields.
        expected = red_cg_solve(prob, K, **(params.layers() if per_layer else {})).x
        out = unrolled_forward(lap, y, params, decomp=dec if spectral else None)
        assert out.shape == y.shape
        assert np.array_equal(out, expected)

    def test_zero_alpha_red_layers_return_observation(self):
        lap, dec, y, _ = setup_training(2)
        params = UnrolledParams(
            K=4,
            denoiser_kind="lr",
            alpha_red_layers=np.zeros(5),
            alpha_denoiser_layers=np.ones(5),
        )
        out = unrolled_forward(lap, y, params, decomp=dec)
        assert np.allclose(out, y, atol=1e-12 * np.linalg.norm(y))


class TestLosses:
    def test_mse_rmse_hand_values(self):
        x_hat = np.array([0.0, 0.0])
        x_star = np.array([3.0, 4.0])
        assert abs(mse(x_hat, x_star) - 12.5) <= 1e-12
        assert abs(rmse(x_hat, x_star) - np.sqrt(12.5)) <= 1e-12
        assert rmse(x_star, x_star) == 0.0

    def test_pure_noise_rmse_near_sigma(self):
        rng = np.random.default_rng(1)
        x = np.zeros(4000)
        y = x + 10.0 * rng.standard_normal(4000)
        assert abs(rmse(y, x) - 10.0) <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))


class TestNoise2NoisePairs:
    def test_degenerate_range_returns_input(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(20)
        noisy, target = make_n2n_pair(y, (0.0, 0.0), np.random.default_rng(0))
        assert np.array_equal(noisy, y)
        assert np.array_equal(target, y)

    def test_mean_and_variance(self):
        y = np.zeros(10_000)
        sigma = 2.0
        noisy, _ = make_n2n_pair(y, (sigma, sigma), np.random.default_rng(3))
        diff = noisy - y
        se = sigma / np.sqrt(diff.size)
        assert abs(diff.mean()) <= 3 * se
        assert abs(diff.var() - sigma**2) <= 0.05 * sigma**2

    def test_per_column_sigmas_for_batches(self):
        y = np.zeros((5000, 2))
        noisy, _ = make_n2n_pair(y, (0.1, 3.0), np.random.default_rng(4))
        stds = (noisy - y).std(axis=0)
        assert abs(stds[0] - stds[1]) > 1e-3  # independent draws per column


class TestAdam:
    def test_zero_gradient_no_movement(self):
        theta = np.array([1.0, -2.0])
        new, _ = adam_step(theta, np.zeros(2), None, lr=0.01)
        assert np.max(np.abs(new - theta)) <= 1e-12

    def test_first_step_magnitude_near_lr(self):
        theta = np.zeros(3)
        grad = np.array([0.5, -2.0, 10.0])
        new, _ = adam_step(theta, grad, None, lr=0.01)
        assert np.allclose(np.abs(new - theta), 0.01, rtol=1e-6)

    def test_constant_gradient_step_approaches_lr(self):
        theta = np.zeros(1)
        state = AdamState.fresh(1)
        grad = np.array([3.0])
        prev = theta
        for _ in range(200):
            theta, state = adam_step(theta, grad, state, lr=0.01)
            step = theta - prev
            prev = theta
        assert abs(abs(step[0]) - 0.01) <= 1e-4
        assert step[0] < 0


class TestGradients:
    def test_fd_matches_analytic(self):
        lap, dec, y, target = setup_training(3, n=50, k=5)
        K = 6
        params = UnrolledParams.constant(K, "lr", 1.3, 2.1)
        pairs = _epoch_pairs([TrainSample(y=y, target=target)], TrainConfig(epochs=1), 0)
        theta = params.to_theta()
        l_fd, g_fd = _fd_loss_grad(_spectral_pairs(pairs, dec), dec, K, "lr", theta)
        l_an, g_an = _exact_loss_grad(_spectral_pairs(pairs, dec), dec, K, "lr", theta)
        assert abs(l_fd - l_an) <= 1e-12 * max(1.0, abs(l_an))
        assert np.linalg.norm(g_fd - g_an) / np.linalg.norm(g_an) <= 1e-4

    def test_zero_observation_column_matches_fd(self):
        # The solver marks an all-zero column converged at once; the exact gradient must too.
        lap, dec, y, target = setup_training(3, n=50, k=5)
        y[:, 1] = 0.0
        K = 6
        init = UnrolledParams.constant(K, "lr", 1.3, 2.1)
        theta = init.to_theta()
        pairs = _epoch_pairs([TrainSample(y=y, target=target)], TrainConfig(epochs=1), 0)
        l_fd, g_fd = _fd_loss_grad(_spectral_pairs(pairs, dec), dec, K, "lr", theta)
        l_an, g_an = _exact_loss_grad(_spectral_pairs(pairs, dec), dec, K, "lr", theta)
        assert np.isfinite(l_an) and np.all(np.isfinite(g_an))
        assert abs(l_fd - l_an) <= 1e-12 * max(1.0, abs(l_an))
        assert np.linalg.norm(g_fd - g_an) / np.linalg.norm(g_an) <= 1e-4
        config = TrainConfig(mode="supervised", epochs=3, gradient_method="analytic_linear")
        _, history = train([TrainSample(y=y, target=target)], config, init, lap, decomp=dec)
        assert np.all(np.isfinite(history))


def per_point_fd(pairs, lap, dec, K, kind, theta, pnp_iters):
    """Reference: one unrolled_forward per pair for each of the 2P+1 points."""

    def loss(th):
        params = UnrolledParams.from_theta(K, kind, th)
        total = 0.0
        for y, target in pairs:
            total += mse(unrolled_forward(lap, y, params, decomp=dec, pnp_iters=pnp_iters), target)
        return total / len(pairs)

    grad = np.zeros_like(theta)
    for j in range(theta.size):
        h = FD_STEP * max(1.0, abs(theta[j]))
        plus, minus = theta.copy(), theta.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (loss(plus) - loss(minus)) / (2.0 * h)
    return loss(theta), grad


def full_run_fd(pairs, dec, K, kind, theta, pnp_iters):
    """Reference: the blocked finite-difference pass that runs every point from x = 0 through all K layers."""
    n = K + 1
    live = np.flatnonzero(np.arange(theta.size) % n)
    h = FD_STEP * np.maximum(1.0, np.abs(theta[live]))
    steps = np.zeros((live.size, theta.size))
    steps[np.arange(live.size), live] = h
    decoded = softplus(np.vstack([theta, theta + steps, theta - steps]))
    a_red = decoded[:, :n]
    den_rows = np.swapaxes(decoded[:, n:].reshape(len(decoded), -1, n), 1, 2)
    distinct, index = np.unique(den_rows.reshape(-1, den_rows.shape[2]), axis=0, return_inverse=True)
    index = index.reshape(a_red.shape)
    shortfall = 1.0 - gain_table(kind, dec.eigenvalues, distinct, pnp_iters)
    total = np.zeros(len(decoded))
    for z, t in _spectral_pairs(pairs, dec):

        def solve(cand, obs, n_sig=z.shape[1]):
            cols = np.repeat(cand, n_sig)
            shorts = [np.repeat(shortfall[index[cand, k]].T, n_sig, axis=1) for k in range(n)]
            regs = [lambda v, s=s: s * v for s in shorts]
            return red_cg_layers(obs, regs, [a_red[cols, k] for k in range(n)]).x

        total += candidate_mse(z, t, len(decoded), solve)
    loss = total / len(pairs)
    grad = np.zeros(theta.size)
    grad[live] = (loss[1 : live.size + 1] - loss[live.size + 1 :]) / (2.0 * h)
    return loss[0], grad


@pytest.fixture(scope="module")
def fd_graph():
    return setup_training(12, n=30, k=4, n_samples=3)


class TestBatchedFiniteDifferences:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]),
        K=st.integers(1, 5),
        scalars=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        flat=st.booleans(),
        shape=st.sampled_from(["single", "batch", "zero_column"]),
        pnp_iters=st.integers(1, 10),
        block=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    # Recorded counterexample to a bound relative to the gradient norm (7.8e-5 here).
    @example(kind="pnp", K=1, scalars=(0.125, 0.109375, 0.109375), flat=False, shape="single",
             pnp_iters=1, block=100, seed=0)
    def test_matches_per_point_oracle(self, fd_graph, kind, K, scalars, flat, shape, pnp_iters, block, seed):
        lap, dec, y, target = fd_graph
        a_red, a_den, rho = scalars
        theta = UnrolledParams.constant(K, kind, a_red, a_den, rho if kind == "pnp" else None).to_theta()
        rng = np.random.default_rng(seed)
        if not flat:
            theta = theta + rng.uniform(-1.0, 1.0, theta.size)
        if shape == "single":
            y, target = y[:, 0], target[:, 0]
        elif shape == "zero_column":
            y = y.copy()
            y[:, 1] = 0.0
        pairs = [(y, target)]
        # The block size must not change any column's result.
        with mock.patch.object(graphred.red, "BLOCK_COLUMNS", block):
            loss, grad = _fd_loss_grad(_spectral_pairs(pairs, dec), dec, K, kind, theta, pnp_iters)
        ref_loss, ref_grad = per_point_fd(pairs, lap, dec, K, kind, theta, pnp_iters)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        # Both passes evaluate every point's loss, rounding it by a few ulps of
        # the loss in different orders; a central difference divides that by
        # 2 h_j, so gradients differ by about eps L / h_j per entry whatever
        # the gradient's size (at most 2.9 eps L sqrt(sum h_j^-2) in 401 cases).
        live = np.arange(theta.size) % (K + 1) != 0
        h = FD_STEP * np.maximum(1.0, np.abs(theta[live]))
        rounding = np.finfo(float).eps * abs(ref_loss) * np.sqrt(np.sum(h**-2.0))
        assert np.linalg.norm(grad - ref_grad) <= 8.0 * rounding

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]),
        K=st.integers(1, 6),
        scalars=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        flat=st.booleans(),
        shape=st.sampled_from(["single", "batch", "zero_column", "eigenvector_column"]),
        pnp_iters=st.integers(1, 10),
        block=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_full_runs_bit_for_bit(self, fd_graph, kind, K, scalars, flat, shape, pnp_iters, block, seed):
        lap, dec, y, target = fd_graph
        a_red, a_den, rho = scalars
        theta = UnrolledParams.constant(K, kind, a_red, a_den, rho if kind == "pnp" else None).to_theta()
        if not flat:
            theta = theta + np.random.default_rng(seed).uniform(-1.0, 1.0, theta.size)
        y = y.copy()
        if shape == "single":
            y, target = y[:, 0], target[:, 0]
        elif shape == "zero_column":
            y[:, 1] = 0.0
        elif shape == "eigenvector_column":
            y[:, 1] = 3.0 * dec.basis[:, 4]
        pairs = [(y, target)]
        with mock.patch.object(graphred.red, "BLOCK_COLUMNS", block):
            loss, grad = _fd_loss_grad(_spectral_pairs(pairs, dec), dec, K, kind, theta, pnp_iters)
        # The reference runs one point per block, so a single signal's points
        # are lone columns there too (numpy sums those in another order).
        with mock.patch.object(graphred.red, "BLOCK_COLUMNS", 1 if y.ndim == 1 else y.shape[1]):
            ref_loss, ref_grad = full_run_fd(pairs, dec, K, kind, theta, pnp_iters)
        assert loss == ref_loss and np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("kind, per_layer", [("lr", 4), ("pnp", 6)])
    @pytest.mark.parametrize("block", [5, 100])
    def test_points_run_only_from_their_layer(self, fd_graph, monkeypatch, kind, per_layer, block):
        lap, dec, y, target = fd_graph
        K, n_sig = 5, y.shape[1]
        widths = []
        real = graphred.unroll.red_cg_layers

        def counted(obs, regs, alpha_red, *args, **kwargs):
            # Layers 1..K call their op twice (direction and iterate), layer 0 once at x = 0.
            wrap = lambda op: lambda v: widths.append(v.shape[1]) or op(v)  # noqa: E731
            regs = [op if k == 0 or op is None else wrap(op) for k, op in enumerate(regs)]
            return real(obs, regs, alpha_red, *args, **kwargs)

        monkeypatch.setattr(graphred.unroll, "red_cg_layers", counted)
        theta = UnrolledParams.constant(K, kind, 1.3, 2.1, 0.8 if kind == "pnp" else None).to_theta()
        theta = theta + np.random.default_rng(3).uniform(-1.0, 1.0, theta.size)
        with mock.patch.object(graphred.red, "BLOCK_COLUMNS", block):
            _fd_loss_grad(_spectral_pairs([(y, target)], dec), dec, K, kind, theta)
        # The centre runs K layers; a point that perturbs layer j runs K - j + 1.
        expected = K * n_sig + sum(per_layer * (K - j + 1) * n_sig for j in range(1, K + 1))
        assert sum(widths) == 2 * expected

    def test_pnp_gains_once_per_distinct_layer_denoiser(self, fd_graph, monkeypatch):
        lap, dec, y, target = fd_graph
        K = 6
        rows = []
        real = graphred.unroll.gain_table

        def counted(kind, lambdas, params, *args):
            params = np.asarray(params)
            rows.extend(map(tuple, params))
            return real(kind, lambdas, params, *args)

        monkeypatch.setattr(graphred.unroll, "gain_table", counted)
        init = UnrolledParams.constant(K, "pnp", 1.3, 2.1, 0.8)
        theta = init.to_theta() + np.random.default_rng(0).uniform(-1.0, 1.0, init.n_params)
        _fd_loss_grad(_spectral_pairs([(y, target)], dec), dec, K, "pnp", theta)
        # Per layer: the centre, alpha +- h and rho +- h; layer 0 is never perturbed.
        assert len(rows) == len(set(rows)) == 5 * K + 1
        rows.clear()
        _fd_loss_grad(_spectral_pairs([(y, target)], dec), dec, K, "pnp", init.to_theta())
        assert len(rows) == 5  # flat layers share all five

    def test_block_width_does_not_change_bits(self, fd_graph):
        lap, dec, y, target = fd_graph
        K = 4
        theta = UnrolledParams.constant(K, "pnp", 1.3, 2.1, 0.8).to_theta()
        theta = theta + np.random.default_rng(2).uniform(-1.0, 1.0, theta.size)
        runs = []
        for block in (y.shape[1], 2 * y.shape[1], 100):  # one, two, several candidates per block
            with mock.patch.object(graphred.red, "BLOCK_COLUMNS", block):
                runs.append(_fd_loss_grad(_spectral_pairs([(y, target)], dec), dec, K, "pnp", theta))
        for loss, grad in runs[1:]:
            assert loss == runs[0][0] and np.array_equal(grad, runs[0][1])

    def test_non_finite_observation_rejected(self, fd_graph):
        lap, dec, y, target = fd_graph
        y = y.copy()
        y[0, 0] = np.nan
        init = UnrolledParams.constant(3, "lr", 1.0, 1.0)
        for method in ("finite_difference", "exact"):
            config = TrainConfig(epochs=1, gradient_method=method)
            with pytest.raises(ValueError, match="finite"):
                train([TrainSample(y=y, target=target)], config, init, lap, decomp=dec)

    def test_target_shape_checked(self, fd_graph):
        lap, dec, y, target = fd_graph
        init = UnrolledParams.constant(3, "lr", 1.0, 1.0)
        for method in ("finite_difference", "analytic_linear", "exact"):
            config = TrainConfig(epochs=1, gradient_method=method)
            with pytest.raises(ValueError, match="shape"):
                train([TrainSample(y=y, target=target[:, 0])], config, init, lap, decomp=dec)


def complex_step_loss_grad(pairs, dec, K, kind, theta, pnp_iters, h=1e-30):
    """Reference: the loss and its complex-step gradient ``Im L(theta + i h e_j) / h``.

    A small batched forward pass of the spectral CG recursion, written apart
    from the package with layer operators ``m_k = 1 + alpha_red[k] (1 - gain_k)``;
    complex arithmetic carries the derivative, and the converged mask (no
    step, then a restarted direction) is taken on real parts, as the solver
    takes it.
    Also returns the smallest relative gradient norm of any column the
    solver stepped, which bounds how well the solve determines a derivative.
    """
    lam = dec.eigenvalues
    smallest = [np.inf]

    def loss(th):
        decoded = np.log1p(np.exp(th)).reshape(-1, K + 1)  # softplus, analytic
        gains = 1.0 / (1.0 + decoded[1][:, None] * lam)
        if kind == "pnp":
            rho = decoded[2][:, None]
            x, u = np.ones_like(gains), np.zeros_like(gains)
            for _ in range(pnp_iters):
                v = gains * (x + u)
                x = (1.0 + rho * (v - u)) / (1.0 + rho)
                u = u + x - v
            gains = x
        m = 1.0 + decoded[0][:, None] * (1.0 - gains)
        total = 0.0
        for y, target in pairs:
            z = gft(dec, y).reshape(len(lam), -1) + 0j
            t = gft(dec, target).reshape(len(lam), -1)
            scale = np.maximum(np.linalg.norm(z.real, axis=0), 1.0)
            x, g, p = np.zeros_like(z), -z, z
            gsq = np.sum(g * g, axis=0)
            for k in range(1, K + 1):
                converged = np.sqrt(gsq.real) <= CONVERGED_TOL * scale
                # As the solver: stop only if the layers left repeat the one that judged convergence.
                if np.all(converged) and all(np.array_equal(m[i], m[k - 1]) for i in range(k, K + 1)):
                    break
                smallest[0] = np.min(np.sqrt(gsq.real[~converged]) / scale[~converged], initial=smallest[0])
                denom = np.where(converged, 1.0, np.sum(p * m[k][:, None] * p, axis=0))
                x = x + np.where(converged, 0.0, -np.sum(p * g, axis=0) / denom) * p
                g_new = m[k][:, None] * x - z
                gsq_new = np.sum(g_new * g_new, axis=0)
                gamma = np.where(converged, 0.0, gsq_new / np.where(converged, 1.0, gsq))
                p, g, gsq = -g_new + gamma * p, g_new, gsq_new
            total = total + np.sum((x - t) ** 2) / x.size
        return total / len(pairs)

    grad = np.array([loss(theta + 1j * h * e).imag / h for e in np.eye(theta.size)])
    return loss(theta + 0j).real, grad, smallest[0]


def check_exact_against_complex_step(fd_graph, kind, K, scalars, flat, shape, pnp_iters, seed):
    lap, dec, y, target = fd_graph
    a_red, a_den, rho = scalars
    theta = UnrolledParams.constant(K, kind, a_red, a_den, rho if kind == "pnp" else None).to_theta()
    if not flat:
        theta = theta + np.random.default_rng(seed).uniform(-1.0, 1.0, theta.size)
    y = y.copy()
    if shape == "single":
        y, target = y[:, 0], target[:, 0]
    elif shape == "zero_column":
        y[:, 1] = 0.0
    elif shape == "converging_column":
        # A constant is the zero-frequency eigenvector: its column converges at layer 1.
        y[:, 1] = 3.0
    elif shape == "eigenvector_column":
        # One non-constant eigenvector converges at layer 1 too, but each
        # per-layer operator scales it differently, so it can un-converge.
        y[:, 1] = 3.0 * dec.basis[:, 4]
    loss, grad = _exact_loss_grad(_spectral_pairs([(y, target)], dec), dec, K, kind, theta, pnp_iters)
    ref_loss, ref_grad, smallest = complex_step_loss_grad([(y, target)], dec, K, kind, theta, pnp_iters)
    assert abs(loss - ref_loss) <= 1e-12 * ref_loss
    # A derivative through a column whose gradient norm has fallen to r
    # (relative) carries about eps / r relative rounding in any method.
    tol = 1e-8 + 0.1 * np.finfo(float).eps / smallest
    assert np.linalg.norm(grad - ref_grad) <= tol * np.linalg.norm(ref_grad)


class TestExactGradient:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]),
        K=st.integers(1, 10),
        scalars=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        flat=st.booleans(),
        shape=st.sampled_from(["single", "batch", "zero_column", "converging_column", "eigenvector_column"]),
        pnp_iters=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_complex_step(self, fd_graph, kind, K, scalars, flat, shape, pnp_iters, seed):
        check_exact_against_complex_step(fd_graph, kind, K, scalars, flat, shape, pnp_iters, seed)

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]),
        K=st.integers(2, 10),
        scalars=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        pnp_iters=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_restarted_column_matches_complex_step(self, fd_graph, kind, K, scalars, pnp_iters, seed):
        # Per-layer parameters un-converge the eigenvector column after layer 1;
        # its direction must restart rather than scale rounding noise up.
        check_exact_against_complex_step(fd_graph, kind, K, scalars, False, "eigenvector_column", pnp_iters, seed)

    def test_index_zero_gradient_is_exactly_zero(self, fd_graph):
        lap, dec, y, target = fd_graph
        K = 4
        theta = UnrolledParams.constant(K, "pnp", 1.3, 2.1, 0.8).to_theta()
        theta = theta + np.random.default_rng(1).uniform(-1.0, 1.0, theta.size)
        _, grad = _exact_loss_grad(_spectral_pairs([(y, target)], dec), dec, K, "pnp", theta)
        assert np.all(grad[:: K + 1] == 0.0) and np.all(grad[1 : K + 1] != 0.0)


class TestTraining:
    def test_supervised_loss_decreases(self):
        lap, dec, y, target = setup_training(4)
        init = UnrolledParams.constant(5, "lr", 1.0, 1.0)
        config = TrainConfig(mode="supervised", epochs=10, seed=0)
        _, history = train([TrainSample(y=y, target=target)], config, init, lap, decomp=dec)
        assert len(history) == 10
        assert history[-1] < history[0]

    def test_loss_history_deterministic(self):
        lap, dec, y, target = setup_training(5)
        init = UnrolledParams.constant(4, "lr", 1.0, 1.0)
        config = TrainConfig(mode="supervised", epochs=5, seed=7)
        _, h1 = train([TrainSample(y=y, target=target)], config, init, lap, decomp=dec)
        _, h2 = train([TrainSample(y=y, target=target)], config, init, lap, decomp=dec)
        assert h1 == h2

    def test_supervised_requires_targets(self):
        lap, dec, y, _ = setup_training(6)
        init = UnrolledParams.constant(3, "lr", 1.0, 1.0)
        config = TrainConfig(mode="supervised", epochs=2)
        with pytest.raises(ValueError):
            train([TrainSample(y=y)], config, init, lap, decomp=dec)

    def test_noise2noise_runs_without_targets(self):
        lap, dec, y, _ = setup_training(7)
        init = UnrolledParams.constant(3, "lr", 1.0, 1.0)
        config = TrainConfig(mode="noise2noise", epochs=4, seed=1)
        params, history = train([TrainSample(y=y)], config, init, lap, decomp=dec)
        assert len(history) == 4
        assert params.n_params == 8

    def test_resume_reproduces_next_epoch_loss(self, tmp_path):
        lap, dec, y, _ = setup_training(8)
        init = UnrolledParams.constant(4, "lr", 1.0, 1.0)
        full_cfg = TrainConfig(mode="noise2noise", epochs=6, seed=3)
        _, h_full = train([TrainSample(y=y)], full_cfg, init, lap, decomp=dec)
        half_cfg = TrainConfig(mode="noise2noise", epochs=3, seed=3)
        mid, _ = train([TrainSample(y=y)], half_cfg, init, lap, decomp=dec)
        path = tmp_path / "mid.json"
        save_params(mid, path)
        resume_cfg = TrainConfig(mode="noise2noise", epochs=1, seed=3)
        _, h_resumed = train([TrainSample(y=y)], resume_cfg, load_params(path), lap, decomp=dec, start_epoch=3)
        assert abs(h_resumed[0] - h_full[3]) <= 1e-12 * max(1.0, abs(h_full[3]))

    def test_analytic_method_restricted_to_lr(self):
        lap, dec, y, target = setup_training(9)
        init = UnrolledParams.constant(3, "pnp", 1.0, 1.0, 1.0)
        config = TrainConfig(mode="supervised", epochs=2, gradient_method="analytic_linear")
        with pytest.raises(ValueError):
            train([TrainSample(y=y, target=target)], config, init, lap, decomp=dec)

    def test_analytic_and_fd_training_agree_closely(self):
        lap, dec, y, target = setup_training(10)
        init = UnrolledParams.constant(4, "lr", 1.0, 1.0)
        samples = [TrainSample(y=y, target=target)]
        cfg_fd = TrainConfig(mode="supervised", epochs=5, seed=0, gradient_method="finite_difference")
        cfg_an = TrainConfig(mode="supervised", epochs=5, seed=0, gradient_method="analytic_linear")
        _, h_fd = train(samples, cfg_fd, init, lap, decomp=dec)
        _, h_an = train(samples, cfg_an, init, lap, decomp=dec)
        assert np.allclose(h_fd, h_an, rtol=1e-6)

    def test_exact_pnp_training_lowers_loss(self):
        lap, dec, y, target = setup_training(11)
        init = UnrolledParams.constant(5, "pnp", 5.0, 5.0, 1.0)
        config = TrainConfig(mode="supervised", epochs=10, learning_rate=0.1, gradient_method="exact")
        _, history = train([TrainSample(y=y, target=target)], config, init, lap, decomp=dec)
        assert history[-1] < 0.9 * history[0]

    def test_analytic_linear_is_exact_for_lr(self):
        lap, dec, y, target = setup_training(10)
        init = UnrolledParams.constant(4, "lr", 1.0, 1.0)
        samples = [TrainSample(y=y, target=target)]
        runs = [
            train(samples, TrainConfig(epochs=5, gradient_method=method), init, lap, decomp=dec)
            for method in ("analytic_linear", "exact")
        ]
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][0].to_theta(), runs[1][0].to_theta())

    def test_config_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="semi-supervised")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(gradient_method="autograd")


class TestHistoryIO:
    def test_loss_history_csv_format(self, tmp_path):
        path = tmp_path / "loss.csv"
        save_loss_history([0.5, 0.25], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert lines[1].startswith("0,")
        assert float(lines[2].split(",")[1]) == 0.25

"""Bit-for-bit oracles for the routines every training epoch runs.

``ref_red_cg_layers``, ``ref_fd_loss_grad`` and ``ref_exact_loss_grad`` are
the conjugate-gradient core and the two loss-gradient passes as they stood
before their numpy call counts were cut: every mask built at every layer,
``np.sum`` reductions, one ``m_bar`` accumulation per layer, and
finite-difference ops repeated to full width from a ``np.unique`` table.
The package's versions must give the same bits: outputs, histories, tapes,
losses and gradients, or the same error at the same iteration.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import graphred.red
import graphred.unroll
from graphred import GraphRedError, TrainConfig, TrainSample, UnrolledParams, adam_step, train
from graphred.denoisers import DEFAULT_PNP_ITERS, KINDS, gain_table
from graphred.exceptions import DivergenceError, StagnationError
from graphred.red import CONVERGED_TOL, STAGNATION_TOL, RedSolveReport, candidate_mse, red_cg_layers, softplus
from graphred.unroll import FD_STEP, _epoch_pairs, _exact_loss_grad, _fd_loss_grad, _spectral_pairs

from test_unroll import setup_training

# ---------------------------------------------------------------- references


def ref_flat_from(regs, alpha_red, k) -> bool:
    return all(regs[i] is regs[k] and np.array_equal(alpha_red[i], alpha_red[k]) for i in range(k + 1, len(regs)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in one of the typed errors below
def ref_red_cg_layers(
    y: np.ndarray, regs, alpha_red, tape=None, start=None, joins=None, objective=False
) -> RedSolveReport:
    K = len(regs) - 1
    if K < 1 or len(alpha_red) != K + 1:
        raise ValueError("need K >= 1 reg ops and one alpha_red per op")
    joins = dict(joins or {})
    if joins and (start is None or min(joins) <= start[0]):
        raise ValueError("columns can only join a resumed run, after its first layer")
    full_scale = np.maximum(np.linalg.norm(y, axis=0), 1.0)
    obs, scale = y, full_scale

    def gradient(x, r, k):
        d = x - obs
        if objective:
            objs.append(0.5 * np.sum(d**2, axis=0) + 0.5 * alpha_red[k] * np.sum(x * r, axis=0))
        return d + alpha_red[k] * r

    objs = []
    if start is None:
        first = 1
        x = np.zeros_like(y)
        g = gradient(x, regs[0](x), 0)
        p = -g
        gsq = np.sum(g * g, axis=0)
        gnorms = [np.sqrt(gsq)]
    else:
        first, (x, p, g, gsq) = start
        obs, scale = y[:, : x.shape[1]], full_scale[: x.shape[1]]
        gnorms = []
    iterations = 0
    converged = np.sqrt(gsq) <= CONVERGED_TOL * scale
    for k in range(first, K + 1):
        if k in joins:
            x, p, g, gsq = (np.concatenate(pair, axis=-1) for pair in zip((x, p, g, gsq), joins.pop(k)))
            obs, scale = y[:, : x.shape[1]], full_scale[: x.shape[1]]
            converged = np.sqrt(gsq) <= CONVERGED_TOL * scale
        if np.all(converged) and not joins and ref_flat_from(regs, alpha_red, k - 1):
            break
        ap = p + alpha_red[k] * regs[k](p)
        denom = np.sum(p * ap, axis=0)
        psq = np.sum(p * p, axis=0)
        stalled = np.abs(denom) < STAGNATION_TOL * psq
        if np.any(stalled & ~converged):
            raise StagnationError(
                f"line-search denominator vanished at iteration {k} "
                "(direction in the operator's null space)"
            )
        # Converged columns keep x exactly; their direction may have vanished.
        safe = np.where(stalled | converged, 1.0, denom)
        tau = np.where(converged, 0.0, -np.sum(p * g, axis=0) / safe)
        if not (np.all(np.isfinite(denom) | converged) and np.all(np.isfinite(tau))):
            raise DivergenceError(f"non-finite line search at iteration {k}", iteration=k)
        x = x + tau * p
        g_new = gradient(x, regs[k](x), k)
        gsq_new = np.sum(g_new * g_new, axis=0)
        # A non-finite entry makes its column's gsq non-finite; the full scan
        # runs only then, to tell it from a gsq overflowed by finite entries.
        if not np.all(np.isfinite(gsq_new)) and not np.all(np.isfinite(g_new)):
            raise DivergenceError(f"non-finite iterate at iteration {k}", iteration=k)
        # Converged columns restart: a ratio over a rounding-level gsq amplifies noise.
        gamma = np.where(converged, 0.0, gsq_new / np.where(converged, 1.0, gsq))
        if tape is not None:
            tape.append((p, g, gsq, converged, safe, tau, x, g_new, gamma))
        p = -g_new + gamma * p
        g = g_new
        gsq = gsq_new
        gnorms.append(np.sqrt(gsq))
        iterations = k
        converged = np.sqrt(gsq) <= CONVERGED_TOL * scale
    return RedSolveReport(
        x=x, iterations=iterations, gradient_norm_history=gnorms, objective_history=objs
    )


def ref_fd_loss_grad(pairs, decomp, K, kind, theta, pnp_iters=DEFAULT_PNP_ITERS):
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
    shortfall = 1.0 - gain_table(kind, decomp.eigenvalues, distinct, pnp_iters)
    perturbed = np.tile(live % n, 2)  # the layer each of points 1 .. 2P perturbs
    order = 1 + np.argsort(perturbed, kind="stable")
    layer = perturbed[order - 1]

    total = np.zeros(len(decoded))
    for z, t in _spectral_pairs(pairs, decomp):
        n_sig = z.shape[1]

        def layer_op(points, k):
            s = np.repeat(shortfall[index[points, k]].T, n_sig, axis=1)
            return (lambda v: s * v), np.repeat(a_red[points, k], n_sig)

        tape = []
        centre = [layer_op([0], k) for k in range(n)]  # an op object per layer: no early stop, every layer taped
        total[0] += candidate_mse(z, t, 1, lambda cand, obs: ref_red_cg_layers(obs, *zip(*centre), tape).x)[0]
        iterates = [np.zeros_like(z)] + [row[6] for row in tape]
        entering = [None] + [(iterates[k - 1],) + tape[k - 1][:3] for k in range(1, n)]  # x, p, g, gsq

        def resume(cand, obs):
            points, lay = order[cand], layer[cand]
            first = int(lay[0])
            state = lambda k: tuple(np.tile(a, np.count_nonzero(lay == k)) for a in entering[k])
            ops = [(None, None)] * first + [layer_op(points[: np.count_nonzero(lay <= k)], k) for k in range(first, n)]
            joins = {k: state(k) for k in set(lay.tolist()) if k > first}  # np.unique would import numpy.ma
            return ref_red_cg_layers(obs, *zip(*ops), start=(first, state(first)), joins=joins).x

        def run_block(cand, obs):  # not recursive: a self-calling closure is a cycle that would hold the tape
            if n_sig == 1:  # a lone signal: every point stays a lone column
                return np.hstack([resume(cand[i : i + 1], obs[:, i : i + 1]) for i in range(len(cand))])
            return resume(cand, obs)

        total[order] += candidate_mse(z, t, len(order), run_block)
    loss = total / len(pairs)
    grad = np.zeros(theta.size)
    grad[live] = (loss[1 : live.size + 1] - loss[live.size + 1 :]) / (2.0 * h)
    return loss[0], grad


def ref_exact_loss_grad(pairs, decomp, K, kind, theta, pnp_iters=DEFAULT_PNP_ITERS):
    n = K + 1
    decoded = softplus(theta).reshape(-1, n)  # alpha_red, then the denoiser's parameters
    a_red = decoded[0]
    gains, jac = KINDS[kind].jacobian(decomp.eigenvalues[None, :], decoded[1:, :, None], pnp_iters)
    short = 1.0 - gains
    m = 1.0 + a_red[:, None] * short
    regs = [lambda v, s=s[:, None]: s * v for s in short]
    m_bar = np.zeros_like(m)
    total = 0.0
    for z, t in _spectral_pairs(pairs, decomp):
        tape = []
        resid = ref_red_cg_layers(z, regs, a_red, tape).x - t
        total += float(np.sum(resid * resid)) / resid.size
        x_bar = 2.0 * resid / resid.size
        g_bar, p_bar, gsq_bar = 0.0, 0.0, 0.0  # adjoints of the layer's outputs
        for k in range(len(tape), 0, -1):
            p, g, gsq, converged, safe, tau, x, g_new, gamma = tape[k - 1]
            mk = m[k][:, None]
            # p_new = -g_new + gamma p;  gamma = gsq_new / gsq, 0 where converged
            gamma_bar = np.where(converged, 0.0, np.sum(p_bar * p, axis=0))
            g_bar = g_bar - p_bar
            p_bar = gamma * p_bar
            gsq_safe = np.where(converged, 1.0, gsq)
            gsq_bar = gsq_bar + gamma_bar / gsq_safe
            gsq_old_bar = -gamma_bar * gamma / gsq_safe
            # gsq_new = sum(g_new^2);  g_new = m_k x - z
            g_bar = g_bar + 2.0 * gsq_bar * g_new
            m_bar[k] += np.sum(g_bar * x, axis=1)
            x_bar = x_bar + mk * g_bar
            # x = x_old + tau p;  tau = -sum(p g) / sum(p m_k p), 0 where converged
            tau_bar = np.where(converged, 0.0, np.sum(x_bar * p, axis=0))
            num_bar = tau_bar / safe
            den_bar = -tau_bar * tau / safe
            p_bar = p_bar + tau * x_bar - num_bar * g + 2.0 * den_bar * (mk * p)
            m_bar[k] += np.sum(den_bar * p * p, axis=1)
            g_bar = -num_bar * p
            gsq_bar = gsq_old_bar
    m_bar /= len(pairs)
    grad = np.concatenate([np.sum(m_bar * short, axis=1), (-a_red * np.sum(m_bar * jac, axis=2)).ravel()])
    # softplus' = sigmoid(theta) = 1 - exp(-softplus(theta))
    return total / len(pairs), grad * -np.expm1(-decoded.ravel())


def ref_train(samples, config, init, decomp, pnp_iters=DEFAULT_PNP_ITERS):
    """The training loop with the references: every epoch takes its pairs' GFT."""
    loss_grad = ref_fd_loss_grad if config.gradient_method == "finite_difference" else ref_exact_loss_grad
    theta, state, history = init.to_theta(), None, []
    for epoch in range(config.epochs):
        pairs = _epoch_pairs(samples, config, epoch)
        loss, grad = loss_grad(pairs, decomp, init.K, init.denoiser_kind, theta, pnp_iters)
        history.append(float(loss))
        theta, state = adam_step(theta, grad, state, lr=config.learning_rate)
    return theta, history


# ---------------------------------------------------------------- helpers


def bits(value):
    """Shape, dtype and bytes of an array or scalar, or of each entry of a list or tuple."""
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    a = np.asarray(value)
    return a.shape, a.dtype.str, a.tobytes()


def outcome(run):
    """``run()``'s bits, or its error's type, message and iteration (a RuntimeWarning is raised too)."""
    try:
        return "ok", bits(run())
    except (GraphRedError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "iteration", None)


def report_bits(report, tape):
    return report.x, report.iterations, report.gradient_norm_history, report.objective_history, tape


@pytest.fixture(scope="module")
def graph():
    return setup_training(12, n=30, k=4, n_samples=3)


COLUMNS = ["random", "random", "zero", "constant", "eigenvector"]


def draw_signal(data, dec, n_sig):
    """``(N,)`` for ``n_sig = 0``, else ``(N, n_sig)`` columns of the kinds in ``COLUMNS``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(max(n_sig, 1)):
        kind = data.draw(st.sampled_from(COLUMNS))
        if kind == "random":
            cols.append(rng.standard_normal(dec.n_nodes))
        elif kind == "zero":
            cols.append(np.zeros(dec.n_nodes))
        elif kind == "constant":  # the zero-frequency eigenvector: converged after layer 1
            cols.append(np.full(dec.n_nodes, 3.0))
        else:  # converged after layer 1, and un-converged by a later layer's other operator
            cols.append(3.0 * dec.basis[:, data.draw(st.integers(1, dec.n_nodes - 1))])
    y = np.column_stack(cols)
    return y[:, 0] if n_sig == 0 else y


def draw_theta(data, K, kind):
    """A flat or per-layer ``theta`` for ``kind``, with strengths between 0.1 and 10."""
    scalars = [data.draw(st.floats(0.1, 10.0)) for _ in UnrolledParams.layer_names(kind)]
    theta = UnrolledParams.constant(K, kind, *scalars).to_theta()
    if data.draw(st.booleans()):
        theta = theta + np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, theta.size)
    return theta


# ---------------------------------------------------------------- the CG core


def draw_layers(data, lam, K, n_cols):
    """Per-layer ops and weights: flat layers share one op object (so the run may stop early),
    some layers may stall (``1 + a s = 0``) or carry an overflowing weight."""
    kind = data.draw(st.sampled_from(["lr", "pnp"]))
    flat = data.draw(st.booleans())
    per_column = n_cols > 0 and data.draw(st.booleans())
    ops, weights = [], []
    for k in range(K + 1):
        if flat and k:
            ops.append(ops[-1])
            weights.append(weights[-1])
            continue
        row = [data.draw(st.floats(0.1, 10.0)) for _ in KINDS[kind].fields]
        s = 1.0 - gain_table(kind, lam, [row], 3)[0]
        if per_column:
            a = np.array([data.draw(st.floats(0.1, 10.0)) for _ in range(n_cols)])
        else:
            a = data.draw(st.floats(0.1, 10.0))
        fault = data.draw(st.sampled_from([None] * 6 + ["stall", "overflow"]))
        if fault == "stall":  # the gradient operator vanishes on every frequency
            s = np.full_like(lam, -1.0 / np.max(a))
            a = np.max(a) if np.ndim(a) == 0 else np.full(n_cols, np.max(a))
        elif fault == "overflow":
            a = np.full(n_cols, 1e308) if per_column else 1e308
        ops.append(lambda v, s=s: (s[:, None] if v.ndim == 2 else s) * v)
        weights.append(a)
    return ops, weights


class TestCGCore:
    @settings(max_examples=200, deadline=None)
    @given(K=st.integers(1, 10), n_sig=st.integers(0, 4), objective=st.booleans(), data=st.data())
    def test_matches_reference(self, graph, K, n_sig, objective, data):
        lap, dec, _, _ = graph
        z = dec.basis.T @ draw_signal(data, dec, n_sig)
        ops, weights = draw_layers(data, dec.eigenvalues, K, n_sig)
        runs = []
        for cg in (red_cg_layers, ref_red_cg_layers):
            tape = []
            runs.append(outcome(lambda: report_bits(cg(z, ops, weights, tape, objective=objective), tape)))
        assert runs[0] == runs[1]

    @settings(max_examples=100, deadline=None)
    @given(K=st.integers(2, 10), n_sig=st.integers(2, 5), data=st.data())
    def test_resumed_and_joined_runs_match_reference(self, graph, K, n_sig, data):
        lap, dec, _, _ = graph
        z = dec.basis.T @ draw_signal(data, dec, n_sig)
        ops, weights = draw_layers(data, dec.eigenvalues, K, 0)
        tape = []
        try:
            ref_red_cg_layers(z, ops, weights, tape)
        except GraphRedError:
            assume(False)
        start = data.draw(st.integers(1, K - 1))
        join = data.draw(st.integers(start + 1, K))
        assume(len(tape) >= join)
        split = data.draw(st.integers(1, n_sig - 1))

        def entering(k, cols):
            """The state of columns ``cols`` entering layer k: the iterate, then p, g and gsq."""
            x = tape[k - 2][6] if k > 1 else np.zeros_like(z)
            return tuple(a[..., cols] for a in (x,) + tape[k - 1][:3])

        runs = []
        for cg in (red_cg_layers, ref_red_cg_layers):
            resumed = []
            begin, joins = (start, entering(start, slice(None, split))), {join: entering(join, slice(split, None))}
            runs.append(outcome(lambda: report_bits(cg(z, ops, weights, resumed, start=begin, joins=joins), resumed)))
        assert runs[0] == runs[1]


class TestLossGradients:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]), K=st.integers(1, 10), n_sig=st.integers(0, 3), n_pairs=st.integers(1, 2),
        pnp_iters=st.integers(1, 10), overflow=st.booleans(), data=st.data(),
    )
    def test_exact_matches_reference(self, graph, kind, K, n_sig, n_pairs, pnp_iters, overflow, data):
        lap, dec, _, _ = graph
        pairs = [(draw_signal(data, dec, n_sig), draw_signal(data, dec, n_sig)) for _ in range(n_pairs)]
        theta = draw_theta(data, K, kind)
        if overflow:  # a layer weight near the float64 maximum
            theta[data.draw(st.integers(1, K))] = 1e308
        new = outcome(lambda: _exact_loss_grad(_spectral_pairs(pairs, dec), dec, K, kind, theta, pnp_iters))
        assert new == outcome(lambda: ref_exact_loss_grad(pairs, dec, K, kind, theta, pnp_iters))

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]), K=st.integers(1, 10), n_sig=st.integers(0, 3), n_pairs=st.integers(1, 2),
        pnp_iters=st.integers(1, 5), block=st.integers(1, 100), data=st.data(),
    )
    def test_finite_differences_match_reference(self, graph, kind, K, n_sig, n_pairs, pnp_iters, block, data):
        lap, dec, _, _ = graph
        pairs = [(draw_signal(data, dec, n_sig), draw_signal(data, dec, n_sig)) for _ in range(n_pairs)]
        theta = draw_theta(data, K, kind)
        with mock.patch.object(graphred.red, "BLOCK_COLUMNS", block):
            new = outcome(lambda: _fd_loss_grad(_spectral_pairs(pairs, dec), dec, K, kind, theta, pnp_iters))
            assert new == outcome(lambda: ref_fd_loss_grad(pairs, dec, K, kind, theta, pnp_iters))


class TestTrainingLoop:
    @pytest.mark.parametrize("kind, mode, method", [
        ("lr", "supervised", "exact"), ("pnp", "supervised", "exact"), ("lr", "noise2noise", "exact"),
        ("lr", "supervised", "finite_difference"), ("pnp", "noise2noise", "finite_difference"),
    ])
    def test_matches_reference_loop(self, graph, kind, mode, method):
        lap, dec, y, target = graph
        init = UnrolledParams.constant(4, kind, 1.3, 2.1, 0.8 if kind == "pnp" else None)
        config = TrainConfig(mode=mode, epochs=4, learning_rate=0.05, seed=3, gradient_method=method)
        samples = [TrainSample(y=y, target=target)]
        params, history = train(samples, config, init, lap, decomp=dec)
        theta, ref_history = ref_train(samples, config, init, dec)
        assert bits(history) == bits(ref_history)
        want = UnrolledParams.from_theta(4, kind, theta)
        assert bits(list(params.layers().values())) == bits(list(want.layers().values()))

    @pytest.mark.parametrize("mode, calls", [("supervised", 1), ("noise2noise", 5)])
    def test_supervised_pairs_take_their_gft_once(self, graph, monkeypatch, mode, calls):
        lap, dec, y, target = graph
        seen = []
        real = graphred.unroll._spectral_pairs
        monkeypatch.setattr(graphred.unroll, "_spectral_pairs", lambda *args: seen.append(1) or real(*args))
        config = TrainConfig(mode=mode, epochs=5)
        train([TrainSample(y=y, target=target)], config, UnrolledParams.constant(3, "lr", 1.0, 1.0), lap, decomp=dec)
        assert len(seen) == calls  # noise2noise pairs change every epoch

"""Unrolled solver with learned per-layer parameters.

The conjugate-gradient solver is treated as a fixed K-layer network whose
per-layer scalars (alpha_red, the denoiser alpha, and rho for the PnP
variant) are trained with full-batch Adam.  Positivity is kept by storing
unconstrained values theta and decoding with softplus.  Supervised training
minimizes MSE against clean targets; the Noise2Noise mode re-noises each
observation and uses the original observation as the target, so no clean
signals are needed.

Gradients are exact by default: one taped forward pass of the spectral CG
core and one reverse (adjoint) sweep through it, about two forward passes
whatever the parameter count.  Central finite differences remain as an
option (:func:`_fd_loss_grad`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .denoisers import DEFAULT_PNP_ITERS, KINDS, gain_table
from .exceptions import TrainingError
from .files import mse, read_config, rmse, table_text, write_text  # noqa: F401  (mse and rmse are this module's API)
from .graphs import Laplacian, SpectralDecomp, eigendecompose, gft
from .red import UnrolledParams, _column_dot, candidate_mse, red_cg_layers, red_cg_unrolled, softplus

FD_STEP = 1e-6
_N2N_STREAM = 3  # RNG stream tag for re-noising draws


def save_params(params: UnrolledParams, path) -> None:
    write_text(path, json.dumps(params.to_json_dict(), indent=2) + "\n")  # keys in to_json_dict's order


def load_params(path) -> UnrolledParams:
    """Parameters saved by :func:`save_params`; a bad file raises :class:`ConfigError` naming it."""
    return read_config(path, UnrolledParams.from_json_dict)


def save_loss_history(history, path) -> None:
    write_text(path, table_text(np.column_stack([np.arange(len(history)), history]), header="epoch,loss"))


class TrainSample(NamedTuple):
    """One training signal; ``target`` is the clean signal in supervised
    mode and is ignored by Noise2Noise.  ``y`` may be (N,) or (N, S) with
    columns counting as independent realizations."""

    y: np.ndarray
    target: np.ndarray | None = None


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "supervised"
    learning_rate: float = 0.01
    epochs: int = 200
    sigma_n2n_range: tuple | None = None
    seed: int = 0
    gradient_method: str = "exact"

    def __post_init__(self):
        if self.mode not in ("supervised", "noise2noise"):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.gradient_method not in ("exact", "finite_difference", "analytic_linear"):
            raise ValueError(f"unknown gradient method {self.gradient_method!r}")
        if self.sigma_n2n_range is not None:
            if len(self.sigma_n2n_range) != 2:
                raise ValueError(f"sigma_n2n_range must hold two numbers, got {list(self.sigma_n2n_range)}")
            lo, hi = self.sigma_n2n_range
            if lo < 0 or hi < lo:
                raise ValueError("sigma_n2n_range must satisfy 0 <= lo <= hi")


def unrolled_forward(
    lap: Laplacian, y: np.ndarray, params: UnrolledParams, decomp: SpectralDecomp | None = None,
    pnp_iters: int = DEFAULT_PNP_ITERS,
) -> np.ndarray:
    """K-layer solver pass with ``params``; the trained forward model."""
    return red_cg_unrolled(lap, y, params, pnp_iters, decomp).x


def make_n2n_pair(y: np.ndarray, sigma_range, rng: np.random.Generator):
    """Re-noised input and original observation as the (input, target) pair.

    The noise level is drawn uniformly from ``sigma_range`` (one draw per
    column for batched input; the upper bound may be a per-column array).
    """
    y = np.asarray(y, dtype=float)
    lo, hi = sigma_range
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo < 0) or np.any(hi < lo):
        raise ValueError("sigma_range must satisfy 0 <= lo <= hi")
    if y.ndim == 1:
        sigma = rng.uniform(lo, hi)
    else:
        sigma = rng.uniform(np.broadcast_to(lo, (y.shape[1],)), np.broadcast_to(hi, (y.shape[1],)))
    return y + sigma * rng.standard_normal(y.shape), y


class AdamState(NamedTuple):
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def fresh(cls, n: int):
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


def adam_step(theta, grad, state=None, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update; returns the new point and state."""
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != theta.shape:
        raise ValueError("grad shape must match theta")
    if state is None:
        state = AdamState.fresh(theta.size)
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    theta_next = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta_next, AdamState(m=m, v=v, t=t)


def _epoch_pairs(samples, config: TrainConfig, epoch: int):
    """(input, target) arrays for one epoch.

    Noise2Noise draws are keyed on the absolute epoch index and sample
    index, so a resumed run re-creates the exact draws of the original.
    """
    pairs = []
    for idx, sample in enumerate(samples):
        y = np.asarray(sample.y, dtype=float)
        if config.mode == "supervised":
            if sample.target is None:
                raise ValueError("supervised training needs clean targets")
            pairs.append((y, np.asarray(sample.target, dtype=float)))
        else:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, _N2N_STREAM, epoch, idx]))
            if config.sigma_n2n_range is not None:
                rng_range = config.sigma_n2n_range
            else:
                rng_range = (0.0, 0.4 * np.max(np.abs(y), axis=0))
            pairs.append(make_n2n_pair(y, rng_range, rng))
    return pairs


def _spectral_pairs(pairs, decomp):
    """Each (input, target) pair as ``(N, S)`` matrices of GFT coefficients."""
    for y, t in pairs:
        if not np.all(np.isfinite(y)):
            raise ValueError("observation must be finite")
        if np.shape(y) != np.shape(t):
            raise ValueError(f"shape mismatch: {np.shape(y)} vs {np.shape(t)}")
    n = decomp.n_nodes
    return [(gft(decomp, y).reshape(n, -1), gft(decomp, t).reshape(n, -1)) for y, t in pairs]


def _fd_loss_grad(coeffs, decomp, K, kind, theta, pnp_iters=DEFAULT_PNP_ITERS):
    """Loss at ``theta`` and its central-difference gradient, each point run from the layer it perturbs.

    ``coeffs`` holds the (input, target) pairs as GFT coefficients
    (:func:`_spectral_pairs`), where the loss equals its node-space value.
    The points are ``theta`` and each ``theta +- h_j e_j``; index-0 entries
    are not perturbed (layer 0 only sees ``x = 0``, so their gradient is 0).
    The layer shortfalls ``1 - D_k`` are rows of one table, one row per
    distinct denoiser among all points and layers.

    A point that perturbs layer j computes layers 1 .. j-1 as the centre
    does.  So the centre runs once, taped, and for each layer j the 2P points
    that perturb it run as the columns of blocked CG solves
    (:func:`red.candidate_mse`) resumed at j from the centre's state, each
    with its own shortfall and weight at j and the centre's ops after it.
    Every column does the arithmetic of a full run from ``x = 0``, so loss
    and gradient keep their bits.  numpy sums a lone column in another order
    than wider arrays, so a single signal keeps every point a lone column.
    """
    n = K + 1
    live = np.flatnonzero(np.arange(theta.size) % n)
    h = FD_STEP * np.maximum(1.0, np.abs(theta[live]))
    centre = softplus(theta).reshape(-1, n)  # alpha_red, then the denoiser's parameters, by layer
    moved = softplus(np.concatenate([theta[live] + h, theta[live] - h]))  # the entry points 1 .. 2P perturb
    field, perturbed = np.tile(live // n, 2), np.tile(live % n, 2)  # which entry, and the layer it sits in
    # A point's layer-k parameters are the centre's, except at the layer it perturbs: its own weight and
    # denoiser row there.  Rows are numbered by first appearance, the centre's first.
    own_a = np.where(field == 0, moved, centre[0, perturbed])
    rows = centre[1:].T[perturbed]
    rows[field > 0, field[field > 0] - 1] = moved[field > 0]
    numbers = {}
    row_of = [numbers.setdefault(row, len(numbers)) for row in map(tuple, np.vstack([centre[1:].T, rows]).tolist())]
    shortfall = 1.0 - gain_table(kind, decomp.eigenvalues, list(numbers), pnp_iters)
    centre_short, own_short = shortfall[row_of[:n]], shortfall[row_of[n:]]
    by_layer = [np.flatnonzero(perturbed == j) for j in range(1, n)]  # layer j's points 1 .. 2P, as indices 0 .. 2P-1
    # An op object per layer: no early stop, every layer taped.
    centre_ops = [(lambda v, s=s[:, None]: s * v, a) for s, a in zip(centre_short, centre[0])]

    total = np.zeros(1 + len(perturbed))
    for z, t in coeffs:
        n_sig = z.shape[1]
        tape = []
        total[0] += candidate_mse(z, t, 1, lambda cand, obs: red_cg_layers(obs, *zip(*centre_ops), tape).x)[0]
        iterates = [np.zeros_like(z)] + [row[6] for row in tape]

        def resume(j, points, obs):
            """The ``points`` that perturb layer j, run from the centre's state entering it."""
            s = np.repeat(own_short[points].T, n_sig, axis=1)
            ops = centre_ops[:j] + [(lambda v: s * v, np.repeat(own_a[points], n_sig))] + centre_ops[j + 1 :]
            state = (iterates[j - 1],) + tape[j - 1][:3]  # x, p, g, gsq
            return red_cg_layers(obs, *zip(*ops), start=(j, tuple(np.tile(a, len(points)) for a in state))).x

        def run_block(j, points, obs):  # not recursive: a self-calling closure is a cycle that would hold the tape
            if n_sig == 1:  # a lone signal: every point stays a lone column
                return np.hstack([resume(j, points[i : i + 1], obs[:, i : i + 1]) for i in range(len(points))])
            return resume(j, points, obs)

        for j, own in enumerate(by_layer, 1):
            total[1 + own] += candidate_mse(z, t, len(own), lambda cand, obs: run_block(j, own[cand], obs))
    loss = total / len(coeffs)
    grad = np.zeros(theta.size)
    grad[live] = (loss[1 : live.size + 1] - loss[live.size + 1 :]) / (2.0 * h)
    return loss[0], grad


def _exact_loss_grad(coeffs, decomp, K, kind, theta, pnp_iters=DEFAULT_PNP_ITERS):
    """Loss at ``theta`` and its exact gradient, by one reverse sweep per pair of ``coeffs``.

    ``coeffs`` holds the (input, target) pairs as GFT coefficients
    (:func:`_spectral_pairs`), where layer k's gradient operator is the
    diagonal ``m_k = 1 + alpha_red[k] (1 - gain_k)``.  The reverse sweep walks
    the tape of a :func:`red_cg_layers` run back, sums ``dL/dm_k`` per
    frequency over columns, and takes it through ``1 - gain_k``, the gain
    Jacobian and softplus' to ``theta``.  The solver's guards hold in reverse:
    a converged column passes no adjoint through ``tau`` or ``gamma``, layers
    never run get no gradient, and the masks are built only where the
    forward pass built them.  The row sums feeding ``dL/dm_k`` run once per
    pair after the sweep, in the order a per-layer accumulation adds them.
    """
    n = K + 1
    decoded = softplus(theta).reshape(-1, n)  # alpha_red, then the denoiser's parameters
    a_red = decoded[0]
    gains, jac = KINDS[kind].jacobian(decomp.eigenvalues[None, :], decoded[1:, :, None], pnp_iters)
    short = 1.0 - gains
    m = 1.0 + a_red[:, None] * short
    regs = [lambda v, s=s[:, None]: s * v for s in short]
    m_col = m[:, :, None]
    m_bar = np.zeros_like(m)
    add = np.add.reduce  # the kernel np.sum runs, without its dispatch
    total = 0.0
    for z, t in coeffs:
        tape = []
        resid = red_cg_layers(z, regs, a_red, tape).x - t
        total += float(np.sum(resid * resid)) / resid.size
        dot = _column_dot(z, t)  # the kernel's pick: its arrays, and so the adjoints, share z's layout
        x_bar = 2.0 * resid / resid.size
        g_bar, p_bar, gsq_bar = 0.0, np.zeros_like(z), 0.0  # adjoints of the layer's outputs
        terms = []  # per layer, last first: the two products whose row sums feed m_bar
        for k in range(len(tape), 0, -1):
            p, g, gsq, converged, safe, tau, x, g_new, gamma = tape[k - 1]
            mk = m_col[k]
            masked = np.count_nonzero(converged) > 0  # as in the forward pass
            # p_new = -g_new + gamma p;  gamma = gsq_new / gsq, 0 where converged
            gamma_bar = dot(p_bar, p)
            gsq_safe = gsq
            if masked:
                gamma_bar = np.where(converged, 0.0, gamma_bar)
                gsq_safe = np.where(converged, 1.0, gsq)
            g_bar = g_bar - p_bar
            p_bar = gamma * p_bar
            gsq_bar = gsq_bar + gamma_bar / gsq_safe
            gsq_old_bar = -gamma_bar * gamma / gsq_safe
            # gsq_new = sum(g_new^2);  g_new = m_k x - z
            g_bar = g_bar + 2.0 * gsq_bar * g_new
            terms.append(g_bar * x)
            x_bar = x_bar + mk * g_bar
            # x = x_old + tau p;  tau = -sum(p g) / sum(p m_k p), 0 where converged
            tau_bar = dot(x_bar, p)
            if masked:
                tau_bar = np.where(converged, 0.0, tau_bar)
            num_bar = tau_bar / safe
            den_bar = -tau_bar * tau / safe
            p_bar = p_bar + tau * x_bar - num_bar * g + 2.0 * den_bar * (mk * p)
            terms.append(den_bar * p * p)
            g_bar = -num_bar * p
            gsq_bar = gsq_old_bar
        if terms:
            # One row-sum pass over every layer, added as a per-layer "m_bar[k] += A; m_bar[k] += B" would.
            sums = add(np.stack(terms), axis=-1).reshape(len(tape), 2, -1)[::-1]
            m_bar[1 : len(tape) + 1] = (m_bar[1 : len(tape) + 1] + sums[:, 0]) + sums[:, 1]
    m_bar /= len(coeffs)
    grad = np.concatenate([np.sum(m_bar * short, axis=1), (-a_red * np.sum(m_bar * jac, axis=2)).ravel()])
    # softplus' = sigmoid(theta) = 1 - exp(-softplus(theta))
    return total / len(coeffs), grad * -np.expm1(-decoded.ravel())


def train(
    samples, config: TrainConfig, init: UnrolledParams, lap: Laplacian, decomp: SpectralDecomp | None = None,
    start_epoch: int = 0, pnp_iters: int = DEFAULT_PNP_ITERS
):
    """Full-batch Adam over the unrolled parameters.

    Returns the final parameters and the per-epoch loss history; each entry
    is the loss at the parameters *before* that epoch's update, so a run
    resumed from serialized parameters reproduces the next epoch's loss.
    ``pnp_iters`` is the ADMM iteration count of a PnP denoiser, at least 1.  Raises
    :class:`TrainingError` when the loss stops being finite.
    """
    if not samples:
        raise ValueError("training needs at least one sample")
    if KINDS[init.denoiser_kind].iterative and pnp_iters < 1:
        raise ValueError(f"{init.denoiser_kind} denoiser needs iters >= 1")
    if decomp is None:
        decomp = eigendecompose(lap)
    if config.gradient_method == "analytic_linear" and init.denoiser_kind != "lr":
        raise ValueError("'analytic_linear' is the lr-only name of the exact gradient; use 'exact'")
    loss_grad = _fd_loss_grad if config.gradient_method == "finite_difference" else _exact_loss_grad

    theta = init.to_theta()
    state = AdamState.fresh(theta.size)
    history = []
    coeffs = None
    for epoch in range(start_epoch, start_epoch + config.epochs):
        if coeffs is None or config.mode != "supervised":  # supervised pairs are the same every epoch
            coeffs = _spectral_pairs(_epoch_pairs(samples, config, epoch), decomp)
        loss, grad = loss_grad(coeffs, decomp, init.K, init.denoiser_kind, theta, pnp_iters)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise TrainingError(f"non-finite loss at epoch {epoch}", epoch=epoch)
        history.append(float(loss))
        theta, state = adam_step(theta, grad, state, lr=config.learning_rate)
    return UnrolledParams.from_theta(init.K, init.denoiser_kind, theta), history

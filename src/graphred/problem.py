"""Node-space solvers that no command runs: one RED problem's objective, gradient and solvers.

They run on the spectral core of :mod:`graphred.red`.  :func:`lr_denoise_cg`, a
matrix-free CG solve of the LR smoother, is the iterative reference of :func:`denoisers.lr_denoise`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .denoisers import KINDS, Denoiser, denoiser_gains
from .exceptions import ConvergenceError, DivergenceError, NumericalError
from .graphs import Laplacian, SpectralDecomp, _check_signal
from .red import RedSolveReport, UnrolledParams, _on_frequencies, red_cg_unrolled

# Objective growth factor treated as divergence in gradient descent.
DIVERGENCE_OBJECTIVE_FACTOR = 1e6


@dataclass(frozen=True)
class RedProblem:
    """One denoising instance: observation, regularization weight, denoiser.

    ``alpha_red = 0`` reduces the objective to the data term.  With a
    ``decomp``, solvers run on its GFT coefficients, else on Lanczos bases.
    """

    y: np.ndarray
    alpha_red: float
    denoiser: Denoiser
    lap: Laplacian
    decomp: SpectralDecomp | None = None

    def __post_init__(self):
        y = _check_signal(self.y, self.lap.n_nodes)
        if not np.all(np.isfinite(y)):
            raise ValueError("observation must be finite")
        if self.alpha_red < 0:
            raise ValueError("alpha_red must be nonnegative")
        if self.decomp is not None and self.decomp.n_nodes != self.lap.n_nodes:
            raise ValueError("decomp size does not match Laplacian")
        object.__setattr__(self, "y", y)


def _reg(prob: RedProblem, x: np.ndarray) -> np.ndarray:
    """``x - D(x)`` in node space."""
    x = _check_signal(x, prob.lap.n_nodes)
    reg = lambda v, lam: ((1.0 - denoiser_gains(prob.denoiser, lam)) * v, None)  # noqa: E731
    return _on_frequencies(prob.lap, x, reg, prob.decomp, (0.0,), (prob.denoiser.alpha,))[0]


def red_objective(prob: RedProblem, x: np.ndarray):
    """Objective value at ``x`` (per column for batched input)."""
    x = _check_signal(x, prob.lap.n_nodes)
    r = _reg(prob, x)
    if not np.all(np.isfinite(r)):
        raise DivergenceError("denoiser returned non-finite values", iteration=0)
    data = 0.5 * np.sum((x - prob.y) ** 2, axis=0)
    return data + 0.5 * prob.alpha_red * np.sum(x * r, axis=0)


def red_gradient(prob: RedProblem, x: np.ndarray) -> np.ndarray:
    """Simplified gradient ``x - y + alpha_red (x - D(x))``."""
    x = _check_signal(x, prob.lap.n_nodes)
    return x - prob.y + prob.alpha_red * _reg(prob, x)


def red_gradient_descent(prob: RedProblem, step: float, iters: int) -> RedSolveReport:
    """Fixed-step gradient descent from ``x = 0``.

    Raises :class:`DivergenceError` once the objective exceeds a million
    times its initial value; reduce ``step`` when that happens.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    a = prob.alpha_red

    def descend(y, lam):
        shortfall = 1.0 - denoiser_gains(prob.denoiser, lam)
        x, gnorms, objs = np.zeros_like(y), [], []
        for k in range(iters + 1):
            x = x - step * grad if k else x
            r = shortfall * x
            grad = x - y + a * r
            gnorms.append(np.linalg.norm(grad, axis=0))
            objs.append(0.5 * np.sum((x - y) ** 2, axis=0) + 0.5 * a * np.sum(x * r, axis=0))
            if k == 0:
                limit = DIVERGENCE_OBJECTIVE_FACTOR * max(float(np.max(objs[0], initial=0.0)), 1e-12)
            elif not np.all(np.isfinite(objs[-1])) or np.max(objs[-1]) > limit:
                raise DivergenceError(f"objective exploded at iteration {k}; try a smaller step", iteration=k)
        return x, (gnorms, objs)

    x, (gnorms, objs) = _on_frequencies(prob.lap, prob.y, descend, prob.decomp, (a,), (prob.denoiser.alpha,))
    return RedSolveReport(x=x, iterations=iters, gradient_norm_history=gnorms, objective_history=objs)


def red_cg_solve(
    prob: RedProblem, K: int, alpha_red_layers=None, alpha_denoiser_layers=None, pnp_rho_layers=None
) -> RedSolveReport:
    """K iterations of :func:`red_cg_layers` on ``prob``, returned in node space.

    Optional per-layer sequences (length K+1; index 0 covers the
    initialization lines, index k the k-th loop body) override the
    problem's flat parameters and make the solver unrollable.  The
    denoiser's sequences are those its kind lists as ``layers``.
    """
    den = prob.denoiser
    flat = UnrolledParams.constant(K, den.kind, prob.alpha_red, *(getattr(den, f) for f in KINDS[den.kind].fields))
    given = dict(
        alpha_red_layers=alpha_red_layers, alpha_denoiser_layers=alpha_denoiser_layers, pnp_rho_layers=pnp_rho_layers
    )
    params = replace(flat, **{name: v for name, v in given.items() if v is not None})
    return red_cg_unrolled(prob.lap, prob.y, params, den.iters, prob.decomp, objective=True)


def lr_denoise_cg(
    lap: Laplacian, y: np.ndarray, alpha: float, tol: float = 1e-10, max_iters: int | None = None
) -> np.ndarray:
    """Matrix-free conjugate gradients on ``(I + alpha L) x = y``.

    Stops when the relative residual drops below ``tol``; raises
    :class:`ConvergenceError` (carrying the final residual and iteration
    count) if ``max_iters`` sweeps are not enough.
    """
    y = _check_signal(y, lap.n_nodes)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return y.copy()
    if max_iters is None:
        max_iters = 10 * lap.n_nodes
    b_norm = np.linalg.norm(y)
    if b_norm == 0:
        return np.zeros_like(y)

    apply = lambda v: v + alpha * lap.matvec(v)  # noqa: E731
    x = np.zeros_like(y)
    r = y - apply(x)
    p = r.copy()
    rs = np.sum(r * r)
    residual = np.sqrt(rs) / b_norm
    for k in range(max_iters):
        if residual <= tol:
            return x
        ap = apply(p)
        denom = np.sum(p * ap)
        if denom <= 0:
            raise NumericalError("CG curvature is not positive; system is not SPD")
        step = rs / denom
        x = x + step * p
        r = r - step * ap
        rs_next = np.sum(r * r)
        p = r + (rs_next / rs) * p
        rs = rs_next
        residual = np.sqrt(rs) / b_norm
    if residual <= tol:
        return x
    message = f"CG stalled at relative residual {residual:.3e} after {max_iters} iterations"
    raise ConvergenceError(message, residual=float(residual), iterations=max_iters)

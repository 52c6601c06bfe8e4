"""Graph-signal denoisers.

Two families:

* Laplacian-regularization (LR): the closed-form smoother
  ``x = (I + alpha L)^{-1} y``, available as a direct Cholesky solve, a
  spectral-domain apply against a precomputed eigendecomposition, and a
  matrix-free conjugate-gradient approximation.
* Plug-and-play ADMM (PnP): a fixed number of ADMM iterations on the
  denoising objective, with the LR smoother plugged in as the proximal
  step for the prior.

Everything accepts ``(N,)`` or ``(N, S)`` signals; batches are independent
columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import ConvergenceError, DivergenceError, NumericalError
from .graphs import Laplacian, SpectralDecomp, _check_signal

SOLVE_TOL = 1e-8
DEFAULT_PNP_ITERS = 10

# An iterate whose norm exceeds the input norm by this factor is treated as
# divergent rather than merely slow.
DIVERGENCE_FACTOR = 1e8


@dataclass(frozen=True)
class Denoiser:
    """A denoiser choice: ``kind`` is ``"lr"`` or ``"pnp"``.

    ``alpha`` is the smoothing strength of the LR solve (for ``"pnp"`` it
    parameterizes the plugged-in LR step).  ``rho`` and ``iters`` only apply
    to ``"pnp"``.
    """

    kind: str
    alpha: float
    rho: float | None = None
    iters: int = DEFAULT_PNP_ITERS

    def __post_init__(self):
        if self.kind not in ("lr", "pnp"):
            raise ValueError(f"unknown denoiser kind {self.kind!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.kind == "pnp":
            if self.rho is None or self.rho <= 0:
                raise ValueError("pnp denoiser needs rho > 0")
            if self.iters < 1:
                raise ValueError("pnp denoiser needs iters >= 1")


def lr_denoise(lap: Laplacian, y: np.ndarray, alpha: float) -> np.ndarray:
    """Solve ``(I + alpha L) x = y`` by Cholesky factorization.

    The system matrix is symmetric positive definite for ``alpha >= 0``.
    ``alpha = 0`` returns ``y`` unchanged.  The solution is checked against
    the residual tolerance ``SOLVE_TOL``.
    """
    y = _check_signal(y, lap.n_nodes)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return y.copy()
    system = np.eye(lap.n_nodes) + alpha * lap.matrix
    try:
        factor = scipy.linalg.cho_factor(system)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
    x = scipy.linalg.cho_solve(factor, y)
    y_norm = np.linalg.norm(y)
    if y_norm > 0:
        residual = np.linalg.norm(system @ x - y) / y_norm
        if residual > SOLVE_TOL:
            raise NumericalError(
                f"direct solve residual {residual:.3e} exceeds {SOLVE_TOL:.3e}"
            )
    return x


def lr_denoise_spectral(decomp: SpectralDecomp, y: np.ndarray, alpha: float) -> np.ndarray:
    """LR denoising in the spectral domain: gain ``1 / (1 + alpha lambda_i)``.

    Equivalent to :func:`lr_denoise` up to rounding, but amortizes the
    eigendecomposition across many calls.
    """
    y = _check_signal(y, decomp.n_nodes)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    gains = 1.0 / (1.0 + alpha * decomp.eigenvalues)
    spectrum = decomp.basis.T @ y
    if spectrum.ndim == 2:
        gains = gains[:, None]
    return decomp.basis @ (gains * spectrum)


def lr_denoise_cg(
    lap: Laplacian,
    y: np.ndarray,
    alpha: float,
    tol: float = 1e-10,
    max_iters: int | None = None,
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

    def apply(v):
        return v + alpha * (lap.matrix @ v)

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
    raise ConvergenceError(
        f"CG stalled at relative residual {residual:.3e} after {max_iters} iterations",
        residual=float(residual),
        iterations=max_iters,
    )


def pnp_admm_denoise(
    lap: Laplacian,
    y: np.ndarray,
    alpha: float,
    rho: float,
    iters: int = DEFAULT_PNP_ITERS,
    decomp: SpectralDecomp | None = None,
) -> np.ndarray:
    """Plug-and-play ADMM denoiser built around the LR smoother.

    Starting from ``x = v = y`` and ``u = 0``, each iteration runs

    1. ``v <- lr_denoise(x + u, alpha)``
    2. ``x <- (y + rho (v - u)) / (1 + rho)``
    3. ``u <- u + x - v``

    and the final ``x`` is returned.  Large ``rho`` pins ``x`` to the
    denoised ``v``; small ``rho`` pins it to the observation ``y``.
    Passing a precomputed ``decomp`` routes the inner smoother through the
    spectral apply.  Raises :class:`DivergenceError` if an iterate stops
    being finite or its norm explodes.
    """
    y = _check_signal(y, lap.n_nodes)
    if rho <= 0:
        raise ValueError("rho must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    x = y.copy()
    v = y.copy()
    u = np.zeros_like(y)
    scale = max(np.linalg.norm(y), 1.0)
    for k in range(1, iters + 1):
        if decomp is not None:
            v = lr_denoise_spectral(decomp, x + u, alpha)
        else:
            v = lr_denoise(lap, x + u, alpha)
        x = (y + rho * (v - u)) / (1.0 + rho)
        u = u + x - v
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_FACTOR * scale:
            raise DivergenceError(f"PnP-ADMM diverged at iteration {k}", iteration=k)
    return x


def lr_gains(lambdas: np.ndarray, alpha: float) -> np.ndarray:
    """Per-frequency gains ``1 / (1 + alpha lambda)`` of the LR smoother."""
    lambdas = np.asarray(lambdas, dtype=float)
    return 1.0 / (1.0 + alpha * lambdas)


def pnp_gains(lambdas: np.ndarray, alpha: float, rho: float, iters: int) -> np.ndarray:
    """Per-frequency gains of the PnP-ADMM denoiser.

    Every PnP-ADMM step is linear and diagonal in the Laplacian eigenbasis,
    so the whole denoiser reduces to one scalar gain per frequency; the gain
    is obtained by running the three-step recursion on spectral coefficients
    with an input coefficient of 1.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if rho <= 0:
        raise ValueError("rho must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    f = lr_gains(lambdas, alpha)
    x = np.ones_like(lambdas)
    u = np.zeros_like(lambdas)
    for _ in range(iters):
        v = f * (x + u)
        x = (1.0 + rho * (v - u)) / (1.0 + rho)
        u = u + x - v
    return x


def denoiser_gains(
    denoiser: Denoiser,
    lambdas: np.ndarray,
    alpha: float | None = None,
    rho: float | None = None,
) -> np.ndarray:
    """Spectral gains of ``denoiser``; ``alpha``/``rho`` override stored values."""
    a = denoiser.alpha if alpha is None else alpha
    if denoiser.kind == "lr":
        return lr_gains(lambdas, a)
    r = denoiser.rho if rho is None else rho
    return pnp_gains(lambdas, a, r, denoiser.iters)


def apply_denoiser(
    denoiser: Denoiser,
    lap: Laplacian,
    y: np.ndarray,
    alpha: float | None = None,
    rho: float | None = None,
    decomp: SpectralDecomp | None = None,
) -> np.ndarray:
    """Run ``denoiser`` on ``y``; ``alpha``/``rho`` override stored values.

    The overrides let an unrolled solver swap per-layer parameters into a
    fixed denoiser configuration without rebuilding it.
    """
    a = denoiser.alpha if alpha is None else alpha
    if denoiser.kind == "lr":
        if decomp is not None:
            return lr_denoise_spectral(decomp, y, a)
        return lr_denoise(lap, y, a)
    r = denoiser.rho if rho is None else rho
    return pnp_admm_denoise(
        lap, y, a, r, iters=denoiser.iters, decomp=decomp
    )

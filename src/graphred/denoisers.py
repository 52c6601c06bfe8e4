"""Graph-signal denoisers.

Two families:

* Laplacian-regularization (LR): the closed-form smoother
  ``x = (I + alpha L)^{-1} y``, available as a sparse direct solve and a
  matrix-free conjugate-gradient approximation.
* Plug-and-play ADMM (PnP): a fixed number of ADMM iterations on the
  denoising objective, with the LR smoother plugged in as the proximal
  step for the prior.

Both are graph filters: each is one gain per graph frequency
(:func:`denoiser_gains`), and that gain vector is the only spectral form of
a denoiser here.  :func:`apply_denoiser` evaluates it at the eigenvalues of
a decomposition, or else at the Ritz values of one Lanczos basis per signal
column.  The sparse solves (which import scipy) remain as library API and
as the oracles the tests check those paths against.  Everything accepts
``(N,)`` or ``(N, S)`` signals; batches are independent columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DivergenceError, NumericalError
from .graphs import Laplacian, SpectralDecomp, _check_signal, gft, igft, on_frequencies

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


def lr_smoother(lap: Laplacian, alpha: float):
    """The LR smoother ``v -> (I + alpha L)^{-1} v`` for one ``alpha``.

    ``I + alpha L`` (symmetric positive definite for ``alpha >= 0``, and as
    sparse as the graph) is factored once as a sparse LU; each call then
    costs two triangular solves, and its residual is checked against
    ``SOLVE_TOL``.  ``alpha = 0`` gives the identity.  A failed
    factorization or check raises :class:`NumericalError`.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    n = lap.n_nodes
    if alpha == 0:
        return lambda v: _check_signal(v, n).copy()
    import scipy.sparse.linalg  # only node-space solves need it, and it costs memory

    # I + alpha L from the (symmetric, so also CSC) rows: the sparse sum gives the
    # entries, order and dropped zeros that identity + alpha * csc(dense L) gave.
    g = lap.graph
    off = scipy.sparse.csc_matrix((alpha * -g.weights, g.indices, g.indptr), shape=(n, n))
    system = off + scipy.sparse.diags(1.0 + alpha * lap.degree, format="csc")
    try:
        factor = scipy.sparse.linalg.splu(system)
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU factorization failed: {exc}") from exc

    def smooth(v):
        v = _check_signal(v, n)
        x = factor.solve(v)
        v_norm = np.linalg.norm(v)
        residual = np.linalg.norm(system @ x - v) / v_norm if v_norm > 0 else 0.0
        if not residual <= SOLVE_TOL:
            raise NumericalError(f"direct solve residual {residual:.3e} exceeds {SOLVE_TOL:.3e}")
        return x

    return smooth


def lr_denoise(lap: Laplacian, y: np.ndarray, alpha: float) -> np.ndarray:
    """Solve ``(I + alpha L) x = y`` once, by :func:`lr_smoother`."""
    return lr_smoother(lap, alpha)(y)


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
        return v + alpha * lap.matvec(v)

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
) -> np.ndarray:
    """Plug-and-play ADMM denoiser built around the LR smoother.

    Starting from ``x = v = y`` and ``u = 0``, each iteration runs

    1. ``v <- lr_denoise(x + u, alpha)``
    2. ``x <- (y + rho (v - u)) / (1 + rho)``
    3. ``u <- u + x - v``

    and the final ``x`` is returned.  Large ``rho`` pins ``x`` to the
    denoised ``v``; small ``rho`` pins it to the observation ``y``.
    ``I + alpha L`` is factored once for all iterations.  Raises
    :class:`DivergenceError` if an iterate stops being finite or its norm
    explodes.
    """
    y = _check_signal(y, lap.n_nodes)
    if rho <= 0:
        raise ValueError("rho must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    smooth = lr_smoother(lap, alpha)
    x = y.copy()
    v = y.copy()
    u = np.zeros_like(y)
    scale = max(np.linalg.norm(y), 1.0)
    for k in range(1, iters + 1):
        v = smooth(x + u)
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
    if rho <= 0:
        raise ValueError("rho must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    return _pnp_recursion(np.asarray(lambdas, dtype=float), alpha, rho, iters)


def _pnp_recursion(lambdas, alpha, rho, iters):
    """The :func:`pnp_gains` recursion; ``alpha`` and ``rho`` may be ``(R, 1)`` columns, one row each."""
    f = lr_gains(lambdas, alpha)
    x = np.ones_like(f)
    u = np.zeros_like(f)
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


def gain_table(kind: str, lambdas: np.ndarray, params, iters: int = DEFAULT_PNP_ITERS) -> np.ndarray:
    """Gains of the ``kind`` denoiser, one row per ``(alpha,)`` (lr) or ``(alpha, rho)`` (pnp).

    All rows run one broadcast recursion, whose elementwise operations are
    those of :func:`lr_gains` and :func:`pnp_gains`, so each row has their bits.
    """
    lam = np.asarray(lambdas, dtype=float)
    params = np.array(list(params), dtype=float).reshape(-1, 1 if kind == "lr" else 2)
    if kind == "lr":
        return lr_gains(lam, params)
    return _pnp_recursion(lam, params[:, :1], params[:, 1:], iters)


def gain_jacobian(kind: str, lambdas: np.ndarray, params, iters: int = DEFAULT_PNP_ITERS):
    """Gains of the ``kind`` denoiser and their derivatives in its parameters.

    ``params`` holds one row per parameter, ``alpha`` (lr) or ``alpha, rho``
    (pnp), with one value per filter.  Returns the ``(F, N)`` gains and the
    ``(len(params), F, N)`` Jacobian.  LR has ``dg/dalpha = -lambda g^2``;
    PnP carries tangents through the :func:`pnp_gains` recursion.
    """
    lam = np.asarray(lambdas, dtype=float)[None, :]
    alpha = np.asarray(params[0], dtype=float)[:, None]
    f = lr_gains(lam, alpha)
    df = -lam * f * f
    if kind == "lr":
        return f, df[None]
    rho = np.asarray(params[1], dtype=float)[:, None]
    x, u = np.ones_like(f), np.zeros_like(f)
    dx, du = np.zeros((2,) + f.shape), np.zeros((2,) + f.shape)  # d/dalpha, d/drho
    for _ in range(iters):
        v = f * (x + u)
        dv = f * (dx + du)
        dv[0] += df * (x + u)
        x_new = (1.0 + rho * (v - u)) / (1.0 + rho)
        dx = rho * (dv - du) / (1.0 + rho)
        dx[1] += (v - u - x_new) / (1.0 + rho)
        du = du + dx - dv
        u = u + x_new - v
        x = x_new
    return x, dx


def gain_filter(decomp: SpectralDecomp, gains: np.ndarray):
    """The graph filter ``v -> igft(decomp, gains * gft(decomp, v))``, for ``(N,)`` or ``(N, S)`` signals."""

    def apply(v):
        spectrum = gft(decomp, v)
        return igft(decomp, (gains[:, None] if spectrum.ndim == 2 else gains) * spectrum)

    return apply


def apply_denoiser(
    denoiser: Denoiser,
    lap: Laplacian,
    y: np.ndarray,
    decomp: SpectralDecomp | None = None,
) -> np.ndarray:
    """Run ``denoiser`` on ``y``: its gains on GFT coefficients when ``decomp``
    is given, otherwise at the Ritz values of one Lanczos basis per column
    (:func:`graphs.on_frequencies`)."""
    filtered = lambda z, lam: (denoiser_gains(denoiser, lam) * z, None)  # noqa: E731
    return on_frequencies(lap, y, filtered, decomp, 1.0 + denoiser.alpha * lap.norm_bound)[0]

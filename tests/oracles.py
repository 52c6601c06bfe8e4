"""Oracles: earlier implementations the package's faster paths are checked against.

Sparse LU: ``lr_smoother`` factors ``I + alpha L`` once as a SuperLU
factorization and runs two triangular solves per call; ``pnp_admm_denoise``
runs ADMM with those solves as the prior's proximal step.  Neither shares
code with ``denoisers.apply_denoiser`` (gains on GFT coefficients or at
Lanczos Ritz values), so the tests check that path against them.  They
import scipy, which the package itself does not need.

``from_edges_by_unique`` assembles ``Graph.from_edges``' CSR arrays with
three sorts: a unique over the pair keys, a lexsort and the validating one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from graphred.denoisers import DEFAULT_PNP_ITERS
from graphred.exceptions import DivergenceError, NumericalError
from graphred.graphs import Graph, Laplacian, _check_signal

SOLVE_TOL = 1e-8

# An iterate whose norm exceeds the input norm by this factor is treated as
# divergent rather than merely slow.
DIVERGENCE_FACTOR = 1e8


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


def from_edges_by_unique(i, j, w, n_nodes: int) -> Graph:
    """``Graph.from_edges`` by a unique over the pairs' reversed keys (each pair's last line), then a lexsort."""
    i, j, w = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp), np.asarray(w, dtype=float)
    _, first = np.unique((np.minimum(i, j) * n_nodes + np.maximum(i, j))[::-1], return_index=True)
    last = len(w) - 1 - first
    last = last[w[last] != 0]
    rows, cols = np.concatenate([i[last], j[last]]), np.concatenate([j[last], i[last]])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_nodes))])
    return Graph(indptr, cols[order], np.tile(w[last], 2)[order], n_nodes)

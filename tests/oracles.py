"""Oracles: earlier implementations the package's faster paths are checked against.

Sparse LU: ``lr_smoother`` factors ``I + alpha L`` once as a SuperLU
factorization and runs two triangular solves per call; ``pnp_admm_denoise``
runs ADMM with those solves as the prior's proximal step.  Neither shares
code with ``denoisers.apply_denoiser`` (gains on GFT coefficients or at
Lanczos Ritz values), so the tests check that path against them.  They
import scipy, which the package itself does not need.

``from_edges_by_unique`` assembles ``Graph.from_edges``' CSR arrays with
three sorts: a unique over the pair keys, a lexsort and the validating one.

``red_cg_layers_by_reduce`` is the CG layer loop with every per-column inner
product a product array and ``np.add.reduce(axis=0)``, and its mask tests
``.any()``/``.all()``.  ``reduce_dot`` is the matching stand-in for
``red._column_dot``: patched in, it sends the package's reverse sweep back to
the reduce too.  The package's loop must give their bits on every layout.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from graphred.denoisers import DEFAULT_PNP_ITERS
from graphred.exceptions import DivergenceError, NumericalError, StagnationError
from graphred.graphs import Graph, Laplacian, _check_signal
from graphred.red import CONVERGED_TOL, STAGNATION_TOL, RedSolveReport, _flat_from

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


def _reduce(a, b):
    return np.add.reduce(a * b, axis=0)


def reduce_dot(*blocks):
    """``red._column_dot`` that picks the product-and-reduce for every layout."""
    return _reduce


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in one of the typed errors below
def red_cg_layers_by_reduce(
    y: np.ndarray, regs, alpha_red, tape=None, start=None, joins=None, objective=False
) -> RedSolveReport:
    """``red.red_cg_layers`` as it ran before its inner products went through ``red._column_dot``."""
    K = len(regs) - 1
    if K < 1 or len(alpha_red) != K + 1:
        raise ValueError("need K >= 1 reg ops and one alpha_red per op")
    joins = dict(joins or {})
    if joins and (start is None or min(joins) <= start[0]):
        raise ValueError("columns can only join a resumed run, after its first layer")
    full_tol = CONVERGED_TOL * np.maximum(np.linalg.norm(y, axis=0), 1.0)
    add = np.add.reduce  # the kernel np.sum runs, without its dispatch

    def gradient(x, r, k):
        d = x - obs
        if objective:
            objs.append(0.5 * add(d**2, axis=0) + 0.5 * alpha_red[k] * add(x * r, axis=0))
        return d + alpha_red[k] * r

    objs = []
    if start is None:
        first, obs, tol = 1, y, full_tol
        x = np.zeros_like(y)
        g = gradient(x, regs[0](x), 0)
        p = -g
        gsq = add(g * g, axis=0)
    else:
        first, (x, p, g, gsq) = start
        obs, tol = y[:, : x.shape[1]], full_tol[: x.shape[1]]
    gnorm = np.sqrt(gsq)
    gnorms = [gnorm] if start is None else []
    iterations = 0
    converged = gnorm <= tol
    for k in range(first, K + 1):
        if k in joins:
            x, p, g, gsq = (np.concatenate(pair, axis=-1) for pair in zip((x, p, g, gsq), joins.pop(k)))
            obs, tol = y[:, : x.shape[1]], full_tol[: x.shape[1]]
            converged = np.sqrt(gsq) <= tol
        n_converged = np.count_nonzero(converged)
        if n_converged == converged.size and not joins and _flat_from(regs, alpha_red, k - 1):
            break
        masked = n_converged > 0
        ap = p + alpha_red[k] * regs[k](p)
        denom = add(p * ap, axis=0)
        stalled = np.abs(denom) < STAGNATION_TOL * add(p * p, axis=0)
        if (stalled & ~converged if masked else stalled).any():
            raise StagnationError(
                f"line-search denominator vanished at iteration {k} "
                "(direction in the operator's null space)"
            )
        num = add(p * g, axis=0)
        if masked:
            # Converged columns keep x exactly; their direction may have vanished.
            safe = np.where(stalled | converged, 1.0, denom)
            tau = np.where(converged, 0.0, -num / safe)
            finite = (np.isfinite(denom) | converged).all() and np.isfinite(tau).all()
        else:
            safe, tau = denom, -num / denom
            finite = np.isfinite(denom).all() and np.isfinite(tau).all()
        if not finite:
            raise DivergenceError(f"non-finite line search at iteration {k}", iteration=k)
        x = x + tau * p
        g_new = gradient(x, regs[k](x), k)
        gsq_new = add(g_new * g_new, axis=0)
        # A non-finite entry makes its column's gsq non-finite; the full scan
        # runs only then, to tell it from a gsq overflowed by finite entries.
        if not np.isfinite(gsq_new).all() and not np.isfinite(g_new).all():
            raise DivergenceError(f"non-finite iterate at iteration {k}", iteration=k)
        if masked:
            # Converged columns restart: a ratio over a rounding-level gsq amplifies noise.
            gamma = np.where(converged, 0.0, gsq_new / np.where(converged, 1.0, gsq))
        else:
            gamma = gsq_new / gsq
        if tape is not None:
            tape.append((p, g, gsq, converged, safe, tau, x, g_new, gamma))
        p = gamma * p - g_new  # the bits of -g_new + gamma p: IEEE addition commutes
        g = g_new
        gsq = gsq_new
        gnorm = np.sqrt(gsq)
        gnorms.append(gnorm)
        iterations = k
        converged = gnorm <= tol
    return RedSolveReport(
        x=x, iterations=iterations, gradient_norm_history=gnorms, objective_history=objs
    )

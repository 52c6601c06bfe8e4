"""``graphred tune``: grid-search each method's parameters on a bundle's records, red_* ones through a Krylov screen."""

import itertools
import os

import numpy as np

from .denoisers import (
    DEFAULT_CG_LAYERS, DEFAULT_PNP_ITERS, KINDS, METHOD_PARAM_KEYS, METHOD_RULE, METHODS, SOLVER_KEYS, gain_table,
    graph_setup, method_kind, records_share_graph,
)
from .exceptions import ConfigError, DivergenceError
from .files import COUNT, REQUIRED, dataset_sigma, load_dataset, split_records, write_json
from .graphs import BREAKDOWN_TOL, gft, lanczos
from .red import BLOCK_COLUMNS

DEFAULT_ALPHA_RANGE = (1e-3, 1e3)
DEFAULT_RHO_RANGE = (1e-2, 1e2)
DEFAULT_GRID_POINTS = 20
# Relative RMSE slack on each screened red_* candidate, for the rounding
# that separates the screen from the CG core when the basis is orthogonal.
SCREEN_MARGIN = 1e-6
# Loss of orthogonality max|Q^T Q - I| of a Krylov basis at which the
# screen's spread takes the full residual bound (scaled down below it).
ORTHOGONALITY_TOL = 1e-6
KEYS = {
    "dataset": ("string", REQUIRED), "methods": ("list of strings", METHODS, METHOD_RULE),
    "sigmas": ("list of numbers", None), "split": ("string", "train"),
    "grid_points": ("integer", DEFAULT_GRID_POINTS, COUNT),
    "alpha_range": ("list of numbers", DEFAULT_ALPHA_RANGE), "rho_range": ("list of numbers", DEFAULT_RHO_RANGE),
    **SOLVER_KEYS,
}


def _shifted_tridiagonal_solve(diag, off, rhs, alpha_red):
    """``c`` with ``(I + a T) c = rhs e1`` for every ``a`` in ``alpha_red``: ``(K, C, A)``.

    Thomas elimination, which needs no pivoting here: the eigenvalues of the
    Lanczos matrix ``T`` lie in the range of the shortfalls, which are
    nonnegative up to rounding, so ``I + a T`` is positive definite.
    """
    K = len(diag)
    a = alpha_red[None, :]
    piv = np.empty((K, len(rhs), len(alpha_red)))
    z = np.empty_like(piv)
    piv[0] = 1.0 + a * diag[0][:, None]
    z[0] = rhs[:, None]
    for k in range(1, K):
        e = a * off[k - 1][:, None]
        m = e / piv[k - 1]
        piv[k] = 1.0 + a * diag[k][:, None] - m * e
        z[k] = -m * z[k - 1]
    c = np.empty_like(z)
    c[-1] = z[-1] / piv[-1]
    for k in range(K - 2, -1, -1):
        c[k] = (z[k] - a * off[k][:, None] * c[k + 1]) / piv[k]
    return c


def krylov_screen_mse(
    y: np.ndarray, target: np.ndarray, shortfalls: np.ndarray, alpha_red: np.ndarray, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared error of K-layer flat RED CG outputs, screened from one Krylov basis per row.

    ``y`` and ``target`` are ``(N, S)`` GFT coefficients, ``shortfalls`` the
    ``(R, N)`` rows ``1 - gains`` of a gain table and ``alpha_red`` the
    ``(A,)`` weights.  Candidate ``i * R + r`` pairs ``alpha_red[i]`` with
    row ``r``, the layout of a tuning grid.  With flat parameters the
    gradient operator ``I + a diag(s)`` has the Krylov spaces of
    ``diag(s)``, so K Lanczos steps per row and column give the output of
    K layers of :func:`red_cg_layers` for every ``a`` at once:
    ``x = Q c`` with ``(I + a T) c = ||y|| e1``.  Each is scored as
    ``c^T (Q^T Q) c - 2 c^T Q^T t + t^T t`` with the Gram matrix formed
    explicitly, so no orthogonality of ``Q`` is assumed.  Rows run in blocks
    of at most ``BLOCK_COLUMNS`` columns.

    Returns ``(mse, spread)``, one entry per candidate.  While a column's
    basis stays orthogonal, screen and CG core agree to rounding.  Once it
    loses orthogonality (``dev = max|Q^T Q - I|``), they can drift apart by
    up to their residuals.  ``spread`` sizes that drift by the screen's
    residual ``rho = a beta_K |c_K|``: ``2 sum(w rho ||x - t||) / (N S)`` over
    the candidate's columns, with ``w = min(1, dev / ORTHOGONALITY_TOL)``.  In
    120,000 random candidates (N 5-120, K 1-24, LR and PnP rows) the CG
    core's MSE stayed within 3 % of ``spread``, plus 1e-8 relative, of
    ``mse``.  Raises :class:`DivergenceError` on a non-finite weight or
    result, and ``ValueError`` if ``K < 1``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    n_nodes, n_sig = y.shape
    alpha_red = np.asarray(alpha_red, dtype=float)
    if not np.all(np.isfinite(alpha_red)):
        raise DivergenceError("non-finite alpha_red in the screen", iteration=0)
    per_block = max(1, BLOCK_COLUMNS // n_sig)
    sq, spread = np.empty((2, len(shortfalls), len(alpha_red)))
    for start in range(0, len(shortfalls), per_block):
        rows = shortfalls[start : start + per_block]
        s, b = np.repeat(rows, n_sig, axis=0), np.tile(y.T, (len(rows), 1))  # one row per column, as np.tile(y, R)
        floor = BREAKDOWN_TOL * np.max(np.abs(s), axis=1)
        for basis, diag, off in itertools.islice(lanczos(lambda q: s * q, b, floor), K):
            pass  # keep only the last step: earlier views would hold outgrown storage
        t = np.tile(target, len(rows))
        gram = basis @ basis.transpose(0, 2, 1)
        live = np.einsum("ckk->ck", gram) > 0  # vectors before a breakdown
        dev = np.max(np.abs(gram - live[:, :, None] * np.eye(K)), axis=(1, 2))
        proj = basis @ t.T[:, :, None]
        with np.errstate(over="ignore", invalid="ignore"):
            c = _shifted_tridiagonal_solve(diag.T, off.T, np.sqrt(np.sum(b * b, axis=1)), alpha_red).transpose(1, 0, 2)
            err = np.sum(c * (gram @ c - 2.0 * proj), axis=1) + np.sum(t * t, axis=0)[:, None]
            rho = alpha_red * off[:, -1, None] * np.abs(c[:, -1])
            drift = np.minimum(dev / ORTHOGONALITY_TOL, 1.0)[:, None] * rho * np.sqrt(np.maximum(err, 0.0))
        sq[start : start + len(rows)] = err.reshape(len(rows), n_sig, -1).sum(axis=1)
        spread[start : start + len(rows)] = drift.reshape(len(rows), n_sig, -1).sum(axis=1)
    mse = (sq / (n_nodes * n_sig)).T.ravel()
    spread = (2.0 * spread / (n_nodes * n_sig)).T.ravel()
    if not (np.all(np.isfinite(mse)) and np.all(np.isfinite(spread))):
        raise DivergenceError("non-finite screened error", iteration=0)
    return mse, spread


def _screened_errors(y, target, table, alphas, cg_layers, solve):
    """The red_* candidates the Krylov screen leaves, and their CG RMSE.

    Each candidate's CG RMSE is bracketed by its screened MSE plus or minus
    the screen's spread, widened by ``SCREEN_MARGIN``; the candidates whose
    bracket reaches below every upper end are confirmed by the CG core.

    Gain rows are screened by branch and bound over the records: each stage
    screens the live rows on as many further records as fill one block, or
    on all the rest once those fill at most two.  A stage's screened MSE less
    its spread, floored at 0, bounds its records' CG MSE from below.  After
    each stage the live row of least summed bound is screened on every
    record left, and a row is dropped once each of its candidates' bounds
    exceeds the least upper end of a fully screened candidate.  A dropped
    row keeps its bound as lower end and no upper end, and is not screened,
    so cannot diverge, on later records.

    Returns ``(close, errors)``, where ``errors`` holds the CG RMSE of every
    candidate in a block holding one of ``close`` (NaN elsewhere), or
    ``None`` when the screen is not trusted: it diverged, or a confirmed CG
    value fell outside its bracket.
    """
    from .red import candidate_mse
    n_rows, n_rec = len(table), y.shape[1]
    shortfalls = 1.0 - table
    # Per row and alpha_red, summed over the records screened: the MSE, its spread and its bound.
    mse, spread, bound = np.zeros((3, n_rows, len(alphas)))
    screened = np.zeros(n_rows, dtype=int)  # records screened per row

    def screen(rows, start, stop):
        rows_shortfalls = shortfalls if len(rows) == n_rows else shortfalls[rows]  # no copy of the whole table
        m, s = krylov_screen_mse(y[:, start:stop], target[:, start:stop], rows_shortfalls, alphas, cg_layers)
        m, s = (v.reshape(len(alphas), len(rows)).T * ((stop - start) / n_rec) for v in (m, s))
        mse[rows] += m
        spread[rows] += s
        bound[rows] += np.maximum(m - s, 0.0)
        screened[rows] = stop

    live = np.ones(n_rows, dtype=bool)
    least_high = np.inf
    try:
        while live.any():
            rows = np.flatnonzero(live)
            start = screened[rows[0]]
            stop = start + max(1, BLOCK_COLUMNS // len(rows))
            if stop >= n_rec or len(rows) * (n_rec - start) <= 2 * BLOCK_COLUMNS:
                screen(rows, start, n_rec)
                break
            screen(rows, start, stop)
            lead = rows[np.argmin(bound[rows].min(axis=1))]
            screen([lead], stop, n_rec)
            least_high = min(least_high, np.sqrt(mse[lead] + spread[lead]).min() * (1.0 + SCREEN_MARGIN))
            live[lead] = False
            live[rows] &= (np.sqrt(bound[rows]) * (1.0 - SCREEN_MARGIN) <= least_high).any(axis=1)
    except DivergenceError:
        return None  # the CG pass decides, and diverges where it would have
    full = (screened == n_rec)[:, None]
    low = np.sqrt(np.where(full, np.maximum(mse - spread, 0.0), bound)).T.ravel() * (1.0 - SCREEN_MARGIN)
    high = np.where(full, np.sqrt(mse + spread) * (1.0 + SCREEN_MARGIN), np.inf).T.ravel()
    close = np.flatnonzero(low <= high.min())
    errors = np.sqrt(candidate_mse(y, target, len(low), solve, needed=close))
    if not np.all((low[close] <= errors[close]) & (errors[close] <= high[close])):
        return None
    return close, errors


def tune_method(
    records, sigma, method, grid_points=DEFAULT_GRID_POINTS, alpha_range=DEFAULT_ALPHA_RANGE,
    rho_range=DEFAULT_RHO_RANGE, cg_layers=DEFAULT_CG_LAYERS, pnp_iters=DEFAULT_PNP_ITERS, gain_tables=None
):
    """Log-grid search minimizing mean RMSE over ``records``.

    Candidates run in ascending lexicographic order of their parameters and
    ties go to the first.  All are evaluated on GFT coefficients, where RMSE
    is unchanged (the basis is orthonormal): lr and pnp candidates are gain
    table rows times the observations, red_* candidates are extra columns of
    batched CG solves (both blocked by :func:`red.candidate_mse`).

    red_* candidates are screened first by :func:`krylov_screen_mse`
    (see :func:`_screened_errors`).  Those that may be the minimum are
    re-solved by the CG core, in the blocks a full pass would run them in,
    and the pick is the first minimum of their CG values, so picks and
    ``train_rmse`` carry the bits of the exhaustive CG pass.  If the screen
    diverges, or a confirmed CG value falls outside the range the screen gave
    it, every candidate runs through the CG core.

    A dict passed as ``gain_tables`` to several calls keeps the graph's
    decomposition and each gain table between them.  A grid bound that is
    zero, negative or not finite raises :class:`ConfigError`.
    """
    from .red import candidate_mse, red_cg_layers
    kind, red = method_kind(method)
    if grid_points < 1:
        raise ConfigError("grid_points must be >= 1")
    for name, bounds in (("alpha_range", alpha_range), ("rho_range", rho_range)):
        if len(bounds) != 2 or not all(float(b) > 0 for b in bounds):  # NaN fails too
            raise ConfigError(f"{name} must be two positive bounds, got {list(bounds)}")
        if not np.all(np.isfinite(bounds)):
            raise ConfigError(f"{name} must be finite, got {list(bounds)}")
    alphas = np.geomspace(alpha_range[0], alpha_range[1], grid_points)
    rhos = np.geomspace(rho_range[0], rho_range[1], grid_points)
    if not records_share_graph(records):
        raise ConfigError("tuning expects records on a shared graph")
    tables = {} if gain_tables is None else gain_tables
    graph = records[0].graph
    graph_key = ("decomp",) + tuple(a.tobytes() for a in (graph.indptr, graph.indices, graph.weights))
    if graph_key not in tables:
        tables[graph_key] = graph_setup(records[0])[1]
    decomp = tables[graph_key]
    y = gft(decomp, np.column_stack([np.asarray(r.observed[sigma], dtype=float) for r in records]))
    target = gft(decomp, np.column_stack([np.asarray(r.clean, dtype=float) for r in records]))

    den_grids = [{"alpha": alphas, "rho": rhos}[field] for field in KINDS[kind].fields]
    key = (kind, decomp.eigenvalues.tobytes(), alphas.tobytes(), rhos.tobytes(), pnp_iters)
    if key not in tables:
        with np.errstate(over="ignore"):  # an overflowed alpha * lambda gives the limit gain, 0
            tables[key] = gain_table(kind, decomp.eigenvalues, itertools.product(*den_grids), pnp_iters)
    table = tables[key]
    n_rows = len(table)
    n_rec = y.shape[1]
    n_ops = cg_layers + 1

    def solve(cand, obs):
        gains = np.repeat(table[cand % n_rows].T, n_rec, axis=1)
        if not red:
            return gains * obs
        shortfall = 1.0 - gains
        a_red = np.repeat(alphas[cand // n_rows], n_rec)
        return red_cg_layers(obs, [lambda v: shortfall * v] * n_ops, [a_red] * n_ops).x

    n_cand = n_rows * (grid_points if red else 1)
    found = _screened_errors(y, target, table, alphas, cg_layers, solve) if red else None
    if found is None:
        found = np.arange(n_cand), np.sqrt(candidate_mse(y, target, n_cand, solve))
    pool, errors = found
    best = int(pool[np.argmin(errors[pool])])
    grids = [alphas] * red + den_grids  # each key's grid, in key order
    picks = np.unravel_index(best, (grid_points,) * len(grids))
    entry = {"method": method, "sigma": float(sigma), "train_rmse": float(errors[best])}
    entry.update({k: float(grid[i]) for k, grid, i in zip(METHOD_PARAM_KEYS[method], grids, picks)})
    return entry


def run(cfg: dict, out_dir: str, threads: int) -> None:
    dataset = load_dataset(cfg["dataset"])
    sigmas = [dataset_sigma(dataset, s) for s in (dataset.sigmas if cfg["sigmas"] is None else cfg["sigmas"])]
    records = split_records("tune", dataset, cfg["split"])
    settings = {key: cfg[key] for key in ("grid_points", "alpha_range", "rho_range", "cg_layers", "pnp_iters")}
    entries = []
    gain_tables = {}
    for sigma in sigmas:
        for method in cfg["methods"]:
            entries.append(tune_method(records, sigma, method, **settings, gain_tables=gain_tables))
            print(f"tuned {method} at sigma={sigma:g}: train_rmse={entries[-1]['train_rmse']:.6g}")
    write_json(os.path.join(out_dir, "tuned.json"), {"schema": "graphred-tuned-v1", "entries": entries})

"""Command line front end.

Subcommands: generate, tune, denoise, train, check, spectrum, eval.  Every
command reads a JSON config plus the global flags ``--config``, ``--seed``,
``--out``, ``--threads``.  ``CONFIG_KEYS`` gives each command's keys with
their JSON type and default, and :func:`_resolve_config` checks every config
against it before the command runs: an unknown or missing key, or a value of
the wrong type, is a config error naming the key.  A bool is not a number, an
integer may be written 200.0 but not 2.7, a string is not a list, a count is
at least 1 and a number is finite.  The commands read only the resolved
values, and a split they read that holds no records is a config error too.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O or input
error (a missing file, or a bad line of a point cloud, edge list or signal).

The modules that only some commands run (construct, red, spectral, unroll)
are imported inside the functions that use them, so a process loads only
what its command needs.

``denoise`` runs a plain denoiser kind through :func:`apply_method`, and
every ``red_*`` and ``unrolled`` record through one call of
:func:`red.red_cg_unrolled`, on layers resolved once: the trained file, or
the flat layers of the method's scalar parameters.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .denoisers import DEFAULT_PNP_ITERS, KINDS, Denoiser, apply_denoiser, denoiser_gains, gain_filter, gain_table
from .exceptions import (
    ConfigError,
    DivergenceError,
    GraphRedError,
    InvalidGraphError,
    NumericalError,
    ParseError,
    TrainingError,
)
from .graphs import build_laplacian, eigendecompose, gft, rmse, table_text, write_json, write_text
from . import datasets as ds

# A method applies a registered denoiser kind, alone or plugged into RED as "red_<kind>": (kind, red).
_METHOD_KINDS = {**{kind: (kind, False) for kind in KINDS}, **{f"red_{kind}": (kind, True) for kind in KINDS}}
METHODS = tuple(_METHOD_KINDS)
METHOD_PARAM_KEYS = {m: ("alpha_red",) * red + KINDS[kind].keys for m, (kind, red) in _METHOD_KINDS.items()}
DEFAULT_ALPHA_RANGE = (1e-3, 1e3)
DEFAULT_RHO_RANGE = (1e-2, 1e2)
DEFAULT_GRID_POINTS = 20
DEFAULT_CG_LAYERS = 10
# Relative RMSE slack on each screened red_* candidate, for the rounding
# that separates the screen from the CG core when the basis is orthogonal.
SCREEN_MARGIN = 1e-6


def _load_json_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _write_metrics(out_dir, records, outputs, sigma, **fields) -> dict:
    """Write metrics.json: the RMSE of each output, and of each observation, against its clean signal."""
    per_sample = [rmse(x, record.clean) for x, record in zip(outputs, records)]
    metrics = {
        "schema": "graphred-metrics-v1",
        "sigma": sigma,
        "n_samples": len(records),
        **fields,
        "per_sample_rmse": per_sample,
        "mean_rmse": float(np.mean(per_sample)),
        "observed_rmse": float(np.mean([rmse(r.observed[sigma], r.clean) for r in records])),
    }
    write_json(os.path.join(out_dir, "metrics.json"), metrics)
    return metrics


def _split_records(command, dataset: ds.Dataset, split=None) -> list:
    """The records of ``split``, or with no split the train records, else the test ones; none is a config error."""
    names = ("train", "test") if split is None else (split,)
    records = next(filter(None, map(dataset.split, names)), [])
    if not records:
        raise ConfigError(f"{command}: no records in split {' or '.join(map(repr, names))}")
    return records


def _dataset_sigma(dataset: ds.Dataset, sigma: float) -> float:
    """``sigma``, if ``dataset`` holds observations at that noise level."""
    if sigma not in dataset.sigmas:
        raise ConfigError(f"sigma {sigma:g} not in dataset (has {dataset.sigmas})")
    return sigma


def _graph_setup(record: ds.DatasetRecord):
    """Laplacian + decomposition of one record's graph."""
    lap = build_laplacian(record.graph)
    return lap, eigendecompose(lap)


def _records_share_graph(records) -> bool:
    first = records[0].graph
    arrays = lambda g: (g.indptr, g.indices, g.weights)
    return all(r.graph is first or all(map(np.array_equal, arrays(r.graph), arrays(first))) for r in records[1:])


def _method_kind(method) -> tuple[str, bool]:
    """``(kind, red)`` of ``method``: the denoiser kind it applies, and whether RED wraps it."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    return _METHOD_KINDS[method]


def _finite(named: dict) -> list:
    """The values of ``named`` as floats; raises ``ValueError`` naming the first key whose value is not a finite number."""
    values = []
    for key, value in named.items():
        try:
            values.append(float(value))
        except (TypeError, ValueError):
            raise ValueError(f"{key} must be a number, got {value!r}") from None
        if not np.isfinite(values[-1]):
            raise ValueError(f"{key} must be finite, got {values[-1]}")
    return values


def method_denoiser(method, params, pnp_iters=DEFAULT_PNP_ITERS) -> Denoiser:
    """The denoiser that ``method`` applies (a kind) or plugs into RED (red_<kind>).

    ``params`` holds the method's scalar parameters, keyed as in
    ``METHOD_PARAM_KEYS``; each must be finite.
    """
    kind = _method_kind(method)[0]
    _finite({key: params[key] for key in METHOD_PARAM_KEYS[method]})
    values = {field: params[key] for field, key in zip(KINDS[kind].fields, KINDS[kind].keys)}
    return Denoiser(kind=kind, **values, iters=pnp_iters)


def _flat_layers(method, params, K, pnp_iters=None):
    """The K flat layers of ``red_<kind>`` ``method``, set to its scalar ``params`` (keyed as in ``METHOD_PARAM_KEYS``)."""
    from .red import UnrolledParams
    values = _finite({key: params[key] for key in METHOD_PARAM_KEYS[method]})
    if pnp_iters is not None:  # a denoise: the checks a RedProblem makes, in its order
        method_denoiser(method, params, pnp_iters)
    if values[0] < 0:
        raise ValueError("alpha_red must be nonnegative")
    return UnrolledParams.constant(K, _method_kind(method)[0], *values)


def apply_method(method, params, lap, decomp, y, cg_layers=DEFAULT_CG_LAYERS, pnp_iters=DEFAULT_PNP_ITERS):
    """Run one denoising method with explicit scalar parameters (on Lanczos bases if no ``decomp``)."""
    if not _method_kind(method)[1]:
        return apply_denoiser(method_denoiser(method, params, pnp_iters), lap, y, decomp=decomp)
    from .red import red_cg_unrolled
    return red_cg_unrolled(lap, y, _flat_layers(method, params, cg_layers, pnp_iters), pnp_iters, decomp).x


def _screened_errors(y, target, table, alphas, cg_layers, solve):
    """The red_* candidates the Krylov screen leaves, and their CG RMSE.

    Each candidate's CG RMSE is bracketed by its screened MSE plus or minus
    the screen's spread, widened by ``SCREEN_MARGIN``; the candidates whose
    bracket reaches below every upper end are confirmed by the CG core.

    Gain rows are screened by branch and bound over the records: each stage
    screens the live rows on as many further records as fill one block, or
    on all the rest once those fill at most two (so one record, or a grid of
    few rows, screens in one call).  A stage's screened MSE less its spread,
    floored at 0, bounds its records' CG MSE from below.  After each stage
    the live row of least summed bound is screened on every record left,
    and a row is dropped once each of its candidates' bounds exceeds the
    least upper end of a fully screened candidate.  Fully screened
    candidates keep the bracket of one full screen (up to rounding); dropped
    ones keep their bound as lower end and no upper end, and are not
    screened, so cannot diverge, on later records.

    Returns ``(close, errors)``, where ``errors`` holds the CG RMSE of every
    candidate in a block holding one of ``close`` (NaN elsewhere), or
    ``None`` when the screen is not trusted: it diverged, or a confirmed CG
    value fell outside its bracket.
    """
    from .red import BLOCK_COLUMNS, candidate_mse, krylov_screen_mse
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
    records,
    sigma,
    method,
    grid_points=DEFAULT_GRID_POINTS,
    alpha_range=DEFAULT_ALPHA_RANGE,
    rho_range=DEFAULT_RHO_RANGE,
    cg_layers=DEFAULT_CG_LAYERS,
    pnp_iters=DEFAULT_PNP_ITERS,
    gain_tables=None,
):
    """Log-grid search minimizing mean RMSE over ``records``.

    Candidates run in ascending lexicographic order of their parameters and
    ties go to the first.  All are evaluated on GFT coefficients, where RMSE
    is unchanged (the basis is orthonormal): lr and pnp candidates are gain
    table rows times the observations, red_* candidates are extra columns of
    batched CG solves (both blocked by :func:`red.candidate_mse`).

    red_* candidates are screened first by :func:`red.krylov_screen_mse`,
    a few records at a time, and a gain row stops being screened once a
    bound shows none of its candidates can be the minimum (see
    :func:`_screened_errors`).  Those that may be the minimum, given the
    screen's spread and ``SCREEN_MARGIN``, are re-solved by the CG core, in
    the blocks a full pass would run them in, and the pick is the first
    minimum of their CG values, so picks and ``train_rmse`` carry the bits
    of the exhaustive CG pass.  If the screen diverges, or a confirmed CG value falls outside the
    range the screen gave it, every candidate runs through the CG core.

    A dict passed as ``gain_tables`` to several calls keeps the graph's
    decomposition, keyed by its arrays, and each gain table, keyed by
    eigenvalues and grid, between them.  A grid bound that is zero,
    negative or not finite raises :class:`ConfigError`.
    """
    from .red import candidate_mse, red_cg_layers
    kind, red = _method_kind(method)
    if grid_points < 1:
        raise ConfigError("grid_points must be >= 1")
    for name, bounds in (("alpha_range", alpha_range), ("rho_range", rho_range)):
        if len(bounds) != 2 or not all(float(b) > 0 for b in bounds):  # NaN fails too
            raise ConfigError(f"{name} must be two positive bounds, got {list(bounds)}")
        if not np.all(np.isfinite(bounds)):
            raise ConfigError(f"{name} must be finite, got {list(bounds)}")
    alphas = np.geomspace(alpha_range[0], alpha_range[1], grid_points)
    rhos = np.geomspace(rho_range[0], rho_range[1], grid_points)
    if not _records_share_graph(records):
        raise ConfigError("tuning expects records on a shared graph")
    tables = {} if gain_tables is None else gain_tables
    graph = records[0].graph
    graph_key = ("decomp",) + tuple(a.tobytes() for a in (graph.indptr, graph.indices, graph.weights))
    if graph_key not in tables:
        tables[graph_key] = _graph_setup(records[0])[1]
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


def _tuned_lookup(tuned_path, method, sigma) -> dict:
    payload = _load_json_config(tuned_path)
    entries = payload.get("entries", []) if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{tuned_path}: expected an object whose 'entries' is a list of objects")
    for entry in entries:
        if entry.get("method") != method:
            continue
        try:
            if float(entry["sigma"]) == float(sigma):
                return {k: float(entry[k]) for k in METHOD_PARAM_KEYS[method]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{tuned_path}: malformed {method} entry: {exc!r}") from exc
    raise ConfigError(f"{tuned_path}: no entry for method={method} sigma={sigma:g}")


# ---------------------------------------------------------------- config


REQUIRED = object()  # the default of a key every config must give
_METHOD = (METHODS.__contains__, "unknown method {value!r}")
_COUNT = (lambda n: n >= 1, "{key} must be >= 1")
_SIZE = (lambda n: n >= 0, "{key} must be >= 0")
_SOLVER_KEYS = {"cg_layers": ("integer", DEFAULT_CG_LAYERS), "pnp_iters": ("integer", DEFAULT_PNP_ITERS)}

# Each command's config keys: key -> (JSON type, default, rule).  A default of
# None marks a key that may be left out, which the command reads as "not given".
# A rule is a test and the message its failure raises; it checks each item of a list.
CONFIG_KEYS = {
    "generate": {
        "kind": ("string", "synthetic", (("synthetic", "pointcloud").__contains__, "unknown dataset kind {value!r}")),
        "seed": ("integer", 0), "k": ("integer", 5), "sigmas": ("list of numbers", (10.0, 15.0, 20.0, 25.0, 30.0)),
        "n_train": ("integer", 10, _SIZE), "n_test": ("integer", 5, _SIZE),
    },
    "tune": {
        "dataset": ("string", REQUIRED), "methods": ("list of strings", METHODS, _METHOD),
        "sigmas": ("list of numbers", None), "split": ("string", "train"),
        "grid_points": ("integer", DEFAULT_GRID_POINTS, _COUNT),
        "alpha_range": ("list of numbers", DEFAULT_ALPHA_RANGE), "rho_range": ("list of numbers", DEFAULT_RHO_RANGE),
        **_SOLVER_KEYS,
    },
    "denoise": {
        "dataset": ("string", REQUIRED), "split": ("string", "test"),
        "method": ("string", REQUIRED, ((*METHODS, "unrolled").__contains__, "unknown method {value!r}")),
        "sigma": ("number", REQUIRED), "params": ("object", None), "tuned": ("string", None),
        "unrolled_params": ("string", None), **_SOLVER_KEYS,
        "rebuild_graph_from_observed": ("boolean", False), "save_diagnostics": ("boolean", False),
    },
    "train": {
        "dataset": ("string", REQUIRED), "split": ("string", "train"), "sigma": ("number", REQUIRED),
        "mode": ("string", "supervised"), "K": ("integer", DEFAULT_CG_LAYERS, _COUNT),
        "denoiser": ("string", "lr", (KINDS.__contains__, "unknown denoiser {value!r}")),
        "epochs": ("integer", 200, _COUNT), "learning_rate": ("number", 0.01), "seed": ("integer", 0),
        "gradient_method": ("string", "exact"), "init": ("object", {}), "start_epoch": ("integer", 0, _SIZE),
        "pnp_iters": _SOLVER_KEYS["pnp_iters"], "sigma_n2n_range": ("list of numbers", None),
    },
    "check": {
        "datasets": ("list of strings", REQUIRED),
        "methods": ("list of strings", tuple(KINDS),
                    (KINDS.__contains__, f"check supports the denoiser methods {list(KINDS)}, got {{value!r}}")),
        "pnp_iters": _SOLVER_KEYS["pnp_iters"], "n_signals": ("integer", 100, _COUNT), "c": ("number", 1.1),
        "seed": ("integer", 0),
        **{key: ("number", 1.0) for spec in KINDS.values() for key in spec.keys},
    },
    "spectrum": {
        "dataset": ("string", None), "alpha_red": ("number", None), "alpha_lr": ("number", None),
        "tuned": ("string", None), "sigma": ("number", None),
        "lambda_max": ("number", 10.0, (lambda v: v > 0, "{key} must be > 0")),
        "n_points": ("integer", 200, _COUNT),
    },
    "eval": {
        "dataset": ("string", REQUIRED), "denoised": ("string", REQUIRED), "split": ("string", "test"),
        "sigma": ("number", REQUIRED), "method": ("string", "unknown"),
    },
}
# The keys of each dataset kind beyond the ones both kinds share.
DATASET_KIND_KEYS = {
    "synthetic": {"n_nodes": ("integer", 100), "side": ("number", 100.0), "n_band": ("integer", 3),
                  "offset": ("number", 2.0)},
    "pointcloud": {"source": ("string", REQUIRED), "m": ("integer", 500), "fps_start": ("integer", 0)},
}
# train's "init" object: a resumed file, a tuned entry, or a flat start (alpha_denoiser is the kind's alpha).
TRAIN_INIT_KEYS = {
    "params": ("string", None), "tuned": ("string", None), "method": ("string", None),
    "alpha_red": ("number", 1.0), "alpha_denoiser": ("number", 1.0),
    **{field: ("number", 1.0) for spec in KINDS.values() for field in spec.fields[1:]},
}
# Each JSON type of a config value, and the Python type a command reads it as.
_TYPES = {"integer": int, "number": float, "string": str, "boolean": bool, "object": dict}


def _typed(key, value, kind, rule, where):
    """``value`` of config ``key`` read as JSON type ``kind`` (see the module docstring) and checked by ``rule``."""
    if kind.startswith("list of ") and isinstance(value, list):
        item = key[:-1] if key.endswith("s") else f"{key} entry"  # "sigmas" items are each a "sigma"
        return tuple(_typed(item, v, kind[8:-1], rule, where) for v in value)
    read, got = _TYPES.get(kind), type(value)
    if not (got is read or (read, got) == (float, int) or read is int and got is float and value.is_integer()):
        if kind == "object":
            raise ConfigError(f"{where} {key!r} must be an object")
        raise ConfigError(f"{key} must be {'an' if kind[0] in 'aeiou' else 'a'} {kind}, got {value!r}")
    try:
        value = read(value)
    except OverflowError:  # a JSON integer beyond the float range
        digits = len(str(abs(value)))
        raise ConfigError(f"{key} must be a number within the float range, got an integer of {digits} digits") from None
    if read is float and not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    if rule is not None and not rule[0](value):
        raise ConfigError(rule[1].format(key=key, value=value))
    return value


def _parse(table, cfg, where) -> dict:
    """Every key of ``table`` with its value in ``cfg``, read by :func:`_typed`, or its default."""
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    values = {key: _typed(key, cfg[key], kind, rule[0] if rule else None, where) if key in cfg else default
              for key, (kind, default, *rule) in table.items()}
    missing = sorted(key for key, value in values.items() if value is REQUIRED)
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return values


def _resolve_config(command, cfg: dict, seed=None) -> dict:
    """``cfg`` resolved against ``command``'s keys; ``seed`` (the ``--seed`` flag) overrides a config seed."""
    table = CONFIG_KEYS[command]
    if command == "generate":  # a kind's own keys; both kinds' until the kind is known
        kind = cfg.get("kind", "synthetic")
        own = [DATASET_KIND_KEYS[kind]] if kind in tuple(DATASET_KIND_KEYS) else DATASET_KIND_KEYS.values()
        table = {**table, **{key: spec for keys in own for key, spec in keys.items()}}
    values = _parse(table, cfg, f"{command} config")
    if command == "train":
        values["init"] = _parse(TRAIN_INIT_KEYS, values["init"], "train init")
    if command == "denoise":  # parameters from exactly one source, one the method reads
        method, sources = values["method"], [k for k in ("params", "tuned", "unrolled_params") if values[k] is not None]
        if len(sources) > 1:
            raise ConfigError(f"denoise takes exactly one of 'params', 'tuned' or 'unrolled_params', got {sources}")
        if method == "unrolled" and values["unrolled_params"] is None:
            raise ConfigError("method 'unrolled' needs the 'unrolled_params' key")
        if method != "unrolled" and values["params"] is None and values["tuned"] is None:
            raise ConfigError(f"no parameters given for method {method!r} (use 'params' or 'tuned')")
        if method != "unrolled" and values["params"] is not None:
            keys = METHOD_PARAM_KEYS[method]
            if set(values["params"]) != set(keys):
                raise ConfigError(f"params for {method} must have exactly {list(keys)}")
            values["params"] = _parse({key: ("number", REQUIRED) for key in keys}, values["params"], "params")
    if seed is not None and "seed" in values:
        values["seed"] = seed
    return values


# ---------------------------------------------------------------- commands


def cmd_generate(cfg: dict, out_dir: str, threads: int) -> None:
    if cfg["n_train"] + cfg["n_test"] == 0:
        raise ConfigError("generate: n_train + n_test must be >= 1")
    shared = {key: cfg[key] for key in ("k", "sigmas", "n_train", "n_test", "seed")}
    if cfg["kind"] == "synthetic":
        spec = ds.SyntheticSpec(**shared, **{key: cfg[key] for key in DATASET_KIND_KEYS["synthetic"]})
        dataset = ds.generate_synthetic_dataset(spec)
    else:
        points = ds.load_point_cloud(cfg["source"])
        dataset = ds.generate_pointcloud_dataset(points, m=cfg["m"], start=cfg["fps_start"], **shared)
    ds.save_dataset(dataset, out_dir)
    print(f"wrote dataset ({cfg['kind']}) to {out_dir}")


def cmd_tune(cfg: dict, out_dir: str, threads: int) -> None:
    dataset = ds.load_dataset(cfg["dataset"])
    sigmas = [_dataset_sigma(dataset, s) for s in (dataset.sigmas if cfg["sigmas"] is None else cfg["sigmas"])]
    records = _split_records("tune", dataset, cfg["split"])
    settings = {key: cfg[key] for key in ("grid_points", "alpha_range", "rho_range", "cg_layers", "pnp_iters")}
    entries = []
    gain_tables = {}
    for sigma in sigmas:
        for method in cfg["methods"]:
            entries.append(tune_method(records, sigma, method, **settings, gain_tables=gain_tables))
            print(f"tuned {method} at sigma={sigma:g}: train_rmse={entries[-1]['train_rmse']:.6g}")
    write_json(os.path.join(out_dir, "tuned.json"), {"schema": "graphred-tuned-v1", "entries": entries})


def cmd_denoise(cfg: dict, out_dir: str, threads: int) -> None:
    rebuild = cfg["rebuild_graph_from_observed"]
    dataset = ds.load_dataset(cfg["dataset"], graphs=not rebuild)  # a rebuild never reads the stored graphs
    method = cfg["method"]
    red = method == "unrolled" or _method_kind(method)[1]
    sigma = _dataset_sigma(dataset, cfg["sigma"])
    records = _split_records("denoise", dataset, cfg["split"])
    if method == "unrolled":
        params = {"file": cfg["unrolled_params"]}  # as metrics.json records it
    else:
        params = cfg["params"] if cfg["params"] is not None else _tuned_lookup(cfg["tuned"], method, sigma)
    cg_layers, pnp_iters = cfg["cg_layers"], cfg["pnp_iters"]
    if rebuild and dataset.manifest.get("kind") != "pointcloud":
        raise ConfigError("rebuild_graph_from_observed only applies to pointcloud datasets")
    if rebuild:
        from .construct import knn_graph, normalize_weights
    if red:  # every RED record runs these layers: the trained ones, or K flat ones from scalar params
        from .red import red_cg_unrolled
        if method == "unrolled":
            from .unroll import load_params
            layers = load_params(cfg["unrolled_params"])
        else:
            layers = _flat_layers(method, params, cg_layers, pnp_iters)
    save_diag = cfg["save_diagnostics"]
    k = int(dataset.manifest.get("k", 5))

    # One solve per record, on one Lanczos basis per signal column: a few
    # dozen sparse products with L cost less than an eigendecomposition.  A
    # rebuilt graph comes from the noisy coordinates, the only graph real clouds
    # have; stored graphs get one Laplacian each, however many records share them.
    laps = {} if rebuild else {g: build_laplacian(g) for g in dict.fromkeys(r.graph for r in records)}

    def run_one(record):
        y = np.asarray(record.observed[sigma], dtype=float)
        lap = build_laplacian(normalize_weights(knn_graph(y, k))) if rebuild else laps[record.graph]
        if not red:
            return apply_method(method, params, lap, None, y, cg_layers, pnp_iters), None
        report = red_cg_unrolled(lap, y, layers, pnp_iters, objective=save_diag)
        return report.x, report if save_diag else None

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, records))
    else:
        results = list(map(run_one, records))

    for record, (x, report) in zip(records, results):
        write_text(os.path.join(out_dir, "denoised", f"sample_{record.index:03d}.csv"), table_text(x))
        if report is not None:
            write_json(
                os.path.join(out_dir, "diagnostics", f"sample_{record.index:03d}.json"),
                report.to_dict(),
            )
    outputs = [x for x, _ in results]
    metrics = _write_metrics(out_dir, records, outputs, sigma, method=method, split=cfg["split"], params=params)
    print(f"{method} sigma={sigma:g} mean_rmse={metrics['mean_rmse']:.6g} (observed {metrics['observed_rmse']:.6g})")


def _resolve_train_init(cfg, K, kind) -> UnrolledParams:
    from .red import UnrolledParams
    from .unroll import load_params
    init = cfg["init"]
    if init["params"] is not None:
        params = load_params(init["params"])
        if params.K != K or params.denoiser_kind != kind:
            raise ConfigError("resume params do not match the configured K / denoiser")
        return params
    if init["tuned"] is not None:
        method = f"red_{kind}" if init["method"] is None else init["method"]
        if method != f"red_{kind}":
            raise ConfigError(f"train init: a {kind} denoiser starts from the red_{kind} entry, not {method!r}")
        return _flat_layers(method, _tuned_lookup(init["tuned"], method, cfg["sigma"]), K)
    # A flat start sets alpha_red, alpha_denoiser (the kind's alpha) and the kind's other parameters by name.
    values = [init[key] for key in ("alpha_red", "alpha_denoiser") + KINDS[kind].fields[1:]]
    if values[0] < 0:
        raise ValueError("alpha_red must be nonnegative")
    return UnrolledParams.constant(K, kind, *values)


def cmd_train(cfg: dict, out_dir: str, threads: int) -> None:
    from .unroll import TrainConfig, TrainSample, save_loss_history, save_params, train, unrolled_forward
    dataset = ds.load_dataset(cfg["dataset"])
    sigma = _dataset_sigma(dataset, cfg["sigma"])
    records = _split_records("train", dataset, cfg["split"])
    if not _records_share_graph(records):
        raise ConfigError("training expects records on a shared graph")
    kind, K, mode, pnp_iters = cfg["denoiser"], cfg["K"], cfg["mode"], cfg["pnp_iters"]
    config = TrainConfig(**{key: cfg[key] for key in (
        "mode", "learning_rate", "epochs", "sigma_n2n_range", "seed", "gradient_method")})
    init = _resolve_train_init(cfg, K, kind)
    lap, decomp = _graph_setup(records[0])
    y = np.column_stack([np.asarray(r.observed[sigma], dtype=float) for r in records])
    target = np.column_stack([np.asarray(r.clean, dtype=float) for r in records]) if mode == "supervised" else None
    samples = [TrainSample(y=y, target=target)]
    params, history = train(
        samples, config, init, lap, decomp=decomp, start_epoch=cfg["start_epoch"], pnp_iters=pnp_iters
    )
    save_params(params, os.path.join(out_dir, "params.json"))
    save_loss_history(history, os.path.join(out_dir, "loss_history.csv"))
    clean = np.column_stack([np.asarray(r.clean, dtype=float) for r in records])
    final_rmse = rmse(unrolled_forward(lap, y, params, decomp=decomp, pnp_iters=pnp_iters), clean)
    write_json(
        os.path.join(out_dir, "train_report.json"),
        {
            "schema": "graphred-train-v1",
            **{key: cfg[key] for key in ("mode", "denoiser", "K", "sigma", "epochs", "start_epoch")},
            "first_loss": history[0],
            "final_loss": history[-1],
            "train_rmse_vs_clean": final_rmse,
            "n_params": params.n_params,
        },
    )
    print(f"trained {kind} K={K} mode={mode}: loss {history[0]:.6g} -> {history[-1]:.6g}")


def cmd_check(cfg: dict, out_dir: str, threads: int) -> None:
    from .red import check_homogeneity, check_passivity
    n_signals, c = cfg["n_signals"], cfg["c"]
    rows = []
    for path in cfg["datasets"]:
        lap, decomp = _graph_setup(_split_records("check", ds.load_dataset(path))[0])
        rng = np.random.default_rng(cfg["seed"])
        for method in cfg["methods"]:
            den = method_denoiser(method, {key: cfg[key] for key in METHOD_PARAM_KEYS[method]}, cfg["pnp_iters"])
            apply = gain_filter(decomp, denoiser_gains(den, decomp.eigenvalues))
            max_dev = 0.0
            max_ratio = 0.0
            for _ in range(n_signals):
                x = rng.standard_normal(lap.n_nodes)
                max_dev = max(max_dev, check_homogeneity(apply, x, c))
                max_ratio = max(max_ratio, check_passivity(apply, x))
            ones = np.ones(lap.n_nodes)
            rows.append(
                {
                    "dataset": path, "method": method, "probe": "random",
                    "n_signals": n_signals, "c": c,
                    "max_homogeneity_deviation": max_dev,
                    "max_passivity_ratio": max_ratio,
                }
            )
            rows.append(
                {
                    "dataset": path, "method": method, "probe": "all_ones", "c": c,
                    "homogeneity_deviation": check_homogeneity(apply, ones, c),
                    "passivity_ratio": check_passivity(apply, ones),
                }
            )
    write_json(os.path.join(out_dir, "check_report.json"), {"schema": "graphred-check-v1", "rows": rows})
    worst = max(
        (r.get("max_passivity_ratio", r.get("passivity_ratio", 0.0)) for r in rows), default=0.0
    )
    print(f"checked {len(rows)} rows; worst passivity ratio {worst:.9g}")


def cmd_spectrum(cfg: dict, out_dir: str, threads: int) -> None:
    from .spectral import compare_responses, write_response_csv
    if cfg["tuned"] is not None:
        if cfg["sigma"] is None:
            raise ConfigError("spectrum: 'tuned' needs 'sigma' to select the entry")
        alpha_red, alpha_lr = _finite(_tuned_lookup(cfg["tuned"], "red_lr", cfg["sigma"]))
        source_params = {"tuned": cfg["tuned"], "sigma": cfg["sigma"]}
    else:
        if cfg["alpha_red"] is None or cfg["alpha_lr"] is None:
            raise ConfigError("spectrum needs alpha_red and alpha_lr (or a tuned file)")
        alpha_red, alpha_lr = cfg["alpha_red"], cfg["alpha_lr"]
        source_params = {"explicit": True}
    if cfg["dataset"] is not None:
        records = _split_records("spectrum", ds.load_dataset(cfg["dataset"]))
        graph_spec = build_laplacian(records[0].graph)  # decomposed by compare_responses
        source = {"kind": "dataset", "path": cfg["dataset"], **source_params}
    else:
        graph_spec = np.linspace(0.0, cfg["lambda_max"], cfg["n_points"])
        source = {"kind": "grid", **source_params}
    comparison = compare_responses(graph_spec, alpha_red, alpha_lr)
    write_response_csv(os.path.join(out_dir, "spectrum.csv"), comparison)
    write_json(
        os.path.join(out_dir, "spectrum_meta.json"),
        {
            "schema": "graphred-spectrum-v1",
            "alpha_red": alpha_red,
            "alpha_lr": alpha_lr,
            "n_points": len(comparison.eigenvalues),
            "source": source,
        },
    )
    print(f"wrote spectrum.csv ({len(comparison.eigenvalues)} rows)")


def cmd_eval(cfg: dict, out_dir: str, threads: int) -> None:
    dataset = ds.load_dataset(cfg["dataset"], graphs=False)
    sigma = _dataset_sigma(dataset, cfg["sigma"])
    records = _split_records("eval", dataset, cfg["split"])
    outputs = []
    for record in records:
        path = os.path.join(cfg["denoised"], f"sample_{record.index:03d}.csv")
        x = ds.load_signal(path)
        if x.shape != np.asarray(record.clean).shape:
            raise ConfigError(f"{path}: shape {x.shape} does not match dataset")
        outputs.append(x)
    metrics = _write_metrics(out_dir, records, outputs, sigma, method=cfg["method"], split=cfg["split"])
    print(f"eval mean_rmse={metrics['mean_rmse']:.6g} over {len(records)} samples")


COMMANDS = {command: globals()[f"cmd_{command}"] for command in CONFIG_KEYS}


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--threads", type=int, default=1, help="worker threads for per-sample work")
    parser = argparse.ArgumentParser(prog="graphred", description="Graph-signal denoising toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    args = parser.parse_args(argv)
    try:
        cfg = _load_json_config(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        os.makedirs(args.out, exist_ok=True)
        COMMANDS[args.command](_resolve_config(args.command, cfg, args.seed), args.out, max(1, args.threads))
        return 0
    except (NumericalError, TrainingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ParseError, InvalidGraphError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except GraphRedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

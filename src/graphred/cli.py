"""Command line front end.

Subcommands: generate, tune, denoise, train, check, spectrum, eval.  Every
command reads a JSON config (validated strictly: unknown keys are rejected)
plus the global flags ``--config``, ``--seed``, ``--out``, ``--threads``.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O or input
error (a missing file, a malformed point cloud or edge list).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .construct import knn_graph, normalize_weights
from .denoisers import DEFAULT_PNP_ITERS, Denoiser, apply_denoiser, denoiser_gains, gain_filter, gain_table
from .exceptions import (
    ConfigError,
    DivergenceError,
    GraphRedError,
    InvalidGraphError,
    NumericalError,
    ParseError,
    TrainingError,
)
from .graphs import build_laplacian, eigendecompose, gft
from .red import (
    RedProblem, candidate_mse, check_homogeneity, check_passivity, krylov_screen_mse, red_cg_layers, red_cg_solve,
)
from .spectral import ResponseComparison, compare_responses, h_lr, h_red, write_response_csv
from .unroll import (
    TrainConfig,
    TrainSample,
    UnrolledParams,
    load_params,
    rmse,
    save_loss_history,
    save_params,
    train,
    unrolled_forward,
)
from . import datasets as ds

METHODS = ("lr", "pnp", "red_lr", "red_pnp")
METHOD_PARAM_KEYS = {
    "lr": ("alpha_lr",),
    "pnp": ("alpha_pnp", "rho"),
    "red_lr": ("alpha_red", "alpha_lr"),
    "red_pnp": ("alpha_red", "alpha_pnp", "rho"),
}
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


def _check_keys(cfg: dict, allowed, required, where: str) -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _write_json(path, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    _write_json(os.path.join(out_dir, "metrics.json"), metrics)
    return metrics


def _graph_setup(record: ds.DatasetRecord):
    """Laplacian + decomposition of one record's graph."""
    lap = build_laplacian(record.graph)
    return lap, eigendecompose(lap)


def _records_share_graph(records) -> bool:
    first = records[0].graph
    arrays = lambda g: (g.indptr, g.indices, g.weights)
    return all(r.graph is first or all(map(np.array_equal, arrays(r.graph), arrays(first))) for r in records[1:])


def _stack(signals) -> np.ndarray:
    cols = [s if s.ndim == 2 else s[:, None] for s in signals]
    return np.concatenate(cols, axis=1)


def method_denoiser(method, params, pnp_iters=DEFAULT_PNP_ITERS) -> Denoiser:
    """The denoiser that ``method`` applies (lr, pnp) or plugs into RED (red_*).

    ``params`` holds the method's scalar parameters, keyed as in ``METHOD_PARAM_KEYS``.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if method.endswith("lr"):
        return Denoiser(kind="lr", alpha=params["alpha_lr"])
    return Denoiser(kind="pnp", alpha=params["alpha_pnp"], rho=params["rho"], iters=pnp_iters)


def apply_method(method, params, lap, decomp, y, cg_layers=DEFAULT_CG_LAYERS, pnp_iters=DEFAULT_PNP_ITERS):
    """Run one denoising method with explicit scalar parameters (node space if no ``decomp``)."""
    if method in ("lr", "pnp"):
        return apply_denoiser(method_denoiser(method, params, pnp_iters), lap, y, decomp=decomp)
    return solve_with_report(method, params, lap, decomp, y, cg_layers, pnp_iters).x


def solve_with_report(method, params, lap, decomp, y, cg_layers=DEFAULT_CG_LAYERS, pnp_iters=DEFAULT_PNP_ITERS):
    """Solver report of a red_* method with explicit scalar parameters."""
    if not method.startswith("red_"):
        raise ConfigError(f"{method!r} is not a RED method")
    denoiser = method_denoiser(method, params, pnp_iters)
    prob = RedProblem(y=y, alpha_red=params["alpha_red"], denoiser=denoiser, lap=lap, decomp=decomp)
    return red_cg_solve(prob, cg_layers)


def _screened_errors(y, target, table, alphas, cg_layers, solve):
    """The red_* candidates the Krylov screen leaves, and their CG RMSE.

    Each candidate's CG RMSE is bracketed by its screened MSE plus or minus
    the screen's spread, widened by ``SCREEN_MARGIN``; the candidates whose
    bracket reaches below every upper end are confirmed by the CG core.
    Returns ``(close, errors)``, where ``errors`` holds the CG RMSE of every
    candidate in a block holding one of ``close`` (NaN elsewhere), or
    ``None`` when the screen is not trusted: it diverged, or a confirmed CG
    value fell outside its bracket.
    """
    try:
        mse, spread = krylov_screen_mse(y, target, 1.0 - table, alphas, cg_layers)
    except DivergenceError:
        return None  # the CG pass decides, and diverges where it would have
    low = np.sqrt(np.maximum(mse - spread, 0.0)) * (1.0 - SCREEN_MARGIN)
    high = np.sqrt(mse + spread) * (1.0 + SCREEN_MARGIN)
    close = np.flatnonzero(low <= high.min())
    errors = np.sqrt(candidate_mse(y, target, len(mse), solve, needed=close))
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

    red_* candidates are screened first by :func:`red.krylov_screen_mse`.
    Those that may be the minimum, given the screen's spread and
    ``SCREEN_MARGIN``, are re-solved by the CG core, in the blocks a full
    pass would run them in, and the pick is the first minimum of their CG
    values, so picks and ``train_rmse`` carry the bits of the exhaustive CG
    pass.  If the screen diverges, or a confirmed CG value falls outside the
    range the screen gave it, every candidate runs through the CG core.

    A dict passed as ``gain_tables`` to several calls keeps each gain table,
    keyed by eigenvalues and grid, between them.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if grid_points < 1:
        raise ConfigError("grid_points must be >= 1")
    alphas = np.geomspace(alpha_range[0], alpha_range[1], grid_points)
    rhos = np.geomspace(rho_range[0], rho_range[1], grid_points)
    if not _records_share_graph(records):
        raise ConfigError("tuning expects records on a shared graph")
    _, decomp = _graph_setup(records[0])
    y = gft(decomp, _stack([np.asarray(r.observed[sigma], dtype=float) for r in records]))
    target = gft(decomp, _stack([np.asarray(r.clean, dtype=float) for r in records]))

    kind = "pnp" if method.endswith("pnp") else "lr"
    key = (kind, decomp.eigenvalues.tobytes(), alphas.tobytes(), rhos.tobytes(), pnp_iters)
    tables = {} if gain_tables is None else gain_tables
    if key not in tables:
        grid = itertools.product(alphas, rhos) if kind == "pnp" else alphas[:, None]
        tables[key] = gain_table(kind, decomp.eigenvalues, grid, pnp_iters)
    table = tables[key]
    red = method.startswith("red_")
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
    keys = METHOD_PARAM_KEYS[method]
    picks = np.unravel_index(best, (grid_points,) * len(keys))
    entry = {"method": method, "sigma": float(sigma), "train_rmse": float(errors[best])}
    entry.update({k: float((rhos if k == "rho" else alphas)[i]) for k, i in zip(keys, picks)})
    return entry


def _tuned_lookup(tuned_path, method, sigma) -> dict:
    with open(tuned_path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    for entry in payload.get("entries", []):
        if entry.get("method") == method and float(entry.get("sigma")) == float(sigma):
            return {k: float(entry[k]) for k in METHOD_PARAM_KEYS[method]}
    raise ConfigError(f"{tuned_path}: no entry for method={method} sigma={sigma:g}")


# ---------------------------------------------------------------- commands


def cmd_generate(cfg: dict, out_dir: str, seed_override, threads: int) -> None:
    allowed = {
        "kind", "seed", "n_nodes", "side", "k", "n_band", "offset",
        "sigmas", "n_train", "n_test", "source", "m", "fps_start",
    }
    _check_keys(cfg, allowed, set(), "generate config")
    kind = cfg.get("kind", "synthetic")
    seed = int(seed_override if seed_override is not None else cfg.get("seed", 0))
    if kind == "synthetic":
        spec = ds.SyntheticSpec(
            n_nodes=int(cfg.get("n_nodes", 100)),
            side=float(cfg.get("side", 100.0)),
            k=int(cfg.get("k", 5)),
            n_band=int(cfg.get("n_band", 3)),
            offset=float(cfg.get("offset", 2.0)),
            sigmas=tuple(float(s) for s in cfg.get("sigmas", (10, 15, 20, 25, 30))),
            n_train=int(cfg.get("n_train", 10)),
            n_test=int(cfg.get("n_test", 5)),
            seed=seed,
        )
        dataset = ds.generate_synthetic_dataset(spec)
    elif kind == "pointcloud":
        _check_keys(cfg, allowed, {"source"}, "generate config")
        points = ds.load_point_cloud(cfg["source"])
        dataset = ds.generate_pointcloud_dataset(
            points,
            sigmas=[float(s) for s in cfg.get("sigmas", (10, 15, 20, 25, 30))],
            m=int(cfg.get("m", 500)),
            k=int(cfg.get("k", 5)),
            n_train=int(cfg.get("n_train", 10)),
            n_test=int(cfg.get("n_test", 5)),
            seed=seed,
            start=int(cfg.get("fps_start", 0)),
        )
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    ds.save_dataset(dataset, out_dir)
    print(f"wrote dataset ({kind}) to {out_dir}")


def cmd_tune(cfg: dict, out_dir: str, seed_override, threads: int) -> None:
    allowed = {
        "dataset", "methods", "sigmas", "split", "grid_points",
        "alpha_range", "rho_range", "cg_layers", "pnp_iters",
    }
    _check_keys(cfg, allowed, {"dataset"}, "tune config")
    dataset = ds.load_dataset(cfg["dataset"])
    methods = cfg.get("methods", list(METHODS))
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    sigmas = [float(s) for s in cfg.get("sigmas", dataset.sigmas)]
    records = dataset.split(cfg.get("split", "train"))
    if not records:
        raise ConfigError("tune: selected split is empty")
    entries = []
    gain_tables = {}
    for sigma in sigmas:
        for method in methods:
            entries.append(
                tune_method(
                    records,
                    sigma,
                    method,
                    grid_points=int(cfg.get("grid_points", DEFAULT_GRID_POINTS)),
                    alpha_range=tuple(cfg.get("alpha_range", DEFAULT_ALPHA_RANGE)),
                    rho_range=tuple(cfg.get("rho_range", DEFAULT_RHO_RANGE)),
                    cg_layers=int(cfg.get("cg_layers", DEFAULT_CG_LAYERS)),
                    pnp_iters=int(cfg.get("pnp_iters", DEFAULT_PNP_ITERS)),
                    gain_tables=gain_tables,
                )
            )
            print(
                f"tuned {method} at sigma={sigma:g}: train_rmse={entries[-1]['train_rmse']:.6g}"
            )
    _write_json(os.path.join(out_dir, "tuned.json"), {"schema": "graphred-tuned-v1", "entries": entries})


def _resolve_denoise_params(cfg, method, sigma) -> dict:
    if method == "unrolled":
        if "unrolled_params" not in cfg:
            raise ConfigError("method 'unrolled' needs the 'unrolled_params' key")
        return {}
    if "params" in cfg:
        params = dict(cfg["params"])
        missing = sorted(set(METHOD_PARAM_KEYS[method]) - set(params))
        extra = sorted(set(params) - set(METHOD_PARAM_KEYS[method]))
        if missing or extra:
            raise ConfigError(
                f"params for {method} must have exactly {list(METHOD_PARAM_KEYS[method])}"
            )
        return {k: float(v) for k, v in params.items()}
    if "tuned" in cfg:
        return _tuned_lookup(cfg["tuned"], method, sigma)
    raise ConfigError(f"no parameters given for method {method!r} (use 'params' or 'tuned')")


def cmd_denoise(cfg: dict, out_dir: str, seed_override, threads: int) -> None:
    allowed = {
        "dataset", "split", "method", "sigma", "params", "tuned", "unrolled_params",
        "cg_layers", "pnp_iters", "rebuild_graph_from_observed", "save_diagnostics",
    }
    _check_keys(cfg, allowed, {"dataset", "method", "sigma"}, "denoise config")
    dataset = ds.load_dataset(cfg["dataset"])
    method = cfg["method"]
    if method != "unrolled" and method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    sigma = float(cfg["sigma"])
    if sigma not in [float(s) for s in dataset.sigmas]:
        raise ConfigError(f"sigma {sigma:g} not in dataset (has {dataset.sigmas})")
    split = cfg.get("split", "test")
    records = dataset.split(split)
    if not records:
        raise ConfigError(f"denoise: split {split!r} is empty")
    params = _resolve_denoise_params(cfg, method, sigma)
    uparams = load_params(cfg["unrolled_params"]) if method == "unrolled" else None
    cg_layers = int(cfg.get("cg_layers", DEFAULT_CG_LAYERS))
    pnp_iters = int(cfg.get("pnp_iters", DEFAULT_PNP_ITERS))
    rebuild = bool(cfg.get("rebuild_graph_from_observed", False))
    if rebuild and dataset.manifest.get("kind") != "pointcloud":
        raise ConfigError("rebuild_graph_from_observed only applies to pointcloud datasets")
    save_diag = bool(cfg.get("save_diagnostics", False))
    k = int(dataset.manifest.get("k", 5))

    # One solve per record: node space, with sparse factorizations of
    # I + alpha L, is cheaper than an eigendecomposition.  A rebuilt graph
    # comes from the noisy coordinates, the only graph real clouds have.
    def run_one(record):
        y = np.asarray(record.observed[sigma], dtype=float)
        graph = normalize_weights(knn_graph(y, k)) if rebuild else record.graph
        lap = build_laplacian(graph)
        if method == "unrolled":
            return unrolled_forward(lap, y, uparams, pnp_iters=pnp_iters), None
        if method in ("lr", "pnp"):
            return apply_method(method, params, lap, None, y, cg_layers, pnp_iters), None
        report = solve_with_report(method, params, lap, None, y, cg_layers, pnp_iters)
        return report.x, report if save_diag else None

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        results = list(pool.map(run_one, records))

    denoised_dir = os.path.join(out_dir, "denoised")
    os.makedirs(denoised_dir, exist_ok=True)
    for record, (x, report) in zip(records, results):
        np.savetxt(
            os.path.join(denoised_dir, f"sample_{record.index:03d}.csv"),
            x, fmt="%.17g", delimiter=",",
        )
        if report is not None:
            _write_json(
                os.path.join(out_dir, "diagnostics", f"sample_{record.index:03d}.json"),
                report.to_dict(),
            )
    used = params if method != "unrolled" else {"file": cfg["unrolled_params"]}
    outputs = [x for x, _ in results]
    metrics = _write_metrics(out_dir, records, outputs, sigma, method=method, split=split, params=used)
    print(f"{method} sigma={sigma:g} mean_rmse={metrics['mean_rmse']:.6g} (observed {metrics['observed_rmse']:.6g})")


def _resolve_train_init(cfg, K, kind) -> tuple[UnrolledParams, int]:
    init_cfg = cfg.get("init", {})
    if not isinstance(init_cfg, dict):
        raise ConfigError("train config 'init' must be an object")
    allowed = {"alpha_red", "alpha_denoiser", "rho", "tuned", "method", "params"}
    _check_keys(init_cfg, allowed, set(), "train init")
    start_epoch = int(cfg.get("start_epoch", 0))
    if "params" in init_cfg:
        params = load_params(init_cfg["params"])
        if params.K != K or params.denoiser_kind != kind:
            raise ConfigError("resume params do not match the configured K / denoiser")
        return params, start_epoch
    if "tuned" in init_cfg:
        method = init_cfg.get("method", "red_lr" if kind == "lr" else "red_pnp")
        scalars = _tuned_lookup(init_cfg["tuned"], method, float(cfg["sigma"]))
        alpha_den = scalars.get("alpha_lr", scalars.get("alpha_pnp"))
        return (
            UnrolledParams.constant(K, kind, scalars["alpha_red"], alpha_den, scalars.get("rho")),
            start_epoch,
        )
    alpha_red = float(init_cfg.get("alpha_red", 1.0))
    alpha_den = float(init_cfg.get("alpha_denoiser", 1.0))
    rho = float(init_cfg.get("rho", 1.0)) if kind == "pnp" else None
    return UnrolledParams.constant(K, kind, alpha_red, alpha_den, rho), start_epoch


def cmd_train(cfg: dict, out_dir: str, seed_override, threads: int) -> None:
    allowed = {
        "dataset", "split", "sigma", "mode", "denoiser", "K", "epochs",
        "learning_rate", "seed", "gradient_method", "init", "start_epoch",
        "pnp_iters", "sigma_n2n_range",
    }
    _check_keys(cfg, allowed, {"dataset", "sigma"}, "train config")
    dataset = ds.load_dataset(cfg["dataset"])
    sigma = float(cfg["sigma"])
    records = dataset.split(cfg.get("split", "train"))
    if not records:
        raise ConfigError("train: selected split is empty")
    if not _records_share_graph(records):
        raise ConfigError("training expects records on a shared graph")
    kind = cfg.get("denoiser", "lr")
    if kind not in ("lr", "pnp"):
        raise ConfigError(f"unknown denoiser {kind!r}")
    K = int(cfg.get("K", DEFAULT_CG_LAYERS))
    mode = cfg.get("mode", "supervised")
    config = TrainConfig(
        mode=mode,
        learning_rate=float(cfg.get("learning_rate", 0.01)),
        epochs=int(cfg.get("epochs", 200)),
        sigma_n2n_range=(
            tuple(float(v) for v in cfg["sigma_n2n_range"]) if "sigma_n2n_range" in cfg else None
        ),
        seed=int(seed_override if seed_override is not None else cfg.get("seed", 0)),
        gradient_method=cfg.get("gradient_method", "exact"),
    )
    init, start_epoch = _resolve_train_init(cfg, K, kind)
    pnp_iters = int(cfg.get("pnp_iters", DEFAULT_PNP_ITERS))
    lap, decomp = _graph_setup(records[0])
    y = _stack([np.asarray(r.observed[sigma], dtype=float) for r in records])
    target = _stack([np.asarray(r.clean, dtype=float) for r in records]) if mode == "supervised" else None
    samples = [TrainSample(y=y, target=target)]
    params, history = train(
        samples, config, init, lap, decomp=decomp, start_epoch=start_epoch, pnp_iters=pnp_iters
    )
    save_params(params, os.path.join(out_dir, "params.json"))
    save_loss_history(history, os.path.join(out_dir, "loss_history.csv"))
    clean = _stack([np.asarray(r.clean, dtype=float) for r in records])
    final_rmse = rmse(unrolled_forward(lap, y, params, decomp=decomp, pnp_iters=pnp_iters), clean)
    _write_json(
        os.path.join(out_dir, "train_report.json"),
        {
            "schema": "graphred-train-v1",
            "mode": mode,
            "denoiser": kind,
            "K": K,
            "sigma": sigma,
            "epochs": config.epochs,
            "start_epoch": start_epoch,
            "first_loss": history[0],
            "final_loss": history[-1],
            "train_rmse_vs_clean": final_rmse,
            "n_params": params.n_params,
        },
    )
    print(f"trained {kind} K={K} mode={mode}: loss {history[0]:.6g} -> {history[-1]:.6g}")


def cmd_check(cfg: dict, out_dir: str, seed_override, threads: int) -> None:
    allowed = {
        "datasets", "methods", "alpha_lr", "alpha_pnp", "rho",
        "pnp_iters", "n_signals", "c", "seed",
    }
    _check_keys(cfg, allowed, {"datasets"}, "check config")
    methods = cfg.get("methods", ["lr", "pnp"])
    for m in methods:
        if m not in ("lr", "pnp"):
            raise ConfigError(f"check supports methods 'lr' and 'pnp', got {m!r}")
    seed = int(seed_override if seed_override is not None else cfg.get("seed", 0))
    n_signals = int(cfg.get("n_signals", 100))
    c = float(cfg.get("c", 1.1))
    rows = []
    for path in cfg["datasets"]:
        dataset = ds.load_dataset(path)
        records = dataset.train or dataset.test
        lap, decomp = _graph_setup(records[0])
        rng = np.random.default_rng(seed)
        for method in methods:
            params = {key: float(cfg.get(key, 1.0)) for key in METHOD_PARAM_KEYS[method]}
            den = method_denoiser(method, params, int(cfg.get("pnp_iters", DEFAULT_PNP_ITERS)))
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
                    "dataset": str(path), "method": method, "probe": "random",
                    "n_signals": n_signals, "c": c,
                    "max_homogeneity_deviation": max_dev,
                    "max_passivity_ratio": max_ratio,
                }
            )
            rows.append(
                {
                    "dataset": str(path), "method": method, "probe": "all_ones", "c": c,
                    "homogeneity_deviation": check_homogeneity(apply, ones, c),
                    "passivity_ratio": check_passivity(apply, ones),
                }
            )
    _write_json(os.path.join(out_dir, "check_report.json"), {"schema": "graphred-check-v1", "rows": rows})
    worst = max(
        (r.get("max_passivity_ratio", r.get("passivity_ratio", 0.0)) for r in rows), default=0.0
    )
    print(f"checked {len(rows)} rows; worst passivity ratio {worst:.9g}")


def cmd_spectrum(cfg: dict, out_dir: str, seed_override, threads: int) -> None:
    allowed = {"dataset", "alpha_red", "alpha_lr", "tuned", "sigma", "lambda_max", "n_points"}
    _check_keys(cfg, allowed, set(), "spectrum config")
    if "tuned" in cfg:
        if "sigma" not in cfg:
            raise ConfigError("spectrum: 'tuned' needs 'sigma' to select the entry")
        scalars = _tuned_lookup(cfg["tuned"], "red_lr", float(cfg["sigma"]))
        alpha_red, alpha_lr = scalars["alpha_red"], scalars["alpha_lr"]
        source_params = {"tuned": cfg["tuned"], "sigma": float(cfg["sigma"])}
    else:
        if "alpha_red" not in cfg or "alpha_lr" not in cfg:
            raise ConfigError("spectrum needs alpha_red and alpha_lr (or a tuned file)")
        alpha_red, alpha_lr = float(cfg["alpha_red"]), float(cfg["alpha_lr"])
        source_params = {"explicit": True}
    if "dataset" in cfg:
        dataset = ds.load_dataset(cfg["dataset"])
        records = dataset.train or dataset.test
        lap, decomp = _graph_setup(records[0])
        comparison = compare_responses(decomp, alpha_red, alpha_lr)
        source = {"kind": "dataset", "path": str(cfg["dataset"]), **source_params}
    else:
        lam = np.linspace(0.0, float(cfg.get("lambda_max", 10.0)), int(cfg.get("n_points", 200)))
        comparison = ResponseComparison(
            eigenvalues=lam,
            h_lr=h_lr(lam, alpha_lr).response,
            h_red=h_red(lam, alpha_red, alpha_lr).response,
            alpha_red=alpha_red,
            alpha_lr=alpha_lr,
        )
        source = {"kind": "grid", **source_params}
    os.makedirs(out_dir, exist_ok=True)
    write_response_csv(os.path.join(out_dir, "spectrum.csv"), comparison)
    _write_json(
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


def cmd_eval(cfg: dict, out_dir: str, seed_override, threads: int) -> None:
    allowed = {"dataset", "denoised", "split", "sigma", "method"}
    _check_keys(cfg, allowed, {"dataset", "denoised", "sigma"}, "eval config")
    dataset = ds.load_dataset(cfg["dataset"], graphs=False)
    sigma = float(cfg["sigma"])
    split = cfg.get("split", "test")
    records = dataset.split(split)
    outputs = []
    for record in records:
        path = os.path.join(cfg["denoised"], f"sample_{record.index:03d}.csv")
        x = np.loadtxt(path, delimiter=",", ndmin=1)
        if x.shape != np.asarray(record.clean).shape:
            raise ConfigError(f"{path}: shape {x.shape} does not match dataset")
        outputs.append(x)
    method = cfg.get("method", "unknown")
    metrics = _write_metrics(out_dir, records, outputs, sigma, method=method, split=split)
    print(f"eval mean_rmse={metrics['mean_rmse']:.6g} over {len(records)} samples")


COMMANDS = {
    "generate": cmd_generate,
    "tune": cmd_tune,
    "denoise": cmd_denoise,
    "train": cmd_train,
    "check": cmd_check,
    "spectrum": cmd_spectrum,
    "eval": cmd_eval,
}


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
        COMMANDS[args.command](cfg, args.out, args.seed, max(1, args.threads))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, TrainingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ParseError, InvalidGraphError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
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

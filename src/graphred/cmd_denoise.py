"""``graphred denoise``: run a method, or trained unrolled layers, on a bundle's records.

A plain kind runs through :func:`denoisers.apply_method`, and each ``red_*`` or
``unrolled`` record through one :func:`red.red_cg_unrolled` call on layers resolved once.
"""

import os

import numpy as np

from .denoisers import METHOD_KEYS, METHODS, SOLVER_KEYS, apply_method, flat_layers, method_kind, tuned_lookup
from .exceptions import ConfigError
from .files import (
    REQUIRED, dataset_sigma, load_dataset, parse, split_records, table_text, write_json, write_metrics, write_text,
)
from .graphs import build_laplacian

KEYS = {
    "dataset": ("string", REQUIRED), "split": ("string", "test"),
    "method": ("string", REQUIRED, ((*METHODS, "unrolled").__contains__, "unknown method {value!r}")),
    "sigma": ("number", REQUIRED), "params": ("object", None), "tuned": ("string", None),
    "unrolled_params": ("string", None), **SOLVER_KEYS,
    "rebuild_graph_from_observed": ("boolean", False), "save_diagnostics": ("boolean", False),
}


def resolve(cfg: dict, seed=None) -> dict:
    """``cfg`` read against ``KEYS``, with parameters from exactly one source, one the method reads."""
    values = parse(KEYS, cfg, "denoise config", seed)
    method, sources = values["method"], [k for k in ("params", "tuned", "unrolled_params") if values[k] is not None]
    if len(sources) > 1:
        raise ConfigError(f"denoise takes exactly one of 'params', 'tuned' or 'unrolled_params', got {sources}")
    if method == "unrolled" and values["unrolled_params"] is None:
        raise ConfigError("method 'unrolled' needs the 'unrolled_params' key")
    if method != "unrolled" and values["params"] is None and values["tuned"] is None:
        raise ConfigError(f"no parameters given for method {method!r} (use 'params' or 'tuned')")
    if method != "unrolled" and values["params"] is not None:
        if set(values["params"]) != set(METHOD_KEYS[method]):
            raise ConfigError(f"params for {method} must have exactly {list(METHOD_KEYS[method])}")
        values["params"] = parse(METHOD_KEYS[method], values["params"], "params")
    return values


def run(cfg: dict, out_dir: str, threads: int) -> None:
    rebuild = cfg["rebuild_graph_from_observed"]
    dataset = load_dataset(cfg["dataset"], graphs=not rebuild)  # a rebuild never reads the stored graphs
    method = cfg["method"]
    red = method == "unrolled" or method_kind(method)[1]
    sigma = dataset_sigma(dataset, cfg["sigma"])
    records = split_records("denoise", dataset, cfg["split"])
    if method == "unrolled":
        params = {"file": cfg["unrolled_params"]}  # as metrics.json records it
    else:
        params = cfg["params"] if cfg["params"] is not None else tuned_lookup(cfg["tuned"], method, sigma)
    cg_layers, pnp_iters = cfg["cg_layers"], cfg["pnp_iters"]
    if rebuild and dataset.manifest["kind"] != "pointcloud":
        raise ConfigError("rebuild_graph_from_observed only applies to pointcloud datasets")
    if rebuild:
        from .construct import knn_graph, normalize_weights
    if red:  # every RED record runs these layers: the trained ones, or K flat ones from scalar params
        from .red import red_cg_unrolled
        if method == "unrolled":
            from .unroll import load_params
            layers = load_params(cfg["unrolled_params"])
        else:
            layers = flat_layers(method, params, cg_layers, pnp_iters)
    save_diag = cfg["save_diagnostics"]
    k = dataset.manifest["k"]

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
            write_json(os.path.join(out_dir, "diagnostics", f"sample_{record.index:03d}.json"), report.to_dict())
    outputs = [x for x, _ in results]
    metrics = write_metrics(out_dir, records, outputs, sigma, method=method, split=cfg["split"], params=params)
    print(f"{method} sigma={sigma:g} mean_rmse={metrics['mean_rmse']:.6g} (observed {metrics['observed_rmse']:.6g})")

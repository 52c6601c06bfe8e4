"""``graphred train``: learn per-layer parameters of the unrolled RED solver on a bundle's records."""

import os

import numpy as np

from .denoisers import (
    DEFAULT_CG_LAYERS, KINDS, SOLVER_KEYS, flat_layers, graph_setup, records_share_graph, tuned_lookup,
)
from .exceptions import ConfigError
from .files import COUNT, REQUIRED, SIZE, dataset_sigma, load_dataset, parse, rmse, split_records, write_json
from .red import UnrolledParams
from .unroll import TrainConfig, TrainSample, load_params, save_loss_history, save_params, train, unrolled_forward

KEYS = {
    "dataset": ("string", REQUIRED), "split": ("string", "train"), "sigma": ("number", REQUIRED),
    "mode": ("string", "supervised"), "K": ("integer", DEFAULT_CG_LAYERS, COUNT),
    "denoiser": ("string", "lr", (KINDS.__contains__, "unknown denoiser {value!r}")),
    "epochs": ("integer", 200, COUNT), "learning_rate": ("number", 0.01), "seed": ("integer", 0),
    "gradient_method": ("string", "exact"), "init": ("object", {}), "start_epoch": ("integer", 0, SIZE),
    "pnp_iters": SOLVER_KEYS["pnp_iters"], "sigma_n2n_range": ("list of numbers", None),
}
# The "init" object: a resumed file, a tuned entry, or a flat start (alpha_denoiser is the kind's alpha).
TRAIN_INIT_KEYS = {
    "params": ("string", None), "tuned": ("string", None), "method": ("string", None),
    "alpha_red": ("number", 1.0), "alpha_denoiser": ("number", 1.0),
    **{field: ("number", 1.0) for spec in KINDS.values() for field in spec.fields[1:]},
}


def resolve(cfg: dict, seed=None) -> dict:
    values = parse(KEYS, cfg, "train config", seed)
    values["init"] = parse(TRAIN_INIT_KEYS, values["init"], "train init")
    return values


def _resolve_train_init(cfg, K, kind) -> UnrolledParams:
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
        return flat_layers(method, tuned_lookup(init["tuned"], method, cfg["sigma"]), K)
    # A flat start sets alpha_red, alpha_denoiser (the kind's alpha) and the kind's other parameters by name.
    values = [init[key] for key in ("alpha_red", "alpha_denoiser") + KINDS[kind].fields[1:]]
    if values[0] < 0:
        raise ValueError("alpha_red must be nonnegative")
    return UnrolledParams.constant(K, kind, *values)


def run(cfg: dict, out_dir: str, threads: int) -> None:
    dataset = load_dataset(cfg["dataset"])
    sigma = dataset_sigma(dataset, cfg["sigma"])
    records = split_records("train", dataset, cfg["split"])
    if not records_share_graph(records):
        raise ConfigError("training expects records on a shared graph")
    kind, K, mode, pnp_iters = cfg["denoiser"], cfg["K"], cfg["mode"], cfg["pnp_iters"]
    config = TrainConfig(**{key: cfg[key] for key in (
        "mode", "learning_rate", "epochs", "sigma_n2n_range", "seed", "gradient_method")})
    init = _resolve_train_init(cfg, K, kind)
    lap, decomp = graph_setup(records[0])
    y = np.column_stack([np.asarray(r.observed[sigma], dtype=float) for r in records])
    clean = np.column_stack([np.asarray(r.clean, dtype=float) for r in records])
    params, history = train([TrainSample(y=y, target=clean if mode == "supervised" else None)], config, init, lap,
                            decomp=decomp, start_epoch=cfg["start_epoch"], pnp_iters=pnp_iters)
    save_params(params, os.path.join(out_dir, "params.json"))
    save_loss_history(history, os.path.join(out_dir, "loss_history.csv"))
    final_rmse = rmse(unrolled_forward(lap, y, params, decomp=decomp, pnp_iters=pnp_iters), clean)
    write_json(os.path.join(out_dir, "train_report.json"), {
        "schema": "graphred-train-v1", **{key: cfg[key] for key in ("mode", "denoiser", "K", "sigma", "epochs")},
        "start_epoch": cfg["start_epoch"], "first_loss": history[0], "final_loss": history[-1],
        "train_rmse_vs_clean": final_rmse, "n_params": params.n_params,
    })
    print(f"trained {kind} K={K} mode={mode}: loss {history[0]:.6g} -> {history[-1]:.6g}")

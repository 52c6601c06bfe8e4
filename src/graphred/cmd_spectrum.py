"""``graphred spectrum``: the LR and RED regularizer gradients as graph filters."""

import os

import numpy as np

from .exceptions import ConfigError
from .files import COUNT, load_dataset, split_records, write_json
from .graphs import build_laplacian
from .spectral import compare_responses, write_response_csv

KEYS = {
    "dataset": ("string", None), "alpha_red": ("number", None), "alpha_lr": ("number", None),
    "tuned": ("string", None), "sigma": ("number", None),
    "lambda_max": ("number", 10.0, (lambda v: v > 0, "{key} must be > 0")),
    "n_points": ("integer", 200, COUNT),
}


def run(cfg: dict, out_dir: str, threads: int) -> None:
    if cfg["tuned"] is not None:
        if cfg["sigma"] is None:
            raise ConfigError("spectrum: 'tuned' needs 'sigma' to select the entry")
        from .denoisers import finite, tuned_lookup  # the method registry loads only to read a tuned file
        alpha_red, alpha_lr = finite(tuned_lookup(cfg["tuned"], "red_lr", cfg["sigma"]))
        source_params = {"tuned": cfg["tuned"], "sigma": cfg["sigma"]}
    else:
        if cfg["alpha_red"] is None or cfg["alpha_lr"] is None:
            raise ConfigError("spectrum needs alpha_red and alpha_lr (or a tuned file)")
        alpha_red, alpha_lr = cfg["alpha_red"], cfg["alpha_lr"]
        source_params = {"explicit": True}
    if cfg["dataset"] is not None:
        records = split_records("spectrum", load_dataset(cfg["dataset"]))
        graph_spec = build_laplacian(records[0].graph)  # decomposed by compare_responses
        source = {"kind": "dataset", "path": cfg["dataset"], **source_params}
    else:
        graph_spec = np.linspace(0.0, cfg["lambda_max"], cfg["n_points"])
        source = {"kind": "grid", **source_params}
    comparison = compare_responses(graph_spec, alpha_red, alpha_lr)
    write_response_csv(os.path.join(out_dir, "spectrum.csv"), comparison)
    write_json(os.path.join(out_dir, "spectrum_meta.json"), {
        "schema": "graphred-spectrum-v1", "alpha_red": alpha_red, "alpha_lr": alpha_lr,
        "n_points": len(comparison.eigenvalues), "source": source,
    })
    print(f"wrote spectrum.csv ({len(comparison.eigenvalues)} rows)")

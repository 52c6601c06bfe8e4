"""``graphred eval``: score denoised outputs, which must be finite, against a bundle's clean signals."""

import os

import numpy as np

from .exceptions import ConfigError
from .files import REQUIRED, dataset_sigma, load_dataset, load_signal, split_records, write_metrics

KEYS = {
    "dataset": ("string", REQUIRED), "denoised": ("string", REQUIRED), "split": ("string", "test"),
    "sigma": ("number", REQUIRED), "method": ("string", "unknown"),
}


def run(cfg: dict, out_dir: str, threads: int) -> None:
    dataset = load_dataset(cfg["dataset"], graphs=False)
    sigma = dataset_sigma(dataset, cfg["sigma"])
    records = split_records("eval", dataset, cfg["split"])
    outputs = []
    for record in records:
        path = os.path.join(cfg["denoised"], f"sample_{record.index:03d}.csv")
        x = load_signal(path, finite=True)
        if x.shape != np.asarray(record.clean).shape:
            raise ConfigError(f"{path}: shape {x.shape} does not match dataset")
        outputs.append(x)
    metrics = write_metrics(out_dir, records, outputs, sigma, method=cfg["method"], split=cfg["split"])
    print(f"eval mean_rmse={metrics['mean_rmse']:.6g} over {len(records)} samples")

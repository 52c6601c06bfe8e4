"""``graphred generate``: write a dataset bundle, synthetic or from a point cloud."""

from .datasets import (
    SyntheticSpec, generate_pointcloud_dataset, generate_synthetic_dataset, load_point_cloud, save_dataset,
)
from .exceptions import ConfigError
from .files import REQUIRED, SIZE, parse_kind

KEYS = {
    "kind": ("string", "synthetic", (("synthetic", "pointcloud").__contains__, "unknown dataset kind {value!r}")),
    "seed": ("integer", 0), "k": ("integer", 5), "sigmas": ("list of numbers", (10.0, 15.0, 20.0, 25.0, 30.0)),
    "n_train": ("integer", 10, SIZE), "n_test": ("integer", 5, SIZE),
}
# The keys of each dataset kind beyond the ones both kinds share.
DATASET_KIND_KEYS = {
    "synthetic": {"n_nodes": ("integer", 100), "side": ("number", 100.0), "n_band": ("integer", 3),
                  "offset": ("number", 2.0)},
    "pointcloud": {"source": ("string", REQUIRED), "m": ("integer", 500), "fps_start": ("integer", 0)},
}


def resolve(cfg: dict, seed=None) -> dict:
    """``cfg`` read against the shared keys and its kind's own."""
    return parse_kind(KEYS, DATASET_KIND_KEYS, "kind", cfg, "generate config", seed)


def run(cfg: dict, out_dir: str, threads: int) -> None:
    if cfg["n_train"] + cfg["n_test"] == 0:
        raise ConfigError("generate: n_train + n_test must be >= 1")
    shared = {key: cfg[key] for key in ("k", "sigmas", "n_train", "n_test", "seed")}
    if cfg["kind"] == "synthetic":
        spec = SyntheticSpec(**shared, **{key: cfg[key] for key in DATASET_KIND_KEYS["synthetic"]})
        dataset = generate_synthetic_dataset(spec)
    else:
        points = load_point_cloud(cfg["source"])
        dataset = generate_pointcloud_dataset(points, m=cfg["m"], start=cfg["fps_start"], **shared)
    save_dataset(dataset, out_dir)
    print(f"wrote dataset ({cfg['kind']}) to {out_dir}")

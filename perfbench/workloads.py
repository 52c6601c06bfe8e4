"""The three benchmark workloads: inputs made from the seed, commands, output checks.

Each workload is a set-up command (``generate``) plus a *pass*: the CLI
commands that are timed, run one after another in one process each.  Every
config value is fixed here except the dataset seed, which is the benchmark's
``--seed``; the program only ever sees the generated files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Full size is what the benchmark measures; tiny is for the self-tests.
SIZES = {
    "full": {
        "n_nodes": 100, "k": 5, "n_train": 10, "n_test": 5, "grid_points": 20,
        "lr_epochs": 200, "pnp_epochs": 30, "torus_points": 4000, "m": 2000,
        "cloud_k": 8, "cloud_records": 2,
    },
    "tiny": {
        "n_nodes": 30, "k": 4, "n_train": 3, "n_test": 2, "grid_points": 3,
        "lr_epochs": 5, "pnp_epochs": 4, "torus_points": 400, "m": 150,
        "cloud_k": 6, "cloud_records": 2,
    },
}

SIGMA = 20.0
CLOUD_SIGMA = 0.5
K_LAYERS = 10
TORUS_RADII = (10.0, 4.0)
TORUS_STREAM = 7


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``units`` is the work it does (candidates, epochs, records)."""

    label: str
    subcommand: str
    config: dict
    out: str
    units: int = 0
    rate: str | None = None


def _load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=1)


def _read_json(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def observed_rmse(bundle, split, sigma) -> float:
    """RMSE of the stacked observations of ``split`` against the clean signals."""
    manifest = _read_json(os.path.join(bundle, "manifest.json"))
    count = int(manifest["n_train" if split == "train" else "n_test"])
    sq = []
    for idx in range(count):
        sample = os.path.join(bundle, split, f"sample_{idx:03d}")
        clean = _load_csv(os.path.join(sample, "clean.csv"))
        noisy = _load_csv(os.path.join(sample, f"observed_sigma{sigma:g}.csv"))
        sq.append((noisy - clean) ** 2)
    return float(np.sqrt(np.mean(np.concatenate([s.ravel() for s in sq]))))


def torus_points(seed: int, n: int, scale: float = 1.0) -> np.ndarray:
    """``n`` points spread uniformly by area over a torus surface, drawn from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, TORUS_STREAM]))
    big, small = (scale * r for r in TORUS_RADII)
    points = np.empty((0, 3))
    while len(points) < n:
        theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=(2, 2 * n))
        # Accept with probability proportional to the local area element.
        keep = rng.uniform(size=2 * n) * (big + small) <= big + small * np.cos(theta)
        ring = big + small * np.cos(theta[keep])
        batch = np.stack(
            [ring * np.cos(phi[keep]), ring * np.sin(phi[keep]), small * np.sin(theta[keep])],
            axis=1,
        )
        points = np.concatenate([points, batch])
    return points[:n]


class Workload:
    name = ""
    why = ""
    SIZE_KEYS: tuple = ()

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = SIZES[size]

    def make_inputs(self, work_dir) -> None:
        """Write any source files the generate command reads."""

    def generate(self, out: str) -> Command:
        raise NotImplementedError

    def commands(self, bundle: str, pass_dir: str) -> list[Command]:
        raise NotImplementedError

    def check(self, work_dir, bundle, pass_dir) -> tuple[list[str], list[float]]:
        """Failed check descriptions and every artifact's RMSE ÷ observed RMSE."""
        raise NotImplementedError

    def provenance(self) -> dict:
        return {"seed": self.seed, **{k: self.size[k] for k in self.SIZE_KEYS}}

    def records(self, label: str) -> int:
        return 0


class _SyntheticWorkload(Workload):
    def generate(self, out: str) -> Command:
        s = self.size
        return Command("generate", "generate", {
            "kind": "synthetic", "seed": self.seed, "n_nodes": s["n_nodes"], "side": 100.0,
            "k": s["k"], "n_band": 3, "offset": 2.0, "sigmas": [10.0, SIGMA, 30.0],
            "n_train": s["n_train"], "n_test": s["n_test"],
        }, out)


class TuneGrid(_SyntheticWorkload):
    name = "tune_grid"
    why = ("many small RED solves on one N=100 graph: tune of lr, pnp, red_lr, red_pnp over "
           "8,820 grid candidates; gains and CG dominate")
    METHODS = ("lr", "pnp", "red_lr", "red_pnp")
    SIZE_KEYS = ("n_nodes", "k", "n_train", "n_test", "grid_points")

    def candidates(self) -> int:
        g = self.size["grid_points"]
        return g + g * g + g * g + g * g * g

    def commands(self, bundle, pass_dir):
        return [Command("tune", "tune", {
            "dataset": bundle, "methods": list(self.METHODS), "sigmas": [SIGMA],
            "split": "train", "grid_points": self.size["grid_points"],
        }, os.path.join(pass_dir, "tune"), self.candidates(), "tune_candidates_per_s")]

    def check(self, work_dir, bundle, pass_dir):
        tuned = _read_json(os.path.join(work_dir, pass_dir, "tune", "tuned.json"))
        rmse = {e["method"]: e["train_rmse"] for e in tuned["entries"]}
        observed = observed_rmse(os.path.join(work_dir, bundle), "train", SIGMA)
        failures = []
        if sorted(rmse) != sorted(self.METHODS):
            return [f"tuned.json methods {sorted(rmse)}"], []
        for red, base in (("red_lr", "lr"), ("red_pnp", "pnp")):
            if not rmse[red] <= rmse[base]:
                failures.append(f"{red} rmse {rmse[red]:.6g} > {base} rmse {rmse[base]:.6g}")
        for method, value in rmse.items():
            if not value <= 0.5 * observed:
                failures.append(f"{method} rmse {value:.6g} > half the observed {observed:.6g}")
        return failures, [v / observed for v in rmse.values()]


class TrainUnrolled(_SyntheticWorkload):
    name = "train_unrolled"
    why = ("unrolled training with per-layer parameters: 200 LR epochs with analytic gradients, "
           "then noise2noise PnP with finite differences (67 forward passes per epoch)")
    SIZE_KEYS = ("n_nodes", "k", "n_train", "n_test", "lr_epochs", "pnp_epochs")

    def commands(self, bundle, pass_dir):
        s = self.size
        lr = {
            "dataset": bundle, "sigma": SIGMA, "mode": "supervised", "denoiser": "lr",
            "K": K_LAYERS, "epochs": s["lr_epochs"], "learning_rate": 0.01,
            "gradient_method": "analytic_linear",
            "init": {"alpha_red": 1.0, "alpha_denoiser": 1.0},
        }
        # A narrow fixed re-noising level and an over-smoothed start make the
        # loss fall by well over its epoch-to-epoch noise at every seed.
        pnp = {
            "dataset": bundle, "sigma": SIGMA, "mode": "noise2noise", "denoiser": "pnp",
            "K": K_LAYERS, "epochs": s["pnp_epochs"], "learning_rate": 0.3,
            "gradient_method": "finite_difference", "seed": self.seed,
            "sigma_n2n_range": [5.0, 5.0],
            "init": {"alpha_red": 5.0, "alpha_denoiser": 5.0, "rho": 1.0},
        }
        return [
            Command("train_lr", "train", lr, os.path.join(pass_dir, "train_lr"),
                    s["lr_epochs"], "train_lr_epochs_per_s"),
            Command("train_pnp", "train", pnp, os.path.join(pass_dir, "train_pnp"),
                    s["pnp_epochs"], "train_pnp_epochs_per_s"),
        ]

    def check(self, work_dir, bundle, pass_dir):
        observed = observed_rmse(os.path.join(work_dir, bundle), "train", SIGMA)
        failures, ratios = [], []
        for label in ("train_lr", "train_pnp"):
            report = _read_json(os.path.join(work_dir, pass_dir, label, "train_report.json"))
            if not report["final_loss"] < report["first_loss"]:
                failures.append(
                    f"{label}: final loss {report['final_loss']:.6g} "
                    f"not below first loss {report['first_loss']:.6g}"
                )
            ratios.append(report["train_rmse_vs_clean"] / observed)
        return failures, ratios


class CloudDenoise(Workload):
    name = "cloud_denoise"
    why = ("N=2000 torus cloud: denoise on the shared stored graph (cacheable), on graphs rebuilt "
           "per record (not cacheable), then eval; kNN, eigh and edge-list I/O dominate")
    SHARED = {"alpha_red": 3.0, "alpha_pnp": 0.3, "rho": 1.0}
    REBUILD = {"alpha_red": 3.0, "alpha_lr": 1.0}
    SIZE_KEYS = ("torus_points", "m", "cloud_k", "cloud_records")

    def make_inputs(self, work_dir):
        os.makedirs(os.path.join(work_dir, "inputs"), exist_ok=True)
        np.savetxt(
            os.path.join(work_dir, "inputs", "torus.csv"),
            # Tiny sizes shrink the torus so the thinned cloud keeps the full
            # size's point spacing, for which the method parameters are set.
            torus_points(self.seed, self.size["torus_points"], (self.size["m"] / 2000) ** 0.5),
            fmt="%.17g", delimiter=",",
        )

    def generate(self, out):
        s = self.size
        return Command("generate", "generate", {
            "kind": "pointcloud", "seed": self.seed, "source": os.path.join("inputs", "torus.csv"),
            "m": s["m"], "k": s["cloud_k"], "fps_start": 0, "sigmas": [CLOUD_SIGMA],
            "n_train": 0, "n_test": s["cloud_records"],
        }, out)

    def records(self, label):
        return self.size["cloud_records"] if label.startswith("denoise") else 0

    def commands(self, bundle, pass_dir):
        n = self.size["cloud_records"]
        common = {"dataset": bundle, "split": "test", "sigma": CLOUD_SIGMA}
        shared = os.path.join(pass_dir, "denoise_shared")
        return [
            Command("denoise_shared", "denoise", {
                **common, "method": "red_pnp", "params": self.SHARED, "save_diagnostics": True,
            }, shared, n, "denoise_shared_records_per_s"),
            Command("denoise_rebuild", "denoise", {
                **common, "method": "red_lr", "params": self.REBUILD,
                "rebuild_graph_from_observed": True,
            }, os.path.join(pass_dir, "denoise_rebuild"), n, "denoise_rebuild_records_per_s"),
            Command("eval", "eval", {
                "dataset": bundle, "denoised": os.path.join(shared, "denoised"),
                "sigma": CLOUD_SIGMA, "split": "test", "method": "red_pnp",
            }, os.path.join(pass_dir, "eval")),
        ]

    def check(self, work_dir, bundle, pass_dir):
        failures, ratios = [], []
        metrics = {
            label: _read_json(os.path.join(work_dir, pass_dir, label, "metrics.json"))
            for label in ("denoise_shared", "denoise_rebuild", "eval")
        }
        for label, m in metrics.items():
            if not m["mean_rmse"] < m["observed_rmse"]:
                failures.append(
                    f"{label}: mean_rmse {m['mean_rmse']:.6g} "
                    f"not below observed {m['observed_rmse']:.6g}"
                )
            ratios.append(m["mean_rmse"] / m["observed_rmse"])
        if metrics["eval"]["mean_rmse"] != metrics["denoise_shared"]["mean_rmse"]:
            failures.append("eval mean_rmse differs from the shared denoise's metrics.json")
        return failures, ratios


WORKLOADS = {w.name: w for w in (TuneGrid, TrainUnrolled, CloudDenoise)}

"""``graphred check``: RED's two admissibility conditions, measured on any denoiser and on bundle graphs.

:func:`check_homogeneity` measures local homogeneity and :func:`check_passivity` strong passivity.
"""

import os

import numpy as np

from .denoisers import (
    KINDS, METHOD_PARAM_KEYS, SOLVER_KEYS, Denoiser, apply_denoiser, denoiser_gains, gain_filter, graph_setup,
    method_denoiser,
)
from .files import COUNT, REQUIRED, load_dataset, split_records, write_json
from .graphs import Laplacian, SpectralDecomp

KEYS = {
    "datasets": ("list of strings", REQUIRED),
    "methods": ("list of strings", tuple(KINDS),
                (KINDS.__contains__, f"check supports the denoiser methods {list(KINDS)}, got {{value!r}}")),
    "pnp_iters": SOLVER_KEYS["pnp_iters"], "n_signals": ("integer", 100, COUNT), "c": ("number", 1.1),
    "seed": ("integer", 0),
    **{key: ("number", 1.0) for spec in KINDS.values() for key in spec.keys},
}


def _as_callable(denoiser, lap, decomp):
    if callable(denoiser) and not isinstance(denoiser, Denoiser):
        return denoiser
    if lap is None:
        raise ValueError("a Laplacian is required to apply a Denoiser config")
    return lambda v: apply_denoiser(denoiser, lap, v, decomp=decomp)


def check_homogeneity(
    denoiser, x: np.ndarray, c: float = 1.1, lap: Laplacian | None = None, decomp: SpectralDecomp | None = None
) -> float:
    """Local-homogeneity deviation ``||D(c x) - c D(x)|| / ||c D(x)||``.

    ``denoiser`` is a :class:`Denoiser` (then ``lap`` is required) or any
    signal-to-signal callable.  Zero deviation means the denoiser commutes
    exactly with scaling by ``c``.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) == 0:
        raise ValueError("homogeneity check needs a nonzero signal")
    fn = _as_callable(denoiser, lap, decomp)
    ref = c * fn(x)
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0:
        raise ValueError("denoiser output is zero; deviation undefined")
    return float(np.linalg.norm(fn(c * x) - ref) / ref_norm)


def check_passivity(
    denoiser, x: np.ndarray, lap: Laplacian | None = None, decomp: SpectralDecomp | None = None
) -> float:
    """Strong-passivity proxy ``||D(x)||^2 / ||x||^2`` (should be <= 1)."""
    x = np.asarray(x, dtype=float)
    xsq = float(np.sum(x * x))
    if xsq == 0:
        raise ValueError("passivity check needs a nonzero signal")
    fn = _as_callable(denoiser, lap, decomp)
    out = fn(x)
    return float(np.sum(out * out) / xsq)


def run(cfg: dict, out_dir: str, threads: int) -> None:
    n_signals, c = cfg["n_signals"], cfg["c"]
    rows = []
    for path in cfg["datasets"]:
        lap, decomp = graph_setup(split_records("check", load_dataset(path))[0])
        rng = np.random.default_rng(cfg["seed"])
        for method in cfg["methods"]:
            den = method_denoiser(method, {key: cfg[key] for key in METHOD_PARAM_KEYS[method]}, cfg["pnp_iters"])
            apply = gain_filter(decomp, denoiser_gains(den, decomp.eigenvalues))
            max_dev = max_ratio = 0.0
            for _ in range(n_signals):
                x = rng.standard_normal(lap.n_nodes)
                max_dev = max(max_dev, check_homogeneity(apply, x, c))
                max_ratio = max(max_ratio, check_passivity(apply, x))
            ones, row = np.ones(lap.n_nodes), {"dataset": path, "method": method, "c": c}
            rows.append({**row, "probe": "random", "n_signals": n_signals, "max_homogeneity_deviation": max_dev,
                         "max_passivity_ratio": max_ratio})
            rows.append({**row, "probe": "all_ones", "homogeneity_deviation": check_homogeneity(apply, ones, c),
                         "passivity_ratio": check_passivity(apply, ones)})
    write_json(os.path.join(out_dir, "check_report.json"), {"schema": "graphred-check-v1", "rows": rows})
    worst = max((r.get("max_passivity_ratio", r.get("passivity_ratio", 0.0)) for r in rows), default=0.0)
    print(f"checked {len(rows)} rows; worst passivity ratio {worst:.9g}")

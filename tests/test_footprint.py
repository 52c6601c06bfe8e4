"""Resource budgets: no N x N array off the eigendecomposition path, no scipy where it is not used."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np

import graphred
from graphred import (
    Denoiser, RedProblem, apply_denoiser, build_laplacian, knn_graph, load_edge_list, lr_smoother, normalize_weights,
    red_cg_solve, save_edge_list,
)

N = 2000
DENSE_BYTES = N * N * 8  # one dense N x N float64 array


def traced_peak(fn):
    """Peak bytes tracemalloc sees (numpy buffers included) while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_node_space_path_stays_below_one_dense_array(tmp_path):
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 10.0, size=(N, 3))
    y = points + 0.1 * rng.standard_normal((N, 3))
    path = tmp_path / "graph.edges"

    def denoise():
        graph = normalize_weights(knn_graph(points, 8))
        save_edge_list(graph, path)
        lr_smoother(build_laplacian(graph), 1.0)(y)

    assert traced_peak(denoise) < DENSE_BYTES
    assert traced_peak(lambda: load_edge_list(path, n_nodes=N)) < DENSE_BYTES


def test_lanczos_denoise_stays_below_one_dense_array():
    """A Lanczos node-path denoise of a 3-column signal at N=2000, with the cloud benchmark's parameters.

    Its basis holds m N C floats: 1.9 MB at the m = 40 these solves reach
    (3.1 MB of storage, which doubles as it grows), and 512 * 2000 * 3 * 8 =
    24.6 MB at the cap ``MAX_KRYLOV_STEPS``, against 32 MB for one dense
    N x N array.
    """
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 10.0, size=(N, 3))
    y = points + 0.1 * rng.standard_normal((N, 3))
    lap = build_laplacian(normalize_weights(knn_graph(points, 8)))
    pnp = Denoiser(kind="pnp", alpha=0.3, rho=1.0)
    for den in (pnp, Denoiser(kind="lr", alpha=1.0)):
        assert traced_peak(lambda: red_cg_solve(RedProblem(y=y, alpha_red=3.0, denoiser=den, lap=lap), 10)) < DENSE_BYTES
    assert traced_peak(lambda: apply_denoiser(pnp, lap, y)) < DENSE_BYTES


def test_spectral_commands_import_no_scipy(tmp_path):
    """No command imports scipy: the probe blocks it, so any attempt fails loudly."""
    src = os.path.dirname(os.path.dirname(graphred.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(command, config, out=None):
        out = out or command
        cfg = tmp_path / f"{out}.json"
        cfg.write_text(json.dumps(config))
        probe = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from graphred.cli import main\n"
            f"code = main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path / out)!r}])\n"
            "print(code, sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "0 []", (command, out.stdout, out.stderr)

    bundle = str(tmp_path / "generate")
    run("generate", {"kind": "synthetic", "seed": 1, "n_nodes": 20, "k": 3, "sigmas": [1.0], "n_train": 2, "n_test": 1})
    run("tune", {"dataset": bundle, "grid_points": 2})
    run("train", {"dataset": bundle, "sigma": 1.0, "K": 2, "epochs": 2, "denoiser": "pnp"})
    denoised = tmp_path / "denoised"
    denoised.mkdir()
    shutil.copy(tmp_path / "generate" / "test" / "sample_000" / "clean.csv", denoised / "sample_000.csv")
    run("eval", {"dataset": bundle, "denoised": str(denoised), "sigma": 1.0})

    common = {"dataset": bundle, "sigma": 1.0}
    run("denoise", {**common, "method": "lr", "params": {"alpha_lr": 1.0}}, "denoise_lr")
    run("denoise", {**common, "method": "pnp", "params": {"alpha_pnp": 1.0, "rho": 1.0}}, "denoise_pnp")
    run("denoise", {**common, "method": "unrolled", "unrolled_params": str(tmp_path / "train" / "params.json")},
        "denoise_unrolled")
    red_pnp = {"alpha_red": 3.0, "alpha_pnp": 0.3, "rho": 1.0}
    run("denoise", {**common, "method": "red_pnp", "params": red_pnp, "save_diagnostics": True}, "denoise_red_pnp")
    points = np.random.default_rng(1).uniform(0.0, 10.0, size=(80, 3))
    np.savetxt(tmp_path / "cloud.csv", points, delimiter=",")
    run("generate", {"kind": "pointcloud", "source": str(tmp_path / "cloud.csv"), "m": 40, "k": 5,
                     "sigmas": [0.5], "n_train": 0, "n_test": 2}, "cloud")
    run("denoise", {"dataset": str(tmp_path / "cloud"), "sigma": 0.5, "method": "red_lr",
                    "params": {"alpha_red": 3.0, "alpha_lr": 1.0}, "rebuild_graph_from_observed": True},
        "denoise_rebuild")

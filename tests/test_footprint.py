"""Resource budgets: no N x N array off the eigendecomposition path, no scipy where it is not used."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np

import graphred
from graphred import build_laplacian, knn_graph, load_edge_list, lr_smoother, normalize_weights, save_edge_list

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


def test_spectral_commands_import_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(graphred.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(command, config):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        probe = (
            "import sys\n"
            "from graphred.cli import main\n"
            f"code = main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path / command)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
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

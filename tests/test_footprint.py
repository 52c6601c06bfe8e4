"""Resource budgets: no N x N array off the eigendecomposition path, no module a command does not run."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import graphred
import graphred.graphs
from graphred import (
    Denoiser, RedProblem, apply_denoiser, build_laplacian, knn_graph, load_edge_list, lr_denoise, normalize_weights,
    red_cg_solve, save_edge_list,
)
from graphred.cmd_tune import krylov_screen_mse
from test_construct import torus

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
        lr_denoise(build_laplacian(graph), y, 1.0)

    assert traced_peak(denoise) < DENSE_BYTES
    assert traced_peak(lambda: load_edge_list(path, n_nodes=N)) < DENSE_BYTES


def test_lanczos_denoise_stays_below_one_dense_array():
    """A Lanczos node-path denoise of a 3-column signal at N=2000, with the cloud benchmark's parameters.

    Its basis holds m N C floats: 1.9 MB at the m = 40 these solves reach
    (2.3 MB of storage, which grows by half when full), and 512 * 2000 * 3 *
    8 = 24.6 MB at the cap ``MAX_KRYLOV_STEPS``, against 32 MB for one dense
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


def test_knn_peak_is_one_candidate_block_over_the_pairs():
    """kNN on an N=2000 torus at k = 8: the grid search holds one block of
    ``KNN_CANDIDATE_ENTRIES`` candidates (about 2 MB of arrays) besides the O(N k) pairs."""
    points = torus(N, 0)
    assert traced_peak(lambda: knn_graph(points, 8)) < 3.5e6


def test_edge_list_parse_keeps_no_list_per_line(tmp_path):
    """Reading that graph's edge list (about 9,300 lines) parses a block of lines at a time."""
    save_edge_list(normalize_weights(knn_graph(torus(N, 0), 8)), tmp_path / "graph.edges")
    assert traced_peak(lambda: load_edge_list(tmp_path / "graph.edges", n_nodes=N)) < 3.2e6


def test_lanczos_storage_grows_without_a_doubling_peak(monkeypatch):
    """A Lanczos denoise peaks at its basis storage's last growth, plus a few vectors.

    Full storage is copied into storage half as large again (16 steps at
    least) and dropped, and no view of it outlives the copy.  A solve that
    ends at m = 32 steps then peaks at 16 + 32 steps of storage while it
    grows (1.5 times its final basis), and one that ends at m = 40 at 32 + 48
    (2 times); doubling storage held 16 + 16 + 32 and 32 + 32 + 64.
    """
    steps = []
    lanczos = graphred.graphs.lanczos

    def counted(*args):
        for step in lanczos(*args):
            steps.append(step[0].shape[1])
            yield step
            del step  # hold no view into the next step

    monkeypatch.setattr(graphred.graphs, "lanczos", counted)
    points = torus(N, 0)
    y = points + 0.5 * np.random.default_rng(0).standard_normal(points.shape)
    lap = build_laplacian(normalize_weights(knn_graph(points, 8)))
    for den, m, ratio in ((Denoiser(kind="pnp", alpha=0.3, rho=1.0), 32, 1.7), (Denoiser(kind="lr", alpha=1.0), 40, 2.2)):
        steps.clear()
        peak = traced_peak(lambda: red_cg_solve(RedProblem(y=y, alpha_red=3.0, denoiser=den, lap=lap), 10))
        assert max(steps) == m
        assert peak < ratio * m * y.size * 8


def test_krylov_screen_keeps_only_its_last_step():
    """The tune screen past 16 layers: 10 gain rows x 10 signals of N=400 at K = 40 (a 12.8 MB basis).

    Its storage grows 16 -> 32 -> 48 steps; holding only the last step's
    views, the screen peaks at the 32 + 48 steps of the last growth, not at
    every outgrown storage at once.
    """
    rng = np.random.default_rng(0)
    y = rng.standard_normal((400, 10))
    shortfalls = rng.uniform(0.0, 1.0, size=(10, 400))
    peak = traced_peak(lambda: krylov_screen_mse(y, y + 0.1, shortfalls, np.array([0.5, 1.0]), 40))
    assert peak < 2.3 * 10 * y.size * 40 * 8


def run_probe(body):
    """Run ``body`` in a fresh process with scipy blocked (an import of it fails loudly).

    ``body`` sets ``code``; returns it, the set of modules the process loaded, and the
    summed source lines and the dataclasses of the ``graphred`` modules among them.
    """
    src = os.path.dirname(os.path.dirname(graphred.__file__))
    probe = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        f"{body}"
        "import dataclasses, inspect\n"
        "own = [mod for m, mod in sys.modules.items() if mod is not None and m.split('.')[0] == 'graphred']\n"
        "lines = sum(len(open(mod.__file__).readlines()) for mod in own)\n"
        "classes = sum(inspect.isclass(v) and v.__module__ == mod.__name__ and dataclasses.is_dataclass(v)\n"
        "              for mod in own for v in vars(mod).values())\n"
        "print(json.dumps([code, sorted(m for m, mod in sys.modules.items() if mod is not None), lines, classes]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    code, modules, lines, classes = json.loads(proc.stdout.strip().splitlines()[-1])
    return code, set(modules), lines, classes


def run_command(tmp_path, command, config, out=None):
    """Run one CLI command by :func:`run_probe`, and return what it returns."""
    out = out or command
    cfg = tmp_path / f"{out}.json"
    cfg.write_text(json.dumps(config))
    return run_probe(
        "from graphred.cli import main\n"
        f"code = main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path / out)!r}])\n"
    )


# One call of each name tests/test_acceptance.py pins, after a star import of the package.
LIBRARY_CALLS = """\
import numpy as np
import graphred
from graphred import *
from graphred.cli import apply_method, tune_method

data = generate_synthetic_dataset(SyntheticSpec(n_nodes=20, sigmas=(1.0,), n_train=2, n_test=1))
lap = build_laplacian(data.train[0].graph)
y = data.train[0].observed[1.0]
den = Denoiser("pnp", 1.0, rho=1.0)
prob = RedProblem(y=y, alpha_red=1.0, denoiser=den, lap=lap)
red_gradient(prob, y), red_objective(prob, y), red_gradient_descent(prob, 0.5, 2), red_cg_solve(prob, 2)
check_homogeneity(den, y, lap=lap), check_passivity(den, y, lap=lap)
lr_denoise(lap, y, 1.0), lr_denoise_cg(lap, y, 1.0)
h_red(np.linspace(0.0, 2.0, 5), 1.0, 1.0), red_filter_matrix(eigendecompose(lap), 1.0, 1.0)
unrolled_forward(lap, y, UnrolledParams.constant(2, "lr", alpha_red=1.0, alpha_denoiser=1.0))
apply_method("red_lr", {"alpha_red": 1.0, "alpha_lr": 1.0}, lap, None, y)
tune_method(data.train, 1.0, "red_pnp", grid_points=2)
code = 0
"""


def test_spectral_commands_import_no_scipy(tmp_path):
    """Neither the library's pinned API nor any command imports scipy."""

    def check(result, what):
        code, modules = result[:2]
        assert (code, sorted(m for m in modules if m.split(".")[0] == "scipy")) == (0, []), what

    check(run_probe(LIBRARY_CALLS), "library")

    def run(command, config, out=None):
        check(run_command(tmp_path, command, config, out), command)

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


@pytest.fixture(scope="module")
def footprints(tmp_path_factory):
    """Exit code, modules, and graphred source lines and dataclasses of each README-chain command in a fresh process."""
    tmp = tmp_path_factory.mktemp("footprints")
    bundle, cloud = str(tmp / "synthetic"), str(tmp / "cloud")
    np.savetxt(tmp / "cloud.csv", np.random.default_rng(1).uniform(0.0, 10.0, size=(80, 3)), delimiter=",")
    common = {"dataset": bundle, "sigma": 1.0}
    red_pnp = {"alpha_red": 3.0, "alpha_pnp": 0.3, "rho": 1.0}
    runs = [
        ("generate", "synthetic", {"kind": "synthetic", "seed": 1, "n_nodes": 20, "k": 3, "sigmas": [1.0],
                                   "n_train": 2, "n_test": 1}),
        ("generate", "cloud", {"kind": "pointcloud", "source": str(tmp / "cloud.csv"), "m": 40, "k": 5,
                               "sigmas": [1.0], "n_train": 0, "n_test": 1}),
        ("tune", "tune", {"dataset": bundle, "grid_points": 2}),
        ("train", "train", {**common, "K": 2, "epochs": 2}),
        ("denoise", "lr", {**common, "method": "lr", "params": {"alpha_lr": 1.0}}),
        ("denoise", "red_pnp", {**common, "method": "red_pnp", "params": red_pnp, "save_diagnostics": True}),
        ("denoise", "rebuild", {"dataset": cloud, "sigma": 1.0, "method": "red_lr",
                                "params": {"alpha_red": 3.0, "alpha_lr": 1.0}, "rebuild_graph_from_observed": True}),
        ("denoise", "unrolled", {**common, "method": "unrolled", "unrolled_params": str(tmp / "train" / "params.json")}),
        ("check", "check", {"datasets": [bundle], "n_signals": 2}),
        ("spectrum", "spectrum", {"alpha_red": 3.0, "alpha_lr": 1.0, "n_points": 5}),
        ("spectrum", "spectrum_tuned", {"dataset": bundle, "tuned": str(tmp / "tune" / "tuned.json"), "sigma": 1.0}),
        ("eval", "eval", {**common, "denoised": str(tmp / "red_pnp" / "denoised")}),
    ]
    return {out: run_command(tmp, command, config, out) for command, out, config in runs}


# The graphred modules each command loads besides graphred, cli, exceptions and files.
COMMAND_MODULES = {
    "synthetic": {"cmd_generate", "construct", "datasets", "graphs"},
    "cloud": {"cmd_generate", "construct", "datasets", "graphs"},
    "tune": {"cmd_tune", "denoisers", "graphs", "red"},
    "train": {"cmd_train", "denoisers", "graphs", "red", "unroll"},
    "lr": {"cmd_denoise", "denoisers", "graphs"},
    "red_pnp": {"cmd_denoise", "denoisers", "graphs", "red"},
    "rebuild": {"cmd_denoise", "construct", "denoisers", "graphs", "red"},
    "unrolled": {"cmd_denoise", "denoisers", "graphs", "red", "unroll"},
    "check": {"cmd_check", "denoisers", "graphs"},
    "spectrum": {"cmd_spectrum", "graphs", "spectral"},
    "spectrum_tuned": {"cmd_spectrum", "denoisers", "graphs", "spectral"},
    "eval": {"cmd_eval"},
}


def test_commands_import_only_the_modules_they_run(footprints):
    """No command loads a construction, solver, trainer, spectrum or thread-pool module it does not run, or argparse.

    generate loads graph construction and the generators only; tune, train
    and check load the denoisers, tune and train RED, and train the trainer;
    spectrum loads spectral analysis, and the denoisers only to read a tuned
    file; eval loads neither graphs nor denoisers; denoise loads RED only for
    red_* and unrolled, the trainer only for unrolled, graph construction
    only to rebuild graphs, and the thread pool only above one thread.  No
    command loads the node-space RED API (``graphred.problem``).
    """
    for out, (code, modules, _, _) in footprints.items():
        assert code == 0, out
        own = {m.split(".", 1)[1] for m in modules if m.startswith("graphred.")}
        assert own == {"cli", "exceptions", "files"} | COMMAND_MODULES[out], out
        assert not {"argparse", "concurrent.futures"} & modules, out


# Summed source lines and dataclasses of the graphred modules each command loads, at most: the lines
# about 5 % above their count when each command got a module of its own, and the dataclasses as then.
STARTUP_BUDGET = {
    "synthetic": (1660, 3), "cloud": (1660, 3), "tune": (2060, 5), "train": (2210, 6), "lr": (1460, 4),
    "red_pnp": (1870, 5), "rebuild": (2150, 5), "unrolled": (2230, 6), "check": (1460, 4), "spectrum": (1200, 4),
    "spectrum_tuned": (1530, 5), "eval": (580, 1),
}


def test_startup_budget_per_command(footprints):
    """Each command compiles at most its budget of package source lines and builds at most its budget of dataclasses.

    A fresh process compiles every module it loads unless a bytecode cache
    exists (none is written under ``PYTHONDONTWRITEBYTECODE``), and builds
    each dataclass those modules define, so both are start-up cost.
    """
    measured = {out: tuple(footprints[out][2:]) for out in STARTUP_BUDGET}
    over = {out: (got, STARTUP_BUDGET[out]) for out, got in measured.items()
            if got[0] > STARTUP_BUDGET[out][0] or got[1] > STARTUP_BUDGET[out][1]}
    assert not over, over


def test_cli_sets_unset_blas_thread_variables_before_numpy_loads(tmp_path):
    """``import graphred.cli`` loads no numpy, and ``main`` sets each unset BLAS variable to ``--threads``."""
    from graphred.cli import BLAS_THREAD_VARS

    cfg = tmp_path / "spectrum.json"
    cfg.write_text(json.dumps({"alpha_red": 3.0, "alpha_lr": 1.0, "n_points": 5}))
    probe = (
        "import json, os, sys\n"
        "import graphred.cli\n"
        "loaded = 'numpy' in sys.modules\n"
        "os.environ['MKL_NUM_THREADS'] = '3'\n"
        f"code = graphred.cli.main(['spectrum', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r},"
        " '--threads', '2'])\n"
        "print(json.dumps([loaded, code, [os.environ.get(v) for v in graphred.cli.BLAS_THREAD_VARS]]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(graphred.__file__))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded, code, values = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (loaded, code) == (False, 0)
    assert dict(zip(BLAS_THREAD_VARS, values)) == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "3"}


def test_tune_loads_no_numpy_ma(tmp_path):
    """A tune of every method, its red_pnp screen staged over 8 records, loads no ``numpy.ma``.

    A 1-d ``np.unique`` or ``np.setdiff1d`` imports it, at several ms and about 1 MB per process.
    """
    run_command(tmp_path, "generate", {"kind": "synthetic", "seed": 1, "n_nodes": 30, "k": 4, "sigmas": [1.0],
                                       "n_train": 8, "n_test": 1})
    code, modules = run_command(tmp_path, "tune", {"dataset": str(tmp_path / "generate"), "grid_points": 8})[:2]
    assert code == 0 and "numpy.ma" not in modules


def test_package_imports_its_modules_on_first_use():
    src = os.path.dirname(os.path.dirname(graphred.__file__))
    probe = (
        "import json, sys\n"
        "import graphred\n"
        "first = sorted(m for m in sys.modules if m.startswith('graphred.'))\n"
        "from graphred import *\n"
        "names = [n for n in graphred.__all__ if getattr(graphred, n).__module__.startswith('graphred.')]\n"
        "print(json.dumps([first, len(graphred.__all__), len(names), graphred.cli.__name__,\n"
        "                  graphred.write_response_csv.__module__, 'write_response_csv' in graphred.__all__]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [[], 74, 74, "graphred.cli", "graphred.spectral", False]
    with pytest.raises(AttributeError):
        graphred.no_such_name  # noqa: B018

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphred.cli
import graphred.cmd_denoise
import graphred.cmd_tune
import graphred.denoisers
import graphred.graphs
import graphred.red
import graphred.unroll
from graphred import (
    Denoiser, RedProblem, TrainConfig, TrainSample, UnrolledParams, build_laplacian, eigendecompose,
    knn_graph, normalize_weights, red_cg_solve, save_loss_history, save_params, train, unrolled_forward,
)
from graphred.cli import METHOD_PARAM_KEYS, METHODS, apply_method, main, tune_method
from graphred.files import load_dataset
from graphred.denoisers import gain_table
from graphred.exceptions import DivergenceError
from graphred.graphs import gft
from graphred.red import candidate_mse, red_cg_layers
from graphred.unroll import rmse


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def put_line(path, line_no, text):
    """Replace line ``line_no`` (1-based) of the file at ``path`` by ``text``."""
    lines = path.read_text().split("\n")
    lines[line_no - 1] = text
    path.write_text("\n".join(lines))


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_data")
    cfg = write_config(
        base / "gen.json",
        {"kind": "synthetic", "seed": 0, "n_nodes": 50, "k": 5, "sigmas": [0.5, 1.0], "n_train": 4, "n_test": 2},
    )
    out = base / "dset"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_layout(self, dataset_dir):
        assert (dataset_dir / "manifest.json").exists()
        assert (dataset_dir / "train" / "sample_003" / "clean.csv").exists()
        assert (dataset_dir / "test" / "sample_001" / "observed_sigma1.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path / "gen.json",
            {"kind": "synthetic", "seed": 3, "n_nodes": 30, "k": 4, "sigmas": [0.5], "n_train": 2, "n_test": 1},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "gen.json",
            {"kind": "synthetic", "seed": 3, "n_nodes": 30, "k": 4, "sigmas": [0.5], "n_train": 2, "n_test": 1},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["generate", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "b")]) == 0
        a = np.loadtxt(tmp_path / "a" / "train" / "sample_000" / "observed_sigma0.5.csv")
        b = np.loadtxt(tmp_path / "b" / "train" / "sample_000" / "observed_sigma0.5.csv")
        assert not np.array_equal(a, b)

    def test_pointcloud_generation(self, tmp_path):
        cfg = write_config(
            tmp_path / "gen.json",
            {"kind": "pointcloud", "source": "data/torus.off", "m": 40, "k": 4, "sigmas": [0.1], "n_train": 1, "n_test": 1},
        )
        out = tmp_path / "pc"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "pointcloud"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json", {"kind": "synthetic", "n_noodles": 9})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "config, foreign",
        [("generate_pointcloud", {"n_nodes": 999}), ("generate_synthetic", {"source": "nope.csv", "m": 5})],
    )
    def test_other_kinds_keys_rejected(self, tmp_path, capsys, config, foreign):
        payload = json.loads((CONFIGS / f"{config}.json").read_text())
        cfg = write_config(tmp_path / "gen.json", {**payload, **foreign})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"generate config: unknown keys {sorted(foreign)}" in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json", {"kind": "mnist"})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_point_is_input_error_before_sampling(self, tmp_path, capsys, bad):
        points = np.random.default_rng(0).uniform(0.0, 1.0, size=(30, 3)).tolist()
        lines = [",".join(map(repr, p)) for p in points]
        lines[7] = f"0.5,{bad},0.5"
        (tmp_path / "cloud.csv").write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path / "gen.json",
            {"kind": "pointcloud", "source": str(tmp_path / "cloud.csv"), "m": 20, "k": 4, "sigmas": [0.1],
             "n_train": 1, "n_test": 1},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 4
        err = capsys.readouterr().err
        assert "points must be finite" in err and "RuntimeWarning" not in err
        assert not (tmp_path / "x" / "manifest.json").exists()


    def test_bad_csv_field_names_its_line(self, tmp_path, capsys):
        source = tmp_path / "cloud.csv"
        source.write_text("0,0,0\n1,oops,0\n2,2,2\n")
        cfg = write_config(
            tmp_path / "gen.json",
            {"kind": "pointcloud", "source": str(source), "m": 3, "k": 2, "sigmas": [0.1], "n_train": 1, "n_test": 1},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 4
        err = capsys.readouterr().err
        assert f"input error: {source}:2: bad number: could not convert string to float: 'oops'" in err


@pytest.fixture(scope="module")
def wide_dataset_dir(tmp_path_factory):
    """A bundle of 8 training records on one 50-node graph."""
    base = tmp_path_factory.mktemp("cli_wide")
    cfg = write_config(
        base / "gen.json",
        {"kind": "synthetic", "seed": 0, "n_nodes": 50, "k": 5, "sigmas": [1.0], "n_train": 8, "n_test": 1},
    )
    assert main(["generate", "--config", cfg, "--out", str(base / "dset")]) == 0
    return base / "dset"


class TestTune:
    def test_schema_and_determinism(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "tune.json",
            {"dataset": str(dataset_dir), "methods": ["lr"], "sigmas": [0.5], "grid_points": 6},
        )
        out = tmp_path / "tuned"
        assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "tuned.json").read_text())
        assert payload["schema"] == "graphred-tuned-v1"
        entry = payload["entries"][0]
        assert set(entry) == {"method", "sigma", "alpha_lr", "train_rmse"}
        assert entry["method"] == "lr" and entry["sigma"] == 0.5
        assert entry["train_rmse"] >= 0

    def test_single_point_grid_returns_that_point(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "tune.json",
            {
                "dataset": str(dataset_dir),
                "methods": ["lr"],
                "sigmas": [0.5],
                "grid_points": 1,
                "alpha_range": [2.5, 2.5],
            },
        )
        out = tmp_path / "tuned"
        assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
        entry = json.loads((out / "tuned.json").read_text())["entries"][0]
        assert entry["alpha_lr"] == 2.5

    def test_one_decomposition_for_every_method(self, dataset_dir, tmp_path, monkeypatch):
        calls = []
        real = graphred.denoisers.eigendecompose
        monkeypatch.setattr(graphred.denoisers, "eigendecompose", lambda *args: calls.append(1) or real(*args))
        cfg = write_config(
            tmp_path / "tune.json",
            {"dataset": str(dataset_dir), "methods": ["lr", "pnp", "red_lr", "red_pnp"], "sigmas": [1.0],
             "grid_points": 3},
        )
        assert main(["tune", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_unknown_method_rejected(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "tune.json", {"dataset": str(dataset_dir), "methods": ["tv"]})
        assert main(["tune", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_methods_and_keys_from_the_registry_keep_the_config_names(self):
        # Derived from denoisers.KINDS; these names are the config and tuned.json contract.
        assert METHODS == ("lr", "pnp", "red_lr", "red_pnp")
        assert METHOD_PARAM_KEYS == {
            "lr": ("alpha_lr",),
            "pnp": ("alpha_pnp", "rho"),
            "red_lr": ("alpha_red", "alpha_lr"),
            "red_pnp": ("alpha_red", "alpha_pnp", "rho"),
        }

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_candidate_loop(self, dataset_dir, method, sigma):
        records = load_dataset(str(dataset_dir)).train
        # A constant observation is a fixed point of both denoisers, so its
        # columns converge before layer K while the others run on.
        const = dataclasses.replace(
            records[0], observed={sigma: np.full(len(records[0].clean), 2.0)}
        )
        records = records[1:] + [const]
        entry = tune_method(records, sigma, method, grid_points=4)

        lap = build_laplacian(records[0].graph)
        decomp = eigendecompose(lap)
        y = np.column_stack([r.observed[sigma] for r in records])
        clean = np.column_stack([r.clean for r in records])
        den = Denoiser(kind="lr", alpha=1.0)
        prob = RedProblem(y=y[:, -1], alpha_red=1.0, denoiser=den, lap=lap, decomp=decomp)
        assert red_cg_solve(prob, 10).iterations < 10
        alphas, rhos = np.geomspace(1e-3, 1e3, 4), np.geomspace(1e-2, 1e2, 4)
        keys = METHOD_PARAM_KEYS[method]
        best, best_rmse = None, np.inf
        for values in itertools.product(*[rhos if k == "rho" else alphas for k in keys]):
            params = dict(zip(keys, values))
            err = rmse(apply_method(method, params, lap, decomp, y), clean)
            if err < best_rmse:
                best, best_rmse = params, err
        assert {k: entry[k] for k in keys} == best
        assert abs(entry["train_rmse"] - best_rmse) <= 1e-12 * best_rmse


def exhaustive_red_tune(records, sigma, method, grid_points, cg_layers=10):
    """The exhaustive oracle: every red_* grid candidate through the CG core, first minimum wins."""
    decomp = eigendecompose(build_laplacian(records[0].graph))
    y = gft(decomp, np.column_stack([r.observed[sigma] for r in records]))
    target = gft(decomp, np.column_stack([r.clean for r in records]))
    alphas, rhos = np.geomspace(1e-3, 1e3, grid_points), np.geomspace(1e-2, 1e2, grid_points)
    kind = method[len("red_"):]
    grid = itertools.product(alphas, rhos) if kind == "pnp" else alphas[:, None]
    table = gain_table(kind, decomp.eigenvalues, grid)
    n_rows, n_rec = len(table), y.shape[1]

    def solve(cand, obs):
        shortfall = 1.0 - np.repeat(table[cand % n_rows].T, n_rec, axis=1)
        a_red = np.repeat(alphas[cand // n_rows], n_rec)
        return red_cg_layers(obs, [lambda v: shortfall * v] * (cg_layers + 1), [a_red] * (cg_layers + 1)).x

    errors = np.sqrt(candidate_mse(y, target, n_rows * grid_points, solve))
    best = int(np.argmin(errors))
    keys = METHOD_PARAM_KEYS[method]
    picks = np.unravel_index(best, (grid_points,) * len(keys))
    entry = {"method": method, "sigma": float(sigma), "train_rmse": float(errors[best])}
    entry.update({k: float((rhos if k == "rho" else alphas)[i]) for k, i in zip(keys, picks)})
    return entry


class TestScreenedTune:
    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        real = graphred.red.candidate_mse
        monkeypatch.setattr(
            graphred.red, "candidate_mse", lambda *a, **kw: calls.append(kw.get("needed")) or real(*a, **kw)
        )
        return calls

    @staticmethod
    def records(dataset_dir, sigma, shape):
        records = load_dataset(str(dataset_dir)).train
        if shape == "one_record":
            return records[:1]
        if shape == "all_records":
            return records
        # A constant observation exhausts its Krylov space at once.
        const = dataclasses.replace(records[0], observed={sigma: np.full(len(records[0].clean), 2.0)})
        return records[1:] + [const]

    @pytest.mark.parametrize("shape", ["with_constant", "one_record"])
    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize("method", ["red_lr", "red_pnp"])
    def test_equals_exhaustive_cg_grid(self, dataset_dir, method, sigma, shape, spy):
        records = self.records(dataset_dir, sigma, shape)
        entry = tune_method(records, sigma, method, grid_points=5)
        assert entry == exhaustive_red_tune(records, sigma, method, 5)
        # One confirming pass, over a few blocks, and no fallback.
        assert len(spy) == 1 and 1 <= len(spy[0]) < 5

    @pytest.mark.parametrize("shape", ["all_records", "with_constant", "one_record"])
    def test_pruned_screen_equals_exhaustive_cg_grid(self, wide_dataset_dir, shape, spy, monkeypatch):
        # 64 PnP gain rows over 8 records fill more than two screen blocks,
        # so the rows are screened in stages and the worst ones dropped.
        records = self.records(wide_dataset_dir, 1.0, shape)
        columns = []
        real = graphred.cmd_tune.krylov_screen_mse
        def counted(y, target, shortfalls, *rest):
            columns.append(len(shortfalls) * y.shape[1])
            return real(y, target, shortfalls, *rest)

        monkeypatch.setattr(graphred.cmd_tune, "krylov_screen_mse", counted)
        entry = tune_method(records, 1.0, "red_pnp", grid_points=8)
        assert entry == exhaustive_red_tune(records, 1.0, "red_pnp", 8)
        assert len(spy) == 1 and spy[0] is not None  # no fallback
        if shape == "one_record":
            assert columns == [64]  # one call, as an unstaged screen
        else:
            assert len(columns) > 1
        if shape == "all_records":
            assert sum(columns) < 64 * len(records)

    @pytest.mark.parametrize("fault", ["reorder", "diverge"])
    @pytest.mark.parametrize("method", ["red_lr", "red_pnp"])
    def test_untrusted_screen_falls_back_to_cg(self, dataset_dir, method, fault, spy, monkeypatch):
        records = self.records(dataset_dir, 1.0, "with_constant")
        real = graphred.cmd_tune.krylov_screen_mse

        def faulty(*args):
            if fault == "diverge":
                raise DivergenceError("screen", iteration=0)
            mse, spread = real(*args)
            worst = int(np.argmax(mse))
            mse[worst] = 0.5 * mse.min()  # the worst candidate now screens best
            return mse, spread

        monkeypatch.setattr(graphred.cmd_tune, "krylov_screen_mse", faulty)
        entry = tune_method(records, 1.0, method, grid_points=5)
        assert entry == exhaustive_red_tune(records, 1.0, method, 5)
        assert spy[-1] is None  # the exhaustive pass ran

    @pytest.mark.parametrize("method", ["lr", "red_pnp"])
    @pytest.mark.parametrize(
        "key, bounds", [("alpha_range", [-1, 1]), ("alpha_range", [0, 1]), ("rho_range", [1, "NaN"])]
    )
    def test_non_positive_range_is_config_error(self, dataset_dir, tmp_path, method, key, bounds):
        cfg = tmp_path / "tune.json"
        cfg.write_text(
            '{"dataset": %s, "methods": ["%s"], "grid_points": 3, "%s": [%s, %s]}'
            % (json.dumps(str(dataset_dir)), method, key, *bounds)
        )
        assert main(["tune", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "tuned.json").exists()

    def test_zero_pnp_iters_is_config_error(self, dataset_dir, tmp_path, capsys):
        # With no PnP iteration the gain table is all ones: every candidate
        # would tune to the identity filter and report the observed RMSE.
        cfg = write_config(
            tmp_path / "tune.json",
            {"dataset": str(dataset_dir), "methods": ["pnp", "red_pnp"], "grid_points": 3, "pnp_iters": 0},
        )
        assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "iters must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "tuned.json").exists()

    def test_infinite_alpha_range_is_a_config_error(self, dataset_dir, tmp_path):
        # 1e309 overflows to inf when parsed, which a config number may not be.
        # The CLI runs in a process of its own, as users run it.
        cfg = tmp_path / "tune.json"
        cfg.write_text(
            '{"dataset": %s, "methods": ["red_lr", "red_pnp"], "grid_points": 4, '
            '"alpha_range": [1e-3, 1e309]}' % json.dumps(str(dataset_dir))
        )
        src = os.path.dirname(os.path.dirname(graphred.cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "graphred.cli", "tune", "--config", str(cfg), "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert out.returncode == 2, out.stderr
        assert out.stderr.splitlines()[-1] == "config error: alpha_range entry must be finite, got inf"
        assert not (tmp_path / "o" / "tuned.json").exists()


    def test_huge_finite_alpha_exits_3(self, dataset_dir, tmp_path):
        # Finite weights whose products overflow: the line search would step
        # by zero and report the zero output as tuned.
        cfg = tmp_path / "tune.json"
        cfg.write_text(
            '{"dataset": %s, "methods": ["red_lr"], "grid_points": 3, "alpha_range": [1e300, 1e308]}'
            % json.dumps(str(dataset_dir))
        )
        src = os.path.dirname(os.path.dirname(graphred.cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "graphred.cli", "tune", "--config", str(cfg), "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert out.returncode == 3, out.stderr
        assert "non-finite line search" in out.stderr
        assert "overflow encountered" not in out.stderr
        assert not (tmp_path / "o" / "tuned.json").exists()

    def test_red_tune_imports_no_numpy_ma(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "tune.json", {"dataset": str(dataset_dir), "methods": ["red_pnp"], "grid_points": 3})
        probe = (
            "import sys\n"
            "from graphred.cli import main\n"
            f"code = main(['tune', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(graphred.cli.__file__))
        out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "0 False", out.stdout


class TestSizeGuard:
    @pytest.mark.parametrize("command, payload", [
        ("tune", {"dataset": None, "grid_points": 2}),
        ("train", {"dataset": None, "sigma": 1.0, "K": 2, "epochs": 1}),
        ("check", {"datasets": [None]}),
        ("spectrum", {"dataset": None, "alpha_red": 1.0, "alpha_lr": 1.0}),
    ])
    def test_commands_exit_3_above_the_limit(self, dataset_dir, tmp_path, monkeypatch, capsys, command, payload):
        monkeypatch.setattr(graphred.graphs, "MAX_DENSE_NODES", 49)  # the bundle has 50 nodes
        cfg = write_config(tmp_path / "cfg.json", json.loads(json.dumps(payload).replace("null", json.dumps(str(dataset_dir)))))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "at most 49" in capsys.readouterr().err


class TestDenoise:
    def test_explicit_params_outputs(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "den.json",
            {
                "dataset": str(dataset_dir),
                "method": "lr",
                "sigma": 0.5,
                "split": "test",
                "params": {"alpha_lr": 3.0},
            },
        )
        out = tmp_path / "out"
        assert main(["denoise", "--config", cfg, "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["schema"] == "graphred-metrics-v1"
        assert metrics["n_samples"] == 2
        assert len(metrics["per_sample_rmse"]) == 2
        assert 0 <= metrics["mean_rmse"] < metrics["observed_rmse"]
        assert (out / "denoised" / "sample_000.csv").exists()
        assert (out / "denoised" / "sample_001.csv").exists()

    def test_tuned_file_params(self, dataset_dir, tmp_path):
        tune_cfg = write_config(
            tmp_path / "tune.json",
            {"dataset": str(dataset_dir), "methods": ["red_lr"], "sigmas": [1.0], "grid_points": 5},
        )
        tuned_out = tmp_path / "tuned"
        assert main(["tune", "--config", tune_cfg, "--out", str(tuned_out)]) == 0
        den_cfg = write_config(
            tmp_path / "den.json",
            {
                "dataset": str(dataset_dir),
                "method": "red_lr",
                "sigma": 1.0,
                "tuned": str(tuned_out / "tuned.json"),
            },
        )
        out = tmp_path / "out"
        assert main(["denoise", "--config", den_cfg, "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["params"]) == {"alpha_red", "alpha_lr"}

    def test_thread_count_does_not_change_bytes(self, dataset_dir, tmp_path):
        payload = {
            "dataset": str(dataset_dir),
            "method": "red_lr",
            "sigma": 0.5,
            "params": {"alpha_red": 2.0, "alpha_lr": 1.0},
        }
        cfg = write_config(tmp_path / "den.json", payload)
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "t4"), "--threads", "4"]) == 0
        assert tree_bytes(tmp_path / "t1") == tree_bytes(tmp_path / "t4")

    @pytest.mark.parametrize(
        "payload",
        [
            [{"method": "red_lr", "sigma": 0.5, "alpha_red": 1.0, "alpha_lr": 1.0}],  # not an object
            {"entries": [{"method": "red_lr", "alpha_red": 1.0, "alpha_lr": 1.0}]},  # no sigma
            {"entries": [{"method": "red_lr", "sigma": 0.5, "alpha_red": 1.0}]},  # no alpha_lr
        ],
    )
    def test_malformed_tuned_file_is_config_error(self, dataset_dir, tmp_path, capsys, payload):
        tuned = tmp_path / "tuned.json"
        tuned.write_text(json.dumps(payload))
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "red_lr", "sigma": 0.5, "tuned": str(tuned)},
        )
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert str(tuned) in capsys.readouterr().err

    def test_missing_params_is_config_error(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "den.json", {"dataset": str(dataset_dir), "method": "lr", "sigma": 0.5}
        )
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_wrong_param_keys_rejected(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "lr", "sigma": 0.5, "params": {"alpha_pnp": 1.0}},
        )
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unknown_sigma_rejected(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "lr", "sigma": 9.0, "params": {"alpha_lr": 1.0}},
        )
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.strip() == "config error: sigma 9 not in dataset (has [0.5, 1.0])"

    def test_missing_dataset_is_io_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(tmp_path / "nowhere"), "method": "lr", "sigma": 0.5, "params": {"alpha_lr": 1.0}},
        )
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("line", ["-1 2 0.25", "0 50 0.25"])
    def test_bad_edge_index_is_input_error(self, dataset_dir, tmp_path, line, capsys):
        bundle = tmp_path / "dset"
        shutil.copytree(dataset_dir, bundle)
        edges = bundle / "test" / "sample_001" / "graph.edges"
        edges.write_text(edges.read_text() + line + "\n")
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(bundle), "method": "lr", "sigma": 0.5, "params": {"alpha_lr": 1.0}},
        )
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "x")]) == 4
        assert "graph.edges:" in capsys.readouterr().err

    def test_malformed_bundle_signal_is_input_error_at_its_line(self, dataset_dir, tmp_path, capsys):
        bundle = tmp_path / "dset"
        shutil.copytree(dataset_dir, bundle)
        clean = bundle / "test" / "sample_001" / "clean.csv"
        put_line(clean, 5, "abc")
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(bundle), "method": "lr", "sigma": 0.5, "params": {"alpha_lr": 1.0}},
        )
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "x")]) == 4
        err = capsys.readouterr().err
        assert f"input error: {clean}:5: bad number: could not convert string to float: 'abc'" in err

    def test_diagnostics_written_for_red(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "den.json",
            {
                "dataset": str(dataset_dir),
                "method": "red_lr",
                "sigma": 0.5,
                "params": {"alpha_red": 1.0, "alpha_lr": 1.0},
                "save_diagnostics": True,
            },
        )
        out = tmp_path / "out"
        assert main(["denoise", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "diagnostics" / "sample_000.json").read_text())
        assert report["iterations"] >= 1
        assert len(report["gradient_norm_history"]) == report["iterations"] + 1
        denoised = np.loadtxt(out / "denoised" / "sample_000.csv", delimiter=",")
        assert np.array_equal(denoised, np.asarray(report["x"]))
        plain_cfg = json.loads(open(cfg).read())
        plain_cfg["save_diagnostics"] = False
        plain = write_config(tmp_path / "plain.json", plain_cfg)
        assert main(["denoise", "--config", plain, "--out", str(tmp_path / "plain")]) == 0
        assert tree_bytes(tmp_path / "plain" / "denoised") == tree_bytes(out / "denoised")

    @pytest.mark.parametrize("method", ["red_lr", "unrolled"])
    def test_more_than_one_parameter_source_is_config_error(self, dataset_dir, tmp_path, capsys, method):
        tuned = tmp_path / "tuned.json"
        entry = {"method": "red_lr", "sigma": 0.5, "alpha_red": 1.0, "alpha_lr": 1.0, "train_rmse": 0.0}
        tuned.write_text(json.dumps({"schema": "graphred-tuned-v1", "entries": [entry]}))
        save_params(UnrolledParams.constant(3, "lr", 1.0, 1.0), tmp_path / "params.json")
        payload = {"dataset": str(dataset_dir), "method": method, "sigma": 0.5,
                   "params": {"alpha_red": 2.0, "alpha_lr": 1.0}}
        if method == "red_lr":
            payload["tuned"], found = str(tuned), ["params", "tuned"]
        else:
            payload["unrolled_params"], found = str(tmp_path / "params.json"), ["params", "unrolled_params"]
        cfg = write_config(tmp_path / "den.json", payload)
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"got {found}" in capsys.readouterr().err
        assert not (tmp_path / "x" / "metrics.json").exists()

    def test_diagnostics_written_for_unrolled(self, dataset_dir, tmp_path):
        save_params(UnrolledParams.constant(4, "pnp", 2.0, 1.5, 0.5), tmp_path / "params.json")
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "unrolled", "sigma": 0.5,
             "unrolled_params": str(tmp_path / "params.json"), "save_diagnostics": True},
        )
        out = tmp_path / "out"
        assert main(["denoise", "--config", cfg, "--out", str(out)]) == 0
        for index in range(2):
            report = json.loads((out / "diagnostics" / f"sample_{index:03d}.json").read_text())
            assert report["iterations"] >= 1
            assert len(report["gradient_norm_history"]) == report["iterations"] + 1
            assert len(report["objective_history"]) == report["iterations"] + 1
            denoised = np.loadtxt(out / "denoised" / f"sample_{index:03d}.csv", delimiter=",")
            assert np.array_equal(denoised, np.asarray(report["x"]))


class TestDenoiseNodeSpace:
    CASES = {
        "lr": {"alpha_lr": 3.0},
        "pnp": {"alpha_pnp": 1.0, "rho": 2.0},
        "red_lr": {"alpha_red": 2.0, "alpha_lr": 1.0},
        "red_pnp": {"alpha_red": 3.0, "alpha_pnp": 0.3, "rho": 1.0},
        "unrolled": None,
    }

    @staticmethod
    def forbid_eigendecompose(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("denoise must not eigendecompose")

        for module in (graphred.denoisers, graphred.graphs, graphred.unroll):
            monkeypatch.setattr(module, "eigendecompose", forbidden)

    @pytest.mark.parametrize("method", sorted(CASES))
    def test_no_eigendecomposition_and_matches_spectral_path(self, dataset_dir, tmp_path, monkeypatch, method):
        payload = {"dataset": str(dataset_dir), "method": method, "sigma": 0.5, "cg_layers": 6}
        uparams = UnrolledParams.constant(6, "pnp", 2.0, 1.5, 0.5)
        if method == "unrolled":
            save_params(uparams, tmp_path / "params.json")
            payload["unrolled_params"] = str(tmp_path / "params.json")
        else:
            payload["params"] = self.CASES[method]
        cfg = write_config(tmp_path / "den.json", payload)
        self.forbid_eigendecompose(monkeypatch)
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        monkeypatch.undo()
        for record in load_dataset(str(dataset_dir)).test:
            lap = build_laplacian(record.graph)
            decomp = eigendecompose(lap)
            y = record.observed[0.5]
            if method == "unrolled":
                ref = unrolled_forward(lap, y, uparams, decomp=decomp)
            else:
                ref = apply_method(method, self.CASES[method], lap, decomp, y, cg_layers=6)
            got = np.loadtxt(tmp_path / "out" / "denoised" / f"sample_{record.index:03d}.csv", delimiter=",")
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("method", ["red_lr", "red_pnp"])
    @pytest.mark.parametrize("spectral", [False, True])
    def test_apply_method_is_the_red_problem_solve(self, dataset_dir, method, spectral):
        params = self.CASES[method]
        record = load_dataset(str(dataset_dir)).test[0]
        lap = build_laplacian(record.graph)
        decomp = eigendecompose(lap) if spectral else None
        y = record.observed[0.5]
        kind = method[len("red_"):]
        den = Denoiser(kind, *(params[key] for key in METHOD_PARAM_KEYS[method][1:]), iters=7)
        ref = red_cg_solve(RedProblem(y, params["alpha_red"], den, lap, decomp), 6).x
        got = apply_method(method, params, lap, decomp, y, cg_layers=6, pnp_iters=7)
        assert got.tobytes() == ref.tobytes()

    def test_unsettled_lanczos_basis_exits_3(self, dataset_dir, tmp_path, monkeypatch, capsys):
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "red_lr", "sigma": 0.5, "params": self.CASES["red_lr"]},
        )
        monkeypatch.setattr(graphred.graphs, "MAX_KRYLOV_STEPS", 8)
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "Lanczos node path did not settle" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_rebuilt_graph_without_eigendecomposition(self, tmp_path, monkeypatch):
        gen = write_config(
            tmp_path / "gen.json",
            {"kind": "pointcloud", "source": "data/torus.off", "m": 60, "k": 5, "sigmas": [0.1],
             "n_train": 0, "n_test": 2},
        )
        assert main(["generate", "--config", gen, "--out", str(tmp_path / "pc")]) == 0
        params = {"alpha_red": 3.0, "alpha_lr": 1.0}
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(tmp_path / "pc"), "method": "red_lr", "sigma": 0.1, "params": params,
             "rebuild_graph_from_observed": True},
        )
        self.forbid_eigendecompose(monkeypatch)
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        monkeypatch.undo()
        for record in load_dataset(str(tmp_path / "pc")).test:
            y = record.observed[0.1]
            lap = build_laplacian(normalize_weights(knn_graph(y, 5)))
            ref = apply_method("red_lr", params, lap, eigendecompose(lap), y)
            got = np.loadtxt(tmp_path / "out" / "denoised" / f"sample_{record.index:03d}.csv", delimiter=",")
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_rebuild_reads_no_edge_list(self, tmp_path):
        gen = write_config(
            tmp_path / "gen.json",
            {"kind": "pointcloud", "source": "data/torus.off", "m": 60, "k": 5, "sigmas": [0.1],
             "n_train": 0, "n_test": 2},
        )
        assert main(["generate", "--config", gen, "--out", str(tmp_path / "pc")]) == 0
        bundle = tmp_path / "signals_only"
        shutil.copytree(tmp_path / "pc", bundle)
        for edges in bundle.glob("*/sample_*/graph.edges"):
            edges.unlink()
        outs = {}
        for name in ("pc", "signals_only"):
            cfg = write_config(
                tmp_path / f"den_{name}.json",
                {"dataset": str(tmp_path / name), "method": "red_lr", "sigma": 0.1,
                 "params": {"alpha_red": 3.0, "alpha_lr": 1.0}, "rebuild_graph_from_observed": True},
            )
            assert main(["denoise", "--config", cfg, "--out", str(tmp_path / f"out_{name}")]) == 0
            outs[name] = tree_bytes(tmp_path / f"out_{name}" / "denoised")
        assert outs["signals_only"] == outs["pc"]

    def test_records_sharing_a_graph_share_its_laplacian(self, tmp_path, monkeypatch):
        gen = write_config(
            tmp_path / "gen.json",
            {"kind": "pointcloud", "source": "data/torus.off", "m": 60, "k": 5, "sigmas": [0.1],
             "n_train": 0, "n_test": 2},
        )
        assert main(["generate", "--config", gen, "--out", str(tmp_path / "pc")]) == 0
        records = load_dataset(str(tmp_path / "pc")).test
        assert records[0].graph is records[1].graph  # one stored graph, parsed once
        params = self.CASES["red_pnp"]
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(tmp_path / "pc"), "method": "red_pnp", "sigma": 0.1, "params": params},
        )
        calls = []
        real = graphred.cmd_denoise.build_laplacian
        monkeypatch.setattr(graphred.cmd_denoise, "build_laplacian", lambda graph: calls.append(graph) or real(graph))
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        monkeypatch.undo()
        assert len(calls) == 1
        # The same bytes as a Laplacian built for each record on its own.
        for record in records:
            ref = apply_method("red_pnp", params, build_laplacian(record.graph), None, record.observed[0.1])
            got = (tmp_path / "out" / "denoised" / f"sample_{record.index:03d}.csv").read_text()
            assert got == graphred.graphs.table_text(ref)


class TestTrain:
    def test_supervised_outputs(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "train.json",
            {
                "dataset": str(dataset_dir),
                "sigma": 0.5,
                "mode": "supervised",
                "denoiser": "lr",
                "K": 10,
                "epochs": 3,
                "gradient_method": "analytic_linear",
                "init": {"alpha_red": 1.0, "alpha_denoiser": 1.0},
            },
        )
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        params = json.loads((out / "params.json").read_text())
        assert params["K"] == 10
        assert len(params["alpha_red_layers"]) == 11
        history = (out / "loss_history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,loss" and len(history) == 4
        report = json.loads((out / "train_report.json").read_text())
        assert report["n_params"] == 22
        assert report["final_loss"] <= report["first_loss"]

    def test_resume_from_params(self, dataset_dir, tmp_path):
        base = {
            "dataset": str(dataset_dir),
            "sigma": 0.5,
            "mode": "noise2noise",
            "denoiser": "lr",
            "K": 4,
            "epochs": 2,
            "seed": 5,
            "gradient_method": "analytic_linear",
        }
        first = write_config(tmp_path / "t1.json", base)
        out1 = tmp_path / "stage1"
        assert main(["train", "--config", first, "--out", str(out1)]) == 0
        resumed = dict(base)
        resumed["init"] = {"params": str(out1 / "params.json")}
        resumed["start_epoch"] = 2
        second = write_config(tmp_path / "t2.json", resumed)
        out2 = tmp_path / "stage2"
        assert main(["train", "--config", second, "--out", str(out2)]) == 0
        full = dict(base)
        full["epochs"] = 4
        third = write_config(tmp_path / "t3.json", full)
        out3 = tmp_path / "stage3"
        assert main(["train", "--config", third, "--out", str(out3)]) == 0
        resumed_first_loss = float((out2 / "loss_history.csv").read_text().strip().splitlines()[1].split(",")[1])
        full_third_loss = float((out3 / "loss_history.csv").read_text().strip().splitlines()[3].split(",")[1])
        assert abs(resumed_first_loss - full_third_loss) <= 1e-12 * max(1.0, abs(full_third_loss))

    @pytest.mark.parametrize("denoiser, method", [("lr", "lr"), ("lr", "red_pnp"), ("pnp", "red_lr")])
    def test_tuned_init_needs_the_denoisers_red_method(self, dataset_dir, tmp_path, capsys, denoiser, method):
        # A plain method's entry has no alpha_red, and another kind's entry would
        # seed the denoiser with that kind's parameters.
        entry = {"sigma": 0.5, "alpha_red": 1.0, "alpha_lr": 1.0, "alpha_pnp": 1.0, "rho": 1.0, "train_rmse": 0.1}
        tuned = tmp_path / "tuned.json"
        tuned.write_text(json.dumps({"entries": [{"method": m, **entry} for m in METHODS]}))
        cfg = write_config(
            tmp_path / "train.json",
            {
                "dataset": str(dataset_dir), "sigma": 0.5, "denoiser": denoiser, "K": 2, "epochs": 1,
                "init": {"tuned": str(tuned), "method": method},
            },
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"red_{denoiser}" in capsys.readouterr().err
        payload = json.loads(open(cfg).read())
        del payload["init"]["method"]  # the default is the denoiser's red method
        assert main(["train", "--config", write_config(tmp_path / "ok.json", payload), "--out", str(tmp_path / "y")]) == 0

    def test_pnp_iters_reaches_training(self, dataset_dir, tmp_path):
        base = {
            "dataset": str(dataset_dir),
            "sigma": 0.5,
            "denoiser": "pnp",
            "K": 3,
            "epochs": 2,
            "init": {"alpha_red": 1.0, "alpha_denoiser": 1.0, "rho": 1.0},
        }
        histories = {}
        for name, extra in (("default", {}), ("three", {"pnp_iters": 3})):
            cfg = write_config(tmp_path / f"{name}.json", {**base, **extra})
            out = tmp_path / name
            assert main(["train", "--config", cfg, "--out", str(out)]) == 0
            histories[name] = (out / "loss_history.csv").read_bytes()
        assert histories["three"] != histories["default"]
        records = load_dataset(dataset_dir).train
        lap = build_laplacian(records[0].graph)
        sample = TrainSample(
            y=np.column_stack([r.observed[0.5] for r in records]),
            target=np.column_stack([r.clean for r in records]),
        )
        init = UnrolledParams.constant(3, "pnp", 1.0, 1.0, 1.0)
        _, history = train([sample], TrainConfig(epochs=2), init, lap, decomp=eigendecompose(lap), pnp_iters=3)
        save_loss_history(history, tmp_path / "direct.csv")
        assert (tmp_path / "direct.csv").read_bytes() == histories["three"]

    @pytest.mark.parametrize("gradient_method", ["exact", "finite_difference"])
    def test_zero_pnp_iters_rejected_before_training(self, dataset_dir, tmp_path, capsys, gradient_method):
        cfg = write_config(
            tmp_path / "train.json",
            {"dataset": str(dataset_dir), "sigma": 0.5, "denoiser": "pnp", "K": 3, "epochs": 2, "pnp_iters": 0,
             "gradient_method": gradient_method},
        )
        out = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert "iters >= 1" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("K", [2.7, "3", True, 3.0])
    def test_non_integer_K_in_params_file_is_config_error(self, dataset_dir, tmp_path, capsys, K):
        path = tmp_path / "params.json"
        save_params(UnrolledParams.constant(3, "lr", 1.0, 1.0), path)
        path.write_text(path.read_text().replace('"K": 3', f'"K": {json.dumps(K)}', 1))
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "unrolled", "sigma": 0.5, "unrolled_params": str(path)},
        )
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "K must be an integer" in err

    def test_unrolled_denoise_consumes_trained_params(self, dataset_dir, tmp_path):
        train_cfg = write_config(
            tmp_path / "train.json",
            {
                "dataset": str(dataset_dir),
                "sigma": 0.5,
                "mode": "supervised",
                "denoiser": "lr",
                "K": 6,
                "epochs": 2,
                "gradient_method": "analytic_linear",
            },
        )
        tout = tmp_path / "trained"
        assert main(["train", "--config", train_cfg, "--out", str(tout)]) == 0
        den_cfg = write_config(
            tmp_path / "den.json",
            {
                "dataset": str(dataset_dir),
                "method": "unrolled",
                "sigma": 0.5,
                "unrolled_params": str(tout / "params.json"),
            },
        )
        out = tmp_path / "denoised"
        assert main(["denoise", "--config", den_cfg, "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["mean_rmse"] < metrics["observed_rmse"]


class TestCheck:
    def test_report_rows(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "check.json",
            {"datasets": [str(dataset_dir)], "n_signals": 30, "seed": 0},
        )
        out = tmp_path / "check"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "check_report.json").read_text())
        rows = report["rows"]
        probes = {(r["method"], r["probe"]) for r in rows}
        assert probes == {("lr", "random"), ("lr", "all_ones"), ("pnp", "random"), ("pnp", "all_ones")}
        lr_random = next(r for r in rows if r["method"] == "lr" and r["probe"] == "random")
        assert lr_random["max_homogeneity_deviation"] <= 1e-12
        assert lr_random["max_passivity_ratio"] <= 1.0
        pnp_rows = [r for r in rows if r["method"] == "pnp"]
        for r in pnp_rows:
            ratio = r.get("max_passivity_ratio", r.get("passivity_ratio"))
            assert ratio <= 1.0 + 1e-6
        ones = next(r for r in rows if r["method"] == "lr" and r["probe"] == "all_ones")
        assert abs(ones["passivity_ratio"] - 1.0) <= 1e-12

    def test_gains_computed_once_per_dataset_and_method(self, dataset_dir, tmp_path, monkeypatch):
        calls = {"lr_gains": 0, "pnp_gains": 0}
        for name in calls:
            real = getattr(graphred.denoisers, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(graphred.denoisers, name, counted)
        datasets = [str(dataset_dir), str(dataset_dir)]
        cfg = write_config(tmp_path / "check.json", {"datasets": datasets, "n_signals": 30})
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "check")]) == 0
        # One PnP gain vector per dataset, which starts from the LR gains; one LR vector per dataset.
        assert calls == {"lr_gains": 2 * len(datasets), "pnp_gains": len(datasets)}


class TestSpectrum:
    def test_grid_mode_csv(self, tmp_path):
        cfg = write_config(
            tmp_path / "spec.json", {"alpha_red": 2.0, "alpha_lr": 1.0, "lambda_max": 5.0, "n_points": 50}
        )
        out = tmp_path / "spectrum"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,h_lr,h_red"
        assert len(lines) == 51
        meta = json.loads((out / "spectrum_meta.json").read_text())
        assert meta["alpha_red"] == 2.0

    def test_dataset_mode_uses_graph_eigenvalues(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "spec.json", {"dataset": str(dataset_dir), "alpha_red": 1.0, "alpha_lr": 1.0}
        )
        out = tmp_path / "spectrum"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert len(lines) == 51  # 50 nodes
        first = lines[1].split(",")
        assert abs(float(first[0])) <= 1e-10

    def test_missing_alphas_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "spec.json", {"alpha_red": 2.0})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestEval:
    def test_recomputes_denoise_metrics(self, dataset_dir, tmp_path):
        den_cfg = write_config(
            tmp_path / "den.json",
            {
                "dataset": str(dataset_dir),
                "method": "lr",
                "sigma": 1.0,
                "params": {"alpha_lr": 2.0},
            },
        )
        den_out = tmp_path / "den"
        assert main(["denoise", "--config", den_cfg, "--out", str(den_out)]) == 0
        eval_cfg = write_config(
            tmp_path / "eval.json",
            {
                "dataset": str(dataset_dir),
                "denoised": str(den_out / "denoised"),
                "sigma": 1.0,
                "method": "lr",
            },
        )
        eval_out = tmp_path / "eval"
        assert main(["eval", "--config", eval_cfg, "--out", str(eval_out)]) == 0
        a = json.loads((den_out / "metrics.json").read_text())
        b = json.loads((eval_out / "metrics.json").read_text())
        assert a["mean_rmse"] == pytest.approx(b["mean_rmse"], rel=1e-12)
        assert a["per_sample_rmse"] == pytest.approx(b["per_sample_rmse"], rel=1e-12)

    def test_malformed_denoised_output_is_input_error_at_its_line(self, dataset_dir, tmp_path, capsys):
        den_cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "lr", "sigma": 1.0, "params": {"alpha_lr": 2.0}},
        )
        assert main(["denoise", "--config", den_cfg, "--out", str(tmp_path / "den")]) == 0
        output = tmp_path / "den" / "denoised" / "sample_000.csv"
        put_line(output, 5, "abc")
        cfg = write_config(
            tmp_path / "eval.json",
            {"dataset": str(dataset_dir), "denoised": str(output.parent), "sigma": 1.0, "method": "lr"},
        )
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "eval")]) == 4
        err = capsys.readouterr().err
        assert f"input error: {output}:5: bad number: could not convert string to float: 'abc'" in err

    @pytest.mark.parametrize("line", ["nan,nan,nan", "1.5,inf,-2.0", "-1e400,0,0"])
    def test_non_finite_denoised_output_is_input_error_at_its_line(self, tmp_path, capsys, line):
        # A point-cloud bundle's outputs are three columns; these are its clean signals but for one line.
        np.savetxt(tmp_path / "cloud.csv", np.random.default_rng(0).uniform(0.0, 10.0, size=(60, 3)), delimiter=",")
        gen = write_config(tmp_path / "gen.json", {"kind": "pointcloud", "source": str(tmp_path / "cloud.csv"), "m": 30,
                                                   "k": 4, "sigmas": [0.1], "n_train": 0, "n_test": 2})
        assert main(["generate", "--config", gen, "--out", str(tmp_path / "pc")]) == 0
        denoised = tmp_path / "denoised"
        denoised.mkdir()
        for i in range(2):
            shutil.copy(tmp_path / "pc" / "test" / f"sample_{i:03d}" / "clean.csv", denoised / f"sample_{i:03d}.csv")
        put_line(denoised / "sample_001.csv", 7, line)
        cfg = write_config(tmp_path / "eval.json", {"dataset": str(tmp_path / "pc"), "denoised": str(denoised), "sigma": 0.1})
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "eval")]) == 4
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == f"input error: {denoised / 'sample_001.csv'}:7: value not finite: {line!r}"
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_empty_clean_signal_is_input_error_naming_a_signal(self, dataset_dir, tmp_path, capsys):
        den_cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "lr", "sigma": 1.0, "params": {"alpha_lr": 2.0}},
        )
        assert main(["denoise", "--config", den_cfg, "--out", str(tmp_path / "den")]) == 0
        bundle = tmp_path / "dset"
        shutil.copytree(dataset_dir, bundle)
        clean = bundle / "test" / "sample_001" / "clean.csv"
        clean.write_text("")
        den_cfg = write_config(
            tmp_path / "den_empty.json",
            {"dataset": str(bundle), "method": "lr", "sigma": 1.0, "params": {"alpha_lr": 2.0}},
        )
        eval_cfg = write_config(
            tmp_path / "eval.json",
            {"dataset": str(bundle), "denoised": str(tmp_path / "den" / "denoised"), "sigma": 1.0, "method": "lr"},
        )
        for command, cfg in (("denoise", den_cfg), ("eval", eval_cfg)):
            capsys.readouterr()
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 4
            err = capsys.readouterr().err
            assert f"input error: {clean}: signal file holds no values" in err and "points" not in err

    def test_reads_no_edge_list(self, dataset_dir, tmp_path):
        den_cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "lr", "sigma": 1.0, "params": {"alpha_lr": 2.0}},
        )
        den_out = tmp_path / "den"
        assert main(["denoise", "--config", den_cfg, "--out", str(den_out)]) == 0
        bundle = tmp_path / "signals_only"
        shutil.copytree(dataset_dir, bundle)
        for edges in bundle.glob("*/sample_*/graph.edges"):
            edges.unlink()
        outs = {}
        for name, path in (("full", dataset_dir), ("signals_only", bundle)):
            cfg = write_config(
                tmp_path / f"eval_{name}.json",
                {"dataset": str(path), "denoised": str(den_out / "denoised"), "sigma": 1.0, "method": "lr"},
            )
            assert main(["eval", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outs[name] = (tmp_path / name / "metrics.json").read_bytes()
        assert outs["signals_only"] == outs["full"]


class TestConfigValues:
    """Config values the bundle or the solvers cannot take exit 2 and name the config key."""

    @pytest.mark.parametrize("sigma, message", [
        (0.75, "sigma 0.75 not in dataset (has [0.5, 1.0])"),
        (None, "sigma must be a number, got None"),
    ])
    @pytest.mark.parametrize("command", ["tune", "train", "eval", "denoise"])
    def test_bad_sigma_is_config_error(self, dataset_dir, tmp_path, capsys, command, sigma, message):
        denoised = tmp_path / "denoised"
        denoised.mkdir()
        for i in range(2):
            shutil.copy(dataset_dir / "test" / f"sample_{i:03d}" / "clean.csv", denoised / f"sample_{i:03d}.csv")
        common = {"dataset": str(dataset_dir), "sigma": sigma}
        cfg = {
            "tune": {"dataset": str(dataset_dir), "sigmas": [sigma], "grid_points": 2},
            "train": {**common, "K": 2, "epochs": 1},
            "eval": {**common, "denoised": str(denoised)},
            "denoise": {**common, "method": "lr", "params": {"alpha_lr": 1.0}},
        }[command]
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("method, params, message", [
        ("red_lr", {"alpha_red": float("nan"), "alpha_lr": 1.0}, "alpha_red must be finite, got nan"),
        ("red_pnp", {"alpha_red": 1.0, "alpha_pnp": float("inf"), "rho": 1.0}, "alpha_pnp must be finite, got inf"),
        ("red_pnp", {"alpha_red": 1.0, "alpha_pnp": 1.0, "rho": float("-inf")}, "rho must be finite, got -inf"),
        ("lr", {"alpha_lr": float("nan")}, "alpha_lr must be finite, got nan"),
        ("pnp", {"alpha_pnp": 1.0, "rho": float("inf")}, "rho must be finite, got inf"),
        ("red_lr", {"alpha_red": None, "alpha_lr": 1.0}, "alpha_red must be a number, got None"),
    ])
    def test_bad_denoise_parameter_is_named(self, dataset_dir, tmp_path, capsys, method, params, message):
        cfg = {"dataset": str(dataset_dir), "sigma": 0.5, "method": method, "params": params}
        out = tmp_path / "out"
        assert main(["denoise", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("params, message", [
        ({"alpha_red": float("nan"), "alpha_lr": 1.0}, "alpha_red must be finite, got nan"),
        ({"alpha_red": 1.0, "alpha_lr": float("inf")}, "alpha_lr must be finite, got inf"),
    ])
    def test_non_finite_spectrum_parameter_is_named(self, tmp_path, capsys, params, message):
        cfg = write_config(tmp_path / "c.json", {**params, "n_points": 5})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"

    @pytest.mark.parametrize("init, message", [
        ({"alpha_red": -1}, "alpha_red must be nonnegative"),
        ({"alpha_red": float("nan")}, "alpha_red must be finite, got nan"),
        ({"alpha_denoiser": float("inf")}, "alpha_denoiser must be finite, got inf"),
        ({"alpha_red": None}, "alpha_red must be a number, got None"),
    ])
    def test_bad_train_start_is_named(self, dataset_dir, tmp_path, capsys, init, message):
        cfg = {"dataset": str(dataset_dir), "sigma": 0.5, "K": 2, "epochs": 1, "init": init}
        out = tmp_path / "out"
        assert main(["train", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert os.listdir(out) == []


class TestFlags:
    """The flag parser: exit 0 after ``-h``, and exit 2 with the usage and the fault on a bad line, as argparse."""

    @pytest.mark.parametrize("argv", [["-h"], ["eval", "--help"]])
    def test_help_prints_the_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: graphred {generate,tune,denoise,train,check,spectrum,eval}")

    @pytest.mark.parametrize("argv, fault", [
        ([], "the first argument must be a command"),
        (["--config", "c.json", "eval"], "the first argument must be a command"),
        (["bogus", "--config", "c.json"], "the first argument must be a command"),
        (["eval"], "the --config flag is required"),
        (["eval", "--config"], "--config needs a value"),
        (["eval", "--config", "c.json", "--out"], "--out needs a value"),
        (["eval", "--config", "c.json", "--threads", "x"], "invalid literal for int()"),
        (["eval", "--config", "c.json", "--what", "1"], "unrecognized argument '--what'"),
    ])
    def test_bad_line_exits_2_naming_the_fault(self, tmp_path, capsys, argv, fault):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert err.startswith("usage: graphred ") and f"graphred: error: {fault}" in err

    def test_flags_take_a_separate_or_attached_value(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"seed": 3, "n_nodes": 20, "k": 3, "sigmas": [1.0], "n_train": 1,
                                                 "n_test": 1})
        apart, joined = tmp_path / "apart", tmp_path / "joined"
        assert main(["generate", "--config", cfg, "--seed", "5", "--out", str(apart), "--threads", "1"]) == 0
        assert main(["generate", f"--config={cfg}", "--seed=5", f"--out={joined}", "--threads=1"]) == 0
        assert tree_bytes(apart) == tree_bytes(joined)
        assert json.loads((apart / "manifest.json").read_text())["seed"] == 5

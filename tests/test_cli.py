import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import graphred.cli
import graphred.denoisers
import graphred.graphs
import graphred.unroll
from graphred import (
    Denoiser, RedProblem, TrainConfig, TrainSample, UnrolledParams, build_laplacian, eigendecompose,
    knn_graph, normalize_weights, red_cg_solve, save_loss_history, save_params, train, unrolled_forward,
)
from graphred.cli import METHOD_PARAM_KEYS, METHODS, apply_method, main, tune_method
from graphred.datasets import load_dataset
from graphred.denoisers import gain_table
from graphred.exceptions import DivergenceError
from graphred.graphs import gft
from graphred.red import candidate_mse, red_cg_layers
from graphred.unroll import rmse


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json", {"kind": "mnist"})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]) == 4


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

    def test_unknown_method_rejected(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "tune.json", {"dataset": str(dataset_dir), "methods": ["tv"]})
        assert main(["tune", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

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
        real = graphred.cli.candidate_mse
        monkeypatch.setattr(
            graphred.cli, "candidate_mse", lambda *a, **kw: calls.append(kw.get("needed")) or real(*a, **kw)
        )
        return calls

    @staticmethod
    def records(dataset_dir, sigma, shape):
        records = load_dataset(str(dataset_dir)).train
        if shape == "one_record":
            return records[:1]
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

    @pytest.mark.parametrize("fault", ["reorder", "diverge"])
    @pytest.mark.parametrize("method", ["red_lr", "red_pnp"])
    def test_untrusted_screen_falls_back_to_cg(self, dataset_dir, method, fault, spy, monkeypatch):
        records = self.records(dataset_dir, 1.0, "with_constant")
        real = graphred.cli.krylov_screen_mse

        def faulty(*args):
            if fault == "diverge":
                raise DivergenceError("screen", iteration=0)
            mse, spread = real(*args)
            worst = int(np.argmax(mse))
            mse[worst] = 0.5 * mse.min()  # the worst candidate now screens best
            return mse, spread

        monkeypatch.setattr(graphred.cli, "krylov_screen_mse", faulty)
        entry = tune_method(records, 1.0, method, grid_points=5)
        assert entry == exhaustive_red_tune(records, 1.0, method, 5)
        assert spy[-1] is None  # the exhaustive pass ran

    def test_overflowing_alpha_range_exits_3(self, dataset_dir, tmp_path):
        # 1e309 overflows to inf when parsed.  The grid's own geomspace warns
        # about it, so the CLI runs in a process of its own, as users run it.
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
        assert out.returncode == 3, out.stderr
        assert "numerical failure" in out.stderr
        assert not (tmp_path / "o" / "tuned.json").exists()


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

    def test_unknown_sigma_rejected(self, dataset_dir, tmp_path):
        cfg = write_config(
            tmp_path / "den.json",
            {"dataset": str(dataset_dir), "method": "lr", "sigma": 9.0, "params": {"alpha_lr": 1.0}},
        )
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

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

        for module in (graphred.cli, graphred.graphs, graphred.unroll):
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

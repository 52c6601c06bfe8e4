"""The CLI's config layer: what each config exits with, and the last line it prints.

``test_config_outcome`` is the oracle of the config errors: one row per
config, giving the exit code and the last stderr line of ``graphred``.  An
uncaught exception counts as exit 1 with the traceback's last line.  Paths in
configs and messages are written as ``{name}`` placeholders for the files the
fixture makes.
"""

import importlib.util
import json
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from graphred.cli import CONFIG_KEYS, DATASET_KIND_KEYS, REQUIRED, TRAIN_INIT_KEYS, _resolve_config, main, tune_method
from graphred.datasets import SyntheticSpec, generate_synthetic_dataset, save_dataset
from graphred.denoisers import METHOD_KEYS, TUNED_ENTRY_KEYS, TUNED_KEYS
from graphred.files import MANIFEST_KEYS, MANIFEST_KIND_KEYS, load_dataset
from graphred.exceptions import ConfigError
from graphred.red import PARAMS_KEYS, PARAMS_KIND_KEYS, UnrolledParams
from graphred.unroll import save_params

ROOT = Path(__file__).resolve().parent.parent
CONFIGS, README = ROOT / "configs", ROOT / "README.md"
# The benchmark's workloads, loaded from their file (perfbench is not a package).
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("config_files")

    def run(command, cfg, out):
        path = base / f"{out}.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(base / out)]) == 0

    run("generate", {"n_nodes": 50, "k": 5, "sigmas": [0.5, 1.0], "n_train": 4, "n_test": 2}, "data")
    rng = np.random.default_rng(3)
    np.savetxt(base / "cloud.csv", rng.standard_normal((80, 3)), delimiter=",")
    run("generate", {"kind": "pointcloud", "source": str(base / "cloud.csv"), "m": 40, "k": 5,
                     "sigmas": [0.1], "n_train": 1, "n_test": 2}, "cloud")
    entries = [{"method": "red_lr", "sigma": 0.5, "alpha_red": 1.0, "alpha_lr": 1.0, "train_rmse": 0.0}]
    (base / "tuned.json").write_text(json.dumps({"schema": "graphred-tuned-v1", "entries": entries}))
    save_params(UnrolledParams.constant(3, "lr", 1.0, 1.0), base / "params.json")
    # A bundle of no records, as the library still writes one.
    save_dataset(generate_synthetic_dataset(SyntheticSpec(n_nodes=20, k=4, sigmas=(1.0,), n_train=0, n_test=0)),
                 base / "empty")
    denoised = base / "denoised"
    denoised.mkdir()
    for i in range(2):
        shutil.copy(base / "data" / "test" / f"sample_{i:03d}" / "clean.csv", denoised / f"sample_{i:03d}.csv")
    names = ("data", "cloud", "tuned.json", "params.json", "denoised", "empty")
    paths = {"tmp": str(base), **{name.split(".")[0]: str(base / name) for name in names}}
    shutil.copy(ROOT / "data" / "torus.off", base / "torus.off")
    for name, (source, inner, edit) in FAULTS.items():  # each a copy of a file above, or of a bundle, with one fault
        copy = base / name
        (shutil.copytree if os.path.isdir(base / source) else shutil.copy)(base / source, copy)
        target = copy / inner if inner else copy
        target.write_text(edit(target.read_text()))
        paths[name.split(".")[0]] = str(copy)
    return paths


def edit_json(change):
    """An edit of a JSON file's text: ``change`` applied to its value."""

    def edit(text):
        value = json.loads(text)
        change(value)
        return json.dumps(value)

    return edit


def edit_line(number, line=None):
    """An edit of a text file: its line ``number`` (from 1) replaced by ``line``, or dropped."""

    def edit(text):
        lines = text.splitlines()
        lines[number - 1:number] = [] if line is None else [line]
        return "\n".join(lines) + "\n"

    return edit


# Fixture files with one fault each: (the file or bundle copied, the file edited in a bundle, the edit).
FAULTS = {
    "no_n_train": ("data", "manifest.json", edit_json(lambda m: m.pop("n_train"))),
    "sigmas_20": ("data", "manifest.json", edit_json(lambda m: m.update(sigmas=20))),
    "n_test_text": ("data", "manifest.json", edit_json(lambda m: m.update(n_test="2"))),
    "n_nodes_2_5": ("data", "manifest.json", edit_json(lambda m: m.update(n_nodes=2.5))),
    "sigma_text": ("data", "manifest.json", edit_json(lambda m: m.update(sigmas=["x"]))),
    "no_schema": ("data", "manifest.json", edit_json(lambda m: m.pop("schema"))),
    "manifest_json": ("data", "manifest.json", lambda text: text.replace(",", "", 1)),
    "nan_observed": ("data", "test/sample_000/observed_sigma0.5.csv", edit_line(4, "nan")),
    "short_clean": ("data", "test/sample_001/clean.csv", edit_line(50)),
    "alpha_bool.json": ("tuned.json", "", edit_json(lambda t: t["entries"][0].update(alpha_lr=True))),
    "sigma_string.json": ("tuned.json", "", edit_json(lambda t: t["entries"][0].update(sigma="0.5"))),
    "no_alpha_red.json": ("tuned.json", "", edit_json(lambda t: t["entries"][0].pop("alpha_red"))),
    "layer_bool.json": ("params.json", "", edit_json(lambda p: p["alpha_red_layers"].__setitem__(1, True))),
    "invalid.json": ("params.json", "", lambda text: text.replace(",", "", 1)),
    "list.json": ("params.json", "", lambda text: "[1, 2]"),
    "nan_point.csv": ("cloud.csv", "", edit_line(3, "nan,1,2")),
    "nan_vertex.off": ("torus.off", "", edit_line(5, "nan 1 2")),
    "short_denoised": ("denoised", "sample_001.csv", edit_line(50)),
}


def fill(value, files):
    """``value`` with every ``{name}`` placeholder in its strings replaced by the fixture's path."""
    if isinstance(value, str):
        return value.format(**files)
    if isinstance(value, list):
        return [fill(v, files) for v in value]
    if isinstance(value, dict):
        return {k: fill(v, files) for k, v in value.items()}
    return value


def outcome(command, cfg, out, capsys):
    """Exit code and last stderr line of ``graphred <command>`` on ``cfg``, as a shell would see them."""
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    try:
        code = main([command, "--config", str(path), "--out", str(out)])
    except Exception as exc:  # a traceback: exit 1, and its last line
        code, last = 1, f"{type(exc).__name__}: {exc}"
    else:
        lines = capsys.readouterr().err.strip().splitlines()
        last = lines[-1] if lines else ""
    return code, last


D = {"dataset": "{data}", "sigma": 0.5}
TUNE = {"dataset": "{data}", "methods": ["red_lr"], "grid_points": 3}
TRAIN = {**D, "K": 2, "epochs": 2}
EVAL = {**D, "denoised": "{denoised}"}
CLOUD = {"dataset": "{cloud}", "sigma": 0.1, "method": "lr", "params": {"alpha_lr": 1.0}}
GEN = {"n_nodes": 30, "k": 4, "sigmas": [1.0], "n_train": 1, "n_test": 1}
SPEC = {"alpha_red": 1.0, "alpha_lr": 1.0, "n_points": 5}
CHECK = {"datasets": ["{data}"], "n_signals": 2}

CASES = [
    # denoise: parameters out of range, not finite, not numbers; solver settings; sources
    ("denoise", {**D, "method": "red_lr", "params": {"alpha_red": -1.0, "alpha_lr": 1.0}},
     2, 'config error: alpha_red must be nonnegative'),
    ("denoise", {**D, "method": "red_lr", "params": {"alpha_red": 0.0, "alpha_lr": 1.0}}, 0, ''),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": -1.0}}, 2, 'config error: lr denoiser needs alpha >= 0'),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": 0.0}}, 0, ''),
    ("denoise", {**D, "method": "pnp", "params": {"alpha_pnp": 1.0, "rho": 0.0}},
     2, 'config error: pnp denoiser needs rho > 0'),
    ("denoise", {**D, "method": "red_pnp", "params": {"alpha_red": 1.0, "alpha_pnp": 1.0, "rho": -1.0}},
     2, 'config error: pnp denoiser needs rho > 0'),
    ("denoise", {**D, "method": "red_lr", "params": {"alpha_red": float("nan"), "alpha_lr": 1.0}},
     2, 'config error: alpha_red must be finite, got nan'),
    ("denoise", {**D, "method": "red_lr", "params": {"alpha_red": 1.0, "alpha_lr": float("inf")}},
     2, 'config error: alpha_lr must be finite, got inf'),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": None}},
     2, 'config error: alpha_lr must be a number, got None'),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": "abc"}},
     2, "config error: alpha_lr must be a number, got 'abc'"),
    ("denoise", {**D, "method": "red_pnp", "params": {"alpha_red": 1.0, "alpha_pnp": 1.0, "rho": 1.0},
                 "pnp_iters": 0}, 2, 'config error: pnp denoiser needs iters >= 1'),
    ("denoise", {**D, "method": "red_lr", "params": {"alpha_red": 1.0, "alpha_lr": 1.0}, "cg_layers": 0},
     2, 'config error: K must be >= 1'),
    ("denoise", {"dataset": "{data}", "method": "lr", "params": {"alpha_lr": 1.0}},
     2, "config error: denoise config: missing keys ['sigma']"),
    ("denoise", {**D, "sigma": 0.75, "method": "lr", "params": {"alpha_lr": 1.0}},
     2, 'config error: sigma 0.75 not in dataset (has [0.5, 1.0])'),
    ("denoise", {**D, "method": "foo", "params": {"alpha_lr": 1.0}}, 2, "config error: unknown method 'foo'"),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": 1.0}, "colour": 1},
     2, "config error: denoise config: unknown keys ['colour']"),
    ("denoise", {**D, "method": "red_lr", "params": {"alpha_red": 1.0, "alpha_lr": 1.0}, "tuned": "{tuned}"},
     2, "config error: denoise takes exactly one of 'params', 'tuned' or 'unrolled_params', got ['params', 'tuned']"),
    ("denoise", {**D, "method": "unrolled"}, 2, "config error: method 'unrolled' needs the 'unrolled_params' key"),
    ("denoise", {**D, "method": "red_lr", "params": {"alpha_lr": 1.0}},
     2, "config error: params for red_lr must have exactly ['alpha_red', 'alpha_lr']"),
    ("denoise", {**D, "method": "red_lr", "tuned": "{tmp}/none.json"},
     4, "i/o error: [Errno 2] No such file or directory: '{tmp}/none.json'"),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": 1.0}, "split": "dev"},
     2, "config error: unknown split 'dev'"),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": 1.0}, "rebuild_graph_from_observed": True},
     2, 'config error: rebuild_graph_from_observed only applies to pointcloud datasets'),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": 1.0}}, 0, ''),
    ("denoise", {**D, "method": "red_pnp", "params": {"alpha_red": 1.0, "alpha_pnp": 1.0, "rho": 1.0}}, 0, ''),
    ("denoise", {**D, "method": "unrolled", "unrolled_params": "{params}", "save_diagnostics": True}, 0, ''),
    ("denoise", {**CLOUD, "rebuild_graph_from_observed": True}, 0, ''),
    # tune
    ("tune", {**TUNE, "grid_points": 0}, 2, 'config error: grid_points must be >= 1'),
    ("tune", {**TUNE, "alpha_range": [0.0, 1.0]},
     2, 'config error: alpha_range must be two positive bounds, got [0.0, 1.0]'),
    ("tune", {**TUNE, "rho_range": [-1.0, 1.0], "methods": ["pnp"]},
     2, 'config error: rho_range must be two positive bounds, got [-1.0, 1.0]'),
    ("tune", {**TUNE, "alpha_range": [1.0]}, 2, 'config error: alpha_range must be two positive bounds, got [1.0]'),
    ("tune", {**TUNE, "methods": ["pnp"], "pnp_iters": 0}, 2, 'config error: iters must be >= 1'),
    ("tune", {**TUNE, "cg_layers": 0}, 2, 'config error: K must be >= 1'),
    ("tune", {**TUNE, "methods": ["foo"]}, 2, "config error: unknown method 'foo'"),
    ("tune", {"methods": ["lr"]}, 2, "config error: tune config: missing keys ['dataset']"),
    ("tune", {**TUNE, "sigmas": [0.75]}, 2, 'config error: sigma 0.75 not in dataset (has [0.5, 1.0])'),
    ("tune", {**TUNE, "split": "dev"}, 2, "config error: unknown split 'dev'"),
    ("tune", {**TUNE, "dataset": "{tmp}/nowhere"},
     4, "i/o error: [Errno 2] No such file or directory: '{tmp}/nowhere/manifest.json'"),
    ("tune", {**TUNE, "methods": ["lr", "red_lr"], "sigmas": [0.5]}, 0, ''),
    # train
    ("train", {**TRAIN, "K": 0}, 2, 'config error: K must be >= 1'),
    ("train", {**TRAIN, "epochs": 0}, 2, 'config error: epochs must be >= 1'),
    ("train", {**TRAIN, "learning_rate": -1.0}, 2, 'config error: learning_rate must be positive'),
    ("train", {**TRAIN, "learning_rate": 0.0}, 2, 'config error: learning_rate must be positive'),
    ("train", {**TRAIN, "init": {"alpha_red": -1.0}}, 2, 'config error: alpha_red must be nonnegative'),
    ("train", {**TRAIN, "init": {"alpha_denoiser": float("nan")}},
     2, 'config error: alpha_denoiser must be finite, got nan'),
    ("train", {**TRAIN, "init": "flat"}, 2, "config error: train config 'init' must be an object"),
    ("train", {**TRAIN, "init": {"colour": 1}}, 2, "config error: train init: unknown keys ['colour']"),
    ("train", {**TRAIN, "mode": "sure"}, 2, "config error: unknown training mode 'sure'"),
    ("train", {**TRAIN, "denoiser": "cheb"}, 2, "config error: unknown denoiser 'cheb'"),
    ("train", {**TRAIN, "gradient_method": "adjoint"}, 2, "config error: unknown gradient method 'adjoint'"),
    ("train", {**TRAIN, "denoiser": "pnp", "pnp_iters": 0}, 2, 'config error: pnp denoiser needs iters >= 1'),
    ("train", {**TRAIN, "mode": "noise2noise", "sigma_n2n_range": [1.0, 0.5]},
     2, 'config error: sigma_n2n_range must satisfy 0 <= lo <= hi'),
    ("train", {"dataset": "{data}", "K": 2}, 2, "config error: train config: missing keys ['sigma']"),
    ("train", {**TRAIN, "init": {"tuned": "{tuned}", "method": "red_pnp"}},
     2, "config error: train init: a lr denoiser starts from the red_lr entry, not 'red_pnp'"),
    ("train", {**TRAIN, "init": {"params": "{params}"}},
     2, 'config error: resume params do not match the configured K / denoiser'),
    ("train", TRAIN, 0, ''),
    ("train", {**TRAIN, "denoiser": "pnp", "init": {"alpha_red": 2.0, "alpha_denoiser": 0.5, "rho": 2.0}},
     0, ''),
    # eval
    ("eval", {**EVAL, "denoised": "{tmp}/nowhere"},
     4, "i/o error: [Errno 2] No such file or directory: '{tmp}/nowhere/sample_000.csv'"),
    ("eval", {**EVAL, "sigma": 0.75}, 2, 'config error: sigma 0.75 not in dataset (has [0.5, 1.0])'),
    ("eval", {"dataset": "{data}", "sigma": 0.5}, 2, "config error: eval config: missing keys ['denoised']"),
    ("eval", {**EVAL, "method": "red_lr"}, 0, ''),
    # spectrum
    ("spectrum", {"n_points": 5}, 2, 'config error: spectrum needs alpha_red and alpha_lr (or a tuned file)'),
    ("spectrum", {"tuned": "{tuned}"}, 2, "config error: spectrum: 'tuned' needs 'sigma' to select the entry"),
    ("spectrum", {**SPEC, "alpha_red": float("nan")}, 2, 'config error: alpha_red must be finite, got nan'),
    ("spectrum", {**SPEC, "alpha_lr": None}, 2, 'config error: alpha_lr must be a number, got None'),
    ("spectrum", {"tuned": "{tuned}", "sigma": 0.5, "n_points": 5}, 0, ''),
    ("spectrum", {**SPEC, "dataset": "{data}"}, 0, ''),
    ("spectrum", SPEC, 0, ''),
    # generate
    ("generate", {**GEN, "kind": "mnist"}, 2, "config error: unknown dataset kind 'mnist'"),
    ("generate", {**GEN, "n_nodes": 1}, 2, 'config error: need n >= 2 points'),
    ("generate", {**GEN, "source": "x.csv"}, 2, "config error: generate config: unknown keys ['source']"),
    ("generate", {"kind": "pointcloud"}, 2, "config error: generate config: missing keys ['source']"),
    ("generate", {"kind": "pointcloud", "source": "{tmp}/nowhere.csv"},
     4, "i/o error: [Errno 2] No such file or directory: '{tmp}/nowhere.csv'"),
    ("generate", {**GEN, "sigmas": [-1.0]}, 2, 'config error: sigma must be nonnegative'),
    ("generate", GEN, 0, ''),
    # check
    ("check", {**CHECK, "methods": ["red_lr"]},
     2, "config error: check supports the denoiser methods ['lr', 'pnp'], got 'red_lr'"),
    ("check", {**CHECK, "alpha_lr": float("nan")}, 2, 'config error: alpha_lr must be finite, got nan'),
    ("check", {**CHECK, "pnp_iters": 0}, 2, 'config error: pnp denoiser needs iters >= 1'),
    ("check", {"methods": ["lr"]}, 2, "config error: check config: missing keys ['datasets']"),
    ("check", CHECK, 0, ''),
    # Values of the wrong JSON type.  Each of these once ran on a truncated or
    # flipped value, or ended in a traceback.
    ("generate", {**GEN, "k": None}, 2, 'config error: k must be an integer, got None'),
    ("generate", {**GEN, "sigmas": 20}, 2, 'config error: sigmas must be a list of numbers, got 20'),
    ("generate", {**GEN, "n_nodes": 50.7}, 2, 'config error: n_nodes must be an integer, got 50.7'),
    ("generate", {**GEN, "seed": 1.5}, 2, 'config error: seed must be an integer, got 1.5'),
    ("generate", {**GEN, "n_train": "2"}, 2, "config error: n_train must be an integer, got '2'"),
    ("tune", {**TUNE, "grid_points": 2.7}, 2, 'config error: grid_points must be an integer, got 2.7'),
    ("tune", {**TUNE, "grid_points": "5"}, 2, "config error: grid_points must be an integer, got '5'"),
    ("tune", {**TUNE, "methods": "lr"}, 2, "config error: methods must be a list of strings, got 'lr'"),
    ("tune", {**TUNE, "sigmas": 20.0}, 2, 'config error: sigmas must be a list of numbers, got 20.0'),
    ("denoise", {**D, "method": "red_lr", "params": {"alpha_red": 1.0, "alpha_lr": 1.0}, "save_diagnostics": "false"},
     2, "config error: save_diagnostics must be a boolean, got 'false'"),
    ("denoise", {**CLOUD, "rebuild_graph_from_observed": "no"},
     2, "config error: rebuild_graph_from_observed must be a boolean, got 'no'"),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": 1.0}, "split": ["test"]},
     2, "config error: split must be a string, got ['test']"),
    ("denoise", {**D, "method": "red_lr", "params": {"alpha_red": 1.0, "alpha_lr": 1.0}, "cg_layers": "3"},
     2, "config error: cg_layers must be an integer, got '3'"),
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": True}},
     2, 'config error: alpha_lr must be a number, got True'),
    ("train", {**TRAIN, "epochs": True}, 2, 'config error: epochs must be an integer, got True'),
    ("train", {**TRAIN, "K": 2.9}, 2, 'config error: K must be an integer, got 2.9'),
    ("train", {**TRAIN, "sigma_n2n_range": 5}, 2, 'config error: sigma_n2n_range must be a list of numbers, got 5'),
    ("check", {**CHECK, "datasets": "out/synthetic"},
     2, "config error: datasets must be a list of strings, got 'out/synthetic'"),
    ("check", {**CHECK, "n_signals": 2.5}, 2, 'config error: n_signals must be an integer, got 2.5'),
    ("eval", {**EVAL, "method": 7}, 2, 'config error: method must be a string, got 7'),
    ("spectrum", {**SPEC, "n_points": 2.5}, 2, 'config error: n_points must be an integer, got 2.5'),
    # Counts below their range, and integers beyond the float range.  Each of
    # these once exited 0 on no work, or ended in a traceback.
    ("check", {**CHECK, "n_signals": 0}, 2, 'config error: n_signals must be >= 1'),
    ("check", {**CHECK, "n_signals": -1}, 2, 'config error: n_signals must be >= 1'),
    ("spectrum", {**SPEC, "n_points": 0}, 2, 'config error: n_points must be >= 1'),
    ("generate", {**GEN, "n_train": -1}, 2, 'config error: n_train must be >= 0'),
    ("generate", {**GEN, "n_test": -2}, 2, 'config error: n_test must be >= 0'),
    ("train", {**TRAIN, "start_epoch": -1}, 2, 'config error: start_epoch must be >= 0'),
    ("train", {**TRAIN, "learning_rate": 10**400},
     2, 'config error: learning_rate must be a number within the float range, got an integer of 401 digits'),
    ("generate", {**GEN, "sigmas": [1.0, -10**309]},
     2, 'config error: sigma must be a number within the float range, got an integer of 310 digits'),
    # Numbers that are not finite, a spectrum grid end below 0, a range of three
    # numbers and a bundle of no records.  Each of these once exited 0 on NaN or
    # infinite values, or ended in a traceback or a message that named no key.
    ("generate", {**GEN, "side": float("inf")}, 2, 'config error: side must be finite, got inf'),
    ("generate", {**GEN, "offset": float("nan")}, 2, 'config error: offset must be finite, got nan'),
    ("generate", {**GEN, "sigmas": [float("nan")]}, 2, 'config error: sigma must be finite, got nan'),
    ("generate", {**GEN, "n_train": 0, "n_test": 0}, 2, 'config error: generate: n_train + n_test must be >= 1'),
    ("check", {**CHECK, "c": float("nan")}, 2, 'config error: c must be finite, got nan'),
    ("check", {**CHECK, "c": float("inf")}, 2, 'config error: c must be finite, got inf'),
    ("tune", {**TUNE, "alpha_range": [1e-3, float("inf")]},
     2, 'config error: alpha_range entry must be finite, got inf'),
    ("train", {**TRAIN, "learning_rate": float("nan")}, 2, 'config error: learning_rate must be finite, got nan'),
    ("train", {**TRAIN, "mode": "noise2noise", "sigma_n2n_range": [1.0, float("inf")]},
     2, 'config error: sigma_n2n_range entry must be finite, got inf'),
    ("train", {**TRAIN, "mode": "noise2noise", "sigma_n2n_range": [1.0, 2.0, 3.0]},
     2, 'config error: sigma_n2n_range must hold two numbers, got [1.0, 2.0, 3.0]'),
    ("spectrum", {**SPEC, "lambda_max": -5.0}, 2, 'config error: lambda_max must be > 0'),
    ("spectrum", {**SPEC, "lambda_max": float("inf")}, 2, 'config error: lambda_max must be finite, got inf'),
    ("tune", {"dataset": "{empty}", "methods": ["lr"]}, 2, "config error: tune: no records in split 'train'"),
    ("denoise", {"dataset": "{empty}", "sigma": 1.0, "method": "lr", "params": {"alpha_lr": 1.0}},
     2, "config error: denoise: no records in split 'test'"),
    ("train", {"dataset": "{empty}", "sigma": 1.0, "K": 2, "epochs": 2},
     2, "config error: train: no records in split 'train'"),
    ("check", {"datasets": ["{empty}"], "n_signals": 2},
     2, "config error: check: no records in split 'train' or 'test'"),
    ("spectrum", {**SPEC, "dataset": "{empty}"}, 2, "config error: spectrum: no records in split 'train' or 'test'"),
    ("eval", {"dataset": "{empty}", "sigma": 1.0, "denoised": "{denoised}"},
     2, "config error: eval: no records in split 'test'"),
]


# Faults in the files a command reads besides its config.  A fault in a bundle
# file, a point cloud or a denoised output is an input error (4); one in a
# tuned.json or params.json, which a config names, is a config error (2).
# Each names its file.  Each of these once ended in a traceback, was read
# silently, or exited with another code or without the file's name.
LR = {**D, "method": "lr", "params": {"alpha_lr": 1.0}}
M = "manifest.json: "
FILE_CASES = [
    ("denoise", {**LR, "dataset": "{no_n_train}"},
     4, "input error: {no_n_train}/" + M + "manifest: missing keys ['n_train']"),
    ("denoise", {**LR, "dataset": "{sigmas_20}"},
     4, "input error: {sigmas_20}/" + M + "sigmas must be a list of numbers, got 20"),
    ("denoise", {**LR, "dataset": "{n_test_text}"},
     4, "input error: {n_test_text}/" + M + "n_test must be an integer, got '2'"),
    ("denoise", {**LR, "dataset": "{n_nodes_2_5}"},
     4, "input error: {n_nodes_2_5}/" + M + "n_nodes must be an integer, got 2.5"),
    ("denoise", {**LR, "dataset": "{sigma_text}"},
     4, "input error: {sigma_text}/" + M + "sigma must be a number, got 'x'"),
    ("denoise", {**LR, "dataset": "{no_schema}"},
     4, "input error: {no_schema}/" + M + "manifest: missing keys ['schema']"),
    ("denoise", {**LR, "dataset": "{manifest_json}"},
     4, "input error: {manifest_json}/manifest.json:3: invalid JSON: Expecting ',' delimiter at column 3"),
    ("tune", {**TUNE, "dataset": "{no_schema}"},
     4, "input error: {no_schema}/" + M + "manifest: missing keys ['schema']"),
    ("eval", {**EVAL, "dataset": "{no_n_train}"},
     4, "input error: {no_n_train}/" + M + "manifest: missing keys ['n_train']"),
    ("denoise", {**LR, "dataset": "{nan_observed}"},
     4, "input error: {nan_observed}/test/sample_000/observed_sigma0.5.csv:4: value not finite: 'nan'"),
    ("train", {**TRAIN, "dataset": "{short_clean}"},
     4, "input error: {short_clean}/test/sample_001/clean.csv: expected 50 rows, one per node, got 49"),
    ("denoise", {**D, "method": "red_lr", "tuned": "{alpha_bool}"},
     2, "config error: {alpha_bool}: alpha_lr must be a number, got True"),
    ("spectrum", {"tuned": "{sigma_string}", "sigma": 0.5},
     2, "config error: {sigma_string}: sigma must be a number, got '0.5'"),
    ("train", {**TRAIN, "init": {"tuned": "{no_alpha_red}"}},
     2, "config error: {no_alpha_red}: entry 0: missing keys ['alpha_red']"),
    ("denoise", {**D, "method": "unrolled", "unrolled_params": "{layer_bool}"},
     2, "config error: {layer_bool}: alpha_red_layer must be a number, got True"),
    ("denoise", {**D, "method": "unrolled", "unrolled_params": "{invalid}"},
     2, "config error: {invalid}:3: invalid JSON: Expecting ',' delimiter at column 3"),
    ("train", {**TRAIN, "init": {"params": "{list}"}}, 2, "config error: {list}: expected a JSON object, got list"),
    ("generate", {"kind": "pointcloud", "source": "{nan_point}", "m": 20, "k": 4, "sigmas": [0.1]},
     4, "input error: {nan_point}:3: value not finite: 'nan,1,2'"),
    ("generate", {"kind": "pointcloud", "source": "{nan_vertex}", "m": 20, "k": 4, "sigmas": [0.1]},
     4, "input error: {nan_vertex}:5: coordinate not finite: 'nan 1 2'"),
    ("eval", {**EVAL, "denoised": "{short_denoised}"},
     4, "input error: {short_denoised}/sample_001.csv: shape (49,) does not match dataset"),
]
CASES += FILE_CASES


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, cfg, code, last", CASES)
def test_config_outcome(files, tmp_path, capsys, command, cfg, code, last):
    out = tmp_path / "out"
    assert outcome(command, fill(cfg, files), out, capsys) == (code, fill(last, files))
    if code:
        assert os.listdir(out) == []


@pytest.mark.parametrize("command, cfg, message", [
    ("denoise", {**D, "method": "lr", "params": {"alpha_lr": "1.5"}}, "alpha_lr must be a number, got '1.5'"),
    ("train", {**TRAIN, "init": {"alpha_red": "1"}}, "alpha_red must be a number, got '1'"),
    ("train", {**TRAIN, "epochs": float("inf")}, "epochs must be an integer, got inf"),
    ("tune", {**TUNE, "methods": ["lr", 7]}, "method must be a string, got 7"),
    ("tune", {**TUNE, "sigmas": [0.5, None]}, "sigma must be a number, got None"),
    ("tune", {**TUNE, "alpha_range": [1e-3, "1e3"]}, "alpha_range entry must be a number, got '1e3'"),
    ("generate", {**GEN, "sigmas": [1.0, False]}, "sigma must be a number, got False"),
    ("spectrum", {**SPEC, "dataset": None}, "dataset must be a string, got None"),
    ("check", {**CHECK, "c": True}, "c must be a number, got True"),
])
def test_type_rules(files, tmp_path, capsys, command, cfg, message):
    """Type rules beyond the faults above: a string is not a number, an item has its list's item type."""
    out = tmp_path / "out"
    assert outcome(command, fill(cfg, files), out, capsys) == (2, f"config error: {message}")
    assert os.listdir(out) == []


def test_tune_method_rejects_an_infinite_bound(files):
    records = load_dataset(files["data"]).train
    with pytest.raises(ConfigError, match=r"alpha_range must be finite, got \[0.001, inf\]"):
        tune_method(records, 0.5, "lr", grid_points=3, alpha_range=(1e-3, np.inf))


@pytest.mark.parametrize("command, cfg, key, value", [
    ("generate", {**GEN, "n_nodes": 30.0}, "n_nodes", 30),
    ("tune", {**TUNE, "grid_points": 3.0}, "grid_points", 3),
    ("train", {**TRAIN, "learning_rate": 1}, "learning_rate", 1.0),
])
def test_integral_floats_and_integers_read_as_their_type(command, cfg, key, value):
    resolved = _resolve_config(command, cfg)
    assert resolved[key] == value and type(resolved[key]) is type(value)


def test_seed_flag_overrides_the_config_seed():
    assert _resolve_config("generate", {"seed": 4}, seed=9)["seed"] == 9
    assert _resolve_config("generate", {"seed": 4})["seed"] == 4
    assert "seed" not in _resolve_config("tune", {"dataset": "d"}, seed=9)


def as_resolved(value):
    """A config value as the parser hands it to a command: lists as tuples, numbers as given."""
    return tuple(value) if isinstance(value, list) else value


def shipped_configs():
    for path in sorted(CONFIGS.glob("*.json")):
        yield pytest.param(path.stem.split("_")[0], json.loads(path.read_text()), id=f"configs/{path.name}")
    for name, workload in workloads.WORKLOADS.items():
        for size in ("full", "tiny"):
            w = workload(1, size)
            for command in [w.generate("bundle"), *w.commands("bundle", "pass")]:
                yield pytest.param(command.subcommand, command.config, id=f"{name}-{size}-{command.label}")


@pytest.mark.parametrize("command, cfg", shipped_configs())
def test_shipped_configs_resolve_to_their_values(command, cfg):
    """Every config the repository runs resolves with no error, and each given value reads as itself."""
    resolved = _resolve_config(command, cfg)
    for key, value in cfg.items():
        if key == "init":
            assert {k: resolved[key][k] for k in value} == value
        else:
            assert resolved[key] == as_resolved(value), key


def readme_section(command):
    """The README section of ``command``, up to the next heading."""
    return re.search(rf"### `{command}`.*?(?=\n#)", README.read_text(), re.S).group(0)


def render_default(default):
    if default is REQUIRED:
        return "required"
    if default is None:
        return "—"
    return f"`{json.dumps(list(default) if isinstance(default, tuple) else default)}`"


def rendered(table):
    """``table`` as README prints it: each key's type and default."""
    return {key: (kind, render_default(default)) for key, (kind, default, *_) in table.items()}


def readme_table(section):
    """Each key row of the README's table in ``section``: its key, type and default."""
    rows = {}
    for line in readme_section(section).splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if cells and re.fullmatch(r"`[\w.]+`", cells[0]):
            rows[cells[0].strip("`")] = tuple(cells[1:3])
    return rows


# The key tables of the JSON files the commands read, by file, with a kind's keys and a list's item keys.
FILE_TABLES = {
    "manifest.json": {**MANIFEST_KEYS, **{k: v for keys in MANIFEST_KIND_KEYS.values() for k, v in keys.items()}},
    "tuned.json": {**TUNED_KEYS, **{f"entries.{k}": v for keys in (TUNED_ENTRY_KEYS, *METHOD_KEYS.values())
                                    for k, v in keys.items()}},
    "params.json": {**PARAMS_KEYS, **{k: v for keys in PARAMS_KIND_KEYS.values() for k, v in keys.items()}},
}


@pytest.mark.parametrize("name", list(FILE_TABLES))
def test_readme_file_tables_match_their_key_tables(name):
    """README prints the key table of each JSON file a command reads, as it prints a command's."""
    assert readme_table(name) == rendered(FILE_TABLES[name])


@pytest.mark.parametrize("command", list(CONFIG_KEYS))
def test_readme_key_tables_match_the_config_tables(command):
    """Each command's README key table lists its table's keys, types and defaults, and nothing else."""
    table = dict(CONFIG_KEYS[command])
    if command == "generate":
        for keys in DATASET_KIND_KEYS.values():
            table.update(keys)
    if command == "train":
        table.update({f"init.{key}": spec for key, spec in TRAIN_INIT_KEYS.items()})
    assert readme_table(command) == rendered(table)

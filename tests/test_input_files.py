"""The JSON and signal files a command reads besides its config: what the writers write, the readers read,
and a single edit to one of them either reads as the file now says or fails naming the file.

A bundle's manifest, ``tuned.json`` and ``params.json`` are each read against one key table
(``files.MANIFEST_KEYS``, ``denoisers.TUNED_KEYS`` and ``red.PARAMS_KEYS``) by the config parser.
"""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphred.cli import main
from graphred.denoisers import read_tuned
from graphred.files import load_dataset
from graphred.red import UnrolledParams
from graphred.unroll import load_params, save_params

ROOT = Path(__file__).resolve().parent.parent


def plain(value):
    """``value`` with the tuples the parser gives as lists, as JSON holds them."""
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def run(command, cfg, out):
    """Exit code and last stderr line of ``graphred <command>`` on ``cfg``; an uncaught exception propagates."""
    path = Path(f"{out}.json")
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(path), "--out", str(out)])
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


# Each JSON file a command reads, and the reader that reads it through its key table.
READERS = {
    "manifest.json": lambda path: plain(load_dataset(os.path.dirname(path), graphs=False).manifest),
    "tuned.json": lambda path: plain(read_tuned(path)),
    "params.json": lambda path: load_params(path).to_json_dict(),
}


def assert_reads_as_written(path):
    """The reader of the JSON file at ``path`` returns the values the file holds."""
    assert READERS[os.path.basename(path)](path) == json.loads(Path(path).read_text()), path


def test_what_the_writers_write_the_readers_read(tmp_path):
    """generate (both kinds), tune (all four methods) and train (lr and pnp, flat and resumed) write
    files that load through their tables to the values written."""
    synthetic, cloud = tmp_path / "synthetic", tmp_path / "cloud"
    gen = {"n_nodes": 16, "k": 4, "sigmas": [0.5, 1.0], "n_train": 2, "n_test": 1}
    assert run("generate", gen, synthetic) == (0, "")
    assert run("generate", {"kind": "pointcloud", "source": str(ROOT / "data" / "torus.off"), "m": 24, "k": 4,
                            "sigmas": [0.1], "n_train": 1, "n_test": 1, "fps_start": 3}, cloud) == (0, "")
    assert run("tune", {"dataset": str(synthetic), "grid_points": 2}, tmp_path / "tuned") == (0, "")
    written = [synthetic / "manifest.json", cloud / "manifest.json", tmp_path / "tuned" / "tuned.json"]
    assert {e["method"] for e in json.loads(written[-1].read_text())["entries"]} == {"lr", "pnp", "red_lr", "red_pnp"}
    for denoiser in ("lr", "pnp"):
        train = {"dataset": str(synthetic), "sigma": 0.5, "denoiser": denoiser, "K": 3, "epochs": 2}
        flat, resumed = tmp_path / f"{denoiser}_flat", tmp_path / f"{denoiser}_resumed"
        assert run("train", train, flat) == (0, "")
        init = {"init": {"params": str(flat / "params.json")}, "start_epoch": 2}
        assert run("train", {**train, **init}, resumed) == (0, "")
        written += [flat / "params.json", resumed / "params.json"]
    for path in written:
        assert_reads_as_written(str(path))


def test_an_integral_float_K_reads_as_an_integer(tmp_path):
    """A params.json ``K`` of 3.0 reads as the integer 3, as an integer config key does (README's type rules)."""
    path = tmp_path / "params.json"
    save_params(UnrolledParams.constant(3, "lr", 1.0, 1.0), path)
    path.write_text(path.read_text().replace('"K": 3', '"K": 3.0', 1))
    params = load_params(path)
    assert params.K == 3 and type(params.K) is int


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A small bundle, its tuned.json and its params.json, and what denoise writes from each."""
    base = tmp_path_factory.mktemp("inputs")
    gen = {"n_nodes": 12, "k": 3, "sigmas": [0.5], "n_train": 1, "n_test": 1}
    assert run("generate", gen, base / "bundle") == (0, "")
    assert run("tune", {"dataset": str(base / "bundle"), "methods": ["red_lr"], "grid_points": 2},
               base / "tuned") == (0, "")
    assert run("train", {"dataset": str(base / "bundle"), "sigma": 0.5, "K": 2, "epochs": 1},
               base / "trained") == (0, "")
    return base


SIGNALS = [f"{split}/sample_000/{name}" for split in ("train", "test")
           for name in ("clean.csv", "observed_sigma0.5.csv")]
# A replacement value of each kind: a bool, a string, null, a list, NaN and a fractional number.
VALUES = [True, False, "20", None, [1.0], math.nan, 2.5]


def json_paths(value, prefix=()):
    """The path of every value inside ``value`` (dict keys and list indices), ``value`` itself first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from json_paths(item, prefix + (key,))


def at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def edits(draw):
    """``(file, edit)``: a file of the chain, and one edit to its text."""
    file = draw(st.sampled_from(["manifest.json", "tuned.json", "params.json", "signal"]))
    if file == "signal":
        op = draw(st.sampled_from(["delete", "duplicate", "blank", "insert a blank", "nan", "1e400", "x"]))
        return draw(st.sampled_from(SIGNALS)), (op, draw(st.integers(0, 11)))
    op = draw(st.sampled_from(["remove", "add", "replace"]))
    return file, (op, draw(st.integers(0, 10**6)), draw(st.sampled_from(VALUES)))


def apply(text, edit):
    """``text`` after ``edit``."""
    if len(edit) == 2:  # a signal file's line
        op, line = edit
        lines = text.splitlines()
        new = {"delete": [], "duplicate": [lines[line]] * 2, "blank": [""], "insert a blank": ["", lines[line]]}
        lines[line:line + 1] = new.get(op, [op])  # else the line replaced by a bad value
        return "\n".join(lines) + "\n"
    op, pick, new = edit
    value = json.loads(text)
    dicts = [p for p in json_paths(value) if isinstance(at(value, p), dict)]
    if op == "add":
        at(value, dicts[pick % len(dicts)])["colour"] = new
        return json.dumps(value)
    # Every value but the file's top level; a removal only from an object.
    paths = [p for p in json_paths(value) if p and (op == "replace" or isinstance(at(value, p[:-1]), dict))]
    path = paths[pick % len(paths)]
    parent = at(value, path[:-1])
    if op == "remove":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return json.dumps(value)


@settings(max_examples=400, deadline=None)
@given(edit=edits())
def test_a_single_edit_reads_as_written_or_fails_naming_its_file(chain, edit):
    """One edit to a bundle file, tuned.json or params.json: denoise either runs on what the file now
    says, with finite outputs, or exits with the file's class of error naming the file.

    A bundle file is an input (exit 4), and tuned.json and params.json are named by a config (exit 2).
    A manifest that names a sigma the bundle holds no observations at fails on that missing file.
    """
    file, change = edit
    with tempfile.TemporaryDirectory() as tmp:
        bundle, tuned, params = (os.path.join(tmp, name) for name in ("bundle", "tuned.json", "params.json"))
        shutil.copytree(chain / "bundle", bundle)
        shutil.copy(chain / "tuned" / "tuned.json", tuned)
        shutil.copy(chain / "trained" / "params.json", params)
        # The parameters denoise reads: from the tuned file or the parameter file if one is edited.
        sources = {"tuned.json": {"method": "red_lr", "tuned": tuned},
                   "params.json": {"method": "unrolled", "unrolled_params": params}}
        target = os.path.join(tmp if file in sources else bundle, file)
        original = Path(target).read_text()
        Path(target).write_text(apply(original, change))
        cfg = {"dataset": bundle, "sigma": 0.5, **sources.get(file, {"method": "lr", "params": {"alpha_lr": 1.0}})}
        code, last = run("denoise", cfg, os.path.join(tmp, "out"))
        if code:
            assert code == (2 if file in sources else 4), last
            missing_sigma = file == "manifest.json" and last.startswith("i/o error") and "observed_sigma" in last
            assert target in last or missing_sigma, last
            return
        # A removed or added key fails, and so does a signal line deleted, doubled, blanked (a row fewer) or bad.
        assert change[0] in ("replace", "insert a blank"), (change, last)
        if change[0] == "insert a blank":  # a blank line between two rows: the same signal
            assert np.array_equal(np.loadtxt(target, delimiter=","), np.loadtxt(io.StringIO(original), delimiter=","))
        else:
            assert_reads_as_written(target)
        metrics = json.loads(Path(tmp, "out", "metrics.json").read_text())
        assert all(map(math.isfinite, metrics["per_sample_rmse"])), metrics
        denoised = Path(tmp, "out", "denoised")
        assert all(np.isfinite(np.loadtxt(p, delimiter=",")).all() for p in denoised.iterdir())

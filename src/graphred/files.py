"""The files a command reads and writes: configs, numeric text files, JSON artifacts and dataset bundles.

A key table maps each key of a JSON object to ``(JSON type, default, rule)``: :data:`REQUIRED` marks a key the
object must give, and a default of ``None`` one read as "not given"; a rule is a test and the message its failure
raises, applied to each item of a list.  A value of the wrong type (README lists the rules), an unknown key and a
missing one are config errors naming the key.  Every JSON file a command reads, its config, a bundle's manifest,
``tuned.json`` and ``params.json``, goes through :func:`read_config` and such a table.  Numeric text files are
formatted by :func:`table_text` and parsed by :func:`read_table`, and JSON artifacts written by :func:`write_json`.
A bundle is the directory :func:`datasets.save_dataset` writes; :func:`load_dataset` reads one without the
generators and, with ``graphs=False``, without :mod:`graphred.graphs`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .exceptions import ConfigError, ParseError

if TYPE_CHECKING:
    from .graphs import Graph

REQUIRED = object()  # the default of a key every config must give
COUNT = (lambda n: n >= 1, "{key} must be >= 1")
SIZE = (lambda n: n >= 0, "{key} must be >= 0")
# Each JSON type of a config value, and the Python type a command reads it as.
_TYPES = {"integer": int, "number": float, "string": str, "boolean": bool, "object": dict}


def read_config(path, read=dict, error=ConfigError):
    """``read`` of the JSON object in the file at ``path``; invalid JSON (at its line), another top level,
    and a :class:`ConfigError` or ``ValueError`` from ``read`` raise ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
        if not isinstance(value, dict):
            raise ConfigError(f"expected a JSON object, got {type(value).__name__}")
        return read(value)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: invalid JSON: {exc.msg} at column {exc.colno}") from exc
    except (ConfigError, ValueError) as exc:  # a ValueError: also a file that is not UTF-8
        raise error(f"{path}: {exc}") from exc


def _typed(key, value, kind, rule, where):
    """``value`` of config ``key`` read as JSON type ``kind`` (see the module docstring) and checked by ``rule``."""
    if kind.startswith("list of ") and isinstance(value, list):
        # "sigmas" items are each a "sigma", and "entries" items an "entry"
        item = key[:-3] + "y" if key.endswith("ies") else key[:-1] if key.endswith("s") else f"{key} entry"
        return tuple(_typed(item, v, kind[8:-1], rule, where) for v in value)
    read, got = _TYPES.get(kind), type(value)
    if not (got is read or (read, got) == (float, int) or read is int and got is float and value.is_integer()):
        if kind == "object":
            raise ConfigError(f"{where} {key!r} must be an object")
        raise ConfigError(f"{key} must be {'an' if kind[0] in 'aeiou' else 'a'} {kind}, got {value!r}")
    try:
        value = read(value)
    except OverflowError:  # a JSON integer beyond the float range
        digits = len(str(abs(value)))
        raise ConfigError(f"{key} must be a number within the float range, got an integer of {digits} digits") from None
    if read is float and not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    if rule is not None and not rule[0](value):
        raise ConfigError(rule[1].format(key=key, value=value))
    return value


def parse(table, cfg, where, seed=None) -> dict:
    """Every key of ``table`` with its value in ``cfg``, read by :func:`_typed`, or its default.

    ``seed`` (the ``--seed`` flag) overrides the value of a ``seed`` key.
    """
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    values = {key: _typed(key, cfg[key], kind, rule[0] if rule else None, where) if key in cfg else default
              for key, (kind, default, *rule) in table.items()}
    missing = sorted(key for key, value in values.items() if value is REQUIRED)
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    if seed is not None and "seed" in values:
        values["seed"] = seed
    return values


def parse_kind(table, kinds, key, cfg, where, seed=None) -> dict:
    """:func:`parse` against ``table`` and the keys of the kind ``cfg[key]`` names in ``kinds``; while
    it names none, ``table`` alone, so that the kind key's own error is raised (by its rule if unknown)."""
    kind = cfg.get(key, table[key][1])
    if kind not in tuple(kinds):
        parse(table, {k: v for k, v in cfg.items() if k in table}, where)
    return parse({**table, **kinds[kind]}, cfg, where, seed)


def mse(x_hat: np.ndarray, x_star: np.ndarray) -> float:
    x_hat = np.asarray(x_hat, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x_hat.shape != x_star.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_star.shape}")
    return float(np.mean((x_hat - x_star) ** 2))


def rmse(x_hat: np.ndarray, x_star: np.ndarray) -> float:
    return float(np.sqrt(mse(x_hat, x_star)))


def table_text(values, header: str = "", sep: str = ",") -> str:
    """``header`` on a line if given, then one line per row of ``values`` (``(N,)`` or ``(N, C)``).

    Fields are ``%.17g`` (the shortest ``%g`` that round-trips float64) joined by ``sep``, all formatted
    by one ``%``: the bytes numpy's ``savetxt`` writes with that format, and ``%d``'s for integers below 2**53.
    """
    values = np.asarray(values, dtype=float)
    row = sep.join(["%.17g"] * (values.shape[1] if values.ndim == 2 else 1)) + "\n"
    return header + "\n" * bool(header) + (row * len(values)) % tuple(values.ravel().tolist())


def write_text(path, text: str) -> None:
    """Write ASCII ``text`` to ``path``, making its directory if needed."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def write_json(path, payload: dict) -> None:
    """Write a JSON artifact: indent 2, sorted keys, a final newline."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_table(path, convert, check):
    """``convert(lines)`` of the data lines (stripped, not blank, not ``#...``) of the ASCII file at ``path``.

    ``convert`` parses all lines at once, raising ``ValueError`` or ``OverflowError`` if one breaks the
    format.  Only then are the lines numbered, and ``check(line, line_no, first_line)`` runs on each data
    line in turn, to raise the format's own error at the first bad one; if none does, the conversion's
    error is raised.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = [s for s in map(str.strip, text.split("\n")) if s and s[0] != "#"]
    try:
        return convert(lines)
    except (ValueError, OverflowError):
        for line_no, line in enumerate(map(str.strip, text.split("\n")), start=1):
            if line and line[0] != "#":
                check(line, line_no, lines[0])
        raise


def read_csv(path, empty="no points found", finite=False) -> np.ndarray:
    """The ``(N, C)`` array of a file of comma-separated numbers, one row per data line.

    A field ``float`` rejects or a row wider or narrower than the first raises :class:`ParseError`, and
    so does a file without data lines, with the message ``empty``; with ``finite``, so does a value that
    is not finite (``nan``, ``inf``, or one that overflows).  Rows are split at once, as one line.
    """

    def convert(lines):
        if not lines:
            raise ParseError(empty, path=str(path), line=0)
        width = lines[0].count(",") + 1
        if any(line.count(",") != width - 1 for line in lines):
            raise ValueError("rows of unequal width")
        values = np.array(",".join(lines).split(","), dtype=float).reshape(len(lines), width)
        if finite and not np.isfinite(values).all():
            raise ValueError("a value is not finite")
        return values

    def check(line, line_no, first_line):
        parts, width = line.split(","), first_line.count(",") + 1
        try:
            values = list(map(float, parts))
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path), line=line_no) from exc
        if len(parts) != width:
            raise ParseError(f"expected {width} columns, got {len(parts)}", path=str(path), line=line_no)
        if finite and not np.isfinite(values).all():
            raise ParseError(f"value not finite: {line!r}", path=str(path), line=line_no)

    return read_table(path, convert, check)


MANIFEST_SCHEMA = "graphred-dataset-v1"
SPLIT_CODES = {"train": 0, "test": 1}
# The keys of a bundle's manifest.json, as datasets.save_dataset writes them: each kind's own, then every kind's.
MANIFEST_KIND_KEYS = {
    "synthetic": {"side": ("number", REQUIRED), "n_band": ("integer", REQUIRED), "offset": ("number", REQUIRED)},
    "pointcloud": {"dims": ("integer", REQUIRED), "fps_m": ("integer", REQUIRED), "fps_start": ("integer", REQUIRED)},
}
MANIFEST_KEYS = {
    "schema": ("string", REQUIRED, (MANIFEST_SCHEMA.__eq__, "unsupported dataset schema {value!r}")),
    "kind": ("string", REQUIRED, (MANIFEST_KIND_KEYS.__contains__, "unknown dataset kind {value!r}")),
    "seed": ("integer", REQUIRED), "n_nodes": ("integer", REQUIRED, COUNT), "k": ("integer", REQUIRED, COUNT),
    "sigmas": ("list of numbers", REQUIRED), "n_train": ("integer", REQUIRED, SIZE),
    "n_test": ("integer", REQUIRED, SIZE), "rng": ("string", REQUIRED),
}


@dataclass(frozen=True)
class DatasetRecord:
    """One sample: its graph, the clean signal, and observations per sigma."""

    graph: Graph | None
    clean: np.ndarray
    observed: dict
    split: str
    index: int


class Dataset(NamedTuple):
    manifest: dict
    train: list
    test: list

    def split(self, name: str) -> list:
        if name not in SPLIT_CODES:
            raise ValueError(f"unknown split {name!r}")
        return self.train if name == "train" else self.test

    @property
    def sigmas(self):
        return list(self.manifest["sigmas"])


def sigma_file(sigma: float) -> str:
    return f"observed_sigma{sigma:g}.csv"


def load_signal(path, finite=False) -> np.ndarray:
    """A signal file in the shape numpy's ``loadtxt`` gives with ``ndmin=1``: ``(N,)`` for one column.

    With ``finite``, a value that is not finite raises :class:`ParseError` at its line.
    """
    return np.atleast_1d(read_csv(path, empty="signal file holds no values", finite=finite).squeeze())


def _bundle_signal(path, n_nodes) -> np.ndarray:
    """A bundle's signal file: finite values, one row per node, else :class:`ParseError` naming the file."""
    signal = load_signal(path, finite=True)
    if len(signal) != n_nodes:
        raise ParseError(f"expected {n_nodes} rows, one per node, got {len(signal)}", path=str(path))
    return signal


def load_dataset(path, graphs: bool = True) -> Dataset:
    """Read a bundle, its manifest against ``MANIFEST_KEYS``; records whose edge lists have identical bytes
    share one Graph.  With ``graphs=False`` no edge list is opened and every record's ``graph`` is ``None``.
    A fault in any file of the bundle raises :class:`ParseError` naming the file.
    """
    read = lambda cfg: parse_kind(MANIFEST_KEYS, MANIFEST_KIND_KEYS, "kind", cfg, "manifest")  # noqa: E731
    manifest = read_config(os.path.join(path, "manifest.json"), read, ParseError)
    if graphs:
        from .graphs import load_edge_list
    n_nodes = manifest["n_nodes"]
    splits = {"train": [], "test": []}
    parsed = {}  # edge-list bytes -> parsed graph
    for split, records in splits.items():
        for idx in range(manifest[f"n_{split}"]):
            sample_dir = os.path.join(path, split, f"sample_{idx:03d}")
            graph = None
            if graphs:
                edges_path = os.path.join(sample_dir, "graph.edges")
                with open(edges_path, "rb") as fh:
                    edges = fh.read()
                if edges not in parsed:
                    parsed[edges] = load_edge_list(edges_path, n_nodes=n_nodes)
                graph = parsed[edges]
            clean = _bundle_signal(os.path.join(sample_dir, "clean.csv"), n_nodes)
            observed = {s: _bundle_signal(os.path.join(sample_dir, sigma_file(s)), n_nodes) for s in manifest["sigmas"]}
            records.append(DatasetRecord(graph=graph, clean=clean, observed=observed, split=split, index=idx))
    return Dataset(manifest=manifest, train=splits["train"], test=splits["test"])


def split_records(command, dataset: Dataset, split=None) -> list:
    """The records of ``split``, or with no split the train records, else the test ones; none is a config error."""
    names = ("train", "test") if split is None else (split,)
    records = next(filter(None, map(dataset.split, names)), [])
    if not records:
        raise ConfigError(f"{command}: no records in split {' or '.join(map(repr, names))}")
    return records


def dataset_sigma(dataset: Dataset, sigma: float) -> float:
    """``sigma``, if ``dataset`` holds observations at that noise level."""
    if sigma not in dataset.sigmas:
        raise ConfigError(f"sigma {sigma:g} not in dataset (has {dataset.sigmas})")
    return sigma


def write_metrics(out_dir, records, outputs, sigma, **fields) -> dict:
    """Write metrics.json: the RMSE of each output, and of each observation, against its clean signal."""
    per_sample = [rmse(x, record.clean) for x, record in zip(outputs, records)]
    metrics = {
        "schema": "graphred-metrics-v1",
        "sigma": sigma,
        "n_samples": len(records),
        **fields,
        "per_sample_rmse": per_sample,
        "mean_rmse": float(np.mean(per_sample)),
        "observed_rmse": float(np.mean([rmse(r.observed[sigma], r.clean) for r in records])),
    }
    write_json(os.path.join(out_dir, "metrics.json"), metrics)
    return metrics

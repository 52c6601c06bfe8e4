"""Synthetic data generation, point sampling, and writing dataset bundles.

The synthetic protocol: uniform sensor positions in a square, a normalized
inverse-distance kNN graph, one bandlimited signal shared by all samples,
and per-sample white-Gaussian observations at several noise levels.  Point
clouds enter through CSV/OFF readers, get thinned by farthest point
sampling, and use their coordinates as a 3-channel signal.

All randomness goes through PCG64 generators keyed by
``SeedSequence([seed, split, sample, stream, ...])`` so every artifact is
reproducible from the manifest alone.  Files go through :mod:`graphred.files`,
which also reads bundles back.
"""

from __future__ import annotations

import bisect
import math
import os
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidGraphError, NumericalError, ParseError
from .files import (
    MANIFEST_SCHEMA, SPLIT_CODES, Dataset, DatasetRecord, read_csv, sigma_file, table_text, write_json, write_text,
)
from .graphs import SpectralDecomp, build_laplacian, edge_list_text, eigendecompose

# RNG stream tags (documented scheme: SeedSequence([seed, split, sample, stream, ...])).
STREAM_POINTS = 0
STREAM_NOISE = 2


def generate_sensor_points(n: int, side: float = 100.0, seed: int = 0) -> np.ndarray:
    """n i.i.d. uniform positions in the square [0, side]^2."""
    if n < 2:
        raise ValueError("need n >= 2 points")
    if side <= 0:
        raise ValueError("side must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, STREAM_POINTS]))
    return rng.uniform(0.0, side, size=(n, 2))


def generate_bandlimited(decomp: SpectralDecomp, n_band: int = 3, offset: float = 2.0) -> np.ndarray:
    """Bandlimited signal spanned by the n_band lowest-frequency eigenvectors.

    Coefficients are d_k = sin(k pi / n_band) + offset for k = 1..n_band;
    everything above frequency n_band is exactly zero.
    """
    n = decomp.n_nodes
    if not (1 <= n_band <= n):
        raise ValueError(f"n_band must be in [1, {n}], got {n_band}")
    k = np.arange(1, n_band + 1)
    d = np.sin(k * np.pi / n_band) + offset
    return decomp.basis[:, :n_band] @ d


def add_noise(x: np.ndarray, sigma: float, seed) -> np.ndarray:
    """White Gaussian noise: ``y = x + N(0, sigma^2)`` elementwise.

    ``seed`` is an integer, a SeedSequence, or a Generator to draw from.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    x = np.asarray(x, dtype=float)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return x + sigma * rng.standard_normal(x.shape)


def fps(points: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Farthest point sampling (Eldar et al. 1997): greedy max-min subset of m points.

    Starting from index ``start``, repeatedly adds the point farthest from
    the already-selected set (ties go to the lower index).  Distances come
    from :func:`construct._distances`, which has the bits of
    ``np.linalg.norm(points - p, axis=1)`` below 8 coordinates; from 8 on
    they may differ in the last bits, and so may the picks.

    A pick at running-minimum distance ``r`` updates only a slab of the
    points, kept sorted along their widest coordinate: one whose computed gap
    ``g`` to the pick has ``sqrt(g * g) >= r`` keeps its minimum (the argument
    of :func:`construct._grid_neighbours`).  Points without coordinates, and
    non-finite ones, raise :class:`InvalidGraphError`.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or not points.shape[1]:
        raise InvalidGraphError(f"points must be a 2-d array with coordinates, got shape {points.shape}")
    n = points.shape[0]
    if not (1 <= m <= n):
        raise ValueError(f"m must be in [1, {n}], got {m}")
    if not (0 <= start < n):
        raise ValueError(f"start must be in [0, {n - 1}]")
    if not np.all(np.isfinite(points)):
        raise InvalidGraphError("points must be finite")
    from .construct import _distances  # graph construction loads only where a graph is built

    axis = int(np.argmax(np.ptp(points, axis=0)))
    order = np.argsort(points[:, axis], kind="stable")
    rank = np.argsort(order)
    slab = np.asfortranarray(points[order])  # one contiguous run per coordinate
    xs = slab[:, axis].tolist()
    selected = [start]
    min_dist = _distances(points[start], points)
    for _ in range(m - 1):
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        r, x = float(min_dist[nxt]), xs[rank[nxt]]
        lo, hi = bisect.bisect_left(xs, x - r), bisect.bisect_right(xs, x + r)
        # Widen past the rounding of x -+ r; the computed gap only grows away from x.
        while lo > 0 and math.sqrt((x - xs[lo - 1]) * (x - xs[lo - 1])) < r:
            lo = bisect.bisect_left(xs, xs[lo - 1])
        while hi < n and math.sqrt((x - xs[hi]) * (x - xs[hi])) < r:
            hi = bisect.bisect_right(xs, xs[hi])
        near = order[lo:hi]
        min_dist[near] = np.minimum(min_dist[near], _distances(slab[rank[nxt]], slab[lo:hi]))
    return points[np.array(selected)]


def save_point_cloud(points: np.ndarray, path) -> None:
    write_text(path, table_text(points))


def _load_off_points(path) -> np.ndarray:
    """Vertices of an OFF mesh; the face block is ignored."""
    with open(path, "r", encoding="ascii") as fh:
        lines = list(fh)
    items = [(n, text) for n, raw in enumerate(lines, start=1) if (text := raw.split("#", 1)[0].strip())]
    if not items:
        raise ParseError("empty OFF file", path=str(path), line=0)
    line_no, header = items[0]
    if not header.startswith("OFF"):
        raise ParseError("missing OFF header", path=str(path), line=line_no)
    rest, start = header[3:].split(), 1
    if not rest:
        if len(items) == 1:
            raise ParseError("missing OFF counts line", path=str(path), line=line_no)
        (line_no, counts_text), start = items[1], 2
        rest = counts_text.split()
    if len(rest) != 3:
        raise ParseError("OFF counts line needs 3 integers", path=str(path), line=line_no)
    try:
        n_vertices = int(rest[0])
    except ValueError as exc:
        raise ParseError(f"bad vertex count: {exc}", path=str(path), line=line_no) from exc
    if n_vertices < 1:
        raise ParseError("OFF file declares no vertices", path=str(path), line=line_no)

    points = []
    for line_no, text in items[start : start + n_vertices]:
        parts = text.split()
        if len(parts) < 3:
            raise ParseError("vertex line needs 3 coordinates", path=str(path), line=line_no)
        try:
            points.append([float(v) for v in parts[:3]])
        except ValueError as exc:
            raise ParseError(f"bad coordinate: {exc}", path=str(path), line=line_no) from exc
        if not all(map(math.isfinite, points[-1])):
            raise ParseError(f"coordinate not finite: {text!r}", path=str(path), line=line_no)
    if len(points) < n_vertices:
        raise ParseError(f"expected {n_vertices} vertices, file ended early", path=str(path), line=len(lines))
    return np.array(points)


def load_point_cloud(path, format: str | None = None) -> np.ndarray:
    """Read points from CSV (one point per row) or OFF (faces skipped); a non-finite one is a :class:`ParseError`."""
    if format is None:
        ext = os.path.splitext(str(path))[1].lower()
        format = "off" if ext == ".off" else "csv"
    if format == "csv":
        return read_csv(path, finite=True)
    if format == "off":
        return _load_off_points(path)
    raise ValueError(f"unknown point-cloud format {format!r}")


class SyntheticSpec(NamedTuple):
    """Parameters of the synthetic sensor-graph protocol."""

    n_nodes: int = 100
    side: float = 100.0
    k: int = 5
    n_band: int = 3
    offset: float = 2.0
    sigmas: tuple = (10.0, 15.0, 20.0, 25.0, 30.0)
    n_train: int = 10
    n_test: int = 5
    seed: int = 0


def _checked_noise(clean, sigma, rng):
    y = add_noise(clean, sigma, rng)
    if sigma > 0 and clean.size >= 50:
        std = float(np.sqrt(np.mean((y - clean) ** 2)))
        # ~7 standard errors at N=100; only a wiring bug can trip this.
        if abs(std - sigma) > 0.5 * sigma:
            raise NumericalError(f"generated noise std {std:.3g} inconsistent with sigma {sigma:.3g}")
    return y


def _bundle(kind, graph, clean, sigmas, seed, n_train, n_test, **fields) -> Dataset:
    """A ``kind`` bundle: its manifest, and one noisy observation of ``clean`` per sample and sigma.

    ``fields`` are the kind's own manifest entries; every record shares ``graph`` and ``clean``.
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "seed": seed,
        "n_nodes": len(clean),
        **fields,
        "sigmas": [float(s) for s in sigmas],
        "n_train": n_train,
        "n_test": n_test,
        "rng": "pcg64 seeded by SeedSequence([seed, split, sample, stream, sigma_index])",
    }
    splits = {}
    for split, count in (("train", n_train), ("test", n_test)):
        code = SPLIT_CODES[split]
        records = []
        for idx in range(count):
            observed = {}
            for s_idx, sigma in enumerate(sigmas):
                rng = np.random.default_rng(np.random.SeedSequence([seed, code, idx, STREAM_NOISE, s_idx]))
                observed[float(sigma)] = _checked_noise(clean, float(sigma), rng)
            records.append(DatasetRecord(graph=graph, clean=clean, observed=observed, split=split, index=idx))
        splits[split] = records
    return Dataset(manifest=manifest, **splits)


def generate_synthetic_dataset(spec: SyntheticSpec) -> Dataset:
    """Full synthetic protocol: points, graph, signal, noisy splits."""
    from .construct import knn_graph, normalize_weights

    points = generate_sensor_points(spec.n_nodes, spec.side, spec.seed)
    graph = normalize_weights(knn_graph(points, spec.k))
    decomp = eigendecompose(build_laplacian(graph))
    clean = generate_bandlimited(decomp, spec.n_band, spec.offset)
    return _bundle(
        "synthetic", graph, clean, spec.sigmas, spec.seed, spec.n_train, spec.n_test,
        side=spec.side, k=spec.k, n_band=spec.n_band, offset=spec.offset,
    )


def generate_pointcloud_dataset(
    points: np.ndarray, sigmas, m: int = 500, k: int = 5, n_train: int = 10, n_test: int = 5, seed: int = 0,
    start: int = 0,
) -> Dataset:
    """Dataset whose clean signal is the (FPS-thinned) coordinates themselves.

    Samples are independent noise realizations of the same cloud; the stored
    graph is built from the clean coordinates (rebuilding from observed
    coordinates is a denoising-time choice).
    """
    from .construct import knn_graph, normalize_weights

    points = np.asarray(points, dtype=float)
    m = min(m, points.shape[0])
    sampled = fps(points, m, start=start)
    graph = normalize_weights(knn_graph(sampled, k))
    return _bundle(
        "pointcloud", graph, sampled, sigmas, seed, n_train, n_test,
        dims=int(sampled.shape[1]), k=k, fps_m=m, fps_start=start,
    )


def save_dataset(dataset: Dataset, out_dir) -> None:
    """Bundle layout: manifest.json plus per-sample directories per split.

    Each sample directory holds ``graph.edges``, ``clean.csv``, and one
    ``observed_sigma{s}.csv`` per noise level.  Records of a bundle share one
    graph and one clean signal, so each distinct object is formatted once.
    """
    texts = {}  # id of a graph or clean signal -> its text; the dataset keeps them alive

    def text(obj, fmt):
        if id(obj) not in texts:
            texts[id(obj)] = fmt(obj)
        return texts[id(obj)]

    write_json(os.path.join(out_dir, "manifest.json"), dataset.manifest)
    for split in ("train", "test"):
        for record in dataset.split(split):
            sample_dir = os.path.join(out_dir, split, f"sample_{record.index:03d}")
            write_text(os.path.join(sample_dir, "graph.edges"), text(record.graph, edge_list_text))
            write_text(os.path.join(sample_dir, "clean.csv"), text(record.clean, table_text))
            for sigma, y in sorted(record.observed.items()):
                write_text(os.path.join(sample_dir, sigma_file(sigma)), table_text(y))

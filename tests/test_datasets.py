import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphred.construct
import graphred.datasets

from graphred import (
    ConfigError,
    InvalidGraphError,
    ParseError,
    SyntheticSpec,
    add_noise,
    build_laplacian,
    eigendecompose,
    fps,
    generate_bandlimited,
    generate_pointcloud_dataset,
    generate_sensor_points,
    generate_synthetic_dataset,
    gft,
    knn_graph,
    load_dataset,
    load_point_cloud,
    normalize_weights,
    quadratic_form,
    save_dataset,
    save_edge_list,
    save_point_cloud,
)
from graphred.construct import _pairwise_distances
from graphred.datasets import _load_off_points
from graphred.files import load_signal, read_csv, table_text
from graphred.spectral import ResponseComparison, write_response_csv
from graphred.unroll import save_loss_history

TORUS = "data/torus.off"


def small_spec(**overrides):
    base = dict(n_nodes=40, k=4, sigmas=(0.5, 1.0), n_train=3, n_test=2, seed=9)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSensorPoints:
    def test_range_and_shape(self):
        pts = generate_sensor_points(50, seed=0)
        assert pts.shape == (50, 2)
        assert np.all(pts >= 0) and np.all(pts <= 100)

    def test_deterministic(self):
        assert np.array_equal(generate_sensor_points(30, seed=5), generate_sensor_points(30, seed=5))
        assert not np.array_equal(generate_sensor_points(30, seed=5), generate_sensor_points(30, seed=6))

    def test_mean_near_center(self):
        pts = generate_sensor_points(10_000, seed=1)
        se = (100 / np.sqrt(12)) / np.sqrt(10_000)
        assert np.all(np.abs(pts.mean(axis=0) - 50.0) <= 3 * se)


class TestBandlimited:
    def test_band_coefficients(self):
        pts = generate_sensor_points(30, seed=2)
        dec = eigendecompose(build_laplacian(normalize_weights(knn_graph(pts, 4))))
        x = generate_bandlimited(dec, n_band=3, offset=2.0)
        xhat = gft(dec, x)
        d = np.array([np.sin(k * np.pi / 3) + 2.0 for k in (1, 2, 3)])
        assert np.allclose(xhat[:3], d, atol=1e-10)
        assert np.allclose(d, [2.8660254037844388, 2.8660254037844388, 2.0], atol=1e-12)

    def test_tail_energy_zero(self):
        pts = generate_sensor_points(60, seed=3)
        dec = eigendecompose(build_laplacian(normalize_weights(knn_graph(pts, 5))))
        x = generate_bandlimited(dec)
        assert np.linalg.norm(gft(dec, x)[3:]) <= 1e-10

    def test_smoother_than_random_of_equal_norm(self):
        pts = generate_sensor_points(80, seed=4)
        lap = build_laplacian(normalize_weights(knn_graph(pts, 5)))
        dec = eigendecompose(lap)
        x = generate_bandlimited(dec)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(80)
        z *= np.linalg.norm(x) / np.linalg.norm(z)
        assert quadratic_form(lap, x) / quadratic_form(lap, z) < 0.1

    def test_band_validated(self):
        pts = generate_sensor_points(10, seed=5)
        dec = eigendecompose(build_laplacian(normalize_weights(knn_graph(pts, 3))))
        with pytest.raises(ValueError):
            generate_bandlimited(dec, n_band=0)
        with pytest.raises(ValueError):
            generate_bandlimited(dec, n_band=11)


class TestAddNoise:
    def test_sigma_zero_identity(self):
        x = np.arange(5, dtype=float)
        assert np.array_equal(add_noise(x, 0.0, seed=0), x)

    def test_rmse_near_sigma(self):
        x = np.zeros(500)
        y = add_noise(x, 10.0, seed=1)
        err = np.sqrt(np.mean((y - x) ** 2))
        assert abs(err - 10.0) <= 1.0

    def test_deterministic_per_seed(self):
        x = np.zeros(20)
        assert np.array_equal(add_noise(x, 1.0, seed=3), add_noise(x, 1.0, seed=3))
        assert not np.array_equal(add_noise(x, 1.0, seed=3), add_noise(x, 1.0, seed=4))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(3), -1.0, seed=0)


class TestFps:
    def test_hand_example(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        sub = fps(pts, 2, start=0)
        assert sorted(sub[:, 0].tolist()) == [0.0, 10.0]

    def test_full_selection_is_identity_set(self):
        pts = generate_sensor_points(15, seed=6)
        sub = fps(pts, 15)
        assert sorted(map(tuple, sub.tolist())) == sorted(map(tuple, pts.tolist()))

    def test_max_min_dominates_random_subsets(self):
        pts = generate_sensor_points(60, seed=7)
        sub = fps(pts, 10)

        def min_pairwise(p):
            d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)
            return d[np.triu_indices(len(p), k=1)].min()

        fps_min = min_pairwise(sub)
        rng = np.random.default_rng(1)
        for _ in range(100):
            idx = rng.choice(60, size=10, replace=False)
            assert fps_min >= min_pairwise(pts[idx]) - 1e-12

    def test_start_index_changes_selection(self):
        pts = generate_sensor_points(20, seed=8)
        assert not np.array_equal(fps(pts, 5, start=0), fps(pts, 5, start=3))

    @staticmethod
    def norm_loop_oracle(points, m, start):
        """Farthest point sampling with a fresh ``np.linalg.norm`` row per step."""
        selected = [start]
        min_dist = np.linalg.norm(points - points[start], axis=1)
        for _ in range(m - 1):
            nxt = int(np.argmax(min_dist))
            selected.append(nxt)
            min_dist = np.minimum(min_dist, np.linalg.norm(points - points[nxt], axis=1))
        return points[np.array(selected)]

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 7),
        n=st.integers(1, 60),
        grid=st.booleans(),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_norm_loop(self, d, n, grid, scale, data, seed):
        # Integer points tie at the running maximum in most steps.
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 4, size=(n, d)).astype(float) if grid else scale * rng.standard_normal((n, d))
        m = data.draw(st.integers(1, n))
        start = data.draw(st.integers(0, n - 1))
        got = fps(points, m, start=start)
        assert got.tobytes() == self.norm_loop_oracle(points, m, start).tobytes()

    @staticmethod
    def dense_loop_oracle(points, m, start):
        """Farthest point sampling with a full pass of the distance kernel over every point per step."""
        selected = [start]
        min_dist = _pairwise_distances(points[start : start + 1], points)[0]
        for _ in range(m - 1):
            nxt = int(np.argmax(min_dist))
            selected.append(nxt)
            np.minimum(min_dist, _pairwise_distances(points[nxt : nxt + 1], points)[0], out=min_dist)
        return points[np.array(selected)]

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 7),
        n=st.integers(1, 40),
        layout=st.sampled_from(["normal", "grid", "tied_x", "duplicates"]),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slab_matches_dense_loop_from_every_start(self, d, n, layout, scale, data, seed):
        rng = np.random.default_rng(seed)
        points = scale * rng.standard_normal((n, d))
        if layout == "grid":  # ties at the running maximum in most steps
            points = rng.integers(0, 4, size=(n, d)).astype(float)
        elif layout == "tied_x":  # a few x values, x still the widest coordinate
            points[:, 0] = 10.0 * scale * rng.integers(0, 3, n)
        elif layout == "duplicates":
            points = points[rng.integers(0, max(1, n // 3), n)]
        m = data.draw(st.integers(1, n))
        for start in range(n):
            assert fps(points, m, start=start).tobytes() == self.dense_loop_oracle(points, m, start).tobytes()

    def test_slab_computes_few_distances(self, monkeypatch):
        entries = []
        kernel = graphred.construct._distances  # fps imports it when it runs
        monkeypatch.setattr(graphred.construct, "_distances", lambda a, b: entries.append(len(b)) or kernel(a, b))
        points = load_point_cloud(TORUS)
        got = fps(points, 256)
        assert got.tobytes() == self.dense_loop_oracle(points, 256, 0).tobytes()
        # The first pick's pass covers every point; later picks a slab each.
        assert entries[0] == len(points) and sum(entries) < 0.25 * 256 * len(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = generate_sensor_points(10, seed=9)
        pts[4, 1] = bad
        with pytest.raises(InvalidGraphError, match="points must be finite"):
            fps(pts, 5)

    def test_points_without_coordinates_rejected(self):
        with pytest.raises(InvalidGraphError, match="2-d array with coordinates"):
            fps(np.zeros((5, 0)), 2)

    def test_m_validated(self):
        pts = generate_sensor_points(5, seed=9)
        with pytest.raises(ValueError):
            fps(pts, 6)
        with pytest.raises(ValueError):
            fps(pts, 0)


class TestPointCloudIO:
    def test_csv_round_trip_bitwise(self, tmp_path):
        pts = generate_sensor_points(12, seed=10)
        path = tmp_path / "cloud.csv"
        save_point_cloud(pts, path)
        assert np.array_equal(load_point_cloud(path), pts)

    def test_csv_parse(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("0,0,0\n1,0,0\n")
        pts = load_point_cloud(path)
        assert pts.shape == (2, 3)

    def test_off_vertices_faces_skipped(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        pts = load_point_cloud(path)
        assert pts.shape == (4, 3)
        assert np.array_equal(pts[2], [1.0, 1.0, 0.0])

    def test_bundled_torus_loads(self):
        pts = load_point_cloud(TORUS)
        assert pts.shape == (512, 3)

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1,oops\n")
        with pytest.raises(ParseError) as exc:
            load_point_cloud(path)
        assert exc.value.line == 2

    def test_parse_error_message_names_the_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1,oops\n")
        with pytest.raises(ParseError) as exc:
            load_point_cloud(path)
        assert str(exc.value) == f"{path}:2: bad number: could not convert string to float: 'oops'"
        assert str(ParseError("no points found", path="a.csv", line=0)) == "a.csv: no points found"
        assert str(ParseError("bad", path=None, line=None)) == "bad"

    def test_malformed_off_reports_line(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n2 0 0\n0 0 0\n")
        with pytest.raises(ParseError):
            load_point_cloud(path)

    def test_format_inference_and_override(self, tmp_path):
        path = tmp_path / "cloud.dat"
        path.write_text("0,0\n1,1\n")
        # non-.off extensions default to csv
        assert load_point_cloud(path).shape == (2, 2)
        assert load_point_cloud(path, format="csv").shape == (2, 2)
        with pytest.raises(ValueError):
            load_point_cloud(path, format="ply")


def line_loop_csv_points(path):
    """The line-by-line CSV reader that the one-pass parse must agree with."""
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", path=str(path), line=line_no) from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"expected {width} columns, got {len(row)}", path=str(path), line=line_no)
            rows.append(row)
    if not rows:
        raise ParseError("no points found", path=str(path), line=0)
    return np.array(rows)


# Fields as they appear in hand-written files, and the whitespace str.strip removes.
CSV_FIELDS = ["0.5", "-1", "1e-3", "+2.5", ".25", "5.", "1_0", "-0.0", "5e-324", "1e308", "inf", "nan", "3"]
SPACES = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "  \t"]
CSV_FAULTS = ["wide", "narrow", "word", "empty_field", "trailing_comma"]


class TestPointCloudParse:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(1, 4),
        n_lines=st.integers(0, 25),
        fault=st.sampled_from([None, None, *CSV_FAULTS]),
        final_newline=st.booleans(),
        data=st.data(),
    )
    def test_one_pass_parse_matches_line_loop(self, tmp_path_factory, width, n_lines, fault, final_newline, data):
        pick = lambda options: data.draw(st.sampled_from(options))  # noqa: E731
        lines = []
        for _ in range(n_lines):
            kind = pick(["row", "row", "row", "comment", "blank"])
            if kind == "row":
                fields = [pick(SPACES) + pick(CSV_FIELDS) + pick(SPACES) for _ in range(width)]
                lines.append(",".join(fields))
            elif kind == "comment":
                lines.append(pick(SPACES) + "#" + pick(["", " 1,2,3", "#"]))
            else:
                lines.append(pick(SPACES))
        if fault:
            bad = {
                "wide": ",".join(["1"] * (width + 1)), "narrow": ",".join(["1"] * max(1, width - 1)),
                "word": "oops", "empty_field": ",".join(["1"] * (width - 1) + [" "]), "trailing_comma": "1,",
            }[fault]
            lines.insert(data.draw(st.integers(0, len(lines))), bad)
        path = tmp_path_factory.mktemp("csv") / "cloud.csv"
        path.write_text("\n".join(lines) + "\n" * final_newline)

        def outcome(read):
            try:
                return "points", read(path).tobytes(), read(path).shape
            except ParseError as exc:
                return "error", str(exc), exc.line

        assert outcome(read_csv) == outcome(line_loop_csv_points)


def stream_off_points(path):
    """The OFF reader that walks a generator of its lines, which the list-based reader must agree with."""
    with open(path, "r", encoding="ascii") as fh:
        lines = list(fh)

    def meaningful():
        for line_no, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield line_no, text

    stream = meaningful()
    try:
        line_no, header = next(stream)
    except StopIteration:
        raise ParseError("empty OFF file", path=str(path), line=0) from None
    if not header.startswith("OFF"):
        raise ParseError("missing OFF header", path=str(path), line=line_no)
    rest = header[3:].split()
    if not rest:
        try:
            line_no, counts_text = next(stream)
        except StopIteration:
            raise ParseError("missing OFF counts line", path=str(path), line=line_no) from None
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
    for _ in range(n_vertices):
        try:
            line_no, text = next(stream)
        except StopIteration:
            raise ParseError(
                f"expected {n_vertices} vertices, file ended early", path=str(path), line=len(lines)
            ) from None
        parts = text.split()
        if len(parts) < 3:
            raise ParseError("vertex line needs 3 coordinates", path=str(path), line=line_no)
        try:
            points.append([float(v) for v in parts[:3]])
        except ValueError as exc:
            raise ParseError(f"bad coordinate: {exc}", path=str(path), line=line_no) from exc
    return np.array(points)


def off_outcome(read, path):
    try:
        return "points", read(path).tobytes(), read(path).shape
    except ParseError as exc:
        return "error", str(exc), exc.line


OFF_HEADERS = ["OFF", "OFF", "OFF", "OFF {n} 1 0", "OFF{n} 0 0", " OFF # mesh", "COFF", "OFF {n} 1", "3 1 0"]
OFF_COUNTS = ["{n} 1 0", "{n} 1 0", "{n} 0 0 # counts", "{n} 1", "x 1 0", "0 0 0", "-2 0 0", "{n} 1 0 9"]
OFF_VERTICES = ["0 0 0", "1.5 -2 3e-3", "1 2 3 4", "\t1 2 3 # c", "nan 1 inf", "1_0 2 3", "1 2", "1 x 3"]
OFF_FILLERS = ["", "   ", "# comment", "  # 1 2 3", "\x0c"]
# Files where the order of the checks decides the error.
OFF_CASES = [
    "", "# only a comment\n", "OFF\n", "OFF\n\n# c\n", "OFF\n3 1 0\n0 0 0\n1 x 3\n",
    "OFF\n3 1 0\n0 0 0\n1 2\n", "OFF 2 0 0\n0 0 0\n", "OFF\n2 0 0\n0 0 0 # a\n1 1 1\n3 0 1 2\n",
]


class TestOffParse:
    @pytest.mark.parametrize("text", OFF_CASES)
    def test_list_reader_matches_stream_reader_on_cases(self, tmp_path, text):
        path = tmp_path / "mesh.off"
        path.write_text(text)
        assert off_outcome(_load_off_points, path) == off_outcome(stream_off_points, path)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 5), extra=st.sampled_from([-2, -1, 0, 0, 0, 1]), final_newline=st.booleans(),
           data=st.data())
    def test_list_reader_matches_stream_reader(self, tmp_path_factory, n, extra, final_newline, data):
        pick = lambda options: data.draw(st.sampled_from(options))  # noqa: E731
        header = pick(OFF_HEADERS).format(n=n)
        body = [] if "{n}" in header or header == "3 1 0" else [pick(OFF_COUNTS).format(n=n)]
        body += [pick(OFF_VERTICES) for _ in range(n + extra)]
        body += ["3 0 1 2"] * data.draw(st.sampled_from([0, 0, 1, 2]))  # faces
        lines = [header] * data.draw(st.sampled_from([0, 1, 1, 1])) + body
        for _ in range(data.draw(st.integers(0, 3))):
            lines.insert(data.draw(st.integers(0, len(lines))), pick(OFF_FILLERS))
        path = tmp_path_factory.mktemp("off") / "mesh.off"
        path.write_text("\n".join(lines) + "\n" * final_newline)
        assert off_outcome(_load_off_points, path) == off_outcome(stream_off_points, path)


class TestSignalText:
    VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1 / 3,
              -7.0, 123456789.0, 1e-7, np.inf, -np.inf, np.nan]

    def draw_signal(self, data, shape):
        """Special values or standard normals in ``shape``."""
        picks = data.draw(st.lists(st.sampled_from(self.VALUES), min_size=int(np.prod(shape)),
                                   max_size=int(np.prod(shape))))
        randoms = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
        return np.where(data.draw(st.booleans()), np.reshape(picks, shape), randoms)

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(0, 12), columns=st.sampled_from([None, 1, 2, 3, 5]), data=st.data())
    def test_matches_savetxt(self, rows, columns, data):
        signal = self.draw_signal(data, (rows,) if columns is None else (rows, columns))
        buf = io.BytesIO()
        np.savetxt(buf, signal, fmt="%.17g", delimiter=",")
        assert table_text(signal).encode("ascii") == buf.getvalue()
        assert table_text(np.asfortranarray(signal)) == table_text(signal)

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 12), columns=st.sampled_from([None, 1, 2, 3, 5]), data=st.data())
    def test_reader_matches_loadtxt(self, tmp_path_factory, rows, columns, data):
        signal = self.draw_signal(data, (rows,) if columns is None else (rows, columns))
        path = tmp_path_factory.mktemp("signal") / "clean.csv"
        np.savetxt(path, signal, fmt="%.17g", delimiter=",")
        want = np.loadtxt(path, delimiter=",", ndmin=1)
        got = load_signal(path)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())

    def test_reader_peak_memory(self, tmp_path):
        # One flat split of the data lines, numbered only if one is bad: a (2000, 3) signal peaked at
        # 1.26 MB when every line was numbered and split into a list of its own.
        path = tmp_path / "clean.csv"
        np.savetxt(path, np.random.default_rng(0).standard_normal((2000, 3)), fmt="%.17g", delimiter=",")
        load_signal(path)
        tracemalloc.start()
        try:
            load_signal(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1e6

    def test_empty_signal_file_names_a_signal(self, tmp_path):
        path = tmp_path / "clean.csv"
        path.write_text("# no rows\n\n")
        with pytest.raises(ParseError) as exc:
            load_signal(path)
        assert str(exc.value) == f"{path}: signal file holds no values"


FLOATS = st.one_of(st.sampled_from(TestSignalText.VALUES), st.floats(allow_nan=True, allow_infinity=True))


class TestHeaderedWriters:
    """The loss-history and spectrum writers against the per-row f-strings they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(history=st.lists(FLOATS, max_size=30))
    def test_loss_history_matches_per_row_format(self, tmp_path_factory, history):
        path = tmp_path_factory.mktemp("loss") / "loss_history.csv"
        save_loss_history(history, path)
        expected = "epoch,loss\n" + "".join(f"{e},{v:.17g}\n" for e, v in enumerate(history))
        assert path.read_bytes() == expected.encode("ascii")

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=30))
    def test_spectrum_csv_matches_per_row_format(self, tmp_path_factory, rows):
        lam, a, b = (np.array(col, dtype=float) for col in zip(*rows)) if rows else (np.zeros(0),) * 3
        comparison = ResponseComparison(eigenvalues=lam, h_lr=a, h_red=b, alpha_red=1.0, alpha_lr=1.0)
        path = tmp_path_factory.mktemp("spectrum") / "spectrum.csv"
        write_response_csv(path, comparison)
        expected = "lambda,h_lr,h_red\n" + "".join(f"{x:.17g},{y:.17g},{z:.17g}\n" for x, y, z in comparison.rows())
        assert path.read_bytes() == expected.encode("ascii")


class TestSyntheticDataset:
    def test_counts_and_keys(self):
        dset = generate_synthetic_dataset(small_spec())
        assert len(dset.train) == 3 and len(dset.test) == 2
        assert dset.sigmas == [0.5, 1.0]
        for rec in dset.train + dset.test:
            assert sorted(rec.observed) == [0.5, 1.0]
            assert rec.clean.shape == (40,)

    def test_signal_shared_noise_differs(self):
        dset = generate_synthetic_dataset(small_spec())
        a, b = dset.train[0], dset.train[1]
        assert np.array_equal(a.clean, b.clean)
        assert not np.array_equal(a.observed[0.5], b.observed[0.5])
        assert not np.array_equal(a.observed[0.5], a.observed[1.0])

    def test_train_and_test_noise_streams_disjoint(self):
        dset = generate_synthetic_dataset(small_spec())
        assert not np.array_equal(dset.train[0].observed[0.5], dset.test[0].observed[0.5])

    def test_deterministic(self):
        a = generate_synthetic_dataset(small_spec())
        b = generate_synthetic_dataset(small_spec())
        assert np.array_equal(a.train[1].observed[1.0], b.train[1].observed[1.0])

    def test_default_spec_matches_protocol(self):
        spec = SyntheticSpec()
        assert spec.n_nodes == 100 and spec.k == 5
        assert spec.n_band == 3 and spec.offset == 2.0
        assert spec.sigmas == (10.0, 15.0, 20.0, 25.0, 30.0)
        assert spec.n_train == 10 and spec.n_test == 5

    def test_round_trip(self, tmp_path):
        dset = generate_synthetic_dataset(small_spec())
        save_dataset(dset, tmp_path / "bundle")
        back = load_dataset(tmp_path / "bundle")
        for a, b in zip(dset.train + dset.test, back.train + back.test):
            assert np.array_equal(a.clean, b.clean)
            assert np.array_equal(a.graph.adjacency, b.graph.adjacency)
            for s in a.observed:
                assert np.array_equal(a.observed[s], b.observed[s])

    def test_identical_edge_lists_parsed_once(self, tmp_path, monkeypatch):
        import graphred.graphs

        out = tmp_path / "bundle"
        save_dataset(generate_synthetic_dataset(small_spec()), out)
        # One record's file gets different bytes for the same graph.
        edges = out / "test" / "sample_000" / "graph.edges"
        edges.write_text("# comment\n" + edges.read_text())
        calls = []
        parse = graphred.graphs.load_edge_list
        monkeypatch.setattr(
            graphred.graphs, "load_edge_list", lambda *a, **kw: calls.append(a) or parse(*a, **kw)
        )
        back = load_dataset(out)
        assert len(calls) == 2
        records = back.train + back.test
        others = [r for r in records if r is not back.test[0]]
        assert all(r.graph is others[0].graph for r in others)
        assert back.test[0].graph is not others[0].graph
        assert np.array_equal(back.test[0].graph.adjacency, others[0].graph.adjacency)

    @pytest.mark.parametrize("kind", ["synthetic", "pointcloud"])
    def test_bytes_match_per_record_formatting(self, tmp_path, kind):
        if kind == "synthetic":
            dset = generate_synthetic_dataset(small_spec())
        else:
            points = load_point_cloud(TORUS)
            dset = generate_pointcloud_dataset(points, sigmas=[0.1, 0.2], m=150, k=5, n_train=2, n_test=2, seed=1)
        out = tmp_path / "bundle"
        save_dataset(dset, out)
        for record in dset.train + dset.test:
            sample = out / record.split / f"sample_{record.index:03d}"
            save_edge_list(record.graph, tmp_path / "graph.edges")
            assert (sample / "graph.edges").read_bytes() == (tmp_path / "graph.edges").read_bytes()
            signals = {"clean.csv": record.clean}
            signals.update({f"observed_sigma{s:g}.csv": y for s, y in record.observed.items()})
            for name, signal in signals.items():
                np.savetxt(tmp_path / name, signal, fmt="%.17g", delimiter=",")
                assert (sample / name).read_bytes() == (tmp_path / name).read_bytes(), name
            assert sorted(os.listdir(sample)) == sorted(["graph.edges", *signals])

    def test_bundle_layout(self, tmp_path):
        out = tmp_path / "bundle"
        save_dataset(generate_synthetic_dataset(small_spec()), out)
        sample = out / "train" / "sample_000"
        assert (out / "manifest.json").exists()
        assert (sample / "graph.edges").exists()
        assert (sample / "clean.csv").exists()
        assert (sample / "observed_sigma0.5.csv").exists()

    def test_schema_mismatch_rejected(self, tmp_path):
        out = tmp_path / "bundle"
        save_dataset(generate_synthetic_dataset(small_spec()), out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["schema"] = "other-v9"
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError):
            load_dataset(out)

    def test_corrupt_manifest_is_parse_error(self, tmp_path):
        out = tmp_path / "bundle"
        save_dataset(generate_synthetic_dataset(small_spec()), out)
        (out / "manifest.json").write_text("{not json")
        with pytest.raises(ParseError):
            load_dataset(out)


class TestPointcloudDataset:
    def test_generation_shapes(self):
        points = load_point_cloud(TORUS)
        dset = generate_pointcloud_dataset(points, sigmas=[0.1], m=60, k=5, n_train=2, n_test=1, seed=0)
        assert len(dset.train) == 2 and len(dset.test) == 1
        rec = dset.train[0]
        assert rec.clean.shape == (60, 3)
        assert rec.observed[0.1].shape == (60, 3)
        assert rec.graph.n_nodes == 60

    def test_clean_is_fps_subset(self):
        points = load_point_cloud(TORUS)
        dset = generate_pointcloud_dataset(points, sigmas=[0.1], m=50, k=5, n_train=1, n_test=1, seed=0)
        sub = fps(points, 50)
        assert np.array_equal(dset.train[0].clean, sub)

    def test_round_trip(self, tmp_path):
        points = load_point_cloud(TORUS)
        dset = generate_pointcloud_dataset(points, sigmas=[0.1, 0.2], m=40, k=4, n_train=1, n_test=1, seed=3)
        save_dataset(dset, tmp_path / "pc")
        back = load_dataset(tmp_path / "pc")
        a, b = dset.train[0], back.train[0]
        assert np.array_equal(a.clean, b.clean)
        assert np.array_equal(a.observed[0.2], b.observed[0.2])
        assert back.manifest["kind"] == "pointcloud"

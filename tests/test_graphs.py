import inspect
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracemalloc

from graphred import (
    Graph,
    GraphTooLargeError,
    InvalidGraphError,
    NumericalError,
    build_laplacian,
    eigendecompose,
    gft,
    igft,
    load_edge_list,
    quadratic_form,
    save_edge_list,
)
import graphred.graphs
from graphred.datasets import generate_sensor_points
from graphred.graphs import edge_list_text
from graphred.construct import knn_graph, normalize_weights
from oracles import from_edges_by_unique


def two_node_graph():
    return Graph.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))


def path_graph():
    # 3-node path with weights (1, 0.5)
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    return Graph.from_dense(w)


def random_graph(seed, n=40, k=4):
    pts = generate_sensor_points(n, seed=seed)
    return normalize_weights(knn_graph(pts, k))


def random_weights(n, density, n_isolated, seed):
    """Dense symmetric weights over n nodes, spread over 12 decades, some nodes isolated."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(size=(n, n)) < density, k=1) * 10.0 ** rng.uniform(-6, 6, size=(n, n))
    w = upper + upper.T
    isolated = rng.choice(n, size=min(n_isolated, n), replace=False)
    w[isolated, :] = 0.0
    w[:, isolated] = 0.0
    return w


class TestGraphType:
    def test_basic_properties(self):
        g = path_graph()
        assert g.n_nodes == 3
        assert g.n_edges == 2

    def test_edges_listed_once_with_weights(self):
        g = path_graph()
        rows = g.edges()
        assert [(i, j) for i, j, _ in rows] == [(0, 1), (1, 2)]
        assert [w for _, _, w in rows] == [1.0, 0.5]

    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(InvalidGraphError):
            Graph.from_dense(w)

    def test_rejects_negative_weight(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidGraphError):
            Graph.from_dense(w)

    def test_rejects_nonzero_diagonal(self):
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidGraphError):
            Graph.from_dense(w)

    def test_rejects_single_node(self):
        with pytest.raises(InvalidGraphError):
            Graph.from_dense(np.zeros((1, 1)))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidGraphError):
            Graph.from_dense(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        w = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(InvalidGraphError):
            Graph.from_dense(w)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 9),
        edges=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.sampled_from([0.0, 0.5, 1.0, 2.5, -1.0, np.nan])),
            max_size=40,
        ),
    )
    def test_from_edges_matches_unique_oracle(self, n, edges):
        """Repeated pairs in both orders, zero weights, self loops and bad weights: the same CSR bytes or error."""
        i, j, w = (np.array(col, dtype=dtype) for col, dtype in zip(zip(*edges) if edges else ([], [], []),
                                                                   (np.intp, np.intp, float)))
        i, j = i % n, j % n

        def build(fn):
            try:
                g = fn(i, j, w, n)
            except InvalidGraphError as exc:
                return str(exc)
            return g.indptr.tobytes(), g.indices.tobytes(), g.weights.tobytes()

        assert build(Graph.from_edges) == build(from_edges_by_unique)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 9),
        edges=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
                       max_size=40),
        scale=st.sampled_from([1e-300, 0.3, 7.0]),
    )
    def test_assembled_graphs_equal_fully_validated_ones(self, n, edges, scale):
        """``from_edges`` and ``normalize_weights`` skip only the symmetry proof: same arrays as ``Graph(...)``."""
        i, j, w = (np.array(col, dtype=dtype) for col, dtype in zip(zip(*edges) if edges else ([], [], []),
                                                                   (np.intp, np.intp, float)))
        i, j = i % n, j % n
        keep = i != j
        i, j, w = i[keep], j[keep], w[keep] * scale
        arrays = lambda g: (g.indptr, g.indices, g.weights, g.n_nodes)
        g = Graph.from_edges(i, j, w, n)
        full = Graph(*graphred.graphs._union_csr(i, j, w, n), n)
        assert all(map(np.array_equal, arrays(g), arrays(full)))
        if g.n_edges:
            normalized = normalize_weights(g)
            assert all(map(np.array_equal, arrays(normalized), arrays(Graph(*arrays(normalized)))))

    @pytest.mark.parametrize("i, j, w, problem", [
        ([0, 1], [1, 2], [1.0, np.nan], "weights must be finite"),
        ([0, 1], [1, 2], [1.0, -0.5], "weights must be nonnegative"),
        ([0, 1], [1, 1], [1.0, 2.0], "diagonal must be zero"),
    ])
    def test_assembled_graph_keeps_the_weight_and_diagonal_checks(self, i, j, w, problem):
        full = graphred.graphs._union_csr(i, j, w, 3)
        for build in (lambda: Graph.from_edges(i, j, w, 3), lambda: Graph(*full, 3)):
            with pytest.raises(InvalidGraphError, match=f"^adjacency {problem}$"):
                build()

    @pytest.mark.parametrize("i, j", [([0, -1], [1, 0]), ([0, 1], [1, 3])])
    def test_from_edges_rejects_indices_out_of_range(self, i, j):
        with pytest.raises(InvalidGraphError, match=r"edge indices must lie in \[0, 3\)"):
            Graph.from_edges(i, j, [1.0, 1.0], 3)


class TestSparseCore:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        density=st.floats(0.0, 1.0),
        n_isolated=st.integers(0, 5),
        block_entries=st.integers(1, 4000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_forms(self, tmp_path_factory, n, density, n_isolated, block_entries, seed):
        w = random_weights(n, density, n_isolated, seed)
        g = Graph.from_dense(w)
        # Degrees are summed in blocks of rows; the block size must not change a bit.
        with mock.patch.object(graphred.graphs, "DEGREE_BLOCK_ENTRIES", block_entries):
            lap = build_laplacian(g)
        assert g.adjacency.tobytes() == w.tobytes()
        assert lap.degree.tobytes() == w.sum(axis=1).tobytes()
        assert lap.matrix.tobytes() == (np.diag(w.sum(axis=1)) - w).tobytes()
        assert g.n_edges == np.count_nonzero(np.triu(w, k=1))
        path = tmp_path_factory.mktemp("edges") / "g.edges"
        save_edge_list(g, path)
        if g.n_edges:
            back = load_edge_list(path, n_nodes=n)
            assert back.edges() == g.edges()
            assert back.adjacency.tobytes() == w.tobytes()
        x = np.random.default_rng(seed).standard_normal((n, 3))
        scale = np.abs(lap.matrix) @ np.abs(x)
        assert np.all(np.abs(lap.matvec(x) - lap.matrix @ x) <= 1e-12 * scale)
        assert np.all(np.abs(lap.matvec(x[:, 0]) - lap.matrix @ x[:, 0]) <= 1e-12 * scale[:, 0])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        density=st.floats(0.0, 1.0),
        n_isolated=st.integers(0, 5),
        n_trailing=st.integers(0, 3),
        columns=st.integers(0, 5),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matvec_matches_dense(self, n, density, n_isolated, n_trailing, columns, fortran, seed):
        w = random_weights(n, density, n_isolated, seed)
        w[n - min(n_trailing, n) :] = w[:, n - min(n_trailing, n) :] = 0.0  # empty last rows
        lap = build_laplacian(Graph.from_dense(w))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, columns) if columns else n)
        x = np.asfortranarray(x) if fortran else x
        # Each row sums at most n terms, in another order than the dense product.
        bound = 2 * n * np.finfo(float).eps * (np.abs(lap.matrix) @ np.abs(x))
        got = lap.matvec(x)
        assert got.shape == x.shape
        assert np.all(np.abs(got - lap.matrix @ x) <= bound)
        assert np.all(got[np.sum(w, axis=1) == 0] == 0.0)  # an empty row takes no neighbour's entry

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
    def test_rejects_asymmetric_or_negative_csr(self, n, seed):
        g = Graph.from_dense(random_weights(n, 0.5, 0, seed))
        if not g.n_edges:
            return
        e = np.random.default_rng(seed).integers(len(g.weights))
        skewed = g.weights.copy()
        skewed[e] *= 1.0 + 2.0**-52
        with pytest.raises(InvalidGraphError, match="symmetric"):
            Graph(indptr=g.indptr, indices=g.indices, weights=skewed, n_nodes=n)
        with pytest.raises(InvalidGraphError, match="nonnegative"):
            Graph(indptr=g.indptr, indices=g.indices, weights=-g.weights, n_nodes=n)

    def test_rejects_malformed_rows(self):
        with pytest.raises(InvalidGraphError, match="ascending"):
            Graph(indptr=[0, 2, 3, 4], indices=[2, 1, 0, 0], weights=[1.0, 1.0, 1.0, 1.0], n_nodes=3)
        with pytest.raises(InvalidGraphError, match="malformed"):
            Graph(indptr=[0, 1, 2], indices=[1, 2], weights=[1.0, 1.0], n_nodes=2)

    def test_dense_views_are_read_only(self):
        lap = build_laplacian(path_graph())
        for view in (lap.graph.adjacency, lap.matrix):
            with pytest.raises(ValueError):
                view[0, 0] = 1.0


class TestBuildLaplacian:
    def test_two_node_single_edge(self):
        lap = build_laplacian(two_node_graph())
        assert np.array_equal(lap.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_three_node_path_hand_value(self):
        lap = build_laplacian(path_graph())
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 1.5, -0.5], [0.0, -0.5, 0.5]])
        assert np.allclose(lap.matrix, expected, atol=0)

    def test_annihilates_constants(self):
        for seed in range(5):
            lap = build_laplacian(random_graph(seed))
            ones = np.ones(lap.n_nodes)
            assert np.max(np.abs(lap.matrix @ ones)) <= 1e-12

    def test_degree_matches_row_sums(self):
        g = path_graph()
        lap = build_laplacian(g)
        assert np.allclose(lap.degree, g.adjacency.sum(axis=1))

    def test_symmetric_and_psd(self):
        for seed in range(5):
            lap = build_laplacian(random_graph(seed))
            assert np.array_equal(lap.matrix, lap.matrix.T)
            eigs = np.linalg.eigvalsh(lap.matrix)
            assert eigs.min() >= -1e-10


class TestEigendecompose:
    def test_two_node_spectrum(self):
        dec = eigendecompose(build_laplacian(two_node_graph()))
        assert np.allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)
        assert np.allclose(np.abs(dec.basis[:, 0]), 1 / np.sqrt(2), atol=1e-12)

    def test_disconnected_zero_multiplicity(self):
        # two 2-node components: eigenvalue 0 appears twice
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        dec = eigendecompose(build_laplacian(Graph.from_dense(w)))
        assert np.sum(np.abs(dec.eigenvalues) <= 1e-10) == 2

    def test_orthonormal_and_reconstructs(self):
        for seed in range(5):
            lap = build_laplacian(random_graph(seed))
            dec = eigendecompose(lap)
            n = lap.n_nodes
            assert np.linalg.norm(dec.basis.T @ dec.basis - np.eye(n)) <= 1e-8
            recon = (dec.basis * dec.eigenvalues) @ dec.basis.T
            rel = np.linalg.norm(recon - lap.matrix) / np.linalg.norm(lap.matrix)
            assert rel <= 1e-8

    def test_eigenvalues_ascending(self):
        dec = eigendecompose(build_laplacian(random_graph(1)))
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)

    def test_sign_normalization_deterministic(self):
        lap = build_laplacian(random_graph(2))
        a = eigendecompose(lap)
        b = eigendecompose(lap)
        assert np.array_equal(a.basis, b.basis)
        # largest-magnitude entry of each eigenvector is positive
        piv = np.argmax(np.abs(a.basis), axis=0)
        assert np.all(a.basis[piv, np.arange(lap.n_nodes)] > 0)

    def test_constant_sign_first_eigenvector_connected(self):
        dec = eigendecompose(build_laplacian(random_graph(3)))
        u1 = dec.basis[:, 0]
        assert np.all(u1 > 0) or np.all(u1 < 0)

    def test_reconstruction_guard_raises(self):
        lap = build_laplacian(random_graph(0))
        with pytest.raises(NumericalError):
            eigendecompose(lap, tol=1e-18)

    def test_corrupted_basis_raises_at_default_tol(self, monkeypatch):
        lap = build_laplacian(random_graph(0))
        eigh = np.linalg.eigh

        def corrupted(mat):
            eigenvalues, basis = eigh(mat)
            basis = basis.copy()
            basis[:, [3, 4]] = basis[:, [4, 3]]  # eigenvectors paired with the wrong eigenvalues
            return eigenvalues, basis

        assert eigendecompose(lap).n_nodes == lap.n_nodes
        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        with pytest.raises(NumericalError, match="residual"):
            eigendecompose(lap)


    def test_size_guard_raises_before_densifying(self):
        n = graphred.graphs.MAX_DENSE_NODES + 1
        i = np.arange(n)
        lap = build_laplacian(Graph.from_edges(i, (i + 1) % n, np.ones(n), n))
        tracemalloc.start()
        try:
            with pytest.raises(GraphTooLargeError, match=str(graphred.graphs.MAX_DENSE_NODES)):
                eigendecompose(lap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n  # not one dense row, let alone the N x N matrix


class TestGft:
    def test_eigenvector_maps_to_unit_coefficient(self):
        dec = eigendecompose(build_laplacian(random_graph(0)))
        xhat = gft(dec, dec.basis[:, 2])
        expected = np.zeros(dec.n_nodes)
        expected[2] = 1.0
        assert np.allclose(xhat, expected, atol=1e-10)

    def test_constant_signal_concentrates_at_dc(self):
        dec = eigendecompose(build_laplacian(random_graph(1)))
        n = dec.n_nodes
        c = 3.5
        xhat = gft(dec, c * np.ones(n))
        assert abs(abs(xhat[0]) - c * np.sqrt(n)) <= 1e-10
        assert np.max(np.abs(xhat[1:])) <= 1e-10

    def test_round_trip_and_parseval(self):
        dec = eigendecompose(build_laplacian(random_graph(2, n=100, k=5)))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(dec.n_nodes)
            back = igft(dec, gft(dec, x))
            assert np.max(np.abs(back - x)) <= 1e-10
            assert abs(np.linalg.norm(gft(dec, x)) - np.linalg.norm(x)) <= 1e-10

    def test_batched_columns(self):
        dec = eigendecompose(build_laplacian(random_graph(3)))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((dec.n_nodes, 3))
        xhat = gft(dec, x)
        assert xhat.shape == x.shape
        for j in range(3):
            assert np.allclose(xhat[:, j], gft(dec, x[:, j]), atol=1e-12)

    def test_length_mismatch_raises(self):
        dec = eigendecompose(build_laplacian(two_node_graph()))
        with pytest.raises(ValueError):
            gft(dec, np.ones(3))


class TestQuadraticForm:
    def test_constant_is_zero(self):
        lap = build_laplacian(random_graph(0))
        assert abs(quadratic_form(lap, np.ones(lap.n_nodes))) <= 1e-12

    def test_two_node_hand_value(self):
        lap = build_laplacian(two_node_graph())
        assert abs(quadratic_form(lap, np.array([1.0, 0.0])) - 1.0) <= 1e-12

    def test_path_hand_value(self):
        lap = build_laplacian(path_graph())
        # 1*(1-0)^2 + 0.5*(0-2)^2 = 3
        assert abs(quadratic_form(lap, np.array([1.0, 0.0, 2.0])) - 3.0) <= 1e-12

    def test_matches_edge_sum_on_random_signals(self):
        g = random_graph(4, n=60, k=5)
        lap = build_laplacian(g)
        edges = g.edges()
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal(g.n_nodes)
            via_edges = sum(w * (x[i] - x[j]) ** 2 for i, j, w in edges)
            q = quadratic_form(lap, x)
            assert q >= 0
            assert abs(q - via_edges) <= 1e-9 * max(1.0, abs(via_edges))

    def test_batched_matches_columns(self):
        lap = build_laplacian(random_graph(5))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((lap.n_nodes, 4))
        q = quadratic_form(lap, x)
        assert q.shape == (4,)
        for j in range(4):
            assert abs(q[j] - quadratic_form(lap, x[:, j])) <= 1e-10


def line_loop_load_edge_list(path, n_nodes=None):
    """The line-by-line edge-list reader that the one-pass parse must agree with."""
    entries = []
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise InvalidGraphError(f"{path}:{line_no}: expected 'i j w', got {line!r}")
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise InvalidGraphError(f"{path}:{line_no}: {exc}") from exc
            if i == j:
                raise InvalidGraphError(f"{path}:{line_no}: self loops are not allowed")
            if min(i, j) < 0 or (n_nodes is not None and max(i, j) >= n_nodes):
                raise InvalidGraphError(f"{path}:{line_no}: node index out of range in {line!r}")
            entries.append((i, j, w))
    if not entries:
        raise InvalidGraphError(f"{path}: no edges found")
    i, j, w = zip(*entries)
    return Graph.from_edges(i, j, w, max(i + j) + 1 if n_nodes is None else n_nodes)


# Fields as they appear in hand-written files, and the whitespace str.split splits at.
INDEX_FIELDS = ["0", "1", "2", "3", "+4", "05", "1_1", "7"]
WEIGHT_FIELDS = ["0.5", "1", "2e-3", "0", "+1.5", ".25", "1_0", "5e-324", "1e308", "0.30000000000000004"]
SEPARATORS = [" ", "\t", "  ", " \x0b", "\x0c", "\x1c "]
EDGE_FAULTS = {
    "two_fields": "1 2", "four_fields": "1 2 0.5 9", "bad_index": "1.0 2 0.5", "bad_weight": "1 2 half",
    "self_loop": "3 3 1.0", "out_of_range": "1 12 0.5", "negative": "-1 2 0.5", "trailing_comment": "1 2 0.5 # x",
    "huge_index": "1 99999999999999999999999 1.0",
}


def test_numeric_text_goes_through_the_codec():
    """No module calls ``np.loadtxt`` or ``np.savetxt``, and only ``graphs.table_text`` spells the ``%.17g`` field."""
    src = os.path.dirname(graphred.graphs.__file__)
    codec = inspect.getsource(graphred.graphs.table_text)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            for number, line in enumerate(text.replace(codec, "").split("\n"), start=1):
                if "np.loadtxt(" in line or "np.savetxt(" in line or ".17g" in line:
                    found.append(f"{name}:{number}: {line.strip()}")
    assert not found, "\n".join(found)


class TestEdgeListIO:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_text_matches_per_edge_format(self, n, seed, data):
        w = random_weights(n, 0.3, 0, seed)
        special = data.draw(st.sampled_from([5e-324, 2.5e-310, 1e308, 1.7976931348623157e308, 0.1, 1 / 3]))
        w[(w == w.max()) & (w > 0)] = special
        g = Graph.from_dense(w)
        assert edge_list_text(g) == "".join(f"{i} {j} {x:.17g}\n" for i, j, x in g.edges())

    @settings(max_examples=150, deadline=None)
    @given(
        n_lines=st.integers(0, 25),
        fault=st.sampled_from([None, None, *EDGE_FAULTS]),
        n_nodes=st.sampled_from([None, 12]),
        final_newline=st.booleans(),
        data=st.data(),
    )
    def test_one_pass_parse_matches_line_loop(self, tmp_path_factory, n_lines, fault, n_nodes, final_newline, data):
        pick = lambda options: data.draw(st.sampled_from(options))  # noqa: E731
        lines = []
        for _ in range(n_lines):
            kind = pick(["edge", "edge", "edge", "comment", "blank"])
            if kind == "edge":
                i, j = data.draw(st.lists(st.sampled_from(INDEX_FIELDS), min_size=2, max_size=2, unique_by=int))
                fields = [i, pick(SEPARATORS), j, pick(SEPARATORS), pick(WEIGHT_FIELDS)]
                lines.append(pick(["", " ", "\t"]) + "".join(fields) + pick(["", " ", "\x0c"]))
            elif kind == "comment":
                lines.append(pick(["", " ", "\x0b"]) + "#" + pick(["", " 1 2 0.5", " note"]))
            else:
                lines.append(pick(["", " ", "\t\x1f"]))
        if fault:
            lines.insert(data.draw(st.integers(0, len(lines))), EDGE_FAULTS[fault])
        path = tmp_path_factory.mktemp("edges") / "g.edges"
        path.write_text("\n".join(lines) + "\n" * final_newline)

        def outcome(read):
            try:
                g = read(path, n_nodes)
                return "graph", g.n_nodes, g.edges()
            except (InvalidGraphError, OverflowError) as exc:
                return type(exc).__name__, str(exc)

        assert outcome(load_edge_list) == outcome(line_loop_load_edge_list)

    def test_round_trip_exact(self, tmp_path):
        g = random_graph(6)
        path = tmp_path / "graph.edges"
        save_edge_list(g, path)
        back = load_edge_list(path, n_nodes=g.n_nodes)
        assert np.array_equal(back.adjacency, g.adjacency)

    def test_line_format(self, tmp_path):
        path = tmp_path / "g.edges"
        save_edge_list(two_node_graph(), path)
        assert path.read_text().strip() == "0 1 1"

    def test_infers_node_count(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 1.0\n1 2 0.5\n")
        g = load_edge_list(path)
        assert g.n_nodes == 3
        assert g.n_edges == 2

    @pytest.mark.parametrize("line", ["-1 2 0.25", "2 4 0.25", "7 0 1"])
    def test_index_outside_node_range_reports_line(self, tmp_path, line):
        path = tmp_path / "bad.edges"
        path.write_text(f"0 1 1.0\n{line}\n")
        with pytest.raises(InvalidGraphError, match=":2: node index out of range"):
            load_edge_list(path, n_nodes=4)

    def test_negative_index_rejected_without_node_count(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 1.0\n1 -2 0.5\n")
        with pytest.raises(InvalidGraphError, match=":2:"):
            load_edge_list(path)

    def test_last_line_for_a_pair_wins(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 1.0\n1 2 0.5\n1 0 0.25\n")
        assert load_edge_list(path).edges() == [(0, 1, 0.25), (1, 2, 0.5)]

    def test_zero_weight_drops_the_pair(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 1.0\n1 2 0.5\n1 0 0\n2 3 0\n")
        g = load_edge_list(path)
        assert g.n_nodes == 4 and g.edges() == [(1, 2, 0.5)]
        path.write_text("0 1 0\n1 0 2.0\n")
        assert load_edge_list(path).edges() == [(0, 1, 2.0)]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 1.0\n0 oops\n")
        with pytest.raises(InvalidGraphError, match=":2:"):
            load_edge_list(path)

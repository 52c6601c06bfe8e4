"""Weighted undirected graphs, Laplacians, and the graph Fourier transform.

Graphs are compressed sparse rows (CSR) in plain numpy arrays (importing
``scipy.sparse`` costs 20 MB and 0.24 s per process).  Only
:func:`eigendecompose` builds an N x N array; the dense ``Graph.adjacency``
and ``Laplacian.matrix`` views are for tests, demos and inspection.

Signals are plain numpy arrays with one value per node.  Functions accept
either a single signal of shape ``(N,)`` or a batch of independent signals
stacked as columns of an ``(N, S)`` array; the output matches the input
shape.  All container types are frozen dataclasses and every operation is a
pure function, so shared instances are safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GraphTooLargeError, InvalidGraphError, NumericalError

# Relative residual allowed of an eigendecomposition.
DECOMP_TOL = 1e-8
# Largest graph eigendecompose takes: its dense N x N Laplacian is then 512 MiB,
# and eigh holds a few such arrays at once.
MAX_DENSE_NODES = 8192
# Entries of the dense scratch rows in which build_laplacian sums degrees.
DEGREE_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph in compressed sparse rows: row i's neighbours are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, with positive ``weights`` at the
    same positions.  Exactly symmetric and finite, empty diagonal, ``n_nodes >= 2``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    n_nodes: int

    def __post_init__(self):
        n = int(self.n_nodes)
        indptr, indices = np.asarray(self.indptr, dtype=np.intp), np.asarray(self.indices, dtype=np.intp)
        w = np.asarray(self.weights, dtype=float)
        for name, value in (("indptr", indptr), ("indices", indices), ("weights", w), ("n_nodes", n)):
            object.__setattr__(self, name, value)
        if n < 2:
            raise InvalidGraphError("graph needs at least 2 nodes")
        if (indptr.shape != (n + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0) or w.shape != indices.shape
                or indices.shape != (indptr[-1],) or np.any((indices < 0) | (indices >= n))):
            raise InvalidGraphError(f"malformed CSR arrays for {n} nodes")
        rows = self._rows()
        flip = np.lexsort((rows, indices))  # the transpose's entries in row order
        for ok, problem in (
            (np.all(np.isfinite(w)), "weights must be finite"),
            (np.all(w >= 0), "weights must be nonnegative"),
            (not np.any(rows == indices), "diagonal must be zero"),
            (np.all(w != 0) and np.all(np.diff(rows * n + indices) > 0), "rows must be ascending, distinct, nonzero"),
            (all(map(np.array_equal, (indices[flip], rows[flip], w[flip]), (rows, indices, w))), "must be symmetric"),
        ):
            if not ok:
                raise InvalidGraphError(f"adjacency {problem}")

    @classmethod
    def from_dense(cls, w) -> Graph:
        """Graph of a dense adjacency matrix; zero entries are absent edges."""
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidGraphError(f"adjacency must be square, got shape {w.shape}")
        rows, cols = np.nonzero(w)
        return cls(np.searchsorted(rows, np.arange(len(w) + 1)), cols, w[rows, cols], len(w))

    @classmethod
    def from_edges(cls, i, j, w, n_nodes: int) -> Graph:
        """Graph with weight ``w[e]`` on the pair ``(i[e], j[e])``; a pair given
        again (in either order) takes its last weight, and zero weights are dropped."""
        i, j, w = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp), np.asarray(w, dtype=float)
        _, first = np.unique((np.minimum(i, j) * n_nodes + np.maximum(i, j))[::-1], return_index=True)
        last = len(w) - 1 - first
        last = last[w[last] != 0]
        rows, cols = np.concatenate([i[last], j[last]]), np.concatenate([j[last], i[last]])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_nodes))])
        return cls(indptr, cols[order], np.tile(w[last], 2)[order], n_nodes)

    def _rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only dense N x N weight matrix (tests, demos, inspection)."""
        w = np.zeros((self.n_nodes, self.n_nodes))
        w[self._rows(), self.indices] = self.weights
        w.flags.writeable = False
        return w

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    def edges(self) -> list:
        """Edge list as (i, j, weight) tuples with integer indices, i < j, in row order."""
        rows = self._rows()
        upper = self.indices > rows
        return list(zip(rows[upper].tolist(), self.indices[upper].tolist(), self.weights[upper].tolist()))


@dataclass(frozen=True, eq=False)
class Laplacian:
    """Combinatorial Laplacian ``L = diag(degree) - adjacency`` of a :class:`Graph`, kept sparse."""

    graph: Graph
    degree: np.ndarray  # diagonal entries of the degree matrix

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense ``L``; :func:`eigendecompose` is its one production caller."""
        mat = np.diag(self.degree) - self.graph.adjacency
        mat.flags.writeable = False
        return mat

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``L @ x`` from the sparse rows, for ``(N,)`` or ``(N, S)`` ``x``."""
        g, col = self.graph, (slice(None),) + (None,) * (x.ndim - 1)
        wx = np.zeros(x.shape)
        np.add.at(wx, g._rows(), g.weights[col] * x[g.indices])
        return self.degree[col] * x - wx


@dataclass(frozen=True)
class SpectralDecomp:
    """Orthonormal eigenbasis and ascending eigenvalues of a Laplacian."""

    basis: np.ndarray        # columns are eigenvectors
    eigenvalues: np.ndarray  # ascending

    @property
    def n_nodes(self) -> int:
        return self.basis.shape[0]


def build_laplacian(graph: Graph) -> Laplacian:
    """Return the combinatorial Laplacian of ``graph``.

    The result is symmetric with zero row sums and is positive semidefinite.
    Degrees keep the bits of the dense ``adjacency.sum(axis=1)`` (numpy sums
    a row pairwise by position): rows are scattered a block at a time into
    one reused ``(B, N)`` buffer and summed there, O(B N) memory but O(N^2)
    time, milliseconds at N = 2000 and a cost to revisit at 100k nodes.
    """
    n, rows, cols = graph.n_nodes, graph._rows(), graph.indices
    block = max(1, DEGREE_BLOCK_ENTRIES // n)
    buf, degree = np.zeros((min(block, n), n)), np.empty(n)
    for start in range(0, n, block):
        part = slice(graph.indptr[start], graph.indptr[min(start + block, n)])
        buf[rows[part] - start, cols[part]] = graph.weights[part]
        degree[start : start + block] = buf[: n - start].sum(axis=1)
        buf[rows[part] - start, cols[part]] = 0.0
    return Laplacian(graph=graph, degree=degree)


def eigendecompose(lap: Laplacian, tol: float = DECOMP_TOL) -> SpectralDecomp:
    """Full symmetric eigendecomposition of a Laplacian.

    Eigenvalues are returned ascending.  Each eigenvector is sign-normalized
    so its largest-magnitude entry is positive, which makes the basis
    deterministic across runs.  Raises :class:`NumericalError` if the solver
    fails or the reconstruction residual exceeds ``tol``, and
    :class:`GraphTooLargeError`, before allocating anything, above
    ``MAX_DENSE_NODES`` nodes.
    """
    if lap.n_nodes > MAX_DENSE_NODES:
        raise GraphTooLargeError(
            f"graph has {lap.n_nodes} nodes; eigendecomposition handles at most {MAX_DENSE_NODES}"
        )
    mat = lap.matrix  # production code densifies here and nowhere else
    try:
        eigenvalues, basis = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc

    # Deterministic signs: largest-magnitude entry of each column positive.
    pivots = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[pivots, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    basis = basis * signs

    norm = np.linalg.norm(mat)
    if norm > 0:
        residual = np.linalg.norm((basis * eigenvalues) @ basis.T - mat) / norm
        if residual > tol:
            raise NumericalError(
                f"eigendecomposition residual {residual:.3e} exceeds tolerance {tol:.3e}"
            )
    return SpectralDecomp(basis=basis, eigenvalues=eigenvalues)


def _check_signal(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"signal must have {n} rows, got shape {x.shape}")
    return x


def gft(decomp: SpectralDecomp, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: project a signal onto the eigenbasis."""
    x = _check_signal(x, decomp.n_nodes)
    return decomp.basis.T @ x


def igft(decomp: SpectralDecomp, spectrum: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform."""
    spectrum = _check_signal(spectrum, decomp.n_nodes)
    return decomp.basis @ spectrum


def quadratic_form(lap: Laplacian, x: np.ndarray):
    """Smoothness measure ``x^T L x`` (per column for batched input).

    Equals the weighted sum of squared signal differences across edges and
    is therefore nonnegative.
    """
    x = _check_signal(x, lap.n_nodes)
    return np.sum(x * lap.matvec(x), axis=0)


def edge_list_text(graph: Graph) -> str:
    """The graph as text lines ``i j w`` (0-based, each edge once), as :func:`save_edge_list` writes it."""
    return "".join(f"{i} {j} {w:.17g}\n" for i, j, w in graph.edges())


def save_edge_list(graph: Graph, path) -> None:
    """Write the graph as text lines ``i j w`` (0-based, each edge once)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(edge_list_text(graph))


def load_edge_list(path, n_nodes: int | None = None) -> Graph:
    """Read a graph from the ``i j w`` edge-list format.

    ``n_nodes`` defaults to the largest index seen plus one; pass it
    explicitly if trailing nodes are isolated.  A pair's last line sets its
    weight, and a zero weight leaves it out.  Malformed lines, self loops and
    indices outside ``[0, n_nodes)`` raise :class:`InvalidGraphError` at ``path:line``.
    """
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

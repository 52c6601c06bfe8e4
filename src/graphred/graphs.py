"""Weighted undirected graphs, Laplacians, and the graph Fourier transform.

Signals are plain numpy arrays with one value per node.  Functions accept
either a single signal of shape ``(N,)`` or a batch of independent signals
stacked as columns of an ``(N, S)`` array; the output matches the input
shape.  All container types are frozen dataclasses and every operation is a
pure function, so shared instances are safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidGraphError, NumericalError

# Default tolerances: decomposition residuals vs. algebraic identities.
DECOMP_TOL = 1e-8
ALGEBRA_TOL = 1e-10


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph given by its adjacency matrix.

    The adjacency matrix must be square (N >= 2), exactly symmetric,
    nonnegative, with a zero diagonal.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.adjacency, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidGraphError(f"adjacency must be square, got shape {w.shape}")
        if w.shape[0] < 2:
            raise InvalidGraphError("graph needs at least 2 nodes")
        if not np.all(np.isfinite(w)):
            raise InvalidGraphError("adjacency weights must be finite")
        if np.any(w < 0):
            raise InvalidGraphError("adjacency weights must be nonnegative")
        if not np.array_equal(w, w.T):
            raise InvalidGraphError("adjacency must be symmetric")
        if np.any(np.diag(w) != 0):
            raise InvalidGraphError("adjacency diagonal must be zero")
        object.__setattr__(self, "adjacency", w)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.adjacency, k=1)))

    def edges(self) -> list:
        """Edge list as (i, j, weight) tuples with integer indices, i < j."""
        i, j = np.nonzero(np.triu(self.adjacency, k=1))
        return [(int(a), int(b), float(self.adjacency[a, b])) for a, b in zip(i, j)]


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial Laplacian ``L = degree - adjacency`` of a :class:`Graph`."""

    matrix: np.ndarray
    degree: np.ndarray  # diagonal entries of the degree matrix

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


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
    """
    w = graph.adjacency
    degree = w.sum(axis=1)
    matrix = np.diag(degree) - w
    return Laplacian(matrix=matrix, degree=degree)


def eigendecompose(lap: Laplacian, tol: float = DECOMP_TOL) -> SpectralDecomp:
    """Full symmetric eigendecomposition of a Laplacian.

    Eigenvalues are returned ascending.  Each eigenvector is sign-normalized
    so its largest-magnitude entry is positive, which makes the basis
    deterministic across runs.  Raises :class:`NumericalError` if the solver
    fails or the reconstruction residual exceeds ``tol``.
    """
    mat = lap.matrix
    if not np.allclose(mat, mat.T, atol=0, rtol=0):
        raise InvalidGraphError("Laplacian matrix must be symmetric")
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
    return np.sum(x * (lap.matrix @ x), axis=0)


def save_edge_list(graph: Graph, path) -> None:
    """Write the graph as text lines ``i j w`` (0-based, each edge once)."""
    with open(path, "w", encoding="ascii") as fh:
        for i, j, w in graph.edges():
            fh.write(f"{int(i)} {int(j)} {w:.17g}\n")


def load_edge_list(path, n_nodes: int | None = None) -> Graph:
    """Read a graph from the ``i j w`` edge-list format.

    ``n_nodes`` defaults to the largest index seen plus one; pass it
    explicitly if trailing nodes are isolated.
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
            entries.append((i, j, w))
    if not entries:
        raise InvalidGraphError(f"{path}: no edges found")
    max_index = max(max(i, j) for i, j, _ in entries)
    n = max_index + 1 if n_nodes is None else n_nodes
    adjacency = np.zeros((n, n))
    for i, j, w in entries:
        adjacency[i, j] = w
        adjacency[j, i] = w
    return Graph(adjacency=adjacency)


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

Every numeric text file is formatted by :func:`table_text` and parsed by
:func:`read_table`; JSON artifacts are written by :func:`write_json`.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import InitVar, dataclass

import numpy as np

from .exceptions import ConvergenceError, GraphTooLargeError, InvalidGraphError, NumericalError, ParseError

# Relative residual allowed of an eigendecomposition.
DECOMP_TOL = 1e-8
# Largest graph eigendecompose takes: its dense N x N Laplacian is then 512 MiB,
# and eigh holds a few such arrays at once.
MAX_DENSE_NODES = 8192
# Entries of the dense scratch rows in which build_laplacian sums degrees.
DEGREE_BLOCK_ENTRIES = 1 << 17
# Lines load_edge_list parses at once.
EDGE_BLOCK_LINES = 1024
# A Lanczos residual this small relative to the operator's norm is rounding
# noise: the column's Krylov space is exhausted and its basis stops there.
BREAKDOWN_TOL = 1e-13
# krylov_solve's stopping rule: Lanczos steps between two looks at the output,
# the relative change that ends it, that change's rounding floor per unit of
# the caller's condition bound (measured below 3e-16), and the step cap.
KRYLOV_STRIDE = 8
KRYLOV_TOL = 1e-12
KRYLOV_ROUNDING = 1e-14
MAX_KRYLOV_STEPS = 512


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
    # Private: True from the package's own assembly of symmetric arrays, which skips only the symmetry proof.
    _symmetric: InitVar[bool] = False

    def __post_init__(self, _symmetric):
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
        flip = None if _symmetric else np.lexsort((rows, indices))  # the transpose's entries in row order
        for ok, problem in (
            (np.all(np.isfinite(w)), "weights must be finite"),
            (np.all(w >= 0), "weights must be nonnegative"),
            (not np.any(rows == indices), "diagonal must be zero"),
            (np.all(w != 0) and np.all(np.diff(rows * n + indices) > 0), "rows must be ascending, distinct, nonzero"),
            (flip is None or all(map(np.array_equal, (indices[flip], rows[flip], w[flip]), (rows, indices, w))),
             "must be symmetric"),
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
        return cls(*_union_csr(i, j, w, n_nodes), n_nodes, _symmetric=True)

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

    def _edge_columns(self) -> tuple:
        rows = self._rows()
        upper = self.indices > rows
        return rows[upper], self.indices[upper], self.weights[upper]

    def edges(self) -> list:
        """Edge list as (i, j, weight) tuples with integer indices, i < j, in row order."""
        return list(zip(*(col.tolist() for col in self._edge_columns())))


def _union_csr(i, j, w, n):
    """CSR arrays of :meth:`Graph.from_edges`, by one stable sort of both directions' (row, column) keys.

    The two keys of each pair sit side by side, so the sort leaves a key's
    entries in input order, and the last entry of each run holds its pair's
    last weight.  Only the CSR arrays outlive the call.
    """
    i, j, w = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp), np.asarray(w, dtype=float)
    if len(w) and not (min(i.min(), j.min()) >= 0 and max(i.max(), j.max()) < n):
        raise InvalidGraphError(f"edge indices must lie in [0, {n})")
    key = np.empty(2 * len(w), dtype=np.intp)
    key[0::2], key[1::2] = i * n + j, j * n + i
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=last[:-1])
    weights = w[order[last] // 2]
    kept = weights != 0
    rows, cols = np.divmod(key[last][kept], n)
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]), cols, weights[kept]


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

    @property
    def norm_bound(self) -> float:
        """Gershgorin bound ``2 max(degree)`` on the largest eigenvalue."""
        return 2.0 * float(np.max(self.degree))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``L @ x`` from the sparse rows, for ``(N,)`` or ``(N, S)`` ``x``, one column at a time."""
        if x.ndim == 2:
            # empty_like keeps x's memory order: a transposed block stays contiguous per column.
            out = np.empty_like(x, dtype=float)
            for j in range(x.shape[1]):
                out[:, j] = self.matvec(x[:, j])
            return out
        g = self.graph
        filled = g.indptr[:-1] < g.indptr[1:]  # reduceat would give an empty row the next row's first entry
        wx = np.zeros(len(x))
        if len(g.indices):
            wx[filled] = np.add.reduceat(g.weights * x[g.indices], g.indptr[:-1][filled])
        return self.degree * x - wx


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


def lanczos(matvec, b: np.ndarray, floor, reorthogonalize: bool = False):
    """Lanczos on a symmetric operator from each row of ``b`` (``(C, N)``, one signal per row).

    ``matvec`` applies the operator to a ``(C, N)`` block, row by row.  The
    generator yields once per step; after step k it yields ``(basis, diag,
    off)``: the ``(C, k, N)`` basis vectors and the tridiagonal's diagonal
    and off-diagonal, ``(C, k)`` each (the last off-diagonal entry couples to
    the next basis vector and sizes the residual).  A row whose residual
    falls to ``floor`` (a scalar or one value per row) has exhausted its
    Krylov space: its later basis vectors and tridiagonal entries are zero,
    so it adds nothing past there.  With ``reorthogonalize``, each new vector
    is orthogonalized against all earlier ones of its row (one classical
    Gram-Schmidt pass), which keeps the basis orthonormal to rounding.  The
    yielded arrays are views of storage that a later step may replace by a
    larger copy; a caller holding them into that step keeps the old storage alive.
    """
    n_rows, n = b.shape
    norm = np.sqrt(np.sum(b * b, axis=1))
    # 16 steps cover the tune screen's usual K of 10.  Full storage is copied
    # into storage half as large again (16 steps at least) and dropped, so a
    # growth holds 2.5 times the old basis at most, and only while it copies.
    basis, diag, off = np.zeros((n_rows, 16, n)), np.zeros((n_rows, 16)), np.zeros((n_rows, 16))
    q = b / np.where(norm > 0, norm, 1.0)[:, None]
    q_prev, beta = np.zeros_like(b), np.zeros_like(norm)
    for k in itertools.count():
        if k == basis.shape[1]:
            grown = [np.zeros(a.shape[:1] + (k + max(16, k // 2),) + a.shape[2:]) for a in (basis, diag, off)]
            for new, old in zip(grown, (basis, diag, off)):
                new[:, :k] = old
            basis, diag, off = grown
        basis[:, k] = q
        w = matvec(q) - beta[:, None] * q_prev
        diag[:, k] = np.einsum("ij,ij->i", q, w)  # row dot products, without a temporary
        w -= diag[:, k, None] * q
        if reorthogonalize:
            done = basis[:, : k + 1]
            w -= (done.transpose(0, 2, 1) @ (done @ w[:, :, None]))[:, :, 0]
            del done  # a view, which would keep old storage alive through a growth
        beta = np.sqrt(np.einsum("ij,ij->i", w, w))
        beta[beta <= floor] = 0.0
        off[:, k] = beta
        q_prev, q = q, np.divide(w, np.where(beta > 0, beta, np.inf)[:, None], out=w)
        yield basis[:, : k + 1], diag[:, : k + 1], off[:, : k + 1]


def krylov_solve(lap: Laplacian, v: np.ndarray, solve, cond: float = 1.0):
    """Node-space result of a per-frequency computation, run on one Lanczos basis per column of ``v``.

    This is the GFT's counterpart when no eigendecomposition is available.
    ``L 1 = 0``, so each column's constant part ``c 1 / sqrt(N)`` sits at
    frequency 0 exactly.  m Lanczos steps on ``L`` from the rest ``r`` give
    the basis ``Q`` and the tridiagonal ``T = V diag(theta) V^T``, and
    ``r = ||r|| Q V V^T e1``.  So on the vectors ``[1 / sqrt(N), Q V]`` the
    column has coefficients ``z = [c, ||r|| V[0, :]]`` at frequencies
    ``[0, theta]`` (the Ritz values).  ``solve(z, lam)`` gets these,
    ``(m + 1, C)`` each (``(m + 1,)`` for an ``(N,)`` signal), and returns
    ``(out, extra)`` with ``out`` the output coefficients in that layout.
    For any function of ``L`` this is the spectral computation restricted
    to the Krylov space, exact once that space holds the signal.  The result
    is ``v`` plus the mapped ``out - z`` where that is the shorter vector
    (then a coefficient left unchanged keeps ``v``'s bits), else the mapped
    ``out``, so rounding stays relative to the output.

    Stopping rule: every ``KRYLOV_STRIDE`` steps the output is formed again,
    and it is returned once no column moved by more than
    ``max(KRYLOV_TOL, KRYLOV_ROUNDING * cond)`` of its norm since the
    previous look (``cond``, the caller's condition bound of its
    computation, sizes the rounding floor of that change), or once every
    column's Krylov space is exhausted (a residual below ``BREAKDOWN_TOL *
    lap.norm_bound``, or N - 1 steps).  The Lanczos basis holds ``m N C``
    floats, at most ``MAX_KRYLOV_STEPS * 8`` bytes per node and column, in
    storage of at most 1.5 times the basis (2.5 times while it grows);
    :class:`ConvergenceError` (a :class:`NumericalError`) is raised if that
    many steps do not meet the rule.  Returns ``(x, extra)``.
    """
    n = lap.n_nodes
    v = _check_signal(v, n)
    if not np.all(np.isfinite(v)):
        raise ValueError("signal must be finite")
    rows = v.reshape(n, -1).T
    unit = np.full(n, 1.0 / np.sqrt(n))
    const = rows @ unit
    rest = rows - const[:, None] * unit
    norm = np.sqrt(np.sum(rest * rest, axis=1))
    tol = max(KRYLOV_TOL, KRYLOV_ROUNDING * cond)

    def matvec(q):  # L q is orthogonal to 1; dropping its rounding keeps the basis so
        w = lap.matvec(q.T).T
        return w - (w @ unit)[:, None] * unit

    prev, steps = None, lanczos(matvec, rest, BREAKDOWN_TOL * lap.norm_bound, True)
    for m in itertools.count(1):  # enumerate would hold the last step's views into the next
        basis, diag, off = next(steps)
        exhausted = m >= n - 1 or not np.any(off[:, -1])
        if m % KRYLOV_STRIDE and not exhausted:
            del basis, diag, off  # the next step may move them to larger storage
            continue
        tri = np.zeros((len(rows), m, m))
        i = np.arange(m)
        tri[:, i, i] = diag
        tri[:, i[:-1], i[1:]] = tri[:, i[1:], i[:-1]] = off[:, :-1]
        theta, vecs = np.linalg.eigh(tri)
        z = np.concatenate([const[:, None], norm[:, None] * vecs[:, 0, :]], axis=1)
        lam = np.concatenate([np.zeros((len(rows), 1)), theta], axis=1)
        shape = (m + 1,) + v.shape[1:]
        out, extra = solve(*(np.ascontiguousarray(a.T).reshape(shape) for a in (z, lam)))
        out = np.reshape(out, (m + 1, -1)).T
        # Coefficients on [1 / sqrt(N), Q], one row per column.
        on_q = lambda c: np.concatenate([c[:, :1], (vecs @ c[:, 1:, None])[:, :, 0]], axis=1)  # noqa: E731
        delta = on_q(out - z)
        if prev is not None:
            change = np.linalg.norm(delta - np.pad(prev, ((0, 0), (0, m + 1 - prev.shape[1]))), axis=1)
            exhausted |= bool(np.all(change <= tol * np.linalg.norm(out, axis=1)))
        if exhausted:
            small = np.linalg.norm(out - z, axis=1) < np.linalg.norm(out, axis=1)
            coef = np.where(small[:, None], delta, on_q(out))
            x = np.where(small[:, None], rows, 0.0) + coef[:, :1] * unit + (coef[:, None, 1:] @ basis)[:, 0, :]
            return x.T.reshape(v.shape), extra
        if m >= MAX_KRYLOV_STEPS:
            raise ConvergenceError(
                f"Lanczos node path did not settle to {tol:.1e} in {m} steps "
                "(a large alpha makes the operator ill-conditioned)",
                iterations=m,
            )
        prev = delta
        del basis, diag, off


def on_frequencies(lap: Laplacian, v: np.ndarray, solve, decomp: SpectralDecomp | None = None, cond: float = 1.0):
    """``solve(v_hat, lam)`` on frequency coefficients of ``v``, its output mapped back to node space.

    With ``decomp``, ``v_hat`` holds GFT coefficients and ``lam`` the
    eigenvalues (a column, for batched input).  Without one, they are the
    coefficients and Ritz values of one Lanczos basis per column of ``v``
    (:func:`krylov_solve`, told the caller's condition bound ``cond``).  Both
    bases are orthonormal, so norms and inner products match between the
    two.  ``solve`` returns ``(out, extra)``; this returns ``(x, extra)``.
    """
    if decomp is None:
        return krylov_solve(lap, v, solve, cond)
    out, extra = solve(gft(decomp, v), decomp.eigenvalues[:, None] if np.ndim(v) == 2 else decomp.eigenvalues)
    return igft(decomp, out), extra


def quadratic_form(lap: Laplacian, x: np.ndarray):
    """Smoothness measure ``x^T L x`` (per column for batched input).

    Equals the weighted sum of squared signal differences across edges and
    is therefore nonnegative.
    """
    x = _check_signal(x, lap.n_nodes)
    return np.sum(x * lap.matvec(x), axis=0)


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


def read_csv(path, empty="no points found") -> np.ndarray:
    """The ``(N, C)`` array of a file of comma-separated numbers, one row per data line.

    A field ``float`` rejects or a row wider or narrower than the first raises :class:`ParseError`, and
    so does a file without data lines, with the message ``empty``.  Rows are split at once, as one line.
    """

    def convert(lines):
        if not lines:
            raise ParseError(empty, path=str(path), line=0)
        width = lines[0].count(",") + 1
        if any(line.count(",") != width - 1 for line in lines):
            raise ValueError("rows of unequal width")
        return np.array(",".join(lines).split(","), dtype=float).reshape(len(lines), width)

    def check(line, line_no, first_line):
        parts, width = line.split(","), first_line.count(",") + 1
        try:
            list(map(float, parts))
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path), line=line_no) from exc
        if len(parts) != width:
            raise ParseError(f"expected {width} columns, got {len(parts)}", path=str(path), line=line_no)

    return read_table(path, convert, check)


def edge_list_text(graph: Graph) -> str:
    """The graph as text lines ``i j w`` (0-based, each edge once), as :func:`save_edge_list` writes it."""
    return table_text(np.column_stack(graph._edge_columns()), sep=" ")


def save_edge_list(graph: Graph, path) -> None:
    """Write the graph as text lines ``i j w`` (0-based, each edge once)."""
    write_text(path, edge_list_text(graph))


def load_edge_list(path, n_nodes: int | None = None) -> Graph:
    """Read a graph from the ``i j w`` edge-list format.

    ``n_nodes`` defaults to the largest index seen plus one; pass it
    explicitly if trailing nodes are isolated.  A pair's last line sets its
    weight, and a zero weight leaves it out.  Malformed lines, self loops and
    indices outside ``[0, n_nodes)`` raise :class:`InvalidGraphError` at ``path:line``.
    """

    def convert(lines):
        if not lines:
            raise InvalidGraphError(f"{path}: no edges found")
        if any(len(line.split()) != 3 for line in lines):
            raise ValueError("an edge line is not three fields")
        # A block of lines at a time, split as one line and read by stride:
        # no list per line, and few field strings alive at once.
        cols = [], [], []
        for start in range(0, len(lines), EDGE_BLOCK_LINES):
            fields = " ".join(lines[start : start + EDGE_BLOCK_LINES]).split()
            for c, (col, dtype) in enumerate(zip(cols, (np.intp, np.intp, float))):
                col.append(np.array(fields[c::3], dtype=dtype))
        i, j, w = map(np.concatenate, cols)
        top = int(max(i.max(), j.max()))
        if np.any(i == j) or min(i.min(), j.min()) < 0 or (n_nodes is not None and top >= n_nodes):
            raise ValueError("an edge is a self loop or names a node out of range")
        return i, j, w, top + 1 if n_nodes is None else n_nodes

    def check(line, line_no, first_line):
        parts = line.split()
        if len(parts) != 3:
            raise InvalidGraphError(f"{path}:{line_no}: expected 'i j w', got {line!r}")
        try:
            i, j, _ = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InvalidGraphError(f"{path}:{line_no}: {exc}") from exc
        if i == j:
            raise InvalidGraphError(f"{path}:{line_no}: self loops are not allowed")
        if min(i, j) < 0 or (n_nodes is not None and max(i, j) >= n_nodes):
            raise InvalidGraphError(f"{path}:{line_no}: node index out of range in {line!r}")

    return Graph.from_edges(*read_table(path, convert, check))

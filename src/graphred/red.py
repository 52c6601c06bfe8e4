"""The spectral conjugate-gradient core of RED (regularization by denoising).

RED minimizes ``J(x) = 1/2 ||x - y||^2 + (alpha_red / 2) x^T (x - D(x))`` for
a plugged-in denoiser D.  When D is locally homogeneous and strongly
passive, its gradient is ``x - y + alpha_red (x - D(x))``, with no Jacobian
of D.  This module holds the unrollable Fletcher-Reeves CG solver on it
(per-layer parameters, which :class:`UnrolledParams` holds for any denoiser
kind), and the blocked candidate evaluation that tuning and training run on
it.  The node-space API of one problem is in :mod:`graphred.problem`, which
no command loads.

Every denoiser is a per-frequency gain of the Laplacian, so the solvers run
on GFT coefficients when a decomposition is attached, else on the Ritz
coefficients of one Lanczos basis per column (:func:`graphs.krylov_solve`).
Signals may be ``(N,)`` or ``(N, S)``; columns are independent signals, with
per-column line searches, so a batched solve matches column-by-column ones.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .denoisers import DEFAULT_PNP_ITERS, KINDS, check_params, kind_spec
from .exceptions import ConfigError, DivergenceError, StagnationError
from .graphs import Laplacian, _check_signal, on_frequencies

# Stagnation guard on the line-search denominator, relative to ||direction||^2.
STAGNATION_TOL = 1e-14
# A column counts as converged when its gradient norm falls this far below
# the observation norm; at that point the direction recursion degenerates.
CONVERGED_TOL = 1e-13
# Signal columns per batched pass over candidates (tuning grid points,
# finite-difference training points, Krylov screen columns); bounds peak memory.
BLOCK_COLUMNS = 100


class RedSolveReport(NamedTuple):
    """Solver output plus per-iteration diagnostics.

    Histories have length ``iterations + 1`` (the initial point is entry 0;
    a resumed :func:`red_cg_layers` run records only the layers it ran, and
    records objectives only when asked to).  For batched input each history
    entry is a per-column array.
    """

    x: np.ndarray
    iterations: int
    gradient_norm_history: list
    objective_history: list

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "x": np.asarray(self.x).tolist(),
            "gradient_norm_history": [np.asarray(g).tolist() for g in self.gradient_norm_history],
            "objective_history": [np.asarray(o).tolist() for o in self.objective_history],
        }


def softplus(theta):
    return np.logaddexp(0.0, np.asarray(theta, dtype=float))


def softplus_inv(alpha):
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError("softplus inverse needs strictly positive values")
    return alpha + np.log1p(-np.exp(-alpha))


@dataclass(frozen=True)
class UnrolledParams:
    """Per-layer solver parameters, indices 0..K.

    Index 0 parameterizes the solver's initialization lines and indices
    1..K the loop bodies.  From the zero initial iterate the index-0 values
    never reach the output; they keep the parameter count at (1 + P)(K+1)
    for a kind of P parameters (22 for LR and 33 for PnP at K = 10).  The
    denoiser's layer fields are those its :data:`KINDS` entry lists; the
    others stay ``None``.  Alphas may be zero here; training decodes them by
    softplus, so only ever produces positive ones.
    """

    K: int
    denoiser_kind: str
    alpha_red_layers: np.ndarray
    alpha_denoiser_layers: np.ndarray
    pnp_rho_layers: np.ndarray | None = None

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        kind, used = self.denoiser_kind, self.layer_names(self.denoiser_kind)
        for name in [f.name for f in fields(self)][2:]:
            values = getattr(self, name)
            if (name in used) != (values is not None):
                raise ValueError(f"the {kind} solver {'needs' if name in used else 'takes no'} {name}")
            if values is not None:
                values = np.asarray(values, dtype=float)
                if values.shape != (self.K + 1,):
                    raise ValueError(f"{name} must hold K + 1 = {self.K + 1} values, not shape {values.shape}")
                if not np.all(np.isfinite(values)):
                    layer = int(np.argmin(np.isfinite(values)))
                    raise ValueError(f"{name} must be finite, got {values[layer]} at layer {layer}")
                object.__setattr__(self, name, values)
        if np.any(self.alpha_red_layers < 0):
            raise ValueError("alpha_red_layers must be nonnegative")
        check_params(kind, list(self.layers().values())[1:])

    @staticmethod
    def layer_names(denoiser_kind) -> tuple:
        """The layer fields a ``denoiser_kind`` solver uses: ``alpha_red_layers``, then the kind's ``layers``."""
        return ("alpha_red_layers",) + kind_spec(denoiser_kind).layers

    def layers(self) -> dict:
        """The used layer arrays by field name, in :meth:`layer_names` order."""
        return {name: getattr(self, name) for name in self.layer_names(self.denoiser_kind)}

    @property
    def n_params(self) -> int:
        return len(self.layers()) * (self.K + 1)

    @classmethod
    def constant(cls, K, denoiser_kind, alpha_red, alpha_denoiser, rho=None):
        """All layers set to the same (flat) scalars."""
        values = zip(cls.layer_names(denoiser_kind), (alpha_red, alpha_denoiser, rho))
        return cls(K=K, denoiser_kind=denoiser_kind, **{name: np.full(K + 1, float(v)) for name, v in values})

    def to_theta(self) -> np.ndarray:
        """Unconstrained encoding (softplus inverse); needs positive values."""
        return np.concatenate([softplus_inv(p) for p in self.layers().values()])

    @classmethod
    def from_theta(cls, K, denoiser_kind, theta):
        names = cls.layer_names(denoiser_kind)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(names) * (K + 1),):
            raise ValueError(f"theta must have {len(names) * (K + 1)} entries")
        layers = {name: softplus(t) for name, t in zip(names, theta.reshape(-1, K + 1))}
        return cls(K=K, denoiser_kind=denoiser_kind, **layers)

    def to_json_dict(self) -> dict:
        layers = {name: value.tolist() for name, value in self.layers().items()}
        return {"K": self.K, "denoiser_kind": self.denoiser_kind, **layers}

    @classmethod
    def from_json_dict(cls, data: dict):
        names = [f.name for f in fields(cls)]
        unknown = set(data) - set(names)
        if unknown:
            raise ConfigError(f"unknown parameter-file keys: {sorted(unknown)}")
        missing = {"K", "denoiser_kind"} - set(data)
        if missing:
            raise ConfigError(f"parameter file missing keys: {sorted(missing)}")
        if not isinstance(data["K"], int) or isinstance(data["K"], bool):
            raise ConfigError(f"parameter file: K must be an integer, got {data['K']!r}")
        try:
            return cls(K=data["K"], denoiser_kind=data["denoiser_kind"], **{n: data.get(n) for n in names[2:]})
        except ValueError as exc:  # a missing, unused or invalid layer field, or an unknown kind
            raise ConfigError(f"parameter file: {exc}") from exc


def _layer_regs(kind, lam, rows, iters):
    """Per-layer ``reg(v) = v - D(v)`` ops at frequencies ``lam``, where every denoiser is an elementwise gain.

    ``rows[k]`` holds layer k's ``kind`` parameters.  Each distinct row gets its gains once, in
    one op object that equal rows share, which lets :func:`red_cg_layers` stop early.
    """
    gains = KINDS[kind].gains
    ops, regs = {}, []
    for row in map(tuple, np.asarray(rows, dtype=float).tolist()):
        if row not in ops:
            ops[row] = lambda v, s=1.0 - gains(lam, row, iters): s * v
        regs.append(ops[row])
    return regs


def _on_frequencies(lap, v, solve, decomp, a_red, a_den):
    """:func:`graphs.on_frequencies` with the condition bound ``(1 + max a_red) (1 + max a_den ||L||)``
    of the layer weights and denoiser strengths."""
    return on_frequencies(lap, v, solve, decomp, (1.0 + max(a_red)) * (1.0 + max(a_den) * lap.norm_bound))


def _einsum_dot(a, b):
    return np.einsum("ij,ij->j", a, b)


def _reduce_dot(a, b):
    return np.add.reduce(a * b, axis=0)  # the kernel np.sum runs, without its dispatch


def _column_dot(*blocks):
    """The per-column inner product ``dot(a, b) = sum(a * b, axis=0)`` for operands laid out as ``blocks``.

    On 2-D blocks of two columns or more whose last axis is the fast one
    (C-ordered arrays and their row-strided or column views), ``np.einsum``
    adds the products row by row, as ``np.add.reduce(a * b, axis=0)`` does,
    so it gives the same bits without the product array.  Every other
    layout gets that reduce itself: ``(N,)`` signals and lone ``(N, 1)``
    columns, which numpy sums pairwise, and F-ordered blocks, where einsum
    adds in another order.
    """
    if all(b.ndim == 2 and b.shape[1] > 1 and abs(b.strides[1]) < abs(b.strides[0]) for b in blocks):
        return _einsum_dot
    return _reduce_dot


def _flat_from(regs, alpha_red, k) -> bool:
    """Whether every layer from ``k`` on runs layer k's op object with an equal weight."""
    return all(regs[i] is regs[k] and np.array_equal(alpha_red[i], alpha_red[k]) for i in range(k + 1, len(regs)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in one of the typed errors below
def red_cg_layers(y: np.ndarray, regs, alpha_red, tape=None, start=None, objective=False) -> RedSolveReport:
    """Fletcher-Reeves conjugate gradients on the RED objective, one layer per op.

    ``regs[k]`` applies ``v - Dk(v)`` in whatever coordinates ``y`` is given
    (node space, or GFT coefficients where it is an elementwise gain), and
    ``alpha_red[k]`` is that layer's weight: a scalar or, for ``(N, S)``
    input, a per-column array.  With K = ``len(regs) - 1`` it runs K
    iterations from ``x = 0``:

        init   x = 0;  g = x - y + a0 (x - D0(x));  p = -g
        loop   tau   = -sum(p . g) / sum(p . (p + ak (p - Dk(p))))
               x     = x + tau p
               g_new = x - y + ak (x - Dk(x))
               gamma = ||g_new||^2 / ||g||^2
               p     = -g_new + gamma p

    where sums and norms run per column.  The line search treats the
    gradient operator as linear in the direction, which is exact for the
    denoisers here.

    A column whose gradient norm is negligible relative to its observation
    counts as converged: it takes no step, and its direction restarts
    (``gamma = 0``) in case a later layer un-converges it.  A column's result
    does not depend on the columns beside it, as long as ``(N, S)`` arrays
    have two columns at least (numpy sums a lone column pairwise).  The loop
    stops early only once every column has converged and every layer left
    runs the op object and weight of the layer that judged them converged.  Raises :class:`StagnationError` if the
    line-search denominator vanishes while the gradient is still nonzero,
    and :class:`DivergenceError` on non-finite iterates, or on a non-finite
    line-search denominator or step of a column not yet converged (an
    overflowed weight would otherwise leave it at zero).  The converged and
    stalled masks are built only at layers where some column has converged;
    with none, a mask would pass every value through unchanged, so the
    layer skips it and keeps the bits.  The objective history is filled
    only with ``objective=True``; it costs two reductions per layer.

    Every per-column inner product (``p . Ap``, ``p . p``, ``p . g``,
    ``||g||^2`` and the objective's) runs through the :func:`_column_dot`
    pick for the call's layout, so the bits are those of a product-and-reduce loop.

    With a ``tape`` list, each layer run appends what a reverse sweep needs:
    ``(p, g, gsq, converged, safe, tau, x, g_new, gamma)``, i.e. the incoming
    direction, gradient, its squared norm and the converged mask, then the
    line-search denominator (1 where unused), the step, the new iterate, the
    new gradient and the Fletcher-Reeves coefficient.

    ``start = (j, (x, p, g, gsq))`` resumes at layer j from the state of
    every column entering it (the iterate, and the incoming entries of layer
    j's tape row), and the histories hold the layers run.  Given states equal
    to another run's, the columns compute what that run computes for them.
    """
    K = len(regs) - 1
    if K < 1 or len(alpha_red) != K + 1:
        raise ValueError("need K >= 1 reg ops and one alpha_red per op")
    tol = CONVERGED_TOL * np.maximum(np.linalg.norm(y, axis=0), 1.0)

    def gradient(x, r, k):
        d = x - y
        if objective:
            objs.append(0.5 * dot(d, d) + 0.5 * alpha_red[k] * dot(x, r))
        return d + alpha_red[k] * r

    objs = []
    if start is None:
        first, dot = 1, _column_dot(y)
        x = np.zeros_like(y)
        g = gradient(x, regs[0](x), 0)
        p = -g
        gsq = dot(g, g)
    else:
        first, (x, p, g, gsq) = start
        dot = _column_dot(y, x, p, g)
    gnorm = np.sqrt(gsq)
    gnorms = [gnorm] if start is None else []
    iterations = 0
    converged = gnorm <= tol
    for k in range(first, K + 1):
        n_converged = np.count_nonzero(converged)
        if n_converged == converged.size and _flat_from(regs, alpha_red, k - 1):
            break
        masked = n_converged > 0
        ap = p + alpha_red[k] * regs[k](p)
        denom = dot(p, ap)
        stalled = np.abs(denom) < STAGNATION_TOL * dot(p, p)
        if np.count_nonzero(stalled & ~converged if masked else stalled):
            raise StagnationError(
                f"line-search denominator vanished at iteration {k} "
                "(direction in the operator's null space)"
            )
        num = dot(p, g)
        if masked:
            # Converged columns keep x exactly; their direction may have vanished.
            safe = np.where(stalled | converged, 1.0, denom)
            tau = np.where(converged, 0.0, -num / safe)
            finite = np.count_nonzero(np.isfinite(denom) | converged) == converged.size
        else:
            safe, tau = denom, -num / denom
            finite = np.count_nonzero(np.isfinite(denom)) == converged.size
        if not (finite and np.count_nonzero(np.isfinite(tau)) == converged.size):
            raise DivergenceError(f"non-finite line search at iteration {k}", iteration=k)
        x = x + tau * p
        g_new = gradient(x, regs[k](x), k)
        gsq_new = dot(g_new, g_new)
        # A non-finite entry makes its column's gsq non-finite; the full scan
        # runs only then, to tell it from a gsq overflowed by finite entries.
        if np.count_nonzero(np.isfinite(gsq_new)) < converged.size and not np.isfinite(g_new).all():
            raise DivergenceError(f"non-finite iterate at iteration {k}", iteration=k)
        if masked:
            # Converged columns restart: a ratio over a rounding-level gsq amplifies noise.
            gamma = np.where(converged, 0.0, gsq_new / np.where(converged, 1.0, gsq))
        else:
            gamma = gsq_new / gsq
        if tape is not None:
            tape.append((p, g, gsq, converged, safe, tau, x, g_new, gamma))
        p = gamma * p - g_new  # the bits of -g_new + gamma p: IEEE addition commutes
        g = g_new
        gsq = gsq_new
        gnorm = np.sqrt(gsq)
        gnorms.append(gnorm)
        iterations = k
        converged = gnorm <= tol
    return RedSolveReport(x=x, iterations=iterations, gradient_norm_history=gnorms, objective_history=objs)


def candidate_mse(y: np.ndarray, target: np.ndarray, n_cand: int, solve, needed=None) -> np.ndarray:
    """Mean squared error against ``target`` of each of ``n_cand`` candidates' outputs.

    ``y`` and ``target`` are ``(N, S)``.  Candidates run in blocks of at most
    ``BLOCK_COLUMNS`` signal columns (one candidate at least):
    ``solve(cand, obs)`` gets a block's candidate indices and ``y`` tiled once
    per candidate (``cand[i]`` owns columns ``i*S .. (i+1)*S - 1``) and
    returns the outputs in that layout.  With ``needed``, only the blocks
    holding those candidates run, as a full pass runs them; the rest are NaN.
    """
    n_nodes, n_sig = y.shape
    per_block = max(1, BLOCK_COLUMNS // n_sig)
    starts = range(0, n_cand, per_block)
    if needed is not None:
        # bincount, not a 1-d np.unique: that imports numpy.ma.
        starts = np.flatnonzero(np.bincount(np.asarray(needed, dtype=int) // per_block)) * per_block
    out = np.full(n_cand, np.nan)
    for start in starts:
        cand = np.arange(start, min(start + per_block, n_cand))
        x = solve(cand, np.tile(y, len(cand))).reshape(n_nodes, len(cand), n_sig)
        # Summed node by node, so a one-candidate block rounds as wider blocks do.
        sq = ((x - target[:, None, :]) ** 2).sum(axis=2)
        out[cand] = np.cumsum(sq, axis=0)[-1] / (n_nodes * n_sig)
    return out


def red_cg_unrolled(
    lap: Laplacian, y, params: UnrolledParams, iters=DEFAULT_PNP_ITERS, decomp=None, objective=False
) -> RedSolveReport:
    """The K layers of :func:`red_cg_layers` that ``params`` sets, on ``y``, returned in node space.

    Layer k weighs the regularizer by ``alpha_red_layers[k]`` and runs the
    denoiser with its layer fields' k-th values.  Runs on GFT coefficients
    with ``decomp``, else on one Lanczos basis per column.
    """
    y = _check_signal(y, lap.n_nodes)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation must be finite")
    a_red, *den_layers = params.layers().values()
    rows = np.column_stack(den_layers)

    def cg(z, lam):
        report = red_cg_layers(z, _layer_regs(params.denoiser_kind, lam, rows, iters), a_red, objective=objective)
        return report.x, report

    x, report = _on_frequencies(lap, y, cg, decomp, a_red, rows[:, 0])
    return report._replace(x=x)

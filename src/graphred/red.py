"""Denoiser-regularized signal recovery (RED).

The objective is

    J(x) = 1/2 ||x - y||^2 + (alpha_red / 2) x^T (x - D(x))

for a plugged-in denoiser D.  When D is locally homogeneous and strongly
passive the regularizer gradient collapses to ``x - D(x)``, so the full
gradient is ``x - y + alpha_red (x - D(x))`` with no Jacobian of D anywhere.
This module provides the objective and that simplified gradient, a
fixed-step gradient-descent solver, a Fletcher-Reeves conjugate-gradient
solver (the unrollable one: it accepts per-layer parameters, which
:class:`UnrolledParams` holds for any denoiser kind), the blocked
candidate evaluation that tuning and training run on it, a Krylov screen
that scores flat CG candidates for a whole ``alpha_red`` grid from one
Lanczos basis, and empirical checkers for the two admissibility conditions.

Every denoiser here is a per-frequency gain of the Laplacian, so all solvers
run on frequency coefficients: GFT coefficients when a decomposition is
attached, else the Ritz coefficients of one Lanczos basis per observed
column (:func:`graphs.krylov_solve`), with gains at the Ritz values.

Signals may be ``(N,)`` or ``(N, S)``; batched columns are treated as
independent signals, with per-column line searches in the CG solver so a
batched solve matches column-by-column solves exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .denoisers import (
    DEFAULT_PNP_ITERS, KINDS, Denoiser, apply_denoiser, check_params, denoiser_gains, kind_spec,
)
from .exceptions import ConfigError, DivergenceError, StagnationError
from .graphs import (
    BREAKDOWN_TOL, Laplacian, SpectralDecomp, _check_signal, lanczos, on_frequencies,
)

# Stagnation guard on the line-search denominator, relative to ||direction||^2.
STAGNATION_TOL = 1e-14
# A column counts as converged when its gradient norm falls this far below
# the observation norm; at that point the direction recursion degenerates.
CONVERGED_TOL = 1e-13
# Objective growth factor treated as divergence in gradient descent.
DIVERGENCE_OBJECTIVE_FACTOR = 1e6
# Signal columns per batched pass over candidates (tuning grid points,
# finite-difference training points, Krylov screen columns); bounds peak memory.
BLOCK_COLUMNS = 100
# Loss of orthogonality max|Q^T Q - I| of a Krylov basis at which the
# screen's spread takes the full residual bound (scaled down below it).
ORTHOGONALITY_TOL = 1e-6


@dataclass(frozen=True)
class RedProblem:
    """One denoising instance: observation, regularization weight, denoiser.

    ``alpha_red = 0`` is allowed and reduces the objective to the data term.
    Attaching a ``decomp`` runs solvers on its GFT coefficients; without one
    they run on Lanczos bases.  Both are exact for both denoiser kinds (all
    their steps are diagonal in the eigenbasis).
    """

    y: np.ndarray
    alpha_red: float
    denoiser: Denoiser
    lap: Laplacian
    decomp: SpectralDecomp | None = None

    def __post_init__(self):
        y = _check_signal(self.y, self.lap.n_nodes)
        if not np.all(np.isfinite(y)):
            raise ValueError("observation must be finite")
        if self.alpha_red < 0:
            raise ValueError("alpha_red must be nonnegative")
        if self.decomp is not None and self.decomp.n_nodes != self.lap.n_nodes:
            raise ValueError("decomp size does not match Laplacian")
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class RedSolveReport:
    """Solver output plus per-iteration diagnostics.

    Histories have length ``iterations + 1`` (the initial point is entry 0;
    a resumed :func:`red_cg_layers` run records only the layers it ran, and
    records objectives only when asked to).  For batched input each history
    entry is a per-column array.
    """

    x: np.ndarray
    iterations: int
    gradient_norm_history: list = field(default_factory=list)
    objective_history: list = field(default_factory=list)

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
    1..K the loop bodies; with the zero initial iterate the index-0 values
    never influence the output, but they are kept so the layer count and
    the serialized parameter count stay aligned with the unrolled depth
    ((1 + P)(K+1) values for a kind of P parameters: 2(K+1) for LR, 3(K+1)
    for PnP).  The denoiser's layer fields are those its :data:`KINDS`
    entry lists; the others stay ``None``.

    Alphas may be zero in the container; the training path goes through the
    softplus encoding and therefore only ever produces strictly positive
    values.
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

    ``rows[k]`` holds layer k's ``kind`` parameters.  Each distinct row gets
    the kind's gains once, and one op object that equal rows share, which is
    what lets :func:`red_cg_layers` stop early.
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


def _reg(prob: RedProblem, x: np.ndarray) -> np.ndarray:
    """``x - D(x)`` in node space."""
    x = _check_signal(x, prob.lap.n_nodes)
    reg = lambda v, lam: ((1.0 - denoiser_gains(prob.denoiser, lam)) * v, None)  # noqa: E731
    return _on_frequencies(prob.lap, x, reg, prob.decomp, (0.0,), (prob.denoiser.alpha,))[0]


def red_objective(prob: RedProblem, x: np.ndarray):
    """Objective value at ``x`` (per column for batched input)."""
    x = _check_signal(x, prob.lap.n_nodes)
    r = _reg(prob, x)
    if not np.all(np.isfinite(r)):
        raise DivergenceError("denoiser returned non-finite values", iteration=0)
    data = 0.5 * np.sum((x - prob.y) ** 2, axis=0)
    return data + 0.5 * prob.alpha_red * np.sum(x * r, axis=0)


def red_gradient(prob: RedProblem, x: np.ndarray) -> np.ndarray:
    """Simplified gradient ``x - y + alpha_red (x - D(x))``."""
    x = _check_signal(x, prob.lap.n_nodes)
    return x - prob.y + prob.alpha_red * _reg(prob, x)


def red_gradient_descent(prob: RedProblem, step: float, iters: int) -> RedSolveReport:
    """Fixed-step gradient descent from ``x = 0``.

    Raises :class:`DivergenceError` once the objective exceeds a million
    times its initial value; reduce ``step`` when that happens.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    a = prob.alpha_red

    def descend(y, lam):
        shortfall = 1.0 - denoiser_gains(prob.denoiser, lam)
        x, gnorms, objs = np.zeros_like(y), [], []
        for k in range(iters + 1):
            x = x - step * grad if k else x
            r = shortfall * x
            grad = x - y + a * r
            gnorms.append(np.linalg.norm(grad, axis=0))
            objs.append(0.5 * np.sum((x - y) ** 2, axis=0) + 0.5 * a * np.sum(x * r, axis=0))
            if k == 0:
                limit = DIVERGENCE_OBJECTIVE_FACTOR * max(float(np.max(objs[0], initial=0.0)), 1e-12)
            elif not np.all(np.isfinite(objs[-1])) or np.max(objs[-1]) > limit:
                raise DivergenceError(f"objective exploded at iteration {k}; try a smaller step", iteration=k)
        return x, (gnorms, objs)

    x, (gnorms, objs) = _on_frequencies(prob.lap, prob.y, descend, prob.decomp, (a,), (prob.denoiser.alpha,))
    return RedSolveReport(x=x, iterations=iters, gradient_norm_history=gnorms, objective_history=objs)


def _flat_from(regs, alpha_red, k) -> bool:
    """Whether every layer from ``k`` on runs layer k's op object with an equal weight."""
    return all(regs[i] is regs[k] and np.array_equal(alpha_red[i], alpha_red[k]) for i in range(k + 1, len(regs)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in one of the typed errors below
def red_cg_layers(
    y: np.ndarray, regs, alpha_red, tape=None, start=None, joins=None, objective=False
) -> RedSolveReport:
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
    (``gamma = 0``) in case a later layer's operator un-converges it.  A
    column's result does not depend on the columns solved beside it, as long
    as ``(N, S)`` arrays have two columns at least (numpy sums a lone column
    pairwise, wider ones row by row).  The loop stops early only once every
    column has converged, no column is due to join, and every layer left
    runs the op object and an equal weight of the layer that judged them
    converged; anything else could un-converge a column.  Raises
    :class:`StagnationError` if the line-search denominator vanishes while
    the gradient is still nonzero, and :class:`DivergenceError` on
    non-finite iterates, or on a non-finite line-search denominator or step
    of a column not yet converged (an overflowed weight would otherwise
    leave it at zero).  The converged and stalled masks are built only at
    layers where some column has converged; with none, a mask would pass
    every value through unchanged, so the layer skips it and keeps the bits.
    The objective history is filled only with ``objective=True``; it costs
    two reductions per layer.

    With a ``tape`` list, each layer run appends what a reverse sweep needs:
    ``(p, g, gsq, converged, safe, tau, x, g_new, gamma)``, i.e. the incoming
    direction, gradient, its squared norm and the converged mask, then the
    line-search denominator (1 where unused), the step, the new iterate, the
    new gradient and the Fletcher-Reeves coefficient.

    ``start = (j, (x, p, g, gsq))`` resumes at layer j from the state
    entering it (the iterate, and the incoming entries of layer j's tape
    row), and ``joins`` maps later layers to the states of further columns,
    appended on the right as that layer begins.  ``y`` then holds every
    column's observation in the final column order, ``regs[k]`` and
    ``alpha_red[k]`` act on the columns present at layer k (entries before
    j are unused), and the histories hold the layers run, not the start.
    Given states equal to another run's, the columns compute what that run
    computes for them.
    """
    K = len(regs) - 1
    if K < 1 or len(alpha_red) != K + 1:
        raise ValueError("need K >= 1 reg ops and one alpha_red per op")
    joins = dict(joins or {})
    if joins and (start is None or min(joins) <= start[0]):
        raise ValueError("columns can only join a resumed run, after its first layer")
    full_tol = CONVERGED_TOL * np.maximum(np.linalg.norm(y, axis=0), 1.0)
    add = np.add.reduce  # the kernel np.sum runs, without its dispatch

    def gradient(x, r, k):
        d = x - obs
        if objective:
            objs.append(0.5 * add(d**2, axis=0) + 0.5 * alpha_red[k] * add(x * r, axis=0))
        return d + alpha_red[k] * r

    objs = []
    if start is None:
        first, obs, tol = 1, y, full_tol
        x = np.zeros_like(y)
        g = gradient(x, regs[0](x), 0)
        p = -g
        gsq = add(g * g, axis=0)
    else:
        first, (x, p, g, gsq) = start
        obs, tol = y[:, : x.shape[1]], full_tol[: x.shape[1]]
    gnorm = np.sqrt(gsq)
    gnorms = [gnorm] if start is None else []
    iterations = 0
    converged = gnorm <= tol
    for k in range(first, K + 1):
        if k in joins:
            x, p, g, gsq = (np.concatenate(pair, axis=-1) for pair in zip((x, p, g, gsq), joins.pop(k)))
            obs, tol = y[:, : x.shape[1]], full_tol[: x.shape[1]]
            converged = np.sqrt(gsq) <= tol
        n_converged = np.count_nonzero(converged)
        if n_converged == converged.size and not joins and _flat_from(regs, alpha_red, k - 1):
            break
        masked = n_converged > 0
        ap = p + alpha_red[k] * regs[k](p)
        denom = add(p * ap, axis=0)
        stalled = np.abs(denom) < STAGNATION_TOL * add(p * p, axis=0)
        if (stalled & ~converged if masked else stalled).any():
            raise StagnationError(
                f"line-search denominator vanished at iteration {k} "
                "(direction in the operator's null space)"
            )
        num = add(p * g, axis=0)
        if masked:
            # Converged columns keep x exactly; their direction may have vanished.
            safe = np.where(stalled | converged, 1.0, denom)
            tau = np.where(converged, 0.0, -num / safe)
            finite = (np.isfinite(denom) | converged).all() and np.isfinite(tau).all()
        else:
            safe, tau = denom, -num / denom
            finite = np.isfinite(denom).all() and np.isfinite(tau).all()
        if not finite:
            raise DivergenceError(f"non-finite line search at iteration {k}", iteration=k)
        x = x + tau * p
        g_new = gradient(x, regs[k](x), k)
        gsq_new = add(g_new * g_new, axis=0)
        # A non-finite entry makes its column's gsq non-finite; the full scan
        # runs only then, to tell it from a gsq overflowed by finite entries.
        if not np.isfinite(gsq_new).all() and not np.isfinite(g_new).all():
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
    return RedSolveReport(
        x=x, iterations=iterations, gradient_norm_history=gnorms, objective_history=objs
    )


def candidate_mse(y: np.ndarray, target: np.ndarray, n_cand: int, solve, needed=None) -> np.ndarray:
    """Mean squared error against ``target`` of each of ``n_cand`` candidates' outputs.

    ``y`` and ``target`` are ``(N, S)``.  Candidates run in blocks of at most
    ``BLOCK_COLUMNS`` signal columns (one candidate at least):
    ``solve(cand, obs)`` gets a block's candidate indices and ``y`` tiled
    once per candidate, so candidate ``cand[i]`` owns columns
    ``i*S .. (i+1)*S - 1``, and returns the outputs in that layout.  With
    ``needed`` (candidate indices), only the blocks holding them run and the
    other entries are NaN; the blocks that run are the ones a full pass
    runs, so their values carry the same bits.
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


def _shifted_tridiagonal_solve(diag, off, rhs, alpha_red):
    """``c`` with ``(I + a T) c = rhs e1`` for every ``a`` in ``alpha_red``: ``(K, C, A)``.

    Thomas elimination, which needs no pivoting here: the eigenvalues of the
    Lanczos matrix ``T`` lie in the range of the shortfalls, which are
    nonnegative up to rounding, so ``I + a T`` is positive definite.
    """
    K = len(diag)
    a = alpha_red[None, :]
    piv = np.empty((K, len(rhs), len(alpha_red)))
    z = np.empty_like(piv)
    piv[0] = 1.0 + a * diag[0][:, None]
    z[0] = rhs[:, None]
    for k in range(1, K):
        e = a * off[k - 1][:, None]
        m = e / piv[k - 1]
        piv[k] = 1.0 + a * diag[k][:, None] - m * e
        z[k] = -m * z[k - 1]
    c = np.empty_like(z)
    c[-1] = z[-1] / piv[-1]
    for k in range(K - 2, -1, -1):
        c[k] = (z[k] - a * off[k][:, None] * c[k + 1]) / piv[k]
    return c


def krylov_screen_mse(
    y: np.ndarray, target: np.ndarray, shortfalls: np.ndarray, alpha_red: np.ndarray, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared error of K-layer flat RED CG outputs, screened from one Krylov basis per row.

    ``y`` and ``target`` are ``(N, S)`` GFT coefficients, ``shortfalls`` the
    ``(R, N)`` rows ``1 - gains`` of a gain table and ``alpha_red`` the
    ``(A,)`` weights.  Candidate ``i * R + r`` pairs ``alpha_red[i]`` with
    row ``r``, the layout of a tuning grid.  With flat parameters the
    gradient operator ``I + a diag(s)`` has the Krylov spaces of
    ``diag(s)``, so K Lanczos steps per row and column give the output of
    K layers of :func:`red_cg_layers` for every ``a`` at once:
    ``x = Q c`` with ``(I + a T) c = ||y|| e1``.  Each is scored as
    ``c^T (Q^T Q) c - 2 c^T Q^T t + t^T t`` with the Gram matrix formed
    explicitly, so no orthogonality of ``Q`` is assumed.  Rows run in blocks
    of at most ``BLOCK_COLUMNS`` columns.

    Returns ``(mse, spread)``, one entry per candidate.  While a column's
    basis stays orthogonal, screen and CG core run one recursion in two
    rounding orders and agree to rounding.  Once it loses orthogonality
    (``dev = max|Q^T Q - I|``), the two can drift apart by up to their
    residuals, since the inverse operator has norm at most 1.  ``spread``
    sizes that drift by the screen's residual ``rho = a beta_K |c_K|``:
    ``2 sum(w rho ||x - t||) / (N S)`` over the candidate's columns, with
    ``w = min(1, dev / ORTHOGONALITY_TOL)``.  In 120,000 random candidates
    (N 5-120, K 1-24, LR and PnP rows) the CG core's MSE stayed within 3 %
    of ``spread``, plus 1e-8 relative, of ``mse``.
    Raises :class:`DivergenceError` on a non-finite weight or result, and
    ``ValueError`` if ``K < 1``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    n_nodes, n_sig = y.shape
    alpha_red = np.asarray(alpha_red, dtype=float)
    if not np.all(np.isfinite(alpha_red)):
        raise DivergenceError("non-finite alpha_red in the screen", iteration=0)
    per_block = max(1, BLOCK_COLUMNS // n_sig)
    sq, spread = np.empty((2, len(shortfalls), len(alpha_red)))
    for start in range(0, len(shortfalls), per_block):
        rows = shortfalls[start : start + per_block]
        s, b = np.repeat(rows, n_sig, axis=0), np.tile(y.T, (len(rows), 1))  # one row per column, as np.tile(y, R)
        floor = BREAKDOWN_TOL * np.max(np.abs(s), axis=1)
        for basis, diag, off in itertools.islice(lanczos(lambda q: s * q, b, floor), K):
            pass  # keep only the last step: earlier views would hold outgrown storage
        t = np.tile(target, len(rows))
        gram = basis @ basis.transpose(0, 2, 1)
        live = np.einsum("ckk->ck", gram) > 0  # vectors before a breakdown
        dev = np.max(np.abs(gram - live[:, :, None] * np.eye(K)), axis=(1, 2))
        proj = basis @ t.T[:, :, None]
        with np.errstate(over="ignore", invalid="ignore"):
            c = _shifted_tridiagonal_solve(diag.T, off.T, np.sqrt(np.sum(b * b, axis=1)), alpha_red).transpose(1, 0, 2)
            err = np.sum(c * (gram @ c - 2.0 * proj), axis=1) + np.sum(t * t, axis=0)[:, None]
            rho = alpha_red * off[:, -1, None] * np.abs(c[:, -1])
            drift = np.minimum(dev / ORTHOGONALITY_TOL, 1.0)[:, None] * rho * np.sqrt(np.maximum(err, 0.0))
        sq[start : start + len(rows)] = err.reshape(len(rows), n_sig, -1).sum(axis=1)
        spread[start : start + len(rows)] = drift.reshape(len(rows), n_sig, -1).sum(axis=1)
    mse = (sq / (n_nodes * n_sig)).T.ravel()
    spread = (2.0 * spread / (n_nodes * n_sig)).T.ravel()
    if not (np.all(np.isfinite(mse)) and np.all(np.isfinite(spread))):
        raise DivergenceError("non-finite screened error", iteration=0)
    return mse, spread


def red_cg_solve(
    prob: RedProblem,
    K: int,
    alpha_red_layers=None,
    alpha_denoiser_layers=None,
    pnp_rho_layers=None,
) -> RedSolveReport:
    """K iterations of :func:`red_cg_layers` on ``prob``, returned in node space.

    Optional per-layer sequences (length K+1; index 0 covers the
    initialization lines, index k the k-th loop body) override the
    problem's flat parameters and make the solver unrollable.  The
    denoiser's sequences are those its kind lists as ``layers``.
    """
    den = prob.denoiser
    flat = UnrolledParams.constant(K, den.kind, prob.alpha_red, *(getattr(den, f) for f in KINDS[den.kind].fields))
    given = dict(
        alpha_red_layers=alpha_red_layers, alpha_denoiser_layers=alpha_denoiser_layers, pnp_rho_layers=pnp_rho_layers
    )
    params = replace(flat, **{name: v for name, v in given.items() if v is not None})
    return red_cg_unrolled(prob.lap, prob.y, params, den.iters, prob.decomp, objective=True)


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
    return replace(report, x=x)


def _as_callable(denoiser, lap, decomp):
    if callable(denoiser) and not isinstance(denoiser, Denoiser):
        return denoiser
    if lap is None:
        raise ValueError("a Laplacian is required to apply a Denoiser config")
    return lambda v: apply_denoiser(denoiser, lap, v, decomp=decomp)


def check_homogeneity(
    denoiser,
    x: np.ndarray,
    c: float = 1.1,
    lap: Laplacian | None = None,
    decomp: SpectralDecomp | None = None,
) -> float:
    """Local-homogeneity deviation ``||D(c x) - c D(x)|| / ||c D(x)||``.

    ``denoiser`` is a :class:`Denoiser` (then ``lap`` is required) or any
    signal-to-signal callable.  Zero deviation means the denoiser commutes
    exactly with scaling by ``c``.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) == 0:
        raise ValueError("homogeneity check needs a nonzero signal")
    fn = _as_callable(denoiser, lap, decomp)
    ref = c * fn(x)
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0:
        raise ValueError("denoiser output is zero; deviation undefined")
    return float(np.linalg.norm(fn(c * x) - ref) / ref_norm)


def check_passivity(
    denoiser,
    x: np.ndarray,
    lap: Laplacian | None = None,
    decomp: SpectralDecomp | None = None,
) -> float:
    """Strong-passivity proxy ``||D(x)||^2 / ||x||^2`` (should be <= 1)."""
    x = np.asarray(x, dtype=float)
    xsq = float(np.sum(x * x))
    if xsq == 0:
        raise ValueError("passivity check needs a nonzero signal")
    fn = _as_callable(denoiser, lap, decomp)
    out = fn(x)
    return float(np.sum(out * out) / xsq)

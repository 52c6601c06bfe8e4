"""Denoiser-regularized signal recovery (RED).

The objective is

    J(x) = 1/2 ||x - y||^2 + (alpha_red / 2) x^T (x - D(x))

for a plugged-in denoiser D.  When D is locally homogeneous and strongly
passive the regularizer gradient collapses to ``x - D(x)``, so the full
gradient is ``x - y + alpha_red (x - D(x))`` with no Jacobian of D anywhere.
This module provides the objective and that simplified gradient, a
fixed-step gradient-descent solver, a Fletcher-Reeves conjugate-gradient
solver (the unrollable one: it accepts per-layer parameters), and empirical
checkers for the two admissibility conditions.

Signals may be ``(N,)`` or ``(N, S)``; batched columns are treated as
independent signals, with per-column line searches in the CG solver so a
batched solve matches column-by-column solves exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .denoisers import Denoiser, _pnp_admm, apply_denoiser, denoiser_gains, lr_smoother
from .exceptions import DivergenceError, StagnationError
from .graphs import Laplacian, SpectralDecomp, _check_signal, gft, igft

# Stagnation guard on the line-search denominator, relative to ||direction||^2.
STAGNATION_TOL = 1e-14
# A column counts as converged when its gradient norm falls this far below
# the observation norm; at that point the direction recursion degenerates.
CONVERGED_TOL = 1e-13
# Objective growth factor treated as divergence in gradient descent.
DIVERGENCE_OBJECTIVE_FACTOR = 1e6
# Signal columns per batched solve over candidates (tuning grid points,
# finite-difference training points); bounds peak memory.
BLOCK_COLUMNS = 100


@dataclass(frozen=True)
class RedProblem:
    """One denoising instance: observation, regularization weight, denoiser.

    ``alpha_red = 0`` is allowed and reduces the objective to the data term.
    Attaching a ``decomp`` routes solvers through the spectral fast path,
    which is exact for both denoiser kinds (all their steps are diagonal in
    the eigenbasis).
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

    Histories have length ``iterations + 1`` (the initial point is entry 0).
    For batched input each history entry is a per-column array.
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


def _reg_ops(prob: RedProblem, a_den=(None,), rho_layers=(None,)):
    """Observation, per-layer ``reg(v) = v - D(v)`` ops and the two coordinate maps.

    Returns ``(y, regs, to_work, to_node)`` in solver working coordinates;
    ``None`` layer values fall back to the problem's denoiser, and each
    distinct ``(alpha, rho)`` layer tuple gets one op.  With a decomposition
    attached, the working coordinates are GFT coefficients, where every
    denoiser is an elementwise gain.  Without one, they are node values, and
    each distinct alpha gets one LR smoother (one sparse factorization).
    Norms and inner products are preserved by the orthonormal basis, so
    every recorded diagnostic matches between the two; only rounding differs.
    """
    den, dec = prob.denoiser, prob.decomp
    smoothers = {}

    def make(a, r):
        if dec is not None:
            s = 1.0 - denoiser_gains(den, dec.eigenvalues, alpha=a, rho=r)
            return lambda v: (s[:, None] if v.ndim == 2 else s) * v
        a = den.alpha if a is None else a
        if a not in smoothers:
            smoothers[a] = lr_smoother(prob.lap, a)
        smooth = smoothers[a]
        if den.kind == "lr":
            return lambda v: v - smooth(v)
        r = den.rho if r is None else r
        return lambda v: v - _pnp_admm(smooth, v, r, den.iters)

    ops = {}
    for key in zip(a_den, rho_layers):
        if key not in ops:
            ops[key] = make(*key)
    regs = [ops[key] for key in zip(a_den, rho_layers)]
    if dec is None:
        return prob.y, regs, lambda v: v, lambda v: v
    return gft(dec, prob.y), regs, lambda v: gft(dec, v), lambda v: igft(dec, v)


def red_objective(prob: RedProblem, x: np.ndarray):
    """Objective value at ``x`` (per column for batched input)."""
    x = _check_signal(x, prob.lap.n_nodes)
    _, (reg,), to_work, to_node = _reg_ops(prob)
    r = to_node(reg(to_work(x)))
    if not np.all(np.isfinite(r)):
        raise DivergenceError("denoiser returned non-finite values", iteration=0)
    data = 0.5 * np.sum((x - prob.y) ** 2, axis=0)
    return data + 0.5 * prob.alpha_red * np.sum(x * r, axis=0)


def red_gradient(prob: RedProblem, x: np.ndarray) -> np.ndarray:
    """Simplified gradient ``x - y + alpha_red (x - D(x))``."""
    x = _check_signal(x, prob.lap.n_nodes)
    _, (reg,), to_work, to_node = _reg_ops(prob)
    return x - prob.y + prob.alpha_red * to_node(reg(to_work(x)))


def red_gradient_descent(prob: RedProblem, step: float, iters: int) -> RedSolveReport:
    """Fixed-step gradient descent from ``x = 0``.

    Raises :class:`DivergenceError` once the objective exceeds a million
    times its initial value; reduce ``step`` when that happens.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    y, (reg,), _, to_node = _reg_ops(prob)
    a = prob.alpha_red

    def diagnostics(x, r):
        grad = x - y + a * r
        gnorm = np.linalg.norm(grad, axis=0)
        obj = 0.5 * np.sum((x - y) ** 2, axis=0) + 0.5 * a * np.sum(x * r, axis=0)
        return grad, gnorm, obj

    x = np.zeros_like(y)
    grad, gnorm, obj = diagnostics(x, reg(x))
    gnorms = [gnorm]
    objs = [obj]
    limit = DIVERGENCE_OBJECTIVE_FACTOR * max(float(np.max(obj, initial=0.0)), 1e-12)
    for k in range(1, iters + 1):
        x = x - step * grad
        grad, gnorm, obj = diagnostics(x, reg(x))
        gnorms.append(gnorm)
        objs.append(obj)
        if not np.all(np.isfinite(obj)) or np.max(obj) > limit:
            raise DivergenceError(
                f"objective exploded at iteration {k}; try a smaller step", iteration=k
            )
    return RedSolveReport(
        x=to_node(x), iterations=iters, gradient_norm_history=gnorms, objective_history=objs
    )


def _layer_values(scalar, layers, K):
    """Per-layer parameter sequence: layer values if given, else flat scalar."""
    if layers is None:
        return [scalar] * (K + 1)
    layers = [float(v) for v in layers]
    if len(layers) != K + 1:
        raise ValueError(f"need {K + 1} layer values, got {len(layers)}")
    return layers


def red_cg_layers(y: np.ndarray, regs, alpha_red, tape=None) -> RedSolveReport:
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
    column's result does not depend on the columns solved beside it; the
    loop stops once every column has converged.  Raises :class:`StagnationError` if the
    line-search denominator vanishes while the gradient is still nonzero,
    and :class:`DivergenceError` on non-finite iterates.

    With a ``tape`` list, each layer run appends what a reverse sweep needs:
    ``(p, g, gsq, converged, safe, tau, x, g_new, gamma)``, i.e. the incoming
    direction, gradient, its squared norm and the converged mask, then the
    line-search denominator (1 where unused), the step, the new iterate, the
    new gradient and the Fletcher-Reeves coefficient.
    """
    K = len(regs) - 1
    if K < 1 or len(alpha_red) != K + 1:
        raise ValueError("need K >= 1 reg ops and one alpha_red per op")

    def diagnostics(x, r, k):
        grad = x - y + alpha_red[k] * r
        obj = 0.5 * np.sum((x - y) ** 2, axis=0) + 0.5 * alpha_red[k] * np.sum(x * r, axis=0)
        return grad, obj

    scale = np.maximum(np.linalg.norm(y, axis=0), 1.0)
    x = np.zeros_like(y)
    g, obj = diagnostics(x, regs[0](x), 0)
    p = -g
    gsq = np.sum(g * g, axis=0)
    gnorms = [np.sqrt(gsq)]
    objs = [obj]
    iterations = 0
    converged = np.sqrt(gsq) <= CONVERGED_TOL * scale
    for k in range(1, K + 1):
        if np.all(converged):
            break
        ap = p + alpha_red[k] * regs[k](p)
        denom = np.sum(p * ap, axis=0)
        psq = np.sum(p * p, axis=0)
        stalled = np.abs(denom) < STAGNATION_TOL * psq
        if np.any(stalled & ~converged):
            raise StagnationError(
                f"line-search denominator vanished at iteration {k} "
                "(direction in the operator's null space)"
            )
        # Converged columns keep x exactly; their direction may have vanished.
        safe = np.where(stalled | converged, 1.0, denom)
        tau = np.where(converged, 0.0, -np.sum(p * g, axis=0) / safe)
        x = x + tau * p
        g_new, obj = diagnostics(x, regs[k](x), k)
        if not np.all(np.isfinite(g_new)):
            raise DivergenceError(f"non-finite iterate at iteration {k}", iteration=k)
        gsq_new = np.sum(g_new * g_new, axis=0)
        # Converged columns restart: a ratio over a rounding-level gsq amplifies noise.
        gamma = np.where(converged, 0.0, gsq_new / np.where(converged, 1.0, gsq))
        if tape is not None:
            tape.append((p, g, gsq, converged, safe, tau, x, g_new, gamma))
        p = -g_new + gamma * p
        g = g_new
        gsq = gsq_new
        gnorms.append(np.sqrt(gsq))
        objs.append(obj)
        iterations = k
        converged = np.sqrt(gsq) <= CONVERGED_TOL * scale
    return RedSolveReport(
        x=x, iterations=iterations, gradient_norm_history=gnorms, objective_history=objs
    )


def candidate_mse(y: np.ndarray, target: np.ndarray, n_cand: int, solve) -> np.ndarray:
    """Mean squared error against ``target`` of each of ``n_cand`` candidates' outputs.

    ``y`` and ``target`` are ``(N, S)``.  Candidates run in blocks of at most
    ``BLOCK_COLUMNS`` signal columns (one candidate at least):
    ``solve(cand, obs)`` gets a block's candidate indices and ``y`` tiled
    once per candidate, so candidate ``cand[i]`` owns columns
    ``i*S .. (i+1)*S - 1``, and returns the outputs in that layout.
    """
    n_nodes, n_sig = y.shape
    per_block = max(1, BLOCK_COLUMNS // n_sig)
    out = np.empty(n_cand)
    for start in range(0, n_cand, per_block):
        cand = np.arange(start, min(start + per_block, n_cand))
        x = solve(cand, np.tile(y, len(cand))).reshape(n_nodes, len(cand), n_sig)
        # Summed node by node, so a one-candidate block rounds as wider blocks do.
        sq = ((x - target[:, None, :]) ** 2).sum(axis=2)
        out[cand] = np.cumsum(sq, axis=0)[-1] / (n_nodes * n_sig)
    return out


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
    problem's flat parameters and make the solver unrollable.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    a_red = _layer_values(prob.alpha_red, alpha_red_layers, K)
    a_den = _layer_values(prob.denoiser.alpha, alpha_denoiser_layers, K)
    if prob.denoiser.kind == "pnp":
        rho = _layer_values(prob.denoiser.rho, pnp_rho_layers, K)
    else:
        if pnp_rho_layers is not None:
            raise ValueError("pnp_rho_layers only applies to the pnp denoiser")
        rho = [None] * (K + 1)
    if any(v < 0 for v in a_red) or any(v < 0 for v in a_den):
        raise ValueError("layer parameters must be nonnegative")
    y, regs, _, to_node = _reg_ops(prob, a_den, rho)
    report = red_cg_layers(y, regs, a_red)
    return replace(report, x=to_node(report.x))


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

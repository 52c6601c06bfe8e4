"""Graph-signal denoisers.

A denoiser kind is one entry of :data:`KINDS`: its parameters, their config
keys and per-layer fields, its gains and their Jacobian.  Every other module
reads a kind from there.  Two kinds are registered:

* ``"lr"``, Laplacian regularization: the closed-form smoother
  ``x = (I + alpha L)^{-1} y`` (:func:`lr_denoise`), with a matrix-free
  conjugate-gradient solve as an iterative reference (:func:`problem.lr_denoise_cg`).
* ``"pnp"``, plug-and-play ADMM: a fixed number of ADMM iterations on the
  denoising objective, with the LR smoother plugged in as the proximal
  step for the prior.

Both are graph filters: each is one gain per graph frequency
(:func:`denoiser_gains`), and that gain vector is the only form in which a
denoiser runs here.  :func:`apply_denoiser` evaluates it at the eigenvalues
of a decomposition, or else at the Ritz values of one Lanczos basis per
signal column; nothing here factors a matrix.  Everything accepts ``(N,)``
or ``(N, S)`` signals; batches are independent columns.

Each kind gives two methods, itself and ``red_<kind>`` (plugged into RED),
whose scalar parameters ``METHOD_PARAM_KEYS`` names; :func:`apply_method`
runs one, and the commands that run methods share the helpers after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import ConfigError
from .files import read_config
from .graphs import Laplacian, SpectralDecomp, build_laplacian, eigendecompose, gft, igft, on_frequencies

DEFAULT_PNP_ITERS = 10


@dataclass(frozen=True)
class Denoiser:
    """A denoiser choice: ``kind`` names a :data:`KINDS` entry.

    ``alpha`` is the smoothing strength of the LR solve (for ``"pnp"`` it
    parameterizes the plugged-in LR step).  ``rho`` and ``iters`` only apply
    to the kinds whose entry lists them.
    """

    kind: str
    alpha: float
    rho: float | None = None
    iters: int = DEFAULT_PNP_ITERS

    def __post_init__(self):
        spec = kind_spec(self.kind)
        check_params(self.kind, [getattr(self, name) for name in spec.fields])
        if spec.iterative and self.iters < 1:
            raise ValueError(f"{self.kind} denoiser needs iters >= 1")


def lr_denoise(lap: Laplacian, y: np.ndarray, alpha: float) -> np.ndarray:
    """Solve ``(I + alpha L) x = y``: the LR gains at the Ritz values of one
    Lanczos basis per column (:func:`apply_denoiser` without a decomposition)."""
    return apply_denoiser(Denoiser("lr", alpha), lap, y)


def lr_gains(lambdas: np.ndarray, alpha: float) -> np.ndarray:
    """Per-frequency gains ``1 / (1 + alpha lambda)`` of the LR smoother."""
    lambdas = np.asarray(lambdas, dtype=float)
    return 1.0 / (1.0 + alpha * lambdas)


def pnp_gains(lambdas: np.ndarray, alpha: float, rho: float, iters: int) -> np.ndarray:
    """Per-frequency gains of the PnP-ADMM denoiser.

    Every PnP-ADMM step is linear and diagonal in the Laplacian eigenbasis,
    so the whole denoiser reduces to one scalar gain per frequency; the gain
    is obtained by running the three-step recursion on spectral coefficients
    with an input coefficient of 1.
    """
    return _pnp_recursion(np.asarray(lambdas, dtype=float), alpha, rho, iters)


def _pnp_recursion(lambdas, alpha, rho, iters):
    """The :func:`pnp_gains` recursion and its checks; ``alpha`` and ``rho``
    may be arrays that broadcast against ``lambdas``."""
    if np.any(np.less_equal(rho, 0)):
        raise ValueError("rho must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    f = lr_gains(lambdas, alpha)
    x = np.ones_like(f)
    u = np.zeros_like(f)
    for _ in range(iters):
        v = f * (x + u)
        x = (1.0 + rho * (v - u)) / (1.0 + rho)
        u = u + x - v
    return x


def _lr_jacobian(lam, params, iters):
    """LR gains and ``dg/dalpha = -lambda g^2``."""
    f = lr_gains(lam, params[0])
    return f, (-lam * f * f)[None]


def _pnp_jacobian(lam, params, iters):
    """PnP gains and their (alpha, rho) tangents, carried through the :func:`pnp_gains` recursion."""
    f, (df,) = _lr_jacobian(lam, params, iters)
    rho = params[1]
    x, u = np.ones_like(f), np.zeros_like(f)
    dx, du = np.zeros((2,) + f.shape), np.zeros((2,) + f.shape)  # d/dalpha, d/drho
    for _ in range(iters):
        v = f * (x + u)
        dv = f * (dx + du)
        dv[0] += df * (x + u)
        x_new = (1.0 + rho * (v - u)) / (1.0 + rho)
        dx = rho * (dv - du) / (1.0 + rho)
        dx[1] += (v - u - x_new) / (1.0 + rho)
        du = du + dx - dv
        u = u + x_new - v
        x = x_new
    return x, dx


class DenoiserKind(NamedTuple):
    """One denoiser kind.

    ``fields`` are its :class:`Denoiser` parameters in gain-table column
    order (``alpha >= 0`` first, later ones positive), ``keys`` their config
    keys and ``layers`` their :class:`red.UnrolledParams` fields.  ``gains(lam,
    params, iters)`` is one filter's gains for one scalar per field;
    ``table`` runs its steps on ``(R, 1, ...)`` columns, one row per filter,
    with ``gains``' bits in each row.
    ``jacobian(lam, params, iters)``, for a ``(1, N)`` row ``lam`` and one
    ``(F, 1)`` column per field, returns the ``(F, N)`` gains (``table``
    rows, bit for bit) and their ``(P, F, N)`` derivatives in the P fields.
    ``iterative`` kinds run ``iters`` steps.
    """

    fields: tuple
    keys: tuple
    layers: tuple
    gains: Callable
    table: Callable
    jacobian: Callable
    iterative: bool = False


KINDS = {
    "lr": DenoiserKind(
        fields=("alpha",), keys=("alpha_lr",), layers=("alpha_denoiser_layers",),
        gains=lambda lam, p, iters: lr_gains(lam, *p),
        table=lambda lam, p, iters: lr_gains(lam, *p),
        jacobian=_lr_jacobian,
    ),
    "pnp": DenoiserKind(
        fields=("alpha", "rho"), keys=("alpha_pnp", "rho"), layers=("alpha_denoiser_layers", "pnp_rho_layers"),
        gains=lambda lam, p, iters: pnp_gains(lam, *p, iters),
        table=lambda lam, p, iters: _pnp_recursion(lam, *p, iters),
        jacobian=_pnp_jacobian,
        iterative=True,
    ),
}


def kind_spec(kind) -> DenoiserKind:
    """The :data:`KINDS` entry of ``kind``; :class:`ValueError` if there is none."""
    spec = KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ValueError(f"unknown denoiser kind {kind!r}")
    return spec


def check_params(kind, values) -> None:
    """Raise :class:`ValueError` unless ``values`` (one scalar or array per
    parameter of ``kind``, in field order) has ``alpha >= 0`` and every later
    parameter positive."""
    for i, (name, value) in enumerate(zip(kind_spec(kind).fields, values)):
        if value is None or np.any(np.less(value, 0) if i == 0 else np.less_equal(value, 0)):
            raise ValueError(f"{kind} denoiser needs {name} {'>= 0' if i == 0 else '> 0'}")


def denoiser_gains(denoiser: Denoiser, lambdas: np.ndarray) -> np.ndarray:
    """Spectral gains of ``denoiser`` at ``lambdas``."""
    spec = KINDS[denoiser.kind]
    return spec.gains(lambdas, [getattr(denoiser, f) for f in spec.fields], denoiser.iters)


def gain_table(kind: str, lambdas: np.ndarray, params, iters: int = DEFAULT_PNP_ITERS) -> np.ndarray:
    """Gains of the ``kind`` denoiser at ``lambdas``, one row per parameter tuple of ``params``.

    All rows run one broadcast evaluation (the kind's ``table``), whose
    elementwise operations and checks are those of :func:`lr_gains` and
    :func:`pnp_gains`, so each row has their bits, and a ``"pnp"`` table with
    a ``rho <= 0`` or ``iters < 1`` raises :class:`ValueError` as they do.
    """
    lam = np.asarray(lambdas, dtype=float)
    spec = KINDS[kind]
    params = np.array(list(params), dtype=float).reshape(-1, len(spec.fields))
    return spec.table(lam, params.T[:, :, None], iters)


def gain_filter(decomp: SpectralDecomp, gains: np.ndarray):
    """The graph filter ``v -> igft(decomp, gains * gft(decomp, v))``, for ``(N,)`` or ``(N, S)`` signals."""

    def apply(v):
        spectrum = gft(decomp, v)
        return igft(decomp, (gains[:, None] if spectrum.ndim == 2 else gains) * spectrum)

    return apply


def apply_denoiser(
    denoiser: Denoiser, lap: Laplacian, y: np.ndarray, decomp: SpectralDecomp | None = None
) -> np.ndarray:
    """Run ``denoiser`` on ``y``: its gains on GFT coefficients when ``decomp``
    is given, otherwise at the Ritz values of one Lanczos basis per column
    (:func:`graphs.on_frequencies`)."""
    filtered = lambda z, lam: (denoiser_gains(denoiser, lam) * z, None)  # noqa: E731
    return on_frequencies(lap, y, filtered, decomp, 1.0 + denoiser.alpha * lap.norm_bound)[0]


# A method applies a registered denoiser kind, alone or plugged into RED as "red_<kind>": (kind, red).
_METHOD_KINDS = {**{kind: (kind, False) for kind in KINDS}, **{f"red_{kind}": (kind, True) for kind in KINDS}}
METHODS = tuple(_METHOD_KINDS)
METHOD_PARAM_KEYS = {m: ("alpha_red",) * red + KINDS[kind].keys for m, (kind, red) in _METHOD_KINDS.items()}
DEFAULT_CG_LAYERS = 10
# Config rules and keys of the commands that run methods.
METHOD_RULE = (METHODS.__contains__, "unknown method {value!r}")
SOLVER_KEYS = {"cg_layers": ("integer", DEFAULT_CG_LAYERS), "pnp_iters": ("integer", DEFAULT_PNP_ITERS)}


def graph_setup(record):
    """Laplacian + decomposition of one record's graph."""
    lap = build_laplacian(record.graph)
    return lap, eigendecompose(lap)


def records_share_graph(records) -> bool:
    first = records[0].graph
    arrays = lambda g: (g.indptr, g.indices, g.weights)
    return all(r.graph is first or all(map(np.array_equal, arrays(r.graph), arrays(first))) for r in records[1:])


def method_kind(method) -> tuple[str, bool]:
    """``(kind, red)`` of ``method``: the denoiser kind it applies, and whether RED wraps it."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    return _METHOD_KINDS[method]


def finite(named: dict) -> list:
    """The values of ``named`` as floats; raises ``ValueError`` naming the first key whose value is not a finite number."""
    values = []
    for key, value in named.items():
        try:
            values.append(float(value))
        except (TypeError, ValueError):
            raise ValueError(f"{key} must be a number, got {value!r}") from None
        if not np.isfinite(values[-1]):
            raise ValueError(f"{key} must be finite, got {values[-1]}")
    return values


def method_denoiser(method, params, pnp_iters=DEFAULT_PNP_ITERS) -> Denoiser:
    """The denoiser that ``method`` applies (a kind) or plugs into RED (red_<kind>).

    ``params`` holds the method's scalar parameters, keyed as in
    ``METHOD_PARAM_KEYS``; each must be finite.
    """
    kind = method_kind(method)[0]
    finite({key: params[key] for key in METHOD_PARAM_KEYS[method]})
    values = {field: params[key] for field, key in zip(KINDS[kind].fields, KINDS[kind].keys)}
    return Denoiser(kind=kind, **values, iters=pnp_iters)


def flat_layers(method, params, K, pnp_iters=None):
    """The K flat layers of ``red_<kind>`` ``method``, set to its scalar ``params`` (keyed as in ``METHOD_PARAM_KEYS``)."""
    from .red import UnrolledParams
    values = finite({key: params[key] for key in METHOD_PARAM_KEYS[method]})
    if pnp_iters is not None:  # a denoise: the checks a RedProblem makes, in its order
        method_denoiser(method, params, pnp_iters)
    if values[0] < 0:
        raise ValueError("alpha_red must be nonnegative")
    return UnrolledParams.constant(K, method_kind(method)[0], *values)


def apply_method(method, params, lap, decomp, y, cg_layers=DEFAULT_CG_LAYERS, pnp_iters=DEFAULT_PNP_ITERS):
    """Run one denoising method with explicit scalar parameters (on Lanczos bases if no ``decomp``)."""
    if not method_kind(method)[1]:
        return apply_denoiser(method_denoiser(method, params, pnp_iters), lap, y, decomp=decomp)
    from .red import red_cg_unrolled
    return red_cg_unrolled(lap, y, flat_layers(method, params, cg_layers, pnp_iters), pnp_iters, decomp).x


def tuned_lookup(tuned_path, method, sigma) -> dict:
    """The parameters of ``method`` at ``sigma`` in the ``tuned.json`` file at ``tuned_path``."""
    payload = read_config(tuned_path)
    entries = payload.get("entries", []) if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{tuned_path}: expected an object whose 'entries' is a list of objects")
    for entry in entries:
        if entry.get("method") != method:
            continue
        try:
            if float(entry["sigma"]) == float(sigma):
                return {k: float(entry[k]) for k in METHOD_PARAM_KEYS[method]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{tuned_path}: malformed {method} entry: {exc!r}") from exc
    raise ConfigError(f"{tuned_path}: no entry for method={method} sigma={sigma:g}")

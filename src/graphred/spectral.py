"""Frequency responses of the regularizer gradients.

Near a stationary point the gradient step of Laplacian-regularized
smoothing acts on each graph frequency with gain ``h_lr = alpha_lr lambda``,
while the denoiser-regularized (RED) step acts with

    h_red(lambda) = alpha_red (alpha_lr lambda) / (1 + alpha_lr lambda)

i.e. the same response rescaled per frequency and saturating at alpha_red.
This module evaluates both responses on an eigenvalue grid, compares them on
an actual graph, and exports plot-ready CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .files import table_text, write_text
from .graphs import Laplacian, SpectralDecomp, eigendecompose


@dataclass(frozen=True)
class FilterResponse:
    """A response sampled on eigenvalues: ``response[i] = h(eigenvalues[i])``."""

    eigenvalues: np.ndarray
    response: np.ndarray
    label: str

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        resp = np.asarray(self.response, dtype=float)
        if lam.shape != resp.shape or lam.ndim != 1:
            raise ValueError("eigenvalues and response must be 1-d with equal length")
        if not np.all(np.isfinite(resp)):
            raise ValueError("response must be finite")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "response", resp)


def h_lr(lambdas: np.ndarray, alpha_lr: float) -> FilterResponse:
    """Laplacian-regularizer gradient response ``alpha_lr * lambda``."""
    if alpha_lr <= 0:
        raise ValueError("alpha_lr must be positive")
    lambdas = np.asarray(lambdas, dtype=float)
    return FilterResponse(lambdas, alpha_lr * lambdas, label="h_lr")


def h_red(lambdas: np.ndarray, alpha_red: float, alpha_lr: float) -> FilterResponse:
    """RED-regularizer gradient response with an LR inner denoiser.

    Rises like ``alpha_red alpha_lr lambda`` at low frequencies and
    saturates at ``alpha_red``: unlike h_lr it never over-penalizes the
    highest frequencies.
    """
    if alpha_red <= 0 or alpha_lr <= 0:
        raise ValueError("alpha values must be positive")
    lambdas = np.asarray(lambdas, dtype=float)
    t = alpha_lr * lambdas
    return FilterResponse(lambdas, alpha_red * t / (1.0 + t), label="h_red")


class ResponseComparison(NamedTuple):
    """Per-eigenvalue pairing of the two responses on one graph."""

    eigenvalues: np.ndarray
    h_lr: np.ndarray
    h_red: np.ndarray
    alpha_red: float
    alpha_lr: float

    def rows(self):
        """(lambda, h_lr, h_red) triples, ascending in lambda."""
        return list(zip(self.eigenvalues, self.h_lr, self.h_red))


def compare_responses(graph_spec, alpha_red: float, alpha_lr: float) -> ResponseComparison:
    """Evaluate both responses on a graph's eigenvalues, or on a grid of them.

    ``graph_spec`` is a :class:`SpectralDecomp`, a :class:`Laplacian`
    (decomposed here) or a 1-d array of eigenvalues.
    """
    if isinstance(graph_spec, SpectralDecomp):
        lam = graph_spec.eigenvalues
    elif isinstance(graph_spec, Laplacian):
        lam = eigendecompose(graph_spec).eigenvalues
    elif isinstance(graph_spec, np.ndarray) and graph_spec.ndim == 1:
        lam = graph_spec
    else:
        raise TypeError("expected SpectralDecomp, Laplacian or 1-d eigenvalue array")
    return ResponseComparison(
        eigenvalues=lam,
        h_lr=h_lr(lam, alpha_lr).response,
        h_red=h_red(lam, alpha_red, alpha_lr).response,
        alpha_red=alpha_red,
        alpha_lr=alpha_lr,
    )


def red_filter_matrix(decomp: SpectralDecomp, alpha_red: float, alpha_lr: float) -> np.ndarray:
    """Node-domain matrix ``U diag(h_red) U^T``.

    Applying it to a signal x equals ``alpha_red (x - lr_denoise(x))``, the
    identity behind the response formula.
    """
    resp = h_red(decomp.eigenvalues, alpha_red, alpha_lr).response
    return (decomp.basis * resp) @ decomp.basis.T


def write_response_csv(path, comparison: ResponseComparison) -> None:
    """CSV export with header ``lambda,h_lr,h_red``, one row per eigenvalue."""
    write_text(path, table_text(comparison.rows(), header="lambda,h_lr,h_red"))

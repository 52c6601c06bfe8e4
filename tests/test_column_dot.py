"""The per-column inner product of the CG core against the product-and-reduce it replaced.

``red._column_dot`` runs ``np.einsum`` on C-ordered blocks of two columns or
more and ``np.add.reduce(a * b, axis=0)`` on everything else.  These
properties hold it, the layer loop (run from ``x = 0`` or resumed from a
given state) and both loss-gradient passes to the bits of
``oracles.red_cg_layers_by_reduce`` and ``oracles.reduce_dot`` on every
layout, so a numpy whose einsum adds in another order fails here instead of
moving artifacts.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import graphred.red
import graphred.unroll
from graphred import GraphRedError
from graphred.red import _column_dot, red_cg_layers
from graphred.unroll import _exact_loss_grad, _fd_loss_grad, _spectral_pairs

from oracles import red_cg_layers_by_reduce, reduce_dot
from test_epoch_oracles import bits, draw_layers, draw_signal, draw_theta, graph, outcome, report_bits  # noqa: F401

LAYOUTS = ["C", "F", "rows", "reversed", "F columns"]


def laid_out(a, layout):
    """``a``'s values in ``layout``: C- or F-ordered, a row-strided column view of a wider C array,
    a view with reversed rows, or a column view of a wider F array.  ``(N,)`` arrays become strided."""
    if a.ndim == 1:
        if layout in ("C", "F"):
            return np.array(a)
        big = np.full(3 * a.size, np.nan)
        big[1::3] = a
        return big[1::3] if layout != "reversed" else big[1::3][::-1].copy()[::-1]
    n, s = a.shape
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "rows":
        big = np.full((2 * n + 1, s + 3), np.nan)
        big[1::2, 2 : s + 2] = a
        return big[1::2, 2 : s + 2]
    if layout == "reversed":
        return np.ascontiguousarray(a[::-1])[::-1]
    big = np.asfortranarray(np.full((n, s + 2), np.nan))
    big[:, 1 : s + 1] = a
    return big[:, 1 : s + 1]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 70), s=st.integers(0, 5), layouts=st.tuples(*[st.sampled_from(LAYOUTS)] * 2),
    scale=st.integers(-300, 300), zeros=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
def test_column_dot_gives_the_bits_of_the_reduce_on_every_layout(n, s, layouts, scale, zeros, seed):
    """``s = 0`` draws ``(N,)`` signals, ``s = 1`` lone columns; the two operands may differ in layout."""
    rng = np.random.default_rng(seed)
    shape = (n,) if s == 0 else (n, s)
    a, b = rng.standard_normal(shape) * 2.0**scale, rng.standard_normal(shape)
    if zeros:
        a[rng.random(shape) < 0.3] = 0.0
    a, b = laid_out(a, layouts[0]), laid_out(b, layouts[1])
    assert bits(_column_dot(a, b)(a, b)) == bits(np.add.reduce(a * b, axis=0))


def test_column_dot_picks_einsum_only_for_c_blocks_of_two_columns():
    block = np.ones((6, 3))
    assert _column_dot(block, block[::2], np.ones((9, 5))[:, 1:4]) is graphred.red._einsum_dot
    for other in (np.ones(6), np.ones((6, 1)), np.asfortranarray(block), np.ones((9, 3))[:, 1:2]):
        assert _column_dot(block, other) is graphred.red._reduce_dot


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        K=st.integers(1, 10), n_sig=st.integers(0, 4), layout=st.sampled_from(LAYOUTS),
        objective=st.booleans(), taped=st.booleans(), data=st.data(),
    )
    def test_matches_the_reduce_oracle(self, graph, K, n_sig, layout, objective, taped, data):
        lap, dec, _, _ = graph
        z = laid_out(dec.basis.T @ draw_signal(data, dec, n_sig), layout)
        ops, weights = draw_layers(data, dec.eigenvalues, K, n_sig)
        runs = []
        for cg in (red_cg_layers, red_cg_layers_by_reduce):
            tape = [] if taped else None
            runs.append(outcome(lambda: report_bits(cg(z, ops, weights, tape, objective=objective), tape)))
        assert runs[0] == runs[1]

    @settings(max_examples=150, deadline=None)
    @given(
        K=st.integers(2, 10), n_sig=st.integers(1, 5), layouts=st.tuples(*[st.sampled_from(LAYOUTS)] * 2),
        objective=st.booleans(), data=st.data(),
    )
    def test_resumed_runs_match_the_reduce_oracle(self, graph, K, n_sig, layouts, objective, data):
        """The observation and the resumed state each take a layout; both may be a lone column."""
        lap, dec, _, _ = graph
        z = dec.basis.T @ draw_signal(data, dec, n_sig)
        ops, weights = draw_layers(data, dec.eigenvalues, K, 0)
        tape = []
        try:
            red_cg_layers_by_reduce(z, ops, weights, tape)
        except GraphRedError:
            assume(False)
        start = data.draw(st.integers(1, K))
        assume(len(tape) >= start)

        def entering(k, layout):
            """The state entering layer k, laid out: the iterate, then p, g and gsq."""
            x = tape[k - 2][6] if k > 1 else np.zeros_like(z)
            return tuple(laid_out(a, layout) for a in (x,) + tape[k - 1][:3])

        y = laid_out(z, layouts[0])
        begin = (start, entering(start, layouts[1]))
        runs = []
        for cg in (red_cg_layers, red_cg_layers_by_reduce):
            resumed = []
            run = lambda: cg(y, ops, weights, resumed, start=begin, objective=objective)  # noqa: E731
            runs.append(outcome(lambda: report_bits(run(), resumed)))
        assert runs[0] == runs[1]


def on_the_oracle(loss_grad, *args):
    """``loss_grad(*args)`` with the reduce oracle's kernel and inner products."""
    with mock.patch.object(graphred.unroll, "red_cg_layers", red_cg_layers_by_reduce), \
            mock.patch.object(graphred.unroll, "_column_dot", reduce_dot):
        return outcome(lambda: loss_grad(*args))


class TestLossGradients:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]), K=st.integers(1, 10), n_sig=st.integers(0, 4), n_pairs=st.integers(1, 2),
        layout=st.sampled_from(LAYOUTS), data=st.data(),
    )
    def test_exact_matches_its_run_on_the_oracle(self, graph, kind, K, n_sig, n_pairs, layout, data):
        lap, dec, _, _ = graph
        pairs = [(draw_signal(data, dec, n_sig), draw_signal(data, dec, n_sig)) for _ in range(n_pairs)]
        coeffs = [(laid_out(z, layout), laid_out(t, layout)) for z, t in _spectral_pairs(pairs, dec)]
        args = (coeffs, dec, K, kind, draw_theta(data, K, kind), 3)
        assert outcome(lambda: _exact_loss_grad(*args)) == on_the_oracle(_exact_loss_grad, *args)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["lr", "pnp"]), K=st.integers(1, 8), n_sig=st.integers(0, 3), n_pairs=st.integers(1, 2),
        block=st.integers(1, 100), data=st.data(),
    )
    def test_finite_differences_match_their_run_on_the_oracle(self, graph, kind, K, n_sig, n_pairs, block, data):
        lap, dec, _, _ = graph
        pairs = [(draw_signal(data, dec, n_sig), draw_signal(data, dec, n_sig)) for _ in range(n_pairs)]
        args = (_spectral_pairs(pairs, dec), dec, K, kind, draw_theta(data, K, kind), 3)
        with mock.patch.object(graphred.red, "BLOCK_COLUMNS", block):
            assert outcome(lambda: _fd_loss_grad(*args)) == on_the_oracle(_fd_loss_grad, *args)

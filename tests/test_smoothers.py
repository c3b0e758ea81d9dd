"""Unit tests for Gauss-Seidel smoothers."""

import numpy as np
import pytest
from helpers_distributed import level_order, natural_order

from repro.mg.smoothers import (
    LevelScheduledGS,
    MulticolorGS,
    make_smoother,
    smooth_distributed,
)
from repro.parallel import HaloExchange, SerialComm
from repro.sparse.coloring import color_sets, structured_coloring8


def sequential_gs_forward(A_dense, diag, r, x0):
    """Ground-truth lexicographic forward GS."""
    x = x0.copy()
    n = len(r)
    for i in range(n):
        s = A_dense[i] @ x - diag[i] * x[i]
        x[i] = (r[i] - s) / diag[i]
    return x


def sequential_gs_backward(A_dense, diag, r, x0):
    x = x0.copy()
    n = len(r)
    for i in range(n - 1, -1, -1):
        s = A_dense[i] @ x - diag[i] * x[i]
        x[i] = (r[i] - s) / diag[i]
    return x


@pytest.fixture(scope="module")
def gs_setup(problem8, rng):
    A = problem8.A
    diag = A.diagonal()
    r = np.random.default_rng(7).standard_normal(A.nrows)
    x0 = np.random.default_rng(8).standard_normal(A.nrows)
    return A, diag, r, x0


class TestLevelScheduledGS:
    def test_forward_matches_sequential(self, problem8, gs_setup):
        A, diag, r, x0 = gs_setup
        sm = LevelScheduledGS(A)
        xfull = x0.copy()
        sm.forward(r, xfull)
        ref = sequential_gs_forward(A.to_dense(), diag, r, x0)
        # Dense reference sums each row in a different association order
        # than the sparse kernel; allow summation-order roundoff.
        np.testing.assert_allclose(xfull[: A.nrows], ref, rtol=1e-9, atol=1e-12)

    def test_backward_matches_sequential(self, problem8, gs_setup):
        A, diag, r, x0 = gs_setup
        sm = LevelScheduledGS(A)
        xfull = x0.copy()
        sm.backward(r, xfull)
        ref = sequential_gs_backward(A.to_dense(), diag, r, x0)
        np.testing.assert_allclose(xfull[: A.nrows], ref, rtol=1e-9, atol=1e-12)

    def test_exact_on_exact_rhs(self, problem8):
        """GS from the exact solution stays at the exact solution."""
        A, b = problem8.A, problem8.b
        sm = LevelScheduledGS(A)
        xfull = np.ones(A.nrows)
        sm.forward(b, xfull)
        np.testing.assert_allclose(xfull, 1.0, rtol=1e-12)


class NaturalOrder:
    """A multicolor smoother driven with natural-order vectors: the
    sweeps themselves take (and leave) the smoother's color order."""

    def __init__(self, sm):
        self.sm = sm
        self.sets = sm.sets
        self.num_passes = sm.num_passes

    def _sweep(self, name, r, xfull):
        P = self.sm.partition
        xl = level_order(P, xfull)
        getattr(self.sm, name)(level_order(P, r), xl)
        xfull[:] = natural_order(P, xl)

    def forward(self, r, xfull):
        self._sweep("forward", r, xfull)

    def backward(self, r, xfull):
        self._sweep("backward", r, xfull)

    def symmetric(self, r, xfull):
        self._sweep("symmetric", r, xfull)


class TestMulticolorGS:
    def make(self, problem):
        A = problem.A
        sets = color_sets(structured_coloring8(problem.sub))
        return NaturalOrder(MulticolorGS(A, A.diagonal(), sets))

    def test_reduces_error(self, problem8):
        A, b = problem8.A, problem8.b
        sm = self.make(problem8)
        xfull = np.zeros(A.nrows)
        err0 = np.linalg.norm(b - A.spmv(xfull))
        for _ in range(3):
            sm.forward(b, xfull)
        err = np.linalg.norm(b - A.spmv(xfull))
        assert err < 0.2 * err0

    def test_exact_on_exact_rhs(self, problem8):
        A, b = problem8.A, problem8.b
        sm = self.make(problem8)
        xfull = np.ones(A.nrows)
        sm.forward(b, xfull)
        np.testing.assert_allclose(xfull, 1.0, rtol=1e-12)

    def test_vectors_are_in_color_order(self, problem8):
        """The smoother's own order: color sets back to back."""
        sm = self.make(problem8).sm
        assert np.array_equal(sm.order, np.concatenate(sm.sets))

    def test_matches_gs_on_permuted_order(self, problem8, gs_setup):
        """Multicolor GS equals sequential GS in color-sorted row order."""
        A, diag, r, x0 = gs_setup
        sm = self.make(problem8)
        xfull = x0.copy()
        sm.forward(r, xfull)
        # Sequential ground truth, visiting rows color set by color set.
        order = np.concatenate(sm.sets)
        x_ref = x0.copy()
        A_dense = A.to_dense()
        for i in order:
            s = A_dense[i] @ x_ref - diag[i] * x_ref[i]
            x_ref[i] = (r[i] - s) / diag[i]
        np.testing.assert_allclose(xfull[: A.nrows], x_ref, rtol=1e-12)

    def test_num_passes(self, problem8):
        assert self.make(problem8).num_passes == 8

    def test_backward_reverses_colors(self, problem8, gs_setup):
        A, diag, r, x0 = gs_setup
        sm = self.make(problem8)
        xfull = x0.copy()
        sm.backward(r, xfull)
        order = np.concatenate(list(reversed(sm.sets)))
        x_ref = x0.copy()
        A_dense = A.to_dense()
        for i in order:
            s = A_dense[i] @ x_ref - diag[i] * x_ref[i]
            x_ref[i] = (r[i] - s) / diag[i]
        np.testing.assert_allclose(xfull[: A.nrows], x_ref, rtol=1e-12)

    def test_symmetric_sweep(self, problem8, gs_setup):
        A, diag, r, x0 = gs_setup
        sm = self.make(problem8)
        xf = x0.copy()
        sm.symmetric(r, xf)
        xf2 = x0.copy()
        sm.forward(r, xf2)
        sm.backward(r, xf2)
        np.testing.assert_allclose(xf, xf2)

    def test_convergence_slightly_worse_than_lexicographic(self, problem16):
        """The paper: multicolor ordering may degrade convergence a bit.

        Compare error contraction of 10 sweeps; multicolor should
        converge, and lexicographic should be at least as good.
        """
        A, b = problem16.A, problem16.b
        mc = self.make(problem16)
        lex = LevelScheduledGS(A)
        x_mc = np.zeros(A.nrows)
        x_lex = np.zeros(A.nrows)
        for _ in range(10):
            mc.forward(b, x_mc)
            lex.forward(b, x_lex)
        err_mc = np.linalg.norm(b - A.spmv(x_mc))
        err_lex = np.linalg.norm(b - A.spmv(x_lex))
        assert err_lex <= err_mc * 1.05


class TestFactoryAndDistributed:
    def test_factory_multicolor_requires_sets(self, problem8):
        with pytest.raises(ValueError):
            make_smoother(problem8.A, "multicolor")

    def test_factory_unknown(self, problem8):
        with pytest.raises(ValueError):
            make_smoother(problem8.A, "jacobi")

    def test_smooth_distributed_serial(self, problem8):
        A, b = problem8.A, problem8.b
        sm = LevelScheduledGS(A)
        halo = HaloExchange(problem8.halo, SerialComm())
        xfull = np.zeros(A.nrows)
        smooth_distributed(sm, halo, b, xfull, "forward")
        assert np.linalg.norm(b - A.spmv(xfull)) < np.linalg.norm(b)

    def test_smooth_distributed_bad_direction(self, problem8):
        sm = LevelScheduledGS(problem8.A)
        halo = HaloExchange(problem8.halo, SerialComm())
        with pytest.raises(ValueError):
            smooth_distributed(sm, halo, problem8.b, np.zeros(512), "sideways")

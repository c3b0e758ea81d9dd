"""Panel (multi-RHS) kernel parity (PR 6 tentpole).

Every panel op must be bitwise-equal *per column* to looping its
single-RHS counterpart over the panel — the contract that lets a
single-pass backend amortize the matrix stream across the panel
without perturbing any column's arithmetic.  Checked for every
registered format at every precision rung serially, and through the
distributed operator's ``matvec_panel`` / fused panel residual at 1,
2 and 8 SPMD ranks (``REPRO_RANKS`` override, as in the distributed
suites).
"""

import numpy as np
import pytest
from helpers_distributed import (
    RANKS,
    counted_dispatch,
    level_order,
    natural_order,
    run_ranks,
    smooth_vector,
)

from repro.backends.dispatch import (
    dot,
    dot_multi,
    spmv,
    spmv_multi,
    symgs_sweep,
    symgs_sweep_multi,
    waxpby,
    waxpby_dot,
    waxpby_dot_multi,
)
from repro.backends.registry import KernelNotFoundError, registry
from repro.backends.workspace import Workspace
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.solvers.operator import DistributedOperator
from repro.sparse import to_format, to_precision
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.sparse.partitioned import partition_colors
from repro.stencil import generate_problem

FORMATS = ("csr", "ell")
PRECISIONS = ("fp64", "fp32")
NCOL = 3


def make_panel(n, ncol, dtype, seed=0):
    """Column-major panel of rung-representable test columns."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, ncol), dtype=dtype, order="F")
    for j in range(ncol):
        # Values on a coarse lattice so every rung represents them exactly.
        X[:, j] = np.round(rng.uniform(-2, 2, size=n) * 8) / 8
    return X


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("prec", PRECISIONS)
class TestSerialPanelParity:
    @pytest.fixture()
    def matrix(self, problem16, fmt, prec):
        return to_precision(to_format(problem16.A, fmt), prec)

    def test_spmv_multi_matches_looped_spmv(self, matrix):
        A = matrix
        X = make_panel(A.ncols, NCOL, A.dtype)
        Y = spmv_multi(A, X)
        assert Y.shape == (A.nrows, NCOL)
        for j in range(NCOL):
            assert np.array_equal(Y[:, j], spmv(A, X[:, j].copy()))

    def test_spmv_multi_out_and_ws(self, matrix):
        A = matrix
        ws = Workspace()
        X = make_panel(A.ncols, NCOL, A.dtype)
        out = ws.get_panel("y", A.nrows, NCOL, A.dtype)
        Y = spmv_multi(A, X, out=out, ws=ws)
        assert Y is out
        for j in range(NCOL):
            assert np.array_equal(Y[:, j], spmv(A, X[:, j].copy()))

    @pytest.mark.parametrize("pooled", [True, False], ids=["ws", "no-ws"])
    def test_spmv_multi_is_one_dispatch(self, matrix, pooled):
        """A panel product resolves one kernel: formats without a
        single-pass body *call* their single-vector function per column
        instead of looking it up again, so dispatch wrappers (fault
        injector, tracer, census) see one ``spmv_multi`` and nothing
        nested under it."""
        A = matrix
        X = make_panel(A.ncols, NCOL, A.dtype)
        with counted_dispatch() as counts:
            spmv_multi(A, X, ws=Workspace() if pooled else None)
        assert counts == {(None, "spmv_multi"): 1}

    def test_symgs_sweep_multi_matches_looped_sweep(self, problem16, matrix):
        """The panel sweep lives on the color-packed layout only; each
        column is the index-set reference sweep of that column."""
        A = matrix
        sets = color_sets(structured_coloring8(problem16.sub))
        diag = A.diagonal()
        diag_sets = [diag[rows] for rows in sets]
        P = partition_colors(A, sets, diag=diag)
        R = make_panel(A.nrows, NCOL, A.dtype)
        for direction in ("forward", "backward"):
            Xp = np.zeros((A.ncols, NCOL), dtype=A.dtype, order="F")
            symgs_sweep_multi(P, level_order(P, R), Xp, direction=direction)
            Xp = natural_order(P, Xp)
            for j in range(NCOL):
                x1 = np.zeros(A.ncols, dtype=A.dtype)
                symgs_sweep(
                    A,
                    R[:, j].copy(),
                    x1,
                    sets,
                    diag_sets,
                    direction=direction,
                )
                assert np.array_equal(Xp[:, j], x1), (direction, j)
        with pytest.raises(KernelNotFoundError):
            symgs_sweep_multi(A, R, Xp)


class TestPanelFaultSite:
    """A single-pass ``spmv_multi`` never calls the single-vector
    kernel, so the panel op is an injector site of its own — and the
    corruption must land in a column-major panel, not in a flattened
    copy of it."""

    @pytest.mark.parametrize("mode", ["nan", "bitflip"])
    def test_uncovered_fault_lands_in_the_panel(self, problem16, mode):
        from repro.resilience import parse_fault_spec

        A = problem16.A
        X = make_panel(A.ncols, NCOL, A.dtype)
        ws = Workspace()
        clean = spmv_multi(A, X, ws=ws)
        injector = parse_fault_spec(f"spmv:{mode};seed=5").injector()
        registry.set_wrapper(injector.kernel_wrapper())
        try:
            Y = spmv_multi(A, X, out=ws.get_panel("y", A.nrows, NCOL, A.dtype), ws=ws)
        finally:
            registry.set_wrapper(None)
        assert injector.exhausted
        assert np.count_nonzero(~(Y == clean)) == 1  # exactly one element hit


@pytest.mark.parametrize("prec", PRECISIONS)
class TestVectorPanelParity:
    """Format-free panel ops (vector motifs) across the rungs."""

    def dtype(self, prec):
        return {"fp64": np.float64, "fp32": np.float32}[prec]

    def test_waxpby_dot_multi_columns_are_the_unfused_pair(self, prec):
        """The fused panel motif is, per column, ``waxpby`` then
        ``dot`` (what ``fusion=False`` and the tuner's unfused variant
        compose) — into ``out`` too."""
        dt = self.dtype(prec)
        X = make_panel(512, NCOL, dt)
        Y = make_panel(512, NCOL, dt, seed=1)
        out = np.empty_like(Y)
        W, locals_sq = waxpby_dot_multi(0.5, X, -0.25, Y, out=out, ws=Workspace())
        assert W is out
        for j in range(NCOL):
            w = waxpby(0.5, X[:, j].copy(), -0.25, Y[:, j].copy())
            assert np.array_equal(W[:, j], w)
            assert locals_sq[j] == dot(w, w)

    def test_dot_multi(self, prec):
        dt = self.dtype(prec)
        X = make_panel(512, NCOL, dt)
        Y = make_panel(512, NCOL, dt, seed=1)
        d = dot_multi(X, Y)
        assert d.dtype == np.float64
        for j in range(NCOL):
            assert d[j] == dot(X[:, j].copy(), Y[:, j].copy())

    def test_waxpby_dot_multi(self, prec):
        dt = self.dtype(prec)
        X = make_panel(512, NCOL, dt)
        Y = make_panel(512, NCOL, dt, seed=1)
        W, locals_sq = waxpby_dot_multi(1.0, X, -1.0, Y)
        for j in range(NCOL):
            w1, l1 = waxpby_dot(1.0, X[:, j].copy(), -1.0, Y[:, j].copy())
            assert np.array_equal(W[:, j], w1)
            assert locals_sq[j] == l1


class TestGetPanelContract:
    def test_column_major_and_pooled(self):
        ws = Workspace()
        P = ws.get_panel("p", 64, 4, np.float64)
        assert P.shape == (64, 4)
        assert P.flags["F_CONTIGUOUS"]
        assert P[:, 2].flags["C_CONTIGUOUS"]  # columns are contiguous
        assert ws.misses == 1
        P2 = ws.get_panel("p", 64, 4, np.float64)
        assert P2.base is P.base  # same pooled backing buffer
        assert ws.hits == 1

    def test_distinct_widths_distinct_buffers(self):
        ws = Workspace()
        P4 = ws.get_panel("p", 64, 4, np.float64)
        P8 = ws.get_panel("p", 64, 8, np.float64)
        assert P4.base is not P8.base
        assert ws.misses == 2


@pytest.mark.parametrize("nranks", RANKS)
class TestDistributedPanelParity:
    def test_matvec_panel_bitwise_per_column(self, nranks):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            op = DistributedOperator(prob.A, prob.halo, comm)
            n = prob.nlocal
            X = np.empty((n, NCOL), order="F")
            for j in range(NCOL):
                X[:, j] = smooth_vector(sub) * (1.0 + 0.5 * j)
            passes0, cols0 = op.matrix_passes, op.rhs_columns
            Y = op.matvec_panel(X)
            assert op.matrix_passes == passes0 + 1  # one pass ...
            assert op.rhs_columns == cols0 + NCOL  # ... N columns
            ok = all(
                np.array_equal(Y[:, j], op.matvec(X[:, j].copy()))
                for j in range(NCOL)
            )
            return bool(ok)

        assert all(run_ranks(nranks, fn))

    def test_residual_panel_matches_single(self, nranks):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            op = DistributedOperator(prob.A, prob.halo, comm)
            n = prob.nlocal
            X = np.empty((n, NCOL), order="F")
            B = np.empty((n, NCOL), order="F")
            for j in range(NCOL):
                X[:, j] = smooth_vector(sub) * (1.0 + 0.5 * j)
                B[:, j] = prob.b * (1.0 - 0.25 * j)
            R = np.empty((n, NCOL), order="F")
            locals_sq = op.residual_panel_norm2_local(B, X, out=R)
            ok = True
            for j in range(NCOL):
                r1 = np.empty(n)
                l1 = op.residual_norm2_local(B[:, j].copy(), X[:, j].copy(), out=r1)
                ok = ok and np.array_equal(R[:, j], r1)
                ok = ok and locals_sq[j] == l1
            return bool(ok)

        assert all(run_ranks(nranks, fn))

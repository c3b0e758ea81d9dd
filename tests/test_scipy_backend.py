"""The SciPy kernel parity class: compiled row products under ELL / CSR.

What only this class needs pinned: the private ``csr_matvec`` signature
it wraps (and what happens when the import fails), the zero-copy view
of an ELL block, the guards in front of a call that checks no bound
and silently copies mismatched operands, and how far the class sits
from the NumPy reference (rung tolerance, never bitwise).  The bitwise
contracts *inside* the class run where they always did, parametrized
over conftest's ``parity_class``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from helpers_distributed import RUNG_TOLS as TOLS
from helpers_distributed import level_order, natural_order, use_backend
from test_alloc_regression import transient_peak

from repro.backends import Workspace, scipy_backend, spmv, spmv_multi, spmv_rows
from repro.backends.registry import registry
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig, MultigridPreconditioner
from repro.mg.smoothers import MulticolorGS
from repro.parallel import SerialComm, run_spmd
from repro.sparse import to_format, to_precision
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.sparse.csr import CSRMatrix
from repro.sparse.partitioned import partition_colors
from repro.stencil import generate_problem

pytestmark = pytest.mark.skipif(
    scipy_backend.csr_matvec is None,
    reason="this SciPy has no scipy.sparse._sparsetools.csr_matvec",
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def scipy_class():
    with use_backend("scipy"):
        yield


def in_numpy_class(call):
    with use_backend("numpy"):
        return call()


def assert_rung_close(got, ref, prec):
    rtol, atol = TOLS[prec]
    scale = max(1.0, float(np.abs(ref).max()))
    np.testing.assert_allclose(
        np.asarray(got, dtype=np.float64),
        np.asarray(ref, dtype=np.float64),
        rtol=rtol,
        atol=atol * scale,
    )


# ----------------------------------------------------------------------
class TestPrivateSignature:
    def test_csr_matvec_accumulates_into_y(self):
        """``csr_matvec(m, n, indptr, indices, data, x, y)``: ``y += A x``
        in place — the wrapper zeroes ``y`` first and relies on the
        argument order."""
        from scipy.sparse._sparsetools import csr_matvec

        indptr = np.array([0, 2, 3, 5], dtype=np.int32)
        indices = np.array([0, 2, 1, 0, 2], dtype=np.int32)
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        x = np.array([1.0, 10.0, 100.0])
        y = np.array([0.5, 0.25, 0.125])
        assert csr_matvec(3, 3, indptr, indices, data, x, y) is None
        assert np.array_equal(y, [201.5, 30.25, 504.125])

    def test_import_failure_leaves_the_reference_class(self):
        """A SciPy without the private module: nothing registers, the
        registry holds ``numpy`` alone, and a solve is green."""
        script = textwrap.dedent(
            """
            import sys
            sys.modules["scipy.sparse._sparsetools"] = None  # import fails
            import numpy as np
            import repro.backends as backends
            from repro.backends import scipy_backend
            from repro.fp import MIXED_DS_POLICY
            from repro.geometry import Subdomain
            from repro.mg import MGConfig
            from repro.parallel import SerialComm
            from repro.solvers import GMRESIRSolver
            from repro.stencil import generate_problem

            assert scipy_backend.csr_matvec is None
            assert backends.available_backends() == ["numpy"]
            assert backends.active_backend() == "numpy"
            prob = generate_problem(Subdomain.serial(8, 8, 8))
            solver = GMRESIRSolver(
                prob, SerialComm(), policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2),
            )
            x, st = solver.solve(prob.b, tol=1e-9)
            assert st.converged and abs(x - 1.0).max() < 1e-7
            print("ok")
            """
        )
        env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**env, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_autoselected_wherever_it_imports(self):
        assert registry.backends() == ["scipy", "numpy"]
        variants = {
            op: {v for v in registry.available_variants(op) if v[2] == "scipy"}
            for op in ("spmv", "spmv_multi", "spmv_rows")
        }
        grid = {
            (fmt, prec, "scipy")
            for fmt in ("ell", "csr")
            for prec in ("fp64", "fp32")
        }
        assert variants["spmv"] == variants["spmv_multi"] == grid
        # CSR has no row-subset kernel in either class: the generic
        # reference takes the rows of this class's full product.
        assert variants["spmv_rows"] == {v for v in grid if v[0] == "ell"}
        assert not [
            k for k in registry._kernels
            if k[3] == "scipy" and k[0] not in variants
        ]


# ----------------------------------------------------------------------
class TestZeroCopy:
    @pytest.mark.parametrize("prec", ["fp64", "fp32"])
    def test_ell_block_is_handed_over_as_views(self, problem8, prec):
        A = problem8.A.astype(prec)
        indptr, indices, data = scipy_backend._operands(A)
        assert np.shares_memory(indices, A.cols) and indices.dtype == np.int32
        assert np.shares_memory(data, A.vals) and data.dtype == A.dtype
        assert indptr.dtype == np.int32 and indptr.nbytes == 4 * (A.nrows + 1)
        assert np.array_equal(indptr, np.arange(A.nrows + 1) * A.width)
        assert scipy_backend._operands(A)[0] is indptr  # cached on the matrix

    def test_csr_row_pointer_is_narrowed_once(self, problem8):
        """An int64 ``indptr`` beside int32 ``indices`` makes
        ``csr_matvec`` upcast and copy the indices on every call."""
        A = to_format(problem8.A, "csr")
        assert A.indptr.dtype == np.int64 and A.indices.dtype == np.int32
        indptr, indices, data = scipy_backend._operands(A)
        assert indptr.dtype == np.int32 and np.array_equal(indptr, A.indptr)
        assert indices is A.indices and data is A.data
        assert scipy_backend._operands(A)[0] is indptr

    @pytest.mark.parametrize("fmt", ["ell", "csr"])
    @pytest.mark.parametrize("prec", ["fp64", "fp32"])
    def test_products_allocate_nothing(self, scipy_class, problem16, fmt, prec):
        A = to_precision(to_format(problem16.A, fmt), prec)
        rng = np.random.default_rng(0)
        X = np.asfortranarray(rng.standard_normal((A.ncols, 4)).astype(A.dtype))
        Y = np.empty((A.nrows, 4), dtype=A.dtype, order="F")
        rows = np.arange(0, A.nrows, 3)
        yr = np.empty(len(rows), dtype=A.dtype)
        ws = Workspace()
        limit = 16 * 1024  # nnz is 110 592 slots: O(nnz) would be >= 400 KB
        assert transient_peak(lambda: spmv(A, X[:, 0], out=Y[:, 0], ws=ws)) < limit
        assert transient_peak(lambda: spmv_multi(A, X, out=Y, ws=ws)) < limit
        if fmt == "ell":
            call = lambda: spmv_rows(A, rows, X[:, 1], out=yr, ws=ws)  # noqa: E731
            assert transient_peak(call) < limit


# ----------------------------------------------------------------------
class TestGuards:
    """``csr_matvec`` copies O(nnz) when dtypes or strides mismatch and
    checks no bound; each guard routes to the NumPy body instead."""

    @pytest.fixture
    def guarded(self, scipy_class, monkeypatch, problem16):
        """(A, x, call counter): the compiled entry is counted, so a
        test can tell which body ran."""
        calls = []
        real = scipy_backend.csr_matvec

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(scipy_backend, "csr_matvec", counting)
        A = problem16.A.astype("fp64")
        x = np.random.default_rng(1).standard_normal(A.ncols)
        return A, x, calls

    @staticmethod
    def numpy_product(A, x, **kw):
        return registry.lookup("spmv", "ell", A.dtype, backend="numpy")(A, x, **kw)

    def test_matching_operands_take_the_compiled_path(self, guarded):
        A, x, calls = guarded
        y = spmv(A, x, ws=Workspace())
        assert calls == [1]
        assert_rung_close(y, self.numpy_product(A, x), "fp64")

    def test_strided_x_falls_back(self, guarded):
        A, x, calls = guarded
        wide = np.zeros(2 * A.ncols)
        wide[::2] = x
        ws, out = Workspace(), np.empty(A.nrows)
        y = spmv(A, wide[::2], out=out, ws=ws)
        assert not calls
        assert np.array_equal(y, self.numpy_product(A, x, ws=Workspace()))
        peak = transient_peak(lambda: spmv(A, wide[::2], out=out, ws=ws))
        assert peak < 64 * 1024

    def test_strided_out_falls_back(self, guarded):
        A, x, calls = guarded
        wide = np.zeros(2 * A.nrows)
        spmv(A, x, out=wide[::2], ws=Workspace())
        assert not calls
        assert np.array_equal(wide[::2], self.numpy_product(A, x, ws=Workspace()))
        assert not wide[1::2].any()

    def test_row_sliced_panel_falls_back(self, guarded):
        """A C-order panel has strided columns."""
        A, x, calls = guarded
        X = np.ascontiguousarray(np.stack([x, 2 * x], axis=1))
        Y = spmv_multi(A, X, ws=Workspace())
        assert not calls
        assert np.array_equal(Y[:, 1], self.numpy_product(A, 2 * x, ws=Workspace()))

    @pytest.mark.parametrize("which", ["x", "out"])
    def test_mismatched_dtypes_fall_back(self, guarded, which):
        A, x, calls = guarded
        A32 = A.astype("fp32")
        if which == "x":
            y = spmv(A32, x)  # fp32 matrix, fp64 vector
            ref = self.numpy_product(A32, x)
        else:
            out = np.empty(A.nrows, dtype=np.float32)
            y = spmv(A, x, out=out, ws=Workspace())
            ref = self.numpy_product(A, x, out=np.empty_like(out), ws=Workspace())
        assert not calls
        assert y.dtype == ref.dtype and np.array_equal(y, ref)

    def test_block_past_int32_addressing_falls_back(self, guarded, monkeypatch):
        """``m * w >= 2**31`` cannot be addressed by an int32 row
        pointer (the limit is mocked down to this matrix's size)."""
        A, x, calls = guarded
        monkeypatch.setattr(scipy_backend, "_INDEX_LIMIT", A.nrows * A.width)
        B = A.astype("fp64")  # a fresh matrix: nothing cached on it
        ws, out = Workspace(), np.empty(A.nrows)
        y = spmv(B, x, out=out, ws=ws)
        assert scipy_backend._operands(B) is None and not calls
        assert np.array_equal(y, self.numpy_product(A, x, ws=Workspace()))
        assert transient_peak(lambda: spmv(B, x, out=out, ws=ws)) < 64 * 1024
        monkeypatch.setattr(scipy_backend, "_INDEX_LIMIT", A.nrows * A.width + 1)
        spmv(A.astype("fp64"), x, out=out, ws=ws)
        assert calls == [1]

    def test_out_of_range_column_falls_back(self, guarded):
        """NumPy's gather clips a bad index; ``csr_matvec`` would read
        past ``x``."""
        A, x, calls = guarded
        B = A.astype("fp64")
        B.cols = B.cols.copy()
        B.cols[5, 3] = B.ncols
        spmv(B, x, ws=Workspace())
        assert scipy_backend._operands(B) is None and not calls

    @pytest.mark.parametrize("fmt", ["ell", "csr"])
    def test_short_operands_are_errors(self, scipy_class, problem8, fmt):
        A = to_format(problem8.A, fmt)
        x = np.ones(A.ncols)
        with pytest.raises(ValueError, match="columns"):
            spmv(A, x[:-1])
        with pytest.raises(ValueError, match="rows"):
            spmv(A, x, out=np.empty(A.nrows - 1))
        with pytest.raises(ValueError, match="rows"):
            spmv_multi(A, x[:, None], out=np.empty((A.nrows + 1, 1)))
        if fmt == "ell":
            with pytest.raises(ValueError, match="rows"):
                spmv_rows(A, np.arange(4), x, out=np.empty(3))

    def test_empty_shapes(self, scipy_class):
        empty = CSRMatrix(np.zeros(1, np.int64), np.zeros(0, np.int32), np.zeros(0), 4)
        assert spmv(empty, np.ones(4)).shape == (0,)
        no_nnz = CSRMatrix(np.zeros(4, np.int64), np.zeros(0, np.int32), np.zeros(0), 4)
        for A in (no_nnz, to_format(no_nnz, "ell")):
            assert np.array_equal(spmv(A, np.ones(4)), np.zeros(3))
        A = to_format(generate_problem(Subdomain.serial(4, 4, 4)).A, "ell")
        assert spmv_rows(A, np.arange(0), np.ones(A.ncols)).shape == (0,)


# ----------------------------------------------------------------------
def rank_local(n, layout):
    """A serial box, or rank 0 of a 2x1x1 grid (ghost columns)."""
    if layout == "whole":
        return generate_problem(Subdomain.serial(n, n, n))
    return generate_problem(Subdomain(BoxGrid(n, n, n), ProcessGrid(2, 1, 1), 0))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("fmt", ["ell", "csr"])
@pytest.mark.parametrize("prec", ["fp64", "fp32"])
@pytest.mark.parametrize("layout", ["whole", "split"])
class TestCrossClassAgreement:
    """The class is *near* the reference — to the rung's tolerance —
    and never asserted bitwise against it."""

    def test_products(self, scipy_class, n, fmt, prec, layout):
        prob = rank_local(n, layout)
        A = to_precision(to_format(prob.A, fmt), prec)
        rng = np.random.default_rng(n)
        X = np.asfortranarray(rng.standard_normal((A.ncols, 3)).astype(A.dtype))
        rows = np.sort(rng.permutation(A.nrows)[: A.nrows // 3])
        for call in (
            lambda: spmv(A, X[:, 0], ws=Workspace()),
            lambda: spmv(A, X[:, 0]),
            lambda: spmv_multi(A, X, ws=Workspace()),
            lambda: spmv_rows(A, rows, X[:, 1], ws=Workspace()),
            lambda: spmv_rows(A, rows, X[:, 1]),
        ):
            assert_rung_close(call(), in_numpy_class(call), prec)

    def test_one_sweep(self, scipy_class, n, fmt, prec, layout):
        prob = rank_local(n, layout)
        A = to_precision(to_format(prob.A, fmt), prec)
        diag = A.diagonal()
        sets = color_sets(structured_coloring8(prob.sub))
        halo = prob.halo if layout == "split" else None
        P = partition_colors(A, halo, sets, diag=diag)
        gs = MulticolorGS(A, diag, sets, ws=Workspace(), partition=P)
        rng = np.random.default_rng(n + 1)
        r = level_order(P, rng.standard_normal(A.nrows).astype(A.dtype))
        x0 = level_order(P, rng.standard_normal(A.ncols).astype(A.dtype))

        def sweep():
            x = x0.copy()
            gs.forward(r, x)
            gs.backward(r, x)
            return natural_order(P, x)

        assert_rung_close(sweep(), in_numpy_class(sweep), prec)

    def test_one_vcycle(self, scipy_class, n, fmt, prec, layout):
        """Serial, or two thread-ranks with a halo round per sweep."""
        nranks = 1 if layout == "whole" else 2

        def rank(comm):
            sub = Subdomain(BoxGrid(n, n, n), ProcessGrid(nranks, 1, 1), comm.rank)
            prob = generate_problem(sub)
            mg = MultigridPreconditioner.build(
                prob,
                comm,
                MGConfig(nlevels=2 if n == 8 else 4),
                precision=prec,
                matrix_format=fmt,
            )
            r = np.random.default_rng([n, comm.rank]).standard_normal(prob.nlocal)
            return mg.apply(r.astype(mg.levels[0].A.dtype)).copy()

        def cycle():
            if nranks == 1:
                return rank(SerialComm())
            return np.concatenate(run_spmd(nranks, rank))

        assert_rung_close(cycle(), in_numpy_class(cycle), prec)

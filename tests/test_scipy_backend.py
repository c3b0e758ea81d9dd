"""The SciPy kernel parity class: compiled row products under ELL / CSR.

What only this class needs pinned: the private ``csr_matvec`` signature
it wraps (and what happens when the import fails), the zero-copy view
of an ELL block, the guards in front of a call that checks no bound
and silently copies mismatched operands, and how far the class sits
from the NumPy reference (rung tolerance, never bitwise).  The bitwise
contracts *inside* the class run where they always did, parametrized
over conftest's ``parity_class``.
"""

import gc
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers_distributed import RUNG_TOLS as TOLS
from helpers_distributed import level_order, natural_order, use_backend
from test_alloc_regression import transient_peak

from repro.backends import (
    Workspace,
    numpy_backend,
    scipy_backend,
    spmv,
    spmv_multi,
    spmv_rows,
)
from repro.backends.dispatch import bind_spmv_multi
from repro.backends.registry import registry
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig, MultigridPreconditioner
from repro.mg.smoothers import MulticolorGS
from repro.parallel import SerialComm, run_spmd
from repro.sparse import to_format, to_precision
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.sparse.csr import CSRMatrix
from repro.sparse.partitioned import partition_colors, partition_matrix
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


def csr_product(A, x):
    """The compiled row product itself, whatever path ``spmv`` takes."""
    y = np.zeros(A.nrows, dtype=A.dtype)
    scipy_backend.csr_matvec(A.nrows, A.ncols, *scipy_backend._operands(A), x, y)
    return y


def colour_block(prob, A):
    """The first colour block of ``A``'s serial colour-major layout."""
    sets = color_sets(structured_coloring8(prob.sub))
    return partition_colors(A, sets).passes[0].A


@pytest.fixture
def compiled_calls(monkeypatch):
    """Counts of the two compiled entries (``"dia"`` / ``"csr"``), so a
    test can tell which product ran."""
    calls = {"dia": 0, "csr": 0}

    def counted(name):
        real = getattr(scipy_backend, name + "_matvec")

        def counting(*args):
            calls[name] += 1
            return real(*args)

        return counting

    for name in calls:
        monkeypatch.setattr(scipy_backend, name + "_matvec", counted(name))
    return calls


def index_free(monkeypatch):
    """Build diagonal plans at every size (8^3 and 16^3 included)."""
    monkeypatch.setattr(scipy_backend, "DIA_MIN_ROWS", 0)


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

    @pytest.mark.skipif(scipy_backend.dia_matvec is None, reason="no dia_matvec")
    def test_dia_matvec_accumulates_diagonals_in_array_order(self):
        """``dia_matvec(n_row, n_col, n_diags, L, offsets, diags, x, y)``:
        ``y += A x``, ``diags[i, j]`` the coefficient of column ``j`` on
        diagonal ``offsets[i]``, each row's terms added diagonal by
        diagonal in array order — the plan's bitwise row sum relies on
        all three."""
        from scipy.sparse._sparsetools import dia_matvec

        offsets = np.array([1, -1, 0], dtype=np.int32)  # not sorted
        diags = np.array([[0.0, 2, 3], [4, 5, 0], [6, 7, 8]])
        x = np.array([1.0, 10.0, 100.0])
        y = np.array([0.5, 0.25, 0.125])
        assert dia_matvec(3, 3, 3, 3, offsets, diags, x, y) is None
        assert np.array_equal(y, [26.5, 374.25, 850.125])
        # fp32: (1e8 - 1e8) + 1 is 1; reversed, (1 - 1e8) + 1e8 is 0.
        terms = np.array([[1e8], [-1e8], [1.0]], dtype=np.float32)
        y = np.zeros(1, dtype=np.float32)
        x = np.ones(1, dtype=np.float32)
        dia_matvec(1, 1, 3, 1, np.zeros(3, dtype=np.int32), terms, x, y)
        assert y[0] == 1.0

    def test_dia_import_failure_keeps_the_compiled_ell_path(self):
        """A SciPy without ``dia_matvec``: the class still registers,
        fp32 ELL keeps ``csr_matvec`` at every size, and a solve is
        green."""
        script = textwrap.dedent(
            """
            import sys, types
            import scipy.sparse._sparsetools as real
            stub = types.ModuleType("scipy.sparse._sparsetools")
            stub.csr_matvec = real.csr_matvec
            sys.modules["scipy.sparse._sparsetools"] = stub  # no dia_matvec
            import numpy as np
            import repro.backends as backends
            from repro.backends import scipy_backend, spmv
            from repro.fp import MIXED_DS_POLICY
            from repro.geometry import Subdomain
            from repro.mg import MGConfig
            from repro.parallel import SerialComm
            from repro.solvers import GMRESIRSolver
            from repro.stencil import generate_problem

            assert scipy_backend.dia_matvec is None
            assert backends.active_backend() == "scipy"
            scipy_backend.DIA_MIN_ROWS = 0
            prob = generate_problem(Subdomain.serial(8, 8, 8))
            A = prob.A.astype("fp32")
            x = np.random.default_rng(0).standard_normal(A.ncols)
            x = x.astype(np.float32)
            y = spmv(A, x)
            assert scipy_backend._dia_plan(A) is None
            ref = np.zeros(A.nrows, dtype=np.float32)
            real.csr_matvec(A.nrows, A.ncols, *scipy_backend._operands(A), x, ref)
            assert np.array_equal(y, ref)
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


    @pytest.mark.parametrize("which", ["operator", "block"])
    def test_plan_products_allocate_nothing(
        self, scipy_class, monkeypatch, problem16, which
    ):
        """A warmed index-free product — one ``dia_matvec`` on the
        operator, one per diagonal on a colour block — allocates
        nothing that scales with the matrix."""
        index_free(monkeypatch)
        A = problem16.A.astype("fp32")
        B = A if which == "operator" else colour_block(problem16, A)
        assert scipy_backend._dia_plan(B) is not None
        rng = np.random.default_rng(2)
        X = np.asfortranarray(rng.standard_normal((B.ncols, 4)).astype(B.dtype))
        Y = np.empty((B.nrows, 4), dtype=B.dtype, order="F")
        ws = Workspace()
        limit = 16 * 1024
        assert transient_peak(lambda: spmv(B, X[:, 0], out=Y[:, 0], ws=ws)) < limit
        assert transient_peak(lambda: spmv_multi(B, X, out=Y, ws=ws)) < limit

    @pytest.mark.parametrize("which", ["operator", "block"])
    def test_plan_build_holds_the_plan_and_one_chunk(
        self, monkeypatch, problem16, which
    ):
        """The build validates and places a row chunk at a time: its
        transient peak is the plan plus at most one chunk of the ELL
        block (the 16^3 operator is two chunks)."""
        index_free(monkeypatch)
        A = problem16.A.astype("fp32")
        B = A if which == "operator" else colour_block(problem16, A)
        scipy_backend._operands(B)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = scipy_backend._dia_plan(B)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        chunk = numpy_backend.CHUNK_ROWS * B.width * (B.vals.itemsize + 4)
        assert plan is not None and plan.coef.shape == (B.width, B.nrows)
        assert peak <= plan.coef.nbytes + chunk


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

    @pytest.mark.parametrize("which", ["operator", "block"])
    def test_plan_product_is_the_row_product(
        self, scipy_class, monkeypatch, compiled_calls, problem16, which
    ):
        """A square operator is one ``dia_matvec`` per column, a colour
        block one per diagonal; either way every column is bitwise the
        ``csr_matvec`` product, and the plan is built once."""
        index_free(monkeypatch)
        A = problem16.A.astype("fp32")
        B = A if which == "operator" else colour_block(problem16, A)
        rng = np.random.default_rng(3)
        X = np.asfortranarray(rng.standard_normal((B.ncols, 3)).astype(B.dtype))
        y = spmv(B, X[:, 0], ws=Workspace())
        Y = spmv_multi(B, X)
        plan = scipy_backend._dia_plan(B)
        assert plan is not None and scipy_backend._dia_plan(B) is plan
        per_product = 1 if which == "operator" else len(plan.diagonals)
        assert compiled_calls == {"dia": 4 * per_product, "csr": 0}
        assert np.array_equal(y, csr_product(B, X[:, 0]))
        for j in range(3):
            assert np.array_equal(Y[:, j], csr_product(B, X[:, j]))
        again = scipy_backend._build_dia(B)  # a racing build: an equal plan
        assert np.array_equal(again.offsets, plan.offsets)
        assert np.array_equal(again.coef, plan.coef)

    def test_racing_first_products_agree(self, scipy_class, monkeypatch, problem16):
        """Four threads (two cores) make the first products of fresh
        matrices at once, so each may build and cache the plan: every
        product is bitwise the row product, nothing escapes a thread,
        and the plan left cached is the one a lone build makes."""
        index_free(monkeypatch)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(problem16.A.ncols).astype(np.float32)
        errors, results = [], []

        def first_product(A):
            try:
                results.append((A, spmv(A, x, ws=Workspace())))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                A = problem16.A.astype("fp32")  # nothing cached on it
                threads = [
                    threading.Thread(target=first_product, args=(A,))
                    for _ in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and len(results) == 12
        for A, y in results:
            assert np.array_equal(y, csr_product(A, x))
            assert np.array_equal(
                scipy_backend._dia_plan(A).coef, scipy_backend._build_dia(A).coef
            )

    @pytest.mark.parametrize(
        "case", ["ghost-tail", "row-subset", "2x2x2", "fp64", "below-threshold"]
    )
    def test_off_plan_matrices_keep_the_row_product(
        self, scipy_class, monkeypatch, compiled_calls, problem16, case
    ):
        """Every matrix off the plan's rule caches ``None`` and returns
        the ``csr_matvec`` product bitwise: a ghost tail and a row
        subset break the diagonal pattern, the 2x2x2 box has no row
        whose diagonals every other row shares, fp64 stays on ELL, and
        a 16^3 operator is below the shipped ``DIA_MIN_ROWS``."""
        if case != "below-threshold":
            index_free(monkeypatch)
        if case in ("ghost-tail", "row-subset"):
            prob = rank_local(16, "split")
            A = prob.A.astype("fp32")
            if case == "row-subset":
                A = partition_matrix(A, prob.halo).interior
        elif case == "2x2x2":
            A = generate_problem(Subdomain.serial(2, 2, 2)).A.astype("fp32")
        else:
            A = problem16.A.astype("fp64" if case == "fp64" else "fp32")
            assert A.nrows < scipy_backend.DIA_MIN_ROWS or case == "fp64"
        x = np.random.default_rng(4).standard_normal(A.ncols).astype(A.dtype)
        y = spmv(A, x, ws=Workspace())
        Y = np.empty((A.nrows, 1), dtype=A.dtype, order="F")
        bind_spmv_multi(A)(x[:, None], out=Y, ws=Workspace())  # the bound path
        assert scipy_backend._dia_plan(A) is None and A._dia_plan is None
        assert compiled_calls == {"dia": 0, "csr": 2}
        assert np.array_equal(y, csr_product(A, x))
        assert np.array_equal(Y[:, 0], y)

    def test_strided_operands_reach_neither_compiled_product(
        self, scipy_class, monkeypatch, compiled_calls, problem16
    ):
        """A strided vector or value block runs the NumPy body, as it did
        before there was a plan; a strided value block caches ``None``."""
        index_free(monkeypatch)
        A = problem16.A.astype("fp32")
        x = np.random.default_rng(5).standard_normal(A.ncols).astype(A.dtype)
        ref = self.numpy_product(A, x, ws=Workspace())
        wide = np.zeros(2 * A.ncols, dtype=A.dtype)
        wide[::2] = x
        assert np.array_equal(spmv(A, wide[::2], ws=Workspace()), ref)
        B = A.astype("fp32")
        B.vals = np.repeat(B.vals, 2, axis=1)[:, ::2]
        assert np.array_equal(spmv(B, x, ws=Workspace()), ref)
        assert scipy_backend._dia_plan(B) is None
        Y = np.empty((A.nrows, 1), dtype=A.dtype, order="F")
        wide_panel = wide.reshape(A.ncols, 2)[:, :1]  # every other entry
        bind_spmv_multi(A)(wide_panel, out=Y, ws=Workspace())
        assert np.array_equal(Y[:, 0], ref)
        bind_spmv_multi(B)(x[:, None], out=Y, ws=Workspace())
        assert np.array_equal(Y[:, 0], ref)
        assert compiled_calls == {"dia": 0, "csr": 0}

    @pytest.mark.parametrize("block", ["plan", "ghost-tail"])
    @pytest.mark.parametrize(
        "case",
        ["matching", "short-ghost-tail", "strided-column", "x-dtype", "out-dtype"],
    )
    def test_bound_block_product_keeps_the_guards(
        self, scipy_class, monkeypatch, compiled_calls, problem16, block, case
    ):
        """A bound colour-block product tests per call what ``_streams``
        tests.  Matching operands take the compiled product; an operand
        that fails never reaches ``csr_matvec`` or ``dia_matvec`` and is
        routed as ``spmv_multi`` routes it: a short ghost tail is an
        error, a strided column or a mismatched dtype runs the NumPy
        body (its bits, as the dispatched product's)."""
        index_free(monkeypatch)
        if block == "plan":  # a serial fp32 block: one call per diagonal
            B = colour_block(problem16, problem16.A.astype("fp32"))
            assert scipy_backend._dia_plan(B) is not None
        else:  # rank 0 of two: the block reads a ghost tail
            prob = rank_local(16, "split")
            sets = color_sets(structured_coloring8(prob.sub))
            B = partition_colors(prob.A, sets).passes[0].A
            assert B.ncols > prob.nlocal
        product = bind_spmv_multi(B)
        rng = np.random.default_rng(7)
        X = np.asfortranarray(rng.standard_normal((B.ncols, 2)).astype(B.dtype))
        Y = np.empty((B.nrows, 2), dtype=B.dtype, order="F")
        if case == "short-ghost-tail":
            with pytest.raises(ValueError, match="columns"):
                product(X[:-1], out=Y, ws=Workspace())
            assert compiled_calls == {"dia": 0, "csr": 0}
            return
        if case == "strided-column":
            X = np.ascontiguousarray(X)
        elif case == "x-dtype":
            X = X.astype(np.float64 if B.dtype == np.float32 else np.float32)
        elif case == "out-dtype":
            Y = Y.astype(np.float64 if B.dtype == np.float32 else np.float32)
        ref = spmv_multi(B, X, out=np.empty_like(Y), ws=Workspace())
        dispatched = dict(compiled_calls)
        assert product(X, out=Y, ws=Workspace()) is Y
        assert np.array_equal(Y, ref)
        if case == "matching":  # the same compiled calls as the dispatch
            assert compiled_calls == {k: 2 * n for k, n in dispatched.items()}
            assert sum(dispatched.values()) > 0
            for j in range(2):
                assert np.array_equal(Y[:, j], csr_product(B, X[:, j]))
        else:
            assert compiled_calls == {"dia": 0, "csr": 0}

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
        gs = MulticolorGS(A, diag, sets, ws=Workspace())
        P = gs.partition
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

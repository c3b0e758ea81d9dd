"""SELL-C-σ format tests and the cross-format kernel parity suite.

The parity properties (issue satellite): CSR, ELL and SELL-C-σ must
produce comparable SpMV and SymGS results — identical to rounding in
fp64, within precision-appropriate tolerance in fp32 — on random
stencil and non-stencil matrices, including matrices with empty rows.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import Workspace, dispatch
from repro.sparse import CSRMatrix, ELLMatrix, SELLCSMatrix, to_format

FORMATS = ["csr", "ell", "sellcs"]


def random_csr(nrows, ncols, density, seed=0, dtype=np.float64, empty_rows=()):
    rng = np.random.default_rng(seed)
    m = sp.random(nrows, ncols, density=density, random_state=rng, format="csr")
    m.data = rng.standard_normal(len(m.data)) + 2.0
    if len(empty_rows):
        lil = m.tolil()
        for r in empty_rows:
            lil.rows[r] = []
            lil.data[r] = []
        m = lil.tocsr()
    return CSRMatrix.from_scipy(m.astype(dtype))


class TestSELLCSLayout:
    def test_chunk_widths_match_row_nnz(self):
        A = random_csr(100, 90, 0.1, seed=1)
        S = SELLCSMatrix.from_csr(A, chunk=8, sigma=32)
        nnz = A.row_nnz()
        sorted_nnz = nnz[S.perm]
        padded = np.zeros(S.nchunks * 8, dtype=np.int64)
        padded[: len(sorted_nnz)] = sorted_nnz
        np.testing.assert_array_equal(
            padded.reshape(-1, 8).max(axis=1), S.chunk_width
        )

    def test_sigma_sorting_reduces_padding(self):
        # Very skewed row lengths: one dense row per window.
        rng = np.random.default_rng(5)
        rows, cols = [], []
        n = 256
        for i in range(n):
            deg = 40 if i % 64 == 0 else 2
            rows += [i] * deg
            cols += list(rng.choice(n, size=deg, replace=False))
        m = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n)
        )
        A = CSRMatrix.from_scipy(m)
        sorted_sell = SELLCSMatrix.from_csr(A, chunk=32, sigma=256)
        unsorted_sell = SELLCSMatrix.from_csr(A, chunk=32, sigma=1)
        ell = ELLMatrix.from_csr(A)
        assert sorted_sell.stored_slots < unsorted_sell.stored_slots
        assert sorted_sell.stored_slots < ell.vals.size
        assert sorted_sell.pad_fraction < unsorted_sell.pad_fraction

    def test_perm_is_permutation(self):
        A = random_csr(77, 77, 0.08, seed=2)
        S = SELLCSMatrix.from_csr(A, chunk=16, sigma=32)
        assert sorted(S.perm.tolist()) == list(range(77))

    def test_roundtrip_csr(self):
        A = random_csr(60, 70, 0.12, seed=3)
        S = SELLCSMatrix.from_csr(A)
        assert (S.to_csr().to_scipy() != A.to_scipy()).nnz == 0
        assert S.nnz == A.nnz

    def test_diagonal(self, problem16):
        S = problem16.A.to_sellcs()
        np.testing.assert_allclose(S.diagonal(), 26.0)

    def test_astype_keeps_structure(self, problem16):
        S = problem16.A.to_sellcs()
        S32 = S.astype("fp32")
        assert S32.dtype == np.float32
        assert S32.nnz == S.nnz
        np.testing.assert_array_equal(S32.perm, S.perm)

    def test_memory_accounting(self, problem16):
        S = problem16.A.to_sellcs()
        ell = problem16.A
        # The stencil has boundary rows below width 27, so SELL-C-σ
        # stores strictly fewer slots than the padded ELL block.
        assert S.stored_slots < ell.vals.size
        assert S.memory_bytes() < ell.memory_bytes() + S.nrows * 4 + 8 * (
            S.nchunks + 1
        )
        assert 0.0 <= S.pad_fraction < ell.pad_fraction + 1e-12

    def test_bad_chunk_and_sigma(self):
        A = random_csr(10, 10, 0.3)
        with pytest.raises(ValueError):
            SELLCSMatrix.from_csr(A, chunk=0)
        with pytest.raises(ValueError):
            SELLCSMatrix.from_csr(A, sigma=0)

    def test_empty_matrix(self):
        A = CSRMatrix(np.zeros(1, np.int64), np.zeros(0, np.int32), np.zeros(0), 4)
        S = SELLCSMatrix.from_csr(A)
        assert S.nrows == 0 and S.nnz == 0
        assert S.spmv(np.ones(4)).size == 0


class TestOutContract:
    """Satellite: spmv must honor caller-provided ``out=`` end-to-end,
    including the CSR empty-row fixup path."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_out_is_written_in_place(self, fmt, rng):
        A = to_format(random_csr(50, 40, 0.15, seed=7), fmt)
        x = rng.standard_normal(40)
        out = np.full(50, np.nan)
        ret = A.spmv(x) if fmt != "csr" else None  # reference via method
        got = dispatch.spmv(A, x, out=out)
        assert got is out
        np.testing.assert_allclose(out, A.to_scipy() @ x, rtol=1e-12)
        if ret is not None:
            np.testing.assert_array_equal(got, ret)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_out_with_empty_rows(self, fmt):
        A = to_format(
            random_csr(40, 30, 0.2, seed=8, empty_rows=[0, 7, 13, 39]), fmt
        )
        x = np.random.default_rng(9).standard_normal(30)
        out = np.full(40, 123.456)  # poison: empty rows must be zeroed
        dispatch.spmv(A, x, out=out)
        ref = A.to_scipy() @ x
        np.testing.assert_allclose(out, ref, rtol=1e-12)
        assert out[0] == 0.0 and out[7] == 0.0 and out[39] == 0.0

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_out_with_workspace_twice(self, fmt, rng):
        A = to_format(random_csr(64, 64, 0.1, seed=10), fmt)
        x = rng.standard_normal(64)
        ws = Workspace()
        out = np.empty(64)
        dispatch.spmv(A, x, out=out, ws=ws)
        first = out.copy()
        misses = ws.misses
        dispatch.spmv(A, x, out=out, ws=ws)
        np.testing.assert_array_equal(out, first)
        # The second call pooled nothing new (a compiled product needs
        # no scratch at all, so "hits" is not the contract).
        assert ws.misses == misses


class TestCrossFormatParity:
    """CSR / ELL / SELL-C-σ must agree on every kernel."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", [(60, 60), (100, 80), (33, 47)])
    def test_spmv_parity_random(self, seed, shape, rng):
        nrows, ncols = shape
        empty = [0, nrows // 2] if seed % 2 else []
        A = random_csr(nrows, ncols, 0.1, seed=seed, empty_rows=empty)
        x = rng.standard_normal(ncols)
        ref = A.to_scipy() @ x
        for fmt in FORMATS:
            B = to_format(A, fmt)
            np.testing.assert_allclose(
                dispatch.spmv(B, x), ref, rtol=1e-13, atol=1e-13, err_msg=fmt
            )

    def test_spmv_parity_stencil(self, problem16, rng):
        x = rng.standard_normal(problem16.A.ncols)
        ref = dispatch.spmv(problem16.A, x)
        for fmt in ("csr", "sellcs"):
            B = to_format(problem16.A, fmt)
            np.testing.assert_allclose(
                dispatch.spmv(B, x), ref, rtol=1e-13, atol=1e-13
            )

    def test_spmv_parity_fp32(self, problem16, rng):
        x32 = rng.standard_normal(problem16.A.ncols).astype(np.float32)
        ref = dispatch.spmv(problem16.A.astype("fp32"), x32)
        for fmt in ("csr", "sellcs"):
            B = to_format(problem16.A, fmt).astype("fp32")
            got = dispatch.spmv(B, x32)
            assert got.dtype == np.float32
            # Precision-appropriate tolerance: fp32 summation order
            # differs across layouts.
            np.testing.assert_allclose(got, ref, rtol=2e-5, atol=1e-4)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_spmv_rows_parity(self, seed, rng):
        A = random_csr(80, 80, 0.12, seed=seed, empty_rows=[5, 60])
        rows = np.array([0, 5, 17, 60, 79])
        x = rng.standard_normal(80)
        ref = (A.to_scipy() @ x)[rows]
        for fmt in FORMATS:
            B = to_format(A, fmt)
            np.testing.assert_allclose(
                dispatch.spmv_rows(B, rows, x), ref, rtol=1e-13, atol=1e-13,
                err_msg=fmt,
            )

    @pytest.mark.parametrize("use_ws", [False, True])
    def test_symgs_parity_stencil(self, problem16, use_ws):
        """The multicolor GS sweep is bitwise-comparable across formats
        (fp64: to rounding of the shared update formula)."""
        from repro.sparse.coloring import color_sets, structured_coloring8

        sets = color_sets(structured_coloring8(problem16.sub))
        r = problem16.b
        results = {}
        for fmt in FORMATS:
            B = to_format(problem16.A, fmt)
            diag = B.diagonal()
            diag_sets = [diag[rows] for rows in sets]
            xfull = np.zeros(B.ncols)
            ws = Workspace() if use_ws else None
            dispatch.symgs_sweep(B, r, xfull, sets, diag_sets, "forward", ws=ws)
            dispatch.symgs_sweep(B, r, xfull, sets, diag_sets, "backward", ws=ws)
            results[fmt] = xfull.copy()
        for fmt in ("csr", "sellcs"):
            np.testing.assert_allclose(
                results[fmt], results["ell"], rtol=1e-13, atol=1e-14,
                err_msg=fmt,
            )

    def test_symgs_parity_random_partition(self, rng):
        """Parity holds on a non-stencil matrix with an arbitrary row
        partition (the sweep is deterministic given the sets)."""
        A = random_csr(96, 96, 0.08, seed=21, empty_rows=[10])
        # Make it safely diagonally dominant so divisions are tame.
        dense = A.to_scipy().toarray()
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        A = CSRMatrix.from_scipy(sp.csr_matrix(dense))
        sets = [np.arange(i, 96, 4) for i in range(4)]
        r = rng.standard_normal(96)
        results = {}
        for fmt in FORMATS:
            B = to_format(A, fmt)
            diag = B.diagonal()
            diag_sets = [diag[rows] for rows in sets]
            xfull = np.zeros(96)
            dispatch.symgs_sweep(B, r, xfull, sets, diag_sets, "forward")
            results[fmt] = xfull.copy()
        for fmt in ("csr", "sellcs"):
            np.testing.assert_allclose(
                results[fmt], results["ell"], rtol=1e-12, atol=1e-12
            )

    def test_gmres_ir_converges_with_sellcs(self, problem16, comm):
        from repro.fp import MIXED_DS_POLICY
        from repro.solvers import GMRESIRSolver

        solver = GMRESIRSolver(
            problem16, comm, policy=MIXED_DS_POLICY, matrix_format="sellcs"
        )
        x, stats = solver.solve(problem16.b, tol=1e-9, maxiter=200)
        assert stats.converged
        np.testing.assert_allclose(x, problem16.x_exact, rtol=1e-7)


class TestChunkSigmaParameterization:
    """SELL-C-σ chunk/sort-window knobs through to_format and the
    benchmark config (PR 9 satellite): every (C, σ) point must agree
    with CSR to rounding, and the conversion layer must repack rather
    than silently keep a mismatched layout."""

    GRID = [(8, 1), (16, 64), (32, 128), (64, 256)]

    @pytest.mark.parametrize("chunk,sigma", GRID)
    def test_spmv_parity_across_the_grid(self, problem16, rng, chunk, sigma):
        A = problem16.A
        S = to_format(A, "sellcs", chunk=chunk, sigma=sigma)
        assert (S.C, S.sigma) == (chunk, sigma)
        x = rng.standard_normal(A.to_csr().ncols)
        np.testing.assert_allclose(
            S.spmv(x), to_format(A, "csr").spmv(x), rtol=1e-13, atol=1e-13
        )

    @pytest.mark.parametrize("chunk,sigma", GRID)
    def test_symgs_parity_across_the_grid(self, problem16, rng, chunk, sigma):
        from repro.sparse.coloring import color_sets, greedy_coloring

        ell = to_format(problem16.A, "ell")
        sets = color_sets(greedy_coloring(ell))
        r = rng.standard_normal(ell.nrows)
        results = {}
        for M in (ell, to_format(problem16.A, "sellcs", chunk=chunk, sigma=sigma)):
            diag = M.diagonal()
            diag_sets = [diag[rows] for rows in sets]
            x = np.zeros(M.nrows)
            dispatch.symgs_sweep(M, r, x, sets, diag_sets, "forward")
            results[type(M).__name__] = x.copy()
        np.testing.assert_allclose(
            results["SELLCSMatrix"], results["ELLMatrix"],
            rtol=1e-12, atol=1e-12,
        )

    def test_identity_conversion_repacks_on_parameter_mismatch(self, problem16):
        S = to_format(problem16.A, "sellcs", chunk=32, sigma=128)
        same = to_format(S, "sellcs", chunk=32, sigma=128)
        assert same is S  # matching layout: no copy
        repacked = to_format(S, "sellcs", chunk=16, sigma=64)
        assert repacked is not S
        assert (repacked.C, repacked.sigma) == (16, 64)

    def test_chunk_kwargs_rejected_for_other_formats(self, problem16):
        with pytest.raises(ValueError, match="sellcs"):
            to_format(problem16.A, "ell", chunk=16)
        with pytest.raises(ValueError, match="sellcs"):
            to_format(problem16.A, "csr", sigma=64)

    def test_config_format_params(self):
        from repro.core.config import BenchmarkConfig

        cfg = BenchmarkConfig(
            matrix_format="sellcs", sell_chunk=16, sell_sigma=64
        )
        assert cfg.format_params == {"chunk": 16, "sigma": 64}
        assert BenchmarkConfig(matrix_format="ell").format_params == {}
        with pytest.raises(ValueError):
            BenchmarkConfig(sell_chunk=0)

    def test_solver_threads_format_params(self, problem16, comm):
        from repro.fp import DOUBLE_POLICY
        from repro.solvers import GMRESIRSolver

        tuned = GMRESIRSolver(
            problem16,
            comm,
            policy=DOUBLE_POLICY,
            matrix_format="sellcs",
            format_params={"chunk": 16, "sigma": 64},
        )
        default = GMRESIRSolver(
            problem16, comm, policy=DOUBLE_POLICY, matrix_format="sellcs"
        )
        x_t, _ = tuned.solve(problem16.b, tol=0.0, maxiter=5)
        x_d, _ = default.solve(problem16.b, tol=0.0, maxiter=5)
        # Different chunk/sigma layouts agree to rounding (not bitwise:
        # the chunk reduction order differs by construction).
        np.testing.assert_allclose(x_t, x_d, rtol=1e-10, atol=1e-12)

"""Unit tests for ELL and CSR formats, their kernels, and conversion."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import Workspace, dispatch
from repro.sparse import CSRMatrix, ELLMatrix, known_formats, to_format

FORMATS = ("csr", "ell")


def random_sparse(nrows, ncols, density, seed=0, dtype=np.float64, empty_rows=()):
    rng = np.random.default_rng(seed)
    m = sp.random(nrows, ncols, density=density, random_state=rng, format="csr")
    m.data = rng.standard_normal(len(m.data)) + 2.0  # keep away from zero
    if len(empty_rows):
        lil = m.tolil()
        for r in empty_rows:
            lil.rows[r] = []
            lil.data[r] = []
        m = lil.tocsr()
    return CSRMatrix.from_scipy(m.astype(dtype))


class TestCSR:
    def test_spmv_matches_scipy(self, rng):
        A = random_sparse(50, 60, 0.1)
        x = rng.standard_normal(60)
        np.testing.assert_allclose(A.spmv(x), A.to_scipy() @ x, rtol=1e-13)

    def test_spmv_empty_rows(self):
        m = sp.csr_matrix(
            (np.array([1.0]), np.array([0]), np.array([0, 0, 1, 1])), shape=(3, 2)
        )
        A = CSRMatrix.from_scipy(m)
        y = A.spmv(np.array([2.0, 3.0]))
        np.testing.assert_allclose(y, [0.0, 2.0, 0.0])

    def test_spmv_all_empty(self):
        A = CSRMatrix(np.zeros(4, np.int64), np.zeros(0, np.int32), np.zeros(0), 5)
        np.testing.assert_allclose(A.spmv(np.ones(5)), np.zeros(3))

    def test_spmv_wrong_length_raises(self):
        A = random_sparse(5, 5, 0.5)
        with pytest.raises(ValueError):
            A.spmv(np.ones(4))

    def test_spmv_rows_subset(self, rng):
        A = random_sparse(40, 40, 0.15, seed=3)
        x = rng.standard_normal(40)
        rows = np.array([0, 7, 13, 39])
        np.testing.assert_allclose(
            A.spmv_rows(rows, x), (A.to_scipy() @ x)[rows], rtol=1e-13
        )

    def test_spmv_rows_empty(self):
        A = random_sparse(5, 5, 0.5)
        assert A.spmv_rows(np.array([], dtype=int), np.ones(5)).size == 0

    def test_diagonal(self):
        m = sp.diags([1.0, 2.0, 3.0]).tocsr()
        A = CSRMatrix.from_scipy(m)
        np.testing.assert_allclose(A.diagonal(), [1, 2, 3])

    def test_astype(self):
        A = random_sparse(10, 10, 0.3)
        B = A.astype("fp32")
        assert B.data.dtype == np.float32
        assert B.nnz == A.nnz

    def test_out_parameter(self, rng):
        A = random_sparse(20, 20, 0.2, seed=5)
        x = rng.standard_normal(20)
        out = np.zeros(20)
        ret = A.spmv(x, out=out)
        assert ret is out
        np.testing.assert_allclose(out, A.to_scipy() @ x)

    def test_memory_bytes(self):
        A = random_sparse(10, 10, 0.3)
        assert A.memory_bytes() == A.nnz * 8 + A.nnz * 4 + 11 * 8


class TestELL:
    def test_roundtrip_csr_ell_csr(self):
        A = random_sparse(30, 35, 0.12, seed=7)
        B = A.to_ell().to_csr()
        assert (A.to_scipy() != B.to_scipy()).nnz == 0

    def test_spmv_matches_scipy(self, rng):
        A = random_sparse(50, 60, 0.1, seed=9).to_ell()
        x = rng.standard_normal(60)
        np.testing.assert_allclose(A.spmv(x), A.to_scipy() @ x, rtol=1e-13)

    def test_spmv_rows(self, rng):
        A = random_sparse(40, 40, 0.15, seed=11).to_ell()
        x = rng.standard_normal(40)
        rows = np.array([1, 2, 38])
        np.testing.assert_allclose(
            A.spmv_rows(rows, x), (A.to_scipy() @ x)[rows], rtol=1e-13
        )

    def test_width_is_max_row_nnz(self):
        A = random_sparse(30, 30, 0.2, seed=13)
        ell = A.to_ell()
        assert ell.width == int(A.row_nnz().max())

    def test_padding_is_harmless(self, problem_rect):
        """Padded slots (col 0, val 0) must not contribute."""
        A = problem_rect.A
        x = np.zeros(A.ncols)
        x[0] = 1e30  # huge value at the padding column target
        y = A.spmv(x)
        assert np.all(np.isfinite(y))

    def test_diagonal_stencil(self, problem16):
        np.testing.assert_allclose(problem16.A.diagonal(), 26.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_diagonal_gathers_the_diagonal_slot(self, dtype):
        """Each row's nonzero entries in its own column, summed; a row
        without one (missing, an explicit zero, padding aliasing column
        0) reads +0, in the matrix dtype."""
        rng = np.random.default_rng(4)
        n, w = 40, 5
        cols = rng.integers(1, n, size=(n, w)).astype(np.int32)
        cols[cols == np.arange(n)[:, None]] = 0
        vals = rng.standard_normal((n, w)).astype(dtype)
        for i in range(0, n, 2):  # every other row holds its diagonal
            cols[i, i % w] = i
        cols[4, 3] = 4  # ... twice
        vals[6, 6 % w] = 0  # an explicit diagonal zero
        vals[0, cols[0] == 0] = 0  # row 0's padding
        A = ELLMatrix(cols, vals, n)
        expect = np.zeros(n, dtype=dtype)
        for i in range(n):
            for k in range(w):
                if cols[i, k] == i and vals[i, k] != 0:
                    expect[i] += vals[i, k]
        got = A.diagonal()
        assert got.dtype == dtype
        assert got.tobytes() == expect.tobytes()

    def test_nnz_matches_csr(self, problem16):
        assert problem16.A.nnz == problem16.A.to_csr().nnz

    def test_astype_keeps_structure(self, problem16):
        A32 = problem16.A.astype("fp32")
        assert A32.vals.dtype == np.float32
        assert A32.cols is problem16.A.cols or np.array_equal(
            A32.cols, problem16.A.cols
        )

    def test_astype_roundtrip_values(self, problem16):
        A32 = problem16.A.astype("fp32")
        # Stencil values (26, -1) are exactly representable in fp32.
        np.testing.assert_array_equal(
            A32.vals.astype(np.float64), problem16.A.vals
        )

    def test_to_dense(self):
        A = random_sparse(8, 8, 0.4, seed=17).to_ell()
        np.testing.assert_allclose(A.to_dense(), A.to_scipy().toarray())

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ELLMatrix(np.zeros((3, 2), np.int32), np.zeros((3, 3)), 3)

    @pytest.mark.parametrize("how", ["F-order", "column-strided", "row-strided"])
    def test_layout_is_normalised_at_construction(self, problem8, how):
        """Every kernel may assume int32, C-contiguous blocks (the
        compiled product views them as CSR's flat arrays); an F-order
        or sliced input is copied once here, not guarded per call — and
        the constructors' own outputs are left alone."""
        A = problem8.A
        x = np.random.default_rng(4).standard_normal(A.ncols)
        if how == "F-order":
            cols, vals = np.asfortranarray(A.cols), np.asfortranarray(A.vals)
            ref = A
        elif how == "column-strided":
            cols, vals = A.cols[:, ::2], A.vals[:, ::2]
            ref = ELLMatrix(cols.copy(), vals.copy(), A.ncols)
        else:
            cols, vals = A.cols[::2], A.vals[::2]
            ref = ELLMatrix(cols.copy(), vals.copy(), A.ncols)
        assert not (cols.flags.c_contiguous and vals.flags.c_contiguous)
        B = ELLMatrix(cols, vals, A.ncols)
        assert B.cols.flags.c_contiguous and B.vals.flags.c_contiguous
        assert B.cols.dtype == np.int32
        np.testing.assert_array_equal(B.spmv(x), ref.spmv(x))
        for made in (A, A.astype("fp32"), A.to_csr().to_ell()):
            again = ELLMatrix(made.cols, made.vals, made.ncols)
            assert again.cols is made.cols and again.vals is made.vals

    def test_memory_bytes_no_row_pointers(self, problem16):
        A = problem16.A
        expected = A.vals.size * 8 + A.cols.size * 4
        assert A.memory_bytes() == expected

    def test_pad_fraction(self, problem16):
        assert 0.0 < problem16.A.pad_fraction < 0.25

    def test_spmv_fp32(self, problem16, rng):
        A32 = problem16.A.astype("fp32")
        x = rng.standard_normal(A32.ncols).astype(np.float32)
        y32 = A32.spmv(x)
        y64 = problem16.A.spmv(x.astype(np.float64))
        assert y32.dtype == np.float32
        np.testing.assert_allclose(y32, y64, rtol=2e-5, atol=1e-4)


class TestToFormat:
    def test_known_formats_are_the_papers_two(self):
        assert known_formats() == ["csr", "ell"]

    @pytest.mark.parametrize(
        "fmt, kwargs, error",
        [
            ("coo", {}, ValueError),
            ("sell" + "cs", {}, ValueError),  # the retired sliced ELL
            ("ell", {"chunk": 32}, TypeError),  # no format reads it
        ],
    )
    def test_rejects_what_no_format_builds(self, problem8, fmt, kwargs, error):
        with pytest.raises(error) as exc:
            to_format(problem8.A, fmt, **kwargs)
        if error is ValueError:
            assert str(known_formats()) in str(exc.value)


class TestCrossFormat:
    """CSR and ELL agree on every kernel (to rounding: the row sums run
    in different orders), and both honour ``out=`` end to end."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_out_with_empty_rows(self, fmt):
        A = to_format(random_sparse(40, 30, 0.2, seed=8, empty_rows=[0, 7, 39]), fmt)
        x = np.random.default_rng(9).standard_normal(30)
        out = np.full(40, 123.456)  # poison: empty rows must be zeroed
        assert dispatch.spmv(A, x, out=out) is out
        np.testing.assert_allclose(out, A.to_scipy() @ x, rtol=1e-12)
        assert out[0] == 0.0 and out[7] == 0.0 and out[39] == 0.0

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_out_with_workspace_twice(self, fmt, rng):
        A = to_format(random_sparse(64, 64, 0.1, seed=10), fmt)
        x = rng.standard_normal(64)
        ws = Workspace()
        out = np.empty(64)
        dispatch.spmv(A, x, out=out, ws=ws)
        first, misses = out.copy(), ws.misses
        dispatch.spmv(A, x, out=out, ws=ws)
        np.testing.assert_array_equal(out, first)
        assert ws.misses == misses  # the second call pooled nothing new

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", [(60, 60), (100, 80), (33, 47)])
    def test_spmv_and_rows_parity_random(self, seed, shape, rng):
        nrows, ncols = shape
        empty = [0, nrows // 2] if seed % 2 else []
        A = random_sparse(nrows, ncols, 0.1, seed=seed, empty_rows=empty)
        x = rng.standard_normal(ncols)
        ref = A.to_scipy() @ x
        rows = np.array([0, nrows // 2, nrows - 1])
        for fmt in FORMATS:
            B = to_format(A, fmt)
            kw = dict(rtol=1e-13, atol=1e-13, err_msg=fmt)
            np.testing.assert_allclose(dispatch.spmv(B, x), ref, **kw)
            np.testing.assert_allclose(
                dispatch.spmv_rows(B, rows, x), ref[rows], **kw
            )

    @pytest.mark.parametrize("use_ws", [False, True])
    def test_symgs_parity_stencil(self, problem16, use_ws):
        from repro.sparse.coloring import color_sets, structured_coloring8

        sets = color_sets(structured_coloring8(problem16.sub))
        results = {}
        for fmt in FORMATS:
            B = to_format(problem16.A, fmt)
            diag = B.diagonal()
            diag_sets = [diag[rows] for rows in sets]
            xfull = np.zeros(B.ncols)
            ws = Workspace() if use_ws else None
            for direction in ("forward", "backward"):
                dispatch.symgs_sweep(
                    B, problem16.b, xfull, sets, diag_sets, direction, ws=ws
                )
            results[fmt] = xfull
        np.testing.assert_allclose(
            results["csr"], results["ell"], rtol=1e-13, atol=1e-14
        )

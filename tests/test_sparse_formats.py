"""Unit tests for ELL and CSR formats and their kernels."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import CSRMatrix, ELLMatrix


def random_sparse(nrows, ncols, density, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    m = sp.random(nrows, ncols, density=density, random_state=rng, format="csr")
    m.data = rng.standard_normal(len(m.data)) + 2.0  # keep away from zero
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

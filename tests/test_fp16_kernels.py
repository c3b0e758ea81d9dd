"""fp16 kernels: fp32 accumulation, row-equilibrated storage, transfers.

The fp16 registrations in the NumPy backend must (a) beat native-fp16
arithmetic by accumulating in fp32/fp64, (b) fold the row-equilibration
scale of :class:`~repro.sparse.scaled.ScaledELLMatrix` back into their
output so callers see the original operator, and (c) accept ``out``
buffers in *other* precisions at ladder level boundaries.
"""

import numpy as np
import pytest

from repro.backends import Workspace, dispatch
from repro.sparse import (
    ScaledELLMatrix,
    equilibrated_half,
    row_equilibration_scales,
    to_format,
    to_precision,
)
from repro.sparse.partitioned import extract_rows


@pytest.fixture(scope="module")
def A16(problem16):
    return equilibrated_half(problem16.A)


@pytest.fixture(scope="module")
def x16(problem16, rng):
    return rng.standard_normal(problem16.A.ncols).astype(np.float16)


class TestScaledStorage:
    def test_scales_are_powers_of_two(self, A16):
        exps = np.log2(A16.row_scale.astype(np.float64))
        np.testing.assert_array_equal(exps, np.round(exps))

    def test_stencil_values_exact(self, problem16, A16):
        """Power-of-two equilibration of the stencil is lossless: the
        unscaled values reconstruct bit-exactly."""
        rebuilt = A16.vals.astype(np.float64) * A16.row_scale[:, None]
        np.testing.assert_array_equal(rebuilt, problem16.A.vals)

    def test_diagonal_is_unscaled(self, problem16, A16):
        np.testing.assert_allclose(
            A16.diagonal().astype(np.float64),
            problem16.A.diagonal(),
            rtol=1e-3,
        )

    def test_astype_promotes_unequilibrated(self, problem16, A16):
        back = A16.astype("fp64")
        assert not isinstance(back, ScaledELLMatrix)
        np.testing.assert_array_equal(back.vals, problem16.A.vals)

    def test_to_precision_routes_half_to_scaled(self, problem16):
        assert isinstance(to_precision(problem16.A, "fp16"), ScaledELLMatrix)
        assert to_precision(problem16.A, "fp32").dtype == np.float32
        # CSR has no scaled path; plain cast (stencil entries are exact
        # in fp16 anyway).
        csr16 = to_precision(problem16.A.to_csr(), "fp16")
        assert csr16.data.dtype == np.float16

    def test_row_scales_handle_zero_rows(self):
        s = row_equilibration_scales(np.array([0.0, 26.0, 1e-4]))
        assert s[0] == 1.0 and s[1] == 32.0

    def test_format_name_stays_ell(self, A16):
        assert dispatch.matrix_format(A16) == "ell"


class TestFp16SpMV:
    @pytest.mark.parametrize("use_ws", [False, True])
    def test_ell_scaled_matches_fp64(self, problem16, A16, x16, use_ws):
        ws = Workspace() if use_ws else None
        y = dispatch.spmv(A16, x16, ws=ws)
        assert y.dtype == np.float16
        ref = problem16.A.spmv(x16.astype(np.float64))
        scale = np.abs(ref).max()
        np.testing.assert_allclose(
            y.astype(np.float64) / scale, ref / scale, atol=4e-3
        )

    def test_ell_out_in_fp32(self, A16, x16, problem16):
        """Ladder boundaries hand higher-precision out buffers in."""
        out = np.empty(A16.nrows, dtype=np.float32)
        dispatch.spmv(A16, x16, out=out)
        ref = problem16.A.spmv(x16.astype(np.float64))
        np.testing.assert_allclose(out, ref, atol=4e-3 * np.abs(ref).max())

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_unscaled_formats_match_fp64(self, problem16, x16, fmt):
        A = to_format(problem16.A, fmt).astype("fp16")
        y = dispatch.spmv(A, x16)
        ref = problem16.A.spmv(x16.astype(np.float64))
        scale = np.abs(ref).max()
        np.testing.assert_allclose(
            y.astype(np.float64) / scale, ref / scale, atol=4e-3
        )

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_spmv_rows_subset(self, problem16, x16, fmt, rng):
        A = to_format(problem16.A, fmt).astype("fp16")
        rows = np.sort(
            rng.choice(problem16.A.nrows, size=200, replace=False)
        ).astype(np.int64)
        y = dispatch.spmv_rows(A, rows, x16)
        ref = problem16.A.spmv(x16.astype(np.float64))[rows]
        np.testing.assert_allclose(
            y.astype(np.float64), ref, atol=4e-3 * np.abs(ref).max()
        )

    def test_spmv_rows_scaled(self, problem16, A16, x16, rng):
        rows = np.arange(0, A16.nrows, 7)
        ws = Workspace()
        out = np.empty(len(rows), dtype=np.float32)
        dispatch.spmv_rows(A16, rows, x16, out=out, ws=ws)
        ref = problem16.A.spmv(x16.astype(np.float64))[rows]
        np.testing.assert_allclose(out, ref, atol=4e-3 * np.abs(ref).max())

    def test_fp32_accumulation_beats_fp16(self, rng):
        """A long near-cancelling dot in fp16 loses the answer; the
        registered fp16 dot (fp64 accumulation) keeps it."""
        n = 50000
        a = np.full(n, 0.25, dtype=np.float16)
        b = np.ones(n, dtype=np.float16)
        exact = 0.25 * n
        assert dispatch.dot(a, b) == pytest.approx(exact)
        naive = np.float16(0.0)
        for chunk in np.split(a * b, 100):
            naive = np.float16(naive + chunk.sum(dtype=np.float16))
        assert abs(float(naive) - exact) > 1.0  # fp16 saturates


class TestFp16VectorOps:
    def test_waxpby(self, rng):
        x = rng.standard_normal(64).astype(np.float16)
        y = rng.standard_normal(64).astype(np.float16)
        got = dispatch.waxpby(2.0, x, -0.5, y)
        expect = 2.0 * x.astype(np.float64) - 0.5 * y.astype(np.float64)
        np.testing.assert_allclose(got.astype(np.float64), expect, atol=1e-2)

    @pytest.mark.parametrize("use_ws", [False, True])
    def test_waxpby_aliased(self, rng, use_ws):
        ws = Workspace() if use_ws else None
        x = rng.standard_normal(64).astype(np.float16)
        y = rng.standard_normal(64).astype(np.float16)
        expect = 1.0 * x.astype(np.float64) + 0.5 * y.astype(np.float64)
        got = dispatch.waxpby(1.0, x, 0.5, y, out=y, ws=ws)
        assert got is y
        np.testing.assert_allclose(got.astype(np.float64), expect, atol=1e-2)

    def test_gemv_gemvT(self, rng):
        basis = rng.standard_normal((200, 6)).astype(np.float16)
        coef = rng.standard_normal(4).astype(np.float16)
        w = rng.standard_normal(200).astype(np.float16)
        expect = basis[:, :4].astype(np.float64) @ coef.astype(np.float64)
        expect_h = basis[:, :4].astype(np.float64).T @ w.astype(np.float64)
        # The engine's basis is F-order; a C-order copy agrees.
        for Q in (np.asfortranarray(basis), np.ascontiguousarray(basis)):
            got = dispatch.gemv(Q, 4, coef)
            np.testing.assert_allclose(got.astype(np.float64), expect, atol=5e-2)
            h = dispatch.gemvT(Q, 4, w)
            # Coefficients stay fp32 — they feed the double Hessenberg.
            assert h.dtype == np.float32
            np.testing.assert_allclose(h.astype(np.float64), expect_h, rtol=2e-3)

    def test_dot_does_not_overflow(self):
        a = np.full(100000, 8.0, dtype=np.float16)
        assert dispatch.dot(a, a) == pytest.approx(6400000.0)


class TestFp16Transfers:
    def test_fused_restrict_cross_precision_out(self, problem16, A16, rng):
        """fp16 fine level restricting into an fp32 coarse buffer."""
        xfull = rng.standard_normal(A16.ncols).astype(np.float16)
        r = rng.standard_normal(A16.nrows).astype(np.float16)
        f_c = np.arange(0, A16.nrows, 8)
        out = np.empty(len(f_c), dtype=np.float32)
        ws = Workspace()
        dispatch.fused_restrict(extract_rows(A16, f_c), r, xfull, f_c, out=out, ws=ws)
        ref = (
            r.astype(np.float64)
            - problem16.A.spmv(xfull.astype(np.float64))
        )[f_c]
        np.testing.assert_allclose(out, ref, atol=4e-3 * max(np.abs(ref).max(), 1))

    @pytest.mark.parametrize("use_ws", [False, True])
    def test_prolong_fp16(self, rng, use_ws):
        ws = Workspace() if use_ws else None
        xfull = rng.standard_normal(40).astype(np.float16)
        z_c = rng.standard_normal(5).astype(np.float32)
        f_c = np.array([3, 9, 14, 22, 37])
        expect = xfull.astype(np.float64)
        expect[f_c] += z_c
        dispatch.prolong(xfull, z_c, f_c, ws=ws)
        np.testing.assert_allclose(
            xfull.astype(np.float64), expect, atol=1e-2
        )

    def test_generic_fused_restrict_cross_precision(self, problem16, rng):
        """fp32 fine level into an fp64 coarse buffer (generic kernel)."""
        A = problem16.A.astype("fp32")
        xfull = rng.standard_normal(A.ncols).astype(np.float32)
        r = rng.standard_normal(A.nrows).astype(np.float32)
        f_c = np.arange(0, A.nrows, 8)
        out = np.empty(len(f_c), dtype=np.float64)
        ws = Workspace()
        dispatch.fused_restrict(extract_rows(A, f_c), r, xfull, f_c, out=out, ws=ws)
        ref = (
            r.astype(np.float64)
            - problem16.A.spmv(xfull.astype(np.float64))
        )[f_c]
        np.testing.assert_allclose(out, ref, atol=1e-4 * max(np.abs(ref).max(), 1))


class TestFp16Smoother:
    def test_gs_sweep_reduces_residual(self, problem16):
        from repro.sparse.coloring import color_sets, structured_coloring8
        from repro.mg.smoothers import MulticolorGS

        A16 = equilibrated_half(problem16.A)
        sets = color_sets(structured_coloring8(problem16.sub))
        gs = MulticolorGS(A16, A16.diagonal(), sets, ws=Workspace())
        r = problem16.b.astype(np.float16)
        x = np.zeros(problem16.A.ncols, dtype=np.float16)
        gs.forward(r, x)
        res = problem16.b - problem16.A.spmv(x.astype(np.float64))
        assert np.linalg.norm(res) < 0.7 * np.linalg.norm(problem16.b)

    def test_levelsched_rejects_fp16(self, problem16):
        from repro.mg.smoothers import LevelScheduledGS

        with pytest.raises(ValueError, match="multicolor"):
            LevelScheduledGS(problem16.A.astype("fp16"))

"""Optional Numba backend: threaded JIT kernels, auto-detected at import.

When Numba is importable, this module registers ``prange``-parallel
row-wise kernels for the two streaming-heavy sparse ops and lets the
registry's fallback chain cover everything else with the NumPy
reference kernels.  When Numba is absent (the common CI container),
importing this module is a silent no-op — the registry simply never
sees a ``"numba"`` backend, and ``REPRO_BACKEND=numba`` raises a clear
error instead of an ImportError at call time.

The kernels are deliberately row-parallel rather than vectorized:
NumPy's ELL SpMV streams the padded block through a (rows × width)
temporary, while the JIT version keeps one row's accumulator in
registers — the same restructuring a GPU/OpenMP port would do, which
is exactly the seam the registry exists to demonstrate.
"""

from __future__ import annotations

import numpy as np

from repro.backends.registry import register, registry

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the offline container path
    numba = None
    HAVE_NUMBA = False


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    registry.register_backend(
        "numba",
        priority=10,
        description="numba prange-parallel JIT kernels",
    )

    def _make_csr_spmv(zero):
        """JIT CSR SpMV accumulating in the matrix precision.

        The accumulator is seeded from a typed closure constant so
        fp32 rows sum in fp32 — matching the NumPy backend's
        reduction dtype.  Auto-selecting this backend must not change
        mixed-precision numerics relative to a numba-less install.
        """

        @numba.njit(parallel=True, fastmath=False, cache=True)
        def kernel(indptr, indices, data, x, y):
            for i in numba.prange(len(indptr) - 1):
                acc = zero
                for j in range(indptr[i], indptr[i + 1]):
                    acc += data[j] * x[indices[j]]
                y[i] = acc

        return kernel

    def _make_ell_spmv(zero):
        @numba.njit(parallel=True, fastmath=False, cache=True)
        def kernel(cols, vals, x, y):
            nrows, width = cols.shape
            for i in numba.prange(nrows):
                acc = zero
                for j in range(width):
                    acc += vals[i, j] * x[cols[i, j]]
                y[i] = acc

        return kernel

    def _make_ell_spmv_fp16():
        """JIT ELL SpMV streaming fp16 values with an fp32 accumulator.

        Matches the NumPy backend's fp16 contract: products and sums in
        fp32, result written to a float32 output buffer (the wrapper
        applies row equilibration and the final cast).
        """

        @numba.njit(parallel=True, fastmath=False, cache=True)
        def kernel(cols, vals, x, y):
            nrows, width = cols.shape
            for i in numba.prange(nrows):
                acc = np.float32(0.0)
                for j in range(width):
                    acc += np.float32(vals[i, j]) * np.float32(x[cols[i, j]])
                y[i] = acc

        return kernel

    def _make_csr_spmv_fp16():
        """JIT CSR SpMV streaming fp16 values with an fp32 accumulator.

        Same contract as the NumPy backend's fp16 CSR kernel: products
        and sums in fp32 so per-ingredient fp16 schedules hitting the
        CSR format don't silently fall back off the JIT leg.
        """

        @numba.njit(parallel=True, fastmath=False, cache=True)
        def kernel(indptr, indices, data, x, y):
            for i in numba.prange(len(indptr) - 1):
                acc = np.float32(0.0)
                for j in range(indptr[i], indptr[i + 1]):
                    acc += np.float32(data[j]) * np.float32(x[indices[j]])
                y[i] = acc

        return kernel

    def _probe_fp16(make_kernel, args):
        """Compile-and-run probe: CPU float16 support varies by numba
        version, so each fp16 kernel registers only where it works."""
        try:  # pragma: no cover - depends on the installed numba
            kernel = make_kernel()
            kernel(*args)
            return kernel
        except Exception:  # pragma: no cover
            return None

    # Precision-specific registrations: each kernel accumulates in its
    # own format, exercising the registry's precision axis.
    _KERNELS = {
        "fp32": (_make_csr_spmv(np.float32(0.0)), _make_ell_spmv(np.float32(0.0))),
        "fp64": (_make_csr_spmv(np.float64(0.0)), _make_ell_spmv(np.float64(0.0))),
    }

    def _register_numba(prec: str) -> None:
        csr_kernel, ell_kernel = _KERNELS[prec]

        @register("spmv", fmt="csr", precision=prec, backend="numba")
        def spmv_csr_numba(A, x, out=None, ws=None):
            if x.shape[0] != A.ncols:
                raise ValueError(
                    f"x has {x.shape[0]} entries, matrix has {A.ncols} columns"
                )
            y = out if out is not None else np.empty(A.nrows, dtype=A.data.dtype)
            csr_kernel(A.indptr, A.indices, A.data, x, y)
            return y

        @register("spmv", fmt="ell", precision=prec, backend="numba")
        def spmv_ell_numba(A, x, out=None, ws=None):
            if x.shape[0] != A.ncols:
                raise ValueError(
                    f"x has {x.shape[0]} entries, matrix has {A.ncols} columns"
                )
            y = out if out is not None else np.empty(A.nrows, dtype=A.vals.dtype)
            ell_kernel(A.cols, A.vals, x, y)
            return y

    for _prec in ("fp32", "fp64"):
        _register_numba(_prec)

    _ELL_FP16 = _probe_fp16(
        _make_ell_spmv_fp16,
        (
            np.zeros((1, 1), dtype=np.int32),
            np.ones((1, 1), dtype=np.float16),
            np.ones(1, dtype=np.float16),
            np.zeros(1, dtype=np.float32),
        ),
    )
    _CSR_FP16 = _probe_fp16(
        _make_csr_spmv_fp16,
        (
            np.zeros(2, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.float16),
            np.ones(1, dtype=np.float16),
            np.zeros(1, dtype=np.float32),
        ),
    )

    def _finish_fp16(A, y, out):
        """Shared epilogue: fold the row scale back, cast to storage."""
        scale = getattr(A, "row_scale", None)
        if scale is not None:
            np.multiply(y, scale, out=y)
        if out is None:
            return y.astype(np.float16)
        out[:] = y
        return out

    if _ELL_FP16 is not None:  # pragma: no cover - numba-with-fp16 only

        @register("spmv", fmt="ell", precision="fp16", backend="numba")
        def spmv_ell_numba_fp16(A, x, out=None, ws=None):
            if x.shape[0] != A.ncols:
                raise ValueError(
                    f"x has {x.shape[0]} entries, matrix has {A.ncols} columns"
                )
            y = (
                ws.get("numba.ell.spmv16", (A.nrows,), np.float32)
                if ws is not None
                else np.empty(A.nrows, dtype=np.float32)
            )
            _ELL_FP16(A.cols, A.vals, x, y)
            return _finish_fp16(A, y, out)

    if _CSR_FP16 is not None:  # pragma: no cover - numba-with-fp16 only

        @register("spmv", fmt="csr", precision="fp16", backend="numba")
        def spmv_csr_numba_fp16(A, x, out=None, ws=None):
            if x.shape[0] != A.ncols:
                raise ValueError(
                    f"x has {x.shape[0]} entries, matrix has {A.ncols} columns"
                )
            y = (
                ws.get("numba.csr.spmv16", (A.nrows,), np.float32)
                if ws is not None
                else np.empty(A.nrows, dtype=np.float32)
            )
            _CSR_FP16(A.indptr, A.indices, A.data, x, y)
            return _finish_fp16(A, y, out)

    # ------------------------------------------------------------------
    # Fused motif: waxpby + dot
    # ------------------------------------------------------------------
    # The jitted kernel fuses the *streaming* pass (the update's store
    # feeds no extra read), while the scalar reduction stays a
    # deterministic np.dot over the result: a prange-reduced scalar
    # would make run-to-run bit reproducibility hostage to the thread
    # schedule, which the solver's bitwise tests forbid.

    @numba.njit(parallel=True, fastmath=False, cache=True)
    def _waxpby_kernel(alpha, x, beta, y, w):  # pragma: no cover
        for i in numba.prange(len(w)):
            w[i] = alpha * x[i] + beta * y[i]

    @register("waxpby_dot", precision="fp64", backend="numba")
    def waxpby_dot_numba(alpha, x, beta, y, out=None, ws=None):
        w = out if out is not None else np.empty(len(y), dtype=y.dtype)
        _waxpby_kernel(np.float64(alpha), x, np.float64(beta), y, w)
        return w, float(np.dot(w, w))

    # ------------------------------------------------------------------
    # Panel (multi-RHS) SpMV: one matrix stream serving all N columns
    # ------------------------------------------------------------------
    # These are the genuinely single-pass kernels the panel pipeline
    # exists for: each row's indices and values are read *once* and the
    # accumulation loop runs per column from registers, so matrix
    # traffic is amortized N× while vector traffic scales with the
    # panel.  Per column the accumulation order is identical to the
    # single-RHS numba kernel above (sequential over the row's
    # nonzeros), so panel-vs-looped parity is bitwise within this
    # backend — the same contract the NumPy reference keeps by
    # composition.

    def _make_csr_spmv_multi(zero):
        @numba.njit(parallel=True, fastmath=False, cache=True)
        def kernel(indptr, indices, data, X, Y):
            ncol = X.shape[1]
            for i in numba.prange(len(indptr) - 1):
                for c in range(ncol):
                    acc = zero
                    for j in range(indptr[i], indptr[i + 1]):
                        acc += data[j] * X[indices[j], c]
                    Y[i, c] = acc

        return kernel

    def _make_ell_spmv_multi(zero):
        @numba.njit(parallel=True, fastmath=False, cache=True)
        def kernel(cols, vals, X, Y):
            nrows, width = cols.shape
            ncol = X.shape[1]
            for i in numba.prange(nrows):
                for c in range(ncol):
                    acc = zero
                    for j in range(width):
                        acc += vals[i, j] * X[cols[i, j], c]
                    Y[i, c] = acc

        return kernel

    _MULTI_KERNELS = {
        "fp32": (
            _make_csr_spmv_multi(np.float32(0.0)),
            _make_ell_spmv_multi(np.float32(0.0)),
        ),
        "fp64": (
            _make_csr_spmv_multi(np.float64(0.0)),
            _make_ell_spmv_multi(np.float64(0.0)),
        ),
    }

    def _register_numba_multi(prec: str) -> None:
        csr_kernel, ell_kernel = _MULTI_KERNELS[prec]

        @register("spmv_multi", fmt="csr", precision=prec, backend="numba")
        def spmv_multi_csr_numba(A, X, out=None, ws=None):
            if X.shape[0] != A.ncols:
                raise ValueError(
                    f"X has {X.shape[0]} rows, matrix has {A.ncols} columns"
                )
            Y = (
                out
                if out is not None
                else np.empty((A.nrows, X.shape[1]), dtype=A.data.dtype, order="F")
            )
            csr_kernel(A.indptr, A.indices, A.data, X, Y)
            return Y

        @register("spmv_multi", fmt="ell", precision=prec, backend="numba")
        def spmv_multi_ell_numba(A, X, out=None, ws=None):
            if X.shape[0] != A.ncols:
                raise ValueError(
                    f"X has {X.shape[0]} rows, matrix has {A.ncols} columns"
                )
            Y = (
                out
                if out is not None
                else np.empty((A.nrows, X.shape[1]), dtype=A.vals.dtype, order="F")
            )
            ell_kernel(A.cols, A.vals, X, Y)
            return Y

    for _prec in ("fp32", "fp64"):
        _register_numba_multi(_prec)

    # ------------------------------------------------------------------
    # Panel halves on the ghost-aware partitioned format
    # ------------------------------------------------------------------
    # The ROADMAP's PR 7 seam: the reference ``spmv_interior_multi`` /
    # ``spmv_boundary_multi`` registrations loop the panel's columns
    # through the single-RHS region kernels, streaming each region
    # block N times per panel.  These kernels stream the block *once* —
    # each block row's indices and values are read one time and the
    # accumulation runs per column from registers, with the scatter to
    # the owned row folded into the same pass.  Per column the
    # accumulation order matches the single-RHS block SpMV exactly
    # (sequential over the row's nonzeros), so the overlapped panel
    # schedule stays bitwise-per-column equal to the looped schedule
    # within this backend.

    def _make_ell_region_spmv_multi(zero):
        @numba.njit(parallel=True, fastmath=False, cache=True)
        def kernel(cols, vals, X, Y, rows):
            width = cols.shape[1]
            ncol = X.shape[1]
            for k in numba.prange(len(rows)):
                i = rows[k]
                for c in range(ncol):
                    acc = zero
                    for j in range(width):
                        acc += vals[k, j] * X[cols[k, j], c]
                    Y[i, c] = acc

        return kernel

    def _make_csr_region_spmv_multi(zero):
        @numba.njit(parallel=True, fastmath=False, cache=True)
        def kernel(indptr, indices, data, X, Y, rows):
            ncol = X.shape[1]
            for k in numba.prange(len(rows)):
                i = rows[k]
                for c in range(ncol):
                    acc = zero
                    for j in range(indptr[k], indptr[k + 1]):
                        acc += data[j] * X[indices[j], c]
                    Y[i, c] = acc

        return kernel

    _REGION_MULTI = {
        "fp32": (
            _make_csr_region_spmv_multi(np.float32(0.0)),
            _make_ell_region_spmv_multi(np.float32(0.0)),
        ),
        "fp64": (
            _make_csr_region_spmv_multi(np.float64(0.0)),
            _make_ell_region_spmv_multi(np.float64(0.0)),
        ),
    }

    def _region_spmv_multi_numba(P, region, X, Y, ws, csr_kernel, ell_kernel):
        """One region's single-pass panel SpMV; defers to the reference
        column loop for block storage the jitted kernels don't cover."""
        from repro.backends.partitioned_ops import _block_spmv_into

        blk = P.interior if region == "interior" else P.boundary
        rows = P.interior_rows if region == "interior" else P.boundary_rows
        if len(rows) == 0:
            return
        fmt = getattr(type(blk), "format_name", None)
        if fmt == "ell":
            ell_kernel(blk.cols, blk.vals, X, Y, rows)
        elif fmt == "csr":
            csr_kernel(blk.indptr, blk.indices, blk.data, X, Y, rows)
        else:
            for j in range(X.shape[1]):
                _block_spmv_into(P, region, X[:, j], Y[:, j], ws)

    def _register_numba_part_multi(prec: str) -> None:
        csr_kernel, ell_kernel = _REGION_MULTI[prec]

        @register(
            "spmv_interior_multi", fmt="partitioned", precision=prec, backend="numba"
        )
        def spmv_interior_multi_part_numba(P, X, out=None, ws=None):
            from repro.backends.partitioned_ops import _panel_result_buffer

            Y = _panel_result_buffer(P, out, ws, X.shape[1])
            _region_spmv_multi_numba(P, "interior", X, Y, ws, csr_kernel, ell_kernel)
            return Y

        @register(
            "spmv_boundary_multi", fmt="partitioned", precision=prec, backend="numba"
        )
        def spmv_boundary_multi_part_numba(P, X, out=None, ws=None):
            from repro.backends.partitioned_ops import _panel_result_buffer

            Y = _panel_result_buffer(P, out, ws, X.shape[1])
            _region_spmv_multi_numba(P, "boundary", X, Y, ws, csr_kernel, ell_kernel)
            return Y

    for _prec in ("fp32", "fp64"):
        _register_numba_part_multi(_prec)

    # ------------------------------------------------------------------
    # Native SymGS sweeps on the color-partitioned format
    # ------------------------------------------------------------------
    # The generic color_partitioned registrations serve each block
    # relaxation through a block-``spmv_multi`` re-dispatch plus three
    # NumPy ufunc calls on the slice; here the whole relaxation — block
    # SpMV and the near-cancelling update of rows ``[lo, hi)`` — is one
    # jitted pass over the block's ELL rows.  Rows within a block share
    # a color, hence are mutually independent and race-free under
    # prange.  The accumulation order per row matches the generic
    # path's inner kernels, keeping the two backends parity-testable.

    def _make_ell_block_relax(zero):
        @numba.njit(parallel=True, fastmath=False, cache=True)
        def kernel(cols, vals, xfull, r, lo, diag):
            nrows, width = cols.shape
            for k in numba.prange(nrows):
                i = lo + k
                acc = zero
                for j in range(width):
                    acc += vals[k, j] * xfull[cols[k, j]]
                xfull[i] = xfull[i] + (r[i] - acc) / diag[k]

        return kernel

    _BLOCK_RELAX = {
        "fp32": _make_ell_block_relax(np.float32(0.0)),
        "fp64": _make_ell_block_relax(np.float64(0.0)),
    }

    def _register_numba_cp(prec: str) -> None:
        relax_kernel = _BLOCK_RELAX[prec]

        def _relax(blk, R, Xfull, ws, zero_guess=False):
            """Jitted block relaxation, column by column; defers to the
            generic body for non-ELL block storage (the partitioner's
            default is ELL).  A zero guess needs no special case: the
            full relaxation is bitwise what the skipped product gives."""
            from repro.backends.partitioned_ops import _as_panels, _relax_block

            if blk.lo == blk.hi:
                return
            A_blk = blk.A
            if getattr(type(A_blk), "format_name", None) != "ell":
                _relax_block(blk, R, Xfull, ws, zero_guess)
                return
            R, Xfull = _as_panels(R, Xfull)
            for j in range(Xfull.shape[1]):
                relax_kernel(
                    A_blk.cols, A_blk.vals, Xfull[:, j], R[:, j], blk.lo, blk.diag
                )

        def symgs_interior_cp_numba(P, R, Xfull, ws=None):
            from repro.backends.partitioned_ops import _sweep_region

            _sweep_region(P, R, Xfull, "interior", ws, _relax)

        def symgs_boundary_cp_numba(P, R, Xfull, ws=None):
            from repro.backends.partitioned_ops import _sweep_region

            _sweep_region(P, R, Xfull, "boundary", ws, _relax)

        def symgs_sweep_cp_numba(
            P,
            R,
            Xfull,
            sets=None,
            diag_sets=None,
            direction="forward",
            ws=None,
            zero_guess=False,
        ):
            from repro.backends.partitioned_ops import _symgs_sweep_cp

            _symgs_sweep_cp(P, R, Xfull, direction, ws, _relax, zero_guess)

        # As in the NumPy module, each op and its panel twin are one
        # function: the relaxation takes a vector or a panel and runs
        # the same jitted kernel per column, so the panel schedule
        # stays bitwise-per-column equal to the looped schedule when
        # this backend is active.
        for op, fn in (
            ("symgs_interior", symgs_interior_cp_numba),
            ("symgs_boundary", symgs_boundary_cp_numba),
            ("symgs_interior_multi", symgs_interior_cp_numba),
            ("symgs_boundary_multi", symgs_boundary_cp_numba),
            ("symgs_sweep", symgs_sweep_cp_numba),
        ):
            register(op, fmt="color_partitioned", precision=prec, backend="numba")(fn)

    for _prec in ("fp32", "fp64"):
        _register_numba_cp(_prec)

"""Byte/flop characterization of every benchmark kernel.

The per-motif mixed-precision speedups of Fig. 5 are byte-ratio
effects: kernels that stream only floating-point data (CGS2's BLAS-2,
dots, WAXPBY) approach the ideal 2x when moving from FP64 to FP32,
while sparse kernels also stream 4-byte column indices whose size does
not shrink — "their need to fetch index arrays [leads] to lower ...
advantage from decreasing the bit-width" (§4.1).  This module encodes
exactly that arithmetic.

Traffic conventions (per local row of width ``w`` = 27):

- matrix values: ``w * vb`` (the padded ELL block streams fully),
- column indices: ``w * 4`` bytes (both formats; CSR adds row pointers
  and pays a warp-efficiency penalty on time, not bytes),
- input-vector gather: ``gather_reads * vb`` — the cache-miss model;
  a perfect cache would read each x once (1.0), no cache 27 times,
- output write (and read-modify-write where applicable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fp.precision import Precision

#: Stencil row width.
ROW_WIDTH = 27
#: Bytes per column index (int32).
IDX_BYTES = 4


@dataclass(frozen=True)
class KernelCost:
    """Bytes, flops and launch count of one kernel execution."""

    name: str
    motif: str
    nbytes: float
    flops: float
    launches: int = 1
    precision: Precision = Precision.DOUBLE

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte (the roofline x-axis)."""
        return self.flops / self.nbytes if self.nbytes else 0.0


@dataclass(frozen=True)
class KernelModel:
    """Traffic model parameters.

    Attributes
    ----------
    gather_reads_spmv:
        Effective HBM reads of each input-vector entry during SpMV
        (cache model; 1 = perfect reuse, 27 = none).
    gather_reads_gs:
        Same for a full multicolor GS sweep — slightly worse than SpMV
        because reuse across color passes is broken up.
    """

    gather_reads_spmv: float = 2.0
    gather_reads_gs: float = 3.0

    def _matrix_block_bytes(self, prec: Precision) -> float:
        """Streamed bytes per row for values + column indices."""
        return ROW_WIDTH * (prec.bytes + IDX_BYTES)

    def _format_overhead_bytes(self, n: int, fmt: str) -> float:
        """Per-kernel metadata traffic a format adds on top of ELL."""
        if fmt == "csr":
            return (n + 1) * 8  # row pointers
        return 0.0

    # ------------------------------------------------------------------
    # Sparse motifs
    # ------------------------------------------------------------------
    def spmv(
        self, n: int, prec: Precision, fmt: str = "ell", panel: int = 1
    ) -> KernelCost:
        """y = A x on an n-row stencil block.

        ``panel > 1`` models the multi-RHS kernel: the matrix block
        (values, indices, format metadata) streams **once** for the
        whole panel while the vector traffic — gather and output —
        scales with the column count.  ``panel=1`` reproduces the
        single-RHS cost exactly (the extra columns are charged
        additively, so the historical numbers are untouched).
        """
        vb = prec.bytes
        nbytes = n * (
            self._matrix_block_bytes(prec)  # values + column indices
            + self.gather_reads_spmv * vb  # x gather
            + vb  # y write
        )
        nbytes += self._format_overhead_bytes(n, fmt)
        if panel > 1:
            nbytes += (panel - 1) * n * (self.gather_reads_spmv * vb + vb)
        return KernelCost(
            name=f"spmv_{fmt}_{prec.short_name}",
            motif="spmv",
            nbytes=nbytes,
            flops=2 * ROW_WIDTH * n * panel,
            launches=1,
            precision=prec,
        )

    def gs_sweep(
        self,
        n: int,
        prec: Precision,
        num_colors: int = 8,
        fmt: str = "ell",
        color_blocks: bool = True,
        panel: int = 1,
    ) -> KernelCost:
        """One forward multicolor GS sweep (all colors).

        One matrix pass total, plus r read, x read-modify-write, and
        the gather; one kernel launch per color.

        ``color_blocks=True`` (the default, what every multicolor
        sweep of the solver streams) is the color-partitioned layout: each pass is a dense
        block kernel over pre-extracted rows.  ``color_blocks=False``
        is the legacy index-set layout — every pass streams its
        color's int64 row-index array and stages the gathered r/x
        slices through scratch, charged as ``n * (8 + vb)`` extra
        bytes per sweep (what a smoother that falls off the
        partitioned layout pays).

        ``panel > 1`` is the multi-RHS sweep: one matrix (and diag,
        and row-index) stream per color pass serves every column; the
        r/x vector traffic and gather scale with the panel.  As in
        :meth:`spmv` the extra columns are charged additively so the
        ``panel=1`` cost is bit-identical to the historical one.
        """
        vb = prec.bytes
        nbytes = n * (
            self._matrix_block_bytes(prec)
            + self.gather_reads_gs * vb  # x gather across passes
            + vb  # r read
            + 2 * vb  # x read + write
            + vb  # diag read
        )
        if not color_blocks:
            nbytes += n * (8 + vb)  # row-index stream + staging copy
        nbytes += self._format_overhead_bytes(n, fmt)
        if panel > 1:
            per_col = n * (self.gather_reads_gs * vb + vb + 2 * vb + vb)
            if not color_blocks:
                per_col += n * vb  # staging copy (index stream shared)
            nbytes += (panel - 1) * per_col
        return KernelCost(
            name=f"gs_{prec.short_name}",
            motif="gs",
            nbytes=nbytes,
            flops=(2 * ROW_WIDTH + 2) * n * panel,
            launches=num_colors,
            precision=prec,
        )

    def gs_color_matrix_bytes(
        self, n: int, prec: Precision, num_colors: int = 8
    ) -> float:
        """Matrix-block bytes one color pass of :meth:`gs_sweep`
        streams — what a sweep from the zero guess does not read (its
        first color multiplies zeros)."""
        return n * self._matrix_block_bytes(prec) / num_colors

    def gs_levelscheduled(
        self, n: int, prec: Precision, num_levels: int, fmt: str = "csr"
    ) -> KernelCost:
        """Reference GS: upper SpMV + level-scheduled lower SpTRSV.

        Two matrix passes (issue 2 of §3.1) and one launch per
        dependency wavefront — the launch overhead is what strangles
        the reference implementation at realistic sizes.
        """
        vb = prec.bytes
        nbytes = n * (
            2 * ROW_WIDTH * (vb + IDX_BYTES)  # U-SpMV pass + L-solve pass
            + 2 * self.gather_reads_gs * vb
            + vb  # r
            + 2 * vb  # x
            + vb  # diag
        )
        if fmt == "csr":
            nbytes += 2 * (n + 1) * 8
        return KernelCost(
            name=f"gs_levelsched_{prec.short_name}",
            motif="gs",
            nbytes=nbytes,
            flops=(2 * ROW_WIDTH + 2) * n,
            launches=1 + num_levels,
            precision=prec,
        )

    def fused_spmv_restrict(
        self, n_coarse: int, prec: Precision, panel: int = 1
    ) -> KernelCost:
        """Optimized residual+restriction: full-width rows, coarse count.

        Panel semantics as in :meth:`spmv`: matrix rows stream once,
        the gather / b / coarse-write vector traffic scales per column.
        """
        vb = prec.bytes
        nbytes = n_coarse * (
            ROW_WIDTH * (vb + IDX_BYTES)
            + self.gather_reads_spmv * vb * 4.0  # gather spans the fine grid,
            # reuse is poor because only every 8th row is touched
            + vb  # b read
            + vb  # coarse write
        )
        if panel > 1:
            nbytes += (panel - 1) * n_coarse * (
                self.gather_reads_spmv * vb * 4.0 + 2 * vb
            )
        return KernelCost(
            name=f"spmv_restrict_fused_{prec.short_name}",
            motif="restrict",
            nbytes=nbytes,
            flops=(2 * ROW_WIDTH + 1) * n_coarse * panel,
            launches=1,
            precision=prec,
        )

    def unfused_residual_restrict(
        self,
        n_fine: int,
        n_coarse: int,
        prec: Precision,
        fmt: str = "csr",
        panel: int = 1,
    ) -> KernelCost:
        """Reference path: full SpMV + axpy + injection copy (§3.1 issue 3)."""
        spmv = self.spmv(n_fine, prec, fmt, panel=panel)
        vb = prec.bytes
        extra = n_fine * 3 * vb  # residual read-sub-write
        extra += n_coarse * 2 * vb  # injection gather + store
        return KernelCost(
            name=f"residual_restrict_unfused_{prec.short_name}",
            motif="restrict",
            nbytes=spmv.nbytes + extra * panel,
            flops=spmv.flops + n_fine * panel,
            launches=3,
            precision=prec,
        )

    def prolong_correct(self, n_coarse: int, prec: Precision) -> KernelCost:
        """Scatter-add of the coarse correction."""
        vb = prec.bytes
        return KernelCost(
            name=f"prolong_{prec.short_name}",
            motif="prolong",
            nbytes=n_coarse * 3 * vb,
            flops=n_coarse,
            launches=1,
            precision=prec,
        )

    # ------------------------------------------------------------------
    # Dense motifs
    # ------------------------------------------------------------------
    def ortho_cgs2_step(self, n: int, k: int, prec: Precision) -> KernelCost:
        """CGS2 against k basis vectors: 2x (GEMVT + GEMV) + norm + scale.

        Pure floating-point streaming — the motif with the ideal 2x
        FP32 speedup ("the perfect speedup of the orthogonalization
        phase", §4.1).
        """
        vb = prec.bytes
        nbytes = (
            4 * n * k * vb  # four passes over Q[:, :k]
            + 6 * n * vb  # w read/write per pass + norm read + scale rw
        )
        return KernelCost(
            name=f"ortho_cgs2_{prec.short_name}",
            motif="ortho",
            nbytes=nbytes,
            flops=8 * n * k + 3 * n,
            launches=5,
            precision=prec,
        )

    def gemv_qt(self, n: int, k: int, prec: Precision) -> KernelCost:
        """Solution-update GEMV ``Q t`` (per restart cycle)."""
        vb = prec.bytes
        return KernelCost(
            name=f"gemv_{prec.short_name}",
            motif="ortho",
            nbytes=n * k * vb + 2 * n * vb,
            flops=2 * n * k,
            launches=1,
            precision=prec,
        )

    def spmv_dot(
        self, n: int, prec: Precision, fmt: str = "ell", panel: int = 1
    ) -> KernelCost:
        """Fused ``r = b - A x`` + local ``r . r`` (one matrix pass).

        Versus the unfused sequence (SpMV, then a 3-vector waxpby,
        then a 2-vector dot) the residual and reduction ride the
        SpMV's pass: only ``b`` is read and ``r`` written on top of
        the SpMV traffic — the "remaining bytes" fusion the
        tile-centric mixed-precision GEMM work targets, applied to the
        sparse residual check.  Panel semantics as in :meth:`spmv`.
        """
        spmv = self.spmv(n, prec, fmt, panel=panel)
        vb = prec.bytes
        return KernelCost(
            name=f"spmv_dot_{fmt}_{prec.short_name}",
            motif="spmv",
            nbytes=spmv.nbytes + n * vb * panel,  # + b read (r write in spmv's y)
            flops=spmv.flops + 3 * n * panel,  # subtract + multiply-add
            launches=1,
            precision=prec,
        )

    def waxpby_dot(self, n: int, prec: Precision) -> KernelCost:
        """Fused ``w = alpha x + beta y`` + local ``w . w`` (one pass)."""
        vb = prec.bytes
        return KernelCost(
            name=f"waxpby_dot_{prec.short_name}",
            motif="waxpby",
            nbytes=3 * n * vb,  # x read, y read, w write; dot in-register
            flops=5 * n,
            launches=1,
            precision=prec,
        )

    def dot(self, n: int, prec: Precision) -> KernelCost:
        vb = prec.bytes
        return KernelCost(
            name=f"dot_{prec.short_name}",
            motif="dot",
            nbytes=2 * n * vb,
            flops=2 * n,
            launches=1,
            precision=prec,
        )

    def waxpby(self, n: int, prec: Precision) -> KernelCost:
        vb = prec.bytes
        return KernelCost(
            name=f"waxpby_{prec.short_name}",
            motif="waxpby",
            nbytes=3 * n * vb,
            flops=3 * n,
            launches=1,
            precision=prec,
        )

    def mixed_waxpby_device(self, n: int) -> KernelCost:
        """Optimized custom mixed-precision update (fp32 in, fp64 out)."""
        return KernelCost(
            name="waxpby_mixed",
            motif="waxpby",
            nbytes=n * (4 + 8 + 8),
            flops=2 * n,
            launches=1,
            precision=Precision.DOUBLE,
        )

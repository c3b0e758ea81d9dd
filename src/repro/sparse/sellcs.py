"""SELL-C-σ sparse matrix format (Kreutzer et al., SIAM SISC 2014).

The paper's optimized implementation stores the stencil matrix in ELL
because every interior row has exactly 27 nonzeros (§3.2.2); SELL-C-σ
is the general-purpose format that choice approximates.  Rows are
sorted by nonzero count inside windows of ``σ`` rows, then packed into
chunks of ``C`` consecutive rows; each chunk is padded only to *its
own* widest row.  For a matrix whose row lengths vary (multigrid
boundary rows: 8/12/18/27), the stored block shrinks accordingly while
keeping the fixed-stride, gather-friendly access pattern GPU warps
(and NumPy's vectorized reductions) want.

Representation
--------------
Canonical chunk metadata (``chunk_width``, ``C``, ``sigma``, ``perm``)
is kept for byte accounting and format fidelity; the *compute*
representation groups chunks of equal width into dense
``(rows, width)`` blocks — a handful of ELL-like slabs (one per
distinct width, ≤ 4 for the stencil) that each admit the same
fully-vectorized gather-multiply-reduce as ELL.  Padded slots follow
the ELL convention: ``col = 0``, ``val = 0``.

Kernels accept an ``out=`` buffer end-to-end and an optional
:class:`~repro.backends.workspace.Workspace` that pools every
O(rows × width) temporary; row-subset kernels still allocate small
selection-index vectors (the cost of the permuted layout's
indirection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fp.precision import Precision

#: Default chunk size (GPU-warp-sized; also a good NumPy slab height).
DEFAULT_CHUNK = 32
#: Default sorting window (σ): local enough to keep the permutation
#: cache-friendly, wide enough to group equal-length rows.
DEFAULT_SIGMA = 128


@dataclass
class _WidthBlock:
    """All chunks of one width, fused into a dense ELL-like slab."""

    width: int
    rows: np.ndarray  # (m,) original row ids, SELL position order
    cols: np.ndarray  # (m, width) int32, padded slots 0
    vals: np.ndarray  # (m, width), padded slots 0.0


class SELLCSMatrix:
    """A local sparse matrix in SELL-C-σ layout."""

    format_name = "sellcs"

    def __init__(
        self,
        blocks: list[_WidthBlock],
        chunk_width: np.ndarray,
        perm: np.ndarray,
        nrows: int,
        ncols: int,
        chunk: int = DEFAULT_CHUNK,
        sigma: int = DEFAULT_SIGMA,
    ) -> None:
        self.blocks = blocks
        self.chunk_width = chunk_width
        self.perm = perm
        self._nrows = nrows
        self.ncols = ncols
        self.C = chunk
        self.sigma = sigma
        # Per-original-row (block id, slot in block) for row-subset ops.
        self.row_block = np.full(nrows, -1, dtype=np.int32)
        self.row_slot = np.zeros(nrows, dtype=np.int64)
        for bid, blk in enumerate(blocks):
            self.row_block[blk.rows] = bid
            self.row_slot[blk.rows] = np.arange(len(blk.rows))

    # ------------------------------------------------------------------
    # Shape and metadata
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def nchunks(self) -> int:
        return len(self.chunk_width)

    @property
    def width(self) -> int:
        """Widest chunk (the ELL width this format improves on)."""
        return int(self.chunk_width.max(initial=0))

    @property
    def dtype(self) -> np.dtype:
        for blk in self.blocks:
            return blk.vals.dtype
        return np.dtype(np.float64)

    @property
    def precision(self) -> Precision:
        return Precision.from_any(self.dtype)

    @property
    def stored_slots(self) -> int:
        """Value/index slots the chunked layout stores (incl. padding)."""
        return int(self.chunk_width.astype(np.int64).sum()) * self.C

    @property
    def nnz(self) -> int:
        """Stored (non-padded) nonzeros; ELL's explicit-zero caveat applies."""
        return sum(int(np.count_nonzero(blk.vals)) for blk in self.blocks)

    @property
    def pad_fraction(self) -> float:
        """Fraction of the chunked storage that is padding."""
        total = self.stored_slots
        return 1.0 - self.nnz / total if total else 0.0

    def row_nnz(self) -> np.ndarray:
        """Number of stored nonzeros in each (original-order) row."""
        out = np.zeros(self.nrows, dtype=np.int64)
        for blk in self.blocks:
            out[blk.rows] = np.count_nonzero(blk.vals, axis=1)
        return out

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y = A @ x — one gather-multiply-reduce per width slab."""
        from repro.backends.dispatch import spmv

        return spmv(self, x, out=out)

    def spmv_rows(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(A @ x) restricted to a subset of rows (reference: the full
        product's rows)."""
        from repro.backends.dispatch import spmv_rows

        return spmv_rows(self, rows, x)

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (original row order)."""
        diag = np.zeros(self.nrows, dtype=self.dtype)
        for blk in self.blocks:
            if blk.width == 0:
                continue
            hit = (blk.cols == blk.rows[:, None]) & (blk.vals != 0)
            diag[blk.rows] = np.where(
                hit.any(axis=1), (blk.vals * hit).sum(axis=1), 0.0
            ).astype(self.dtype)
        return diag

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def astype(self, prec: "Precision | str") -> "SELLCSMatrix":
        """Value-precision cast sharing structure arrays."""
        dtype = Precision.from_any(prec).dtype
        blocks = [
            _WidthBlock(
                width=blk.width,
                rows=blk.rows,
                cols=blk.cols,
                vals=blk.vals.astype(dtype)
                if blk.vals.dtype != dtype
                else blk.vals.copy(),
            )
            for blk in self.blocks
        ]
        return SELLCSMatrix(
            blocks,
            self.chunk_width,
            self.perm,
            self.nrows,
            self.ncols,
            chunk=self.C,
            sigma=self.sigma,
        )

    def to_csr(self):
        """Convert back to CSR (drops padding)."""
        from repro.sparse.csr import CSRMatrix

        counts = self.row_nnz()
        indptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.zeros(int(indptr[-1]), dtype=np.int32)
        data = np.zeros(int(indptr[-1]), dtype=self.dtype)
        for blk in self.blocks:
            if blk.width == 0:
                continue
            mask = blk.vals != 0
            lens = mask.sum(axis=1)
            dest = np.repeat(indptr[blk.rows], lens) + (
                np.arange(int(lens.sum()))
                - np.repeat(np.cumsum(lens) - lens, lens)
            )
            indices[dest] = blk.cols[mask]
            data[dest] = blk.vals[mask]
        return CSRMatrix(
            indptr=indptr, indices=indices, data=data, ncols=self.ncols
        )

    def to_ell(self):
        """Convert to ELL (re-pads every row to the global max width)."""
        return self.to_csr().to_ell()

    def to_scipy(self):
        """Convert to a scipy CSR matrix (test/diagnostic use)."""
        return self.to_csr().to_scipy()

    def to_dense(self) -> np.ndarray:
        """Dense copy (small problems / tests only)."""
        return self.to_csr().to_dense()

    @classmethod
    def from_csr(
        cls,
        csr,
        chunk: int = DEFAULT_CHUNK,
        sigma: int | None = None,
    ) -> "SELLCSMatrix":
        """Pack a CSR matrix into SELL-C-σ.

        Rows are stable-sorted by descending nonzero count inside each
        window of ``sigma`` rows, then cut into chunks of ``chunk``
        rows; each chunk is padded to its own widest row.
        """
        if chunk < 1:
            raise ValueError("chunk size must be >= 1")
        sigma = DEFAULT_SIGMA if sigma is None else sigma
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        n = csr.nrows
        nnz_row = np.diff(csr.indptr)
        # Stable window sort: primary key the σ-window, secondary the
        # (descending) row length, tertiary the row id (stability).
        win = np.arange(n, dtype=np.int64) // sigma
        perm = np.lexsort((np.arange(n), -nnz_row, win)).astype(np.int64)

        n_pad = ((n + chunk - 1) // chunk) * chunk if n else 0
        nnz_sorted = np.zeros(n_pad, dtype=np.int64)
        nnz_sorted[:n] = nnz_row[perm]
        chunk_width = (
            nnz_sorted.reshape(-1, chunk).max(axis=1).astype(np.int32)
            if n_pad
            else np.zeros(0, dtype=np.int32)
        )

        # Width of the chunk each SELL position belongs to.
        pos_width = np.repeat(chunk_width, chunk)[:n]
        blocks: list[_WidthBlock] = []
        for w in np.unique(pos_width)[::-1]:
            sel = np.nonzero(pos_width == w)[0]  # SELL positions, ascending
            rows = perm[sel]
            w = int(w)
            m = len(rows)
            cols2 = np.zeros((m, w), dtype=np.int32)
            vals2 = np.zeros((m, w), dtype=csr.data.dtype)
            if w:
                lens = nnz_row[rows]
                total = int(lens.sum())
                if total:
                    starts = np.cumsum(lens) - lens
                    flat = np.repeat(csr.indptr[rows], lens) + (
                        np.arange(total) - np.repeat(starts, lens)
                    )
                    rr = np.repeat(np.arange(m), lens)
                    ww = np.arange(total) - np.repeat(starts, lens)
                    cols2[rr, ww] = csr.indices[flat]
                    vals2[rr, ww] = csr.data[flat]
            blocks.append(_WidthBlock(width=w, rows=rows, cols=cols2, vals=vals2))

        return cls(
            blocks,
            chunk_width,
            perm,
            nrows=n,
            ncols=csr.ncols,
            chunk=chunk,
            sigma=sigma,
        )

    @classmethod
    def from_ell(
        cls, ell, chunk: int = DEFAULT_CHUNK, sigma: int | None = None
    ) -> "SELLCSMatrix":
        """Pack an ELL matrix into SELL-C-σ."""
        return cls.from_csr(ell.to_csr(), chunk=chunk, sigma=sigma)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes(self, index_bytes: int = 4, ptr_bytes: int = 8) -> int:
        """Storage footprint: padded chunk slabs (values + column
        indices) plus the chunk-offset array and the int32 row
        permutation."""
        return (
            self.stored_slots * (self.dtype.itemsize + index_bytes)
            + (self.nchunks + 1) * ptr_bytes
            + self.nrows * 4
        )

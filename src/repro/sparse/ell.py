"""ELLPACK (ELL) sparse matrix format.

ELL stores a dense ``(nrows, width)`` block of values and column indices
where ``width`` is the maximum nonzeros per row; short rows are padded.
For stencil matrices (27 nonzeros per interior row) padding overhead is
small and, unlike CSR, no row-pointer array is needed and every row's
nonzeros sit at a fixed stride — which is why the paper adopts it for
GPU warps (§3.2.2).  Here the same property makes the SpMV a single
vectorized gather-multiply-reduce with no Python-level looping.

Padding convention: padded slots have ``col = 0`` and ``val = 0`` so a
gather through them is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fp.precision import Precision


@dataclass
class ELLMatrix:
    """A local sparse matrix in ELL layout.

    Attributes
    ----------
    cols:
        ``(nrows, width)`` int32 local column indices (padded slots 0).
    vals:
        ``(nrows, width)`` values (padded slots 0.0).
    ncols:
        Column-space size; for distributed matrices this is
        ``nlocal + n_ghost``.
    """

    cols: np.ndarray
    vals: np.ndarray
    ncols: int

    #: Storage-format key for the kernel registry.
    format_name = "ell"

    def __post_init__(self) -> None:
        if self.cols.shape != self.vals.shape:
            raise ValueError("cols/vals shape mismatch")
        if self.cols.ndim != 2:
            raise ValueError("ELL arrays must be 2-D")
        # One layout for every kernel: int32 indices, C-contiguous
        # blocks (a row's slots adjacent, so the block reshapes to CSR's
        # flat arrays without a copy).  No-ops for from_csr / astype /
        # extract_rows; a sliced or F-order input is copied once here.
        self.cols = np.ascontiguousarray(self.cols, dtype=np.int32)
        self.vals = np.ascontiguousarray(self.vals)

    # ------------------------------------------------------------------
    # Shape and metadata
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.cols.shape[0]

    @property
    def width(self) -> int:
        """Max nonzeros per row (ELL row width)."""
        return self.cols.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.vals.dtype

    @property
    def precision(self) -> Precision:
        return Precision.from_any(self.vals.dtype)

    @property
    def nnz(self) -> int:
        """Stored (non-padded) nonzeros.

        A structurally-present explicit zero would be undercounted, but
        the benchmark matrix has none.
        """
        return int(np.count_nonzero(self.vals))

    @property
    def pad_fraction(self) -> float:
        """Fraction of the dense block that is padding."""
        total = self.vals.size
        return 1.0 - self.nnz / total if total else 0.0

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y = A @ x for a full column vector (owned + ghost entries).

        Fully vectorized: one gather of ``x`` through the column block,
        elementwise multiply, and a row reduction.
        """
        from repro.backends.dispatch import spmv

        return spmv(self, x, out=out)

    def spmv_rows(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(A @ x) restricted to a subset of rows: one wavefront of a
        level-scheduled triangular solve.  (The fused restriction and
        the overlap split multiply packed row *blocks* instead —
        :func:`repro.sparse.partitioned.extract_rows`.)"""
        from repro.backends.dispatch import spmv_rows

        return spmv_rows(self, rows, x)

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal: locate the slots whose column is
        their row's and sum each row's (there is one, or none).

        A zero-valued slot adds nothing, so row 0's padding (column 0,
        value 0) and an explicit diagonal zero read +0, as does a row
        without a diagonal slot; the benchmark matrix has 26 everywhere.
        """
        rows = np.arange(self.nrows, dtype=np.int32)
        at = np.flatnonzero(self.cols == rows[:, None])
        diag = np.zeros(self.nrows, dtype=self.dtype)
        np.add.at(diag, at // self.width, self.vals.ravel()[at])
        return diag

    def row_nnz(self) -> np.ndarray:
        """Number of stored nonzeros in each row."""
        return np.count_nonzero(self.vals, axis=1)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def astype(self, prec: "Precision | str") -> "ELLMatrix":
        """Copy of this matrix with values cast to another precision.

        This produces the low-precision matrix copy GMRES-IR keeps next
        to the double-precision one.
        """
        dtype = Precision.from_any(prec).dtype
        if dtype == self.vals.dtype:
            return ELLMatrix(self.cols, self.vals.copy(), self.ncols)
        return ELLMatrix(self.cols, self.vals.astype(dtype), self.ncols)

    def to_csr(self) -> "CSRMatrix":
        """Convert to CSR, dropping padding."""
        from repro.sparse.csr import CSRMatrix

        mask = self.vals != 0
        counts = mask.sum(axis=1)
        indptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = self.cols[mask].astype(np.int32)
        data = self.vals[mask]
        return CSRMatrix(indptr=indptr, indices=indices, data=data, ncols=self.ncols)

    def to_scipy(self):
        """Convert to a scipy CSR matrix (test/diagnostic use)."""
        return self.to_csr().to_scipy()

    def to_dense(self) -> np.ndarray:
        """Dense copy (small problems / tests only)."""
        out = np.zeros((self.nrows, self.ncols), dtype=self.vals.dtype)
        mask = self.vals != 0
        rows = np.nonzero(mask)[0]
        np.add.at(out, (rows, self.cols[mask]), self.vals[mask])
        return out

    @classmethod
    def from_csr(cls, csr: "CSRMatrix") -> "ELLMatrix":
        """Build ELL from CSR (pads to the max row length)."""
        nnz_per_row = np.diff(csr.indptr)
        width = int(nnz_per_row.max(initial=0))
        n = csr.nrows
        cols = np.zeros((n, width), dtype=np.int32)
        vals = np.zeros((n, width), dtype=csr.data.dtype)
        # Vectorized scatter: position of each nnz within its row.
        within = np.arange(len(csr.indices)) - np.repeat(csr.indptr[:-1], nnz_per_row)
        rows = np.repeat(np.arange(n), nnz_per_row)
        cols[rows, within] = csr.indices
        vals[rows, within] = csr.data
        return cls(cols=cols, vals=vals, ncols=csr.ncols)

    def memory_bytes(self, index_bytes: int = 4) -> int:
        """Storage footprint: values + column indices (no row pointers)."""
        return self.vals.size * self.vals.itemsize + self.cols.size * index_bytes

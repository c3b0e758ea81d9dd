"""Compressed Sparse Row format.

CSR is what the reference HPG-MxP implementation uses (§3.1, issue 5).
The SpMV here is vectorized with ``np.add.reduceat`` over row pointer
boundaries; its irregular reduction is the CPU analog of the warp
under-utilization the paper describes on GPUs, and the performance
model charges CSR a lower effective bandwidth accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fp.precision import Precision


@dataclass
class CSRMatrix:
    """A local sparse matrix in CSR layout.

    Attributes
    ----------
    indptr:
        ``(nrows+1,)`` row pointers.
    indices:
        ``(nnz,)`` int32 local column indices.
    data:
        ``(nnz,)`` values.
    ncols:
        Column-space size (``nlocal + n_ghost`` for distributed use).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    ncols: int

    #: Storage-format key for the kernel registry.
    format_name = "csr"

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or self.indices.shape != self.data.shape:
            raise ValueError("malformed CSR arrays")
        if self.indices.dtype != np.int32:
            self.indices = self.indices.astype(np.int32)
        if self.indptr.dtype != np.int64:
            self.indptr = self.indptr.astype(np.int64)

    @property
    def nrows(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def precision(self) -> Precision:
        return Precision.from_any(self.data.dtype)

    def row_nnz(self) -> np.ndarray:
        """Stored entries per row."""
        return np.diff(self.indptr)

    @property
    def width(self) -> int:
        """Max stored entries in any row (ELL width equivalent)."""
        return int(self.row_nnz().max(initial=0))

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y = A @ x via the registered kernel (segmented reduction).

        Honors a caller-provided ``out=`` buffer end-to-end, including
        the empty-row fixup path.
        """
        from repro.backends.dispatch import spmv

        return spmv(self, x, out=out)

    def spmv_rows(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(A @ x) restricted to a subset of rows (reference: the full
        product's rows)."""
        from repro.backends.dispatch import spmv_rows

        return spmv_rows(self, rows, x)

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal."""
        n = self.nrows
        diag = np.zeros(n, dtype=self.data.dtype)
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        hit = self.indices == rows
        diag_rows = rows[hit]
        diag[diag_rows] = self.data[hit]
        return diag

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def astype(self, prec: "Precision | str") -> "CSRMatrix":
        """Value-precision cast (keeps structure arrays shared)."""
        dtype = Precision.from_any(prec).dtype
        data = self.data if dtype == self.data.dtype else self.data.astype(dtype)
        return CSRMatrix(
            self.indptr,
            self.indices,
            data.copy() if data is self.data else data,
            self.ncols,
        )

    def to_csr(self) -> "CSRMatrix":
        """Identity conversion (CSR is the interchange format), so
        format-generic code can call ``to_csr`` on any matrix."""
        return self

    def to_ell(self):
        """Convert to ELL."""
        from repro.sparse.ell import ELLMatrix

        return ELLMatrix.from_csr(self)

    def to_scipy(self):
        """Convert to scipy.sparse.csr_matrix (tests/diagnostics)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.nrows, self.ncols)
        )

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any scipy sparse matrix."""
        m = mat.tocsr()
        return cls(
            indptr=m.indptr.astype(np.int64),
            indices=m.indices.astype(np.int32),
            data=np.asarray(m.data),
            ncols=m.shape[1],
        )

    def to_dense(self) -> np.ndarray:
        """Dense copy (small problems / tests only)."""
        return np.asarray(self.to_scipy().todense())

    def memory_bytes(self, index_bytes: int = 4, ptr_bytes: int = 8) -> int:
        """Storage footprint: values + column indices + row pointers."""
        return (
            self.data.size * self.data.itemsize
            + self.indices.size * index_bytes
            + self.indptr.size * ptr_bytes
        )

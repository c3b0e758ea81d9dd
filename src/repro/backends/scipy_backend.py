"""Compiled row products: SciPy's ``csr_matvec`` under ELL and CSR.

NumPy's sparse product gathers ``x`` through the index block into
scratch, multiplies and reduces — three passes whose gather costs the
same per fp32 element as per fp64 one.  ``csr_matvec`` is one compiled
pass with the row's accumulator in a register, and every installation
that can import ``repro`` has it (SciPy is a declared dependency).  It
is a private path, wrapped here once: if the import fails, this module
registers nothing and the registry holds ``numpy`` alone.

A C-contiguous padded ELL block *is* a CSR matrix with a uniform row
pointer, so it is handed over without a copy (padded slots multiply
``x[0]`` by 0, as the gather does); CSR adds an int32 row pointer
beside its int32 column indices.

The row sum is sequential where NumPy's is pairwise, so this backend is
its own **parity class**: it agrees with ``numpy`` to the rung's
tolerance, and every bitwise contract (panel column ≡ solo, overlapped
≡ sequential, fused ≡ unfused, slice sweep ≡ index-set reference) holds
*inside* it because ``spmv`` / ``spmv_multi`` / ``spmv_rows``, with or
without ``ws`` / ``out``, are all this one sum.  Every non-sparse op
resolves through the registry's fallback chain to the NumPy kernels.

Handed operands whose dtypes or strides do not match, ``csr_matvec``
silently upcasts and copies O(nnz); the guards below (matrix = vector
= out dtype, contiguous operands, int32-addressable block) route such
calls to the NumPy body instead.
"""

from __future__ import annotations

import numpy as np

from repro.backends import numpy_backend
from repro.backends.numpy_backend import _check_cols, _panel_out, _scratch
from repro.backends.registry import NUMPY_BACKEND, register, registry

try:
    from scipy.sparse._sparsetools import csr_matvec
except ImportError:  # a SciPy that moved the private module
    csr_matvec = None

BACKEND = "scipy"

#: ``csr_matvec`` is instantiated for equal index types only, and the
#: repo's column indices are int32.
_INDEX_LIMIT = 2**31


def _operands(A):
    """``(indptr, indices, data)`` as ``csr_matvec`` takes them, built
    once per matrix and cached on it (as ``_csr_plan`` caches the
    reduction plan); ``None`` when the block is not zero-copy
    addressable.  ``csr_matvec`` checks no bound, so the index range is
    validated here, once."""
    try:
        return A._csr_operands
    except AttributeError:
        pass
    ops = None
    if hasattr(A, "cols"):
        m, w = A.cols.shape
        if (
            m * w < _INDEX_LIMIT
            and A.cols.flags.c_contiguous
            and A.vals.flags.c_contiguous
        ):
            indptr = np.arange(m + 1, dtype=np.int32) * np.int32(w)
            ops = (indptr, A.cols.reshape(-1), A.vals.reshape(-1))
    elif A.nnz < _INDEX_LIMIT:
        ops = (A.indptr.astype(np.int32), A.indices, A.data)
    if ops is not None and ops[1].size:
        if ops[1].min() < 0 or ops[1].max() >= A.ncols:
            ops = None
    A._csr_operands = ops
    return ops


def _streams(A, x, y, m) -> bool:
    """Whether ``csr_matvec`` can read ``x`` and accumulate into the
    ``m``-row ``y`` in place (vectors, or panels column by column).  It
    checks no length either: a short operand is an error here."""
    _check_cols(A, x)
    if y.shape[0] != m:
        raise ValueError(f"out has {y.shape[0]} rows, product has {m}")
    dtype = A.dtype
    return (
        x.dtype == dtype
        and y.dtype == dtype
        and (x.strides[0] == x.itemsize or x.shape[0] < 2)
        and (y.strides[0] == y.itemsize or m < 2)
    )


def _register(fmt, prec):
    kw = dict(fmt=fmt, precision=prec, backend=BACKEND)
    # Resolved now, before any dispatch wrapper exists: a fallback is
    # the same dispatch, not a second one.
    numpy_spmv = registry.lookup("spmv", fmt, prec, backend=NUMPY_BACKEND)
    numpy_multi = registry.lookup(
        "spmv_multi", fmt, prec, backend=NUMPY_BACKEND
    )

    @register("spmv", **kw)
    def spmv(A, x, out=None, ws=None):
        ops = _operands(A)
        y = out if out is not None else np.empty(A.nrows, dtype=A.dtype)
        if ops is None or not _streams(A, x, y, A.nrows):
            return numpy_spmv(A, x, out=out, ws=ws)
        y.fill(0)
        csr_matvec(A.nrows, A.ncols, *ops, x, y)
        return y

    @register("spmv_multi", **kw)
    def spmv_multi(A, X, out=None, ws=None):
        """One ``csr_matvec`` per column of the F-order panel."""
        Y = _panel_out(A, X, out)
        ops = _operands(A)
        if ops is None or not _streams(A, X, Y, A.nrows):
            return numpy_multi(A, X, out=Y, ws=ws)
        m, n = A.nrows, A.ncols
        for j in range(X.shape[1]):
            y = Y[:, j]
            y.fill(0)
            csr_matvec(m, n, *ops, X[:, j], y)
        return Y

    if fmt != "ell":
        return  # the generic ``spmv_rows`` reference calls ``spmv``
    numpy_rows = registry.lookup(
        "spmv_rows", fmt, prec, backend=NUMPY_BACKEND
    )

    @register("spmv_rows", **kw)
    def spmv_rows(A, rows, x, out=None, ws=None):
        """The rows are gathered, a chunk at a time, into the scratch
        the NumPy body pools, and each chunk is the same product."""
        ops = _operands(A)
        m = len(rows)
        y = out if out is not None else np.empty(m, dtype=A.dtype)
        if ops is None or m == 0 or not _streams(A, x, y, m):
            return numpy_rows(A, rows, x, out=out, ws=ws)
        w = A.cols.shape[1]
        c = min(numpy_backend.CHUNK_ROWS, m)
        vbuf = _scratch(ws, "ell.chunk.vals", (c, w), A.vals.dtype)
        cbuf = _scratch(ws, "ell.chunk.cols", (c, w), A.cols.dtype)
        y.fill(0)
        for lo in range(0, m, c):
            k = min(lo + c, m) - lo
            sel = rows[lo : lo + k]
            np.take(A.vals, sel, axis=0, out=vbuf[:k], mode="clip")
            np.take(A.cols, sel, axis=0, out=cbuf[:k], mode="clip")
            csr_matvec(
                k,
                A.ncols,
                ops[0][: k + 1],
                cbuf[:k].reshape(-1),
                vbuf[:k].reshape(-1),
                x,
                y[lo : lo + k],
            )
        return y


if csr_matvec is not None:
    registry.register_backend(
        BACKEND,
        priority=10,
        description="compiled row products (scipy.sparse csr_matvec)",
    )
    for _fmt in ("ell", "csr"):
        for _prec in ("fp64", "fp32"):
            _register(_fmt, _prec)
    del _fmt, _prec

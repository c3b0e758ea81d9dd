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
tolerance, and every bitwise contract (panel column ≡ solo, fused ≡
unfused, slice sweep ≡ index-set reference) holds
*inside* it because ``spmv`` / ``spmv_multi`` / ``spmv_rows``, with or
without ``ws`` / ``out``, are all this one sum.  Every non-sparse op
resolves through the registry's fallback chain to the NumPy kernels.

Handed operands whose dtypes or strides do not match, ``csr_matvec``
silently upcasts and copies O(nnz); the guards below (matrix = vector
= out dtype, contiguous operands, int32-addressable block) route such
calls to the NumPy body instead.

An fp32 ELL block of at least :data:`DIA_MIN_ROWS` rows whose every
nonzero lies on one of a full-width row's ``col - row`` diagonals, in
that row's slot order, is multiplied *index-free* instead: a diagonal
plan (:class:`_DiaPlan`) built once and cached beside the operands
stores one coefficient per row and diagonal, so the product streams
4 B/nnz where ELL streams 8.  Each row still sums its nonzeros in slot
order, and a diagonal the row lacks adds ``0 * x`` — ``+-0`` to a sum
that starts at ``+0`` and is never ``-0`` — so for finite ``x`` the
product is bitwise ``csr_matvec``'s and the class is unchanged.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.backends import numpy_backend
from repro.backends.numpy_backend import _check_cols, _panel_out, _scratch
from repro.backends.registry import NUMPY_BACKEND, register, registry

try:
    from scipy.sparse._sparsetools import csr_matvec
except ImportError:  # a SciPy that moved the private module
    csr_matvec = None
try:
    from scipy.sparse._sparsetools import dia_matvec
except ImportError:  # fp32 ELL then keeps ``csr_matvec``
    dia_matvec = None

BACKEND = "scipy"

#: ``csr_matvec`` is instantiated for equal index types only, and the
#: repo's column indices are int32.
_INDEX_LIMIT = 2**31

#: Fewest rows a diagonal plan is built for.  A block pays one
#: ``dia_matvec`` call per diagonal: against fp32 ``csr_matvec``, cold,
#: a 13 824-row colour block (48^3) read 1.24x faster, a 4 096-row one
#: (32^3) 0.97x; plans for 16^3 operators cost ``solve16`` 1.21x set-up
#: for no solve time.  A square operator is one call: 1.57x at 48^3,
#: 1.65x at 32^3.
DIA_MIN_ROWS = 8192

#: The single offset of a per-diagonal ``dia_matvec`` call.
_ZERO_OFFSET = np.zeros(1, dtype=np.int32)
_ZERO_OFFSET.flags.writeable = False


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


class _DiaPlan:
    """An fp32 ELL block as diagonals: ``coef[d]`` holds diagonal ``d``'s
    coefficients, diagonals in a full-width row's slot order.

    A square matrix indexes ``coef`` by column, as ``dia_matvec`` reads
    it, and is one call.  A block with more columns than rows (a colour
    block reads the whole level) indexes it by row — by column it would
    be as wide as the level — and makes one call per diagonal on the
    rows whose column ``row + offset`` exists: ``(coef[d, lo:hi],
    lo + offset, lo, hi)`` in ``diagonals``.
    """

    __slots__ = ("offsets", "coef", "diagonals")

    def __init__(self, offsets, coef, ncols):
        self.offsets = offsets
        self.coef = coef
        self.diagonals = None
        m = coef.shape[1]
        if m != ncols:
            self.diagonals = []
            for d, k in enumerate(offsets.tolist()):
                lo, hi = max(0, -k), min(m, ncols - k)
                if lo < hi:
                    self.diagonals.append((coef[d, lo:hi], lo + k, lo, hi))

    def apply(self, x, y) -> None:
        """``y += A x`` (``y`` zeroed by the caller)."""
        if self.diagonals is None:
            n = y.shape[0]
            dia_matvec(n, n, len(self.offsets), n, self.offsets, self.coef, x, y)
            return
        for coef, xlo, lo, hi in self.diagonals:
            k = hi - lo
            dia_matvec(k, k, 1, k, _ZERO_OFFSET, coef, x[xlo : xlo + k], y[lo:hi])


def _dia_plan(A):
    """The cached :class:`_DiaPlan` of an fp32 ELL block, or ``None``
    (every other matrix, and a block off the diagonal pattern).  A
    plan is built from the block alone and cached with one assignment,
    so threads that race to build it each cache an equal plan."""
    try:
        return A._dia_plan
    except AttributeError:
        pass
    plan = None
    if (
        dia_matvec is not None
        and hasattr(A, "cols")
        and A.dtype == np.float32
        and A.nrows >= DIA_MIN_ROWS
        and 2 * A.ncols < _INDEX_LIMIT  # int32 ``col - row``
        and _operands(A) is not None  # every column index in range
    ):
        plan = _build_dia(A)
    A._dia_plan = plan
    return plan


def _build_dia(A):
    """Validate and place ``A`` a row chunk at a time; ``None`` at the
    first chunk off the pattern.  A row whose nonzero slots already sit
    on their slot's diagonal (slot ``s`` is diagonal ``s``: every full
    row) is copied slot for slot; only the others — boundary rows — go
    through the offset lookup, which also checks their slot order.
    Transients are O(chunk); the plan is the only O(rows) allocation."""
    m, w = A.cols.shape
    n = A.ncols
    chunk = numpy_backend.CHUNK_ROWS
    for lo in range(0, m, chunk):
        full = np.flatnonzero((A.vals[lo : lo + chunk] != 0).all(axis=1))
        if full.size:
            r0 = lo + int(full[0])
            break
    else:
        return None
    offsets = A.cols[r0].astype(np.int32) - np.int32(r0)
    sorted_offsets = np.sort(offsets)
    if np.any(sorted_offsets[1:] == sorted_offsets[:-1]):
        return None
    diag_of = np.argsort(offsets).astype(np.int32)  # sorted position -> d
    square = m == n
    coef = np.zeros((w, m), dtype=np.float32)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        vals, cols = A.vals[lo:hi], A.cols[lo:hi]
        # Rows with a nonzero slot off its diagonal: of the rows with
        # any slot off it, those where it holds more than padding.
        rows = np.arange(lo, hi, dtype=np.int32)[:, None]
        off = np.not_equal(cols - offsets, rows)
        odd = np.flatnonzero(off.any(axis=1))
        odd = odd[(off[odd] & (vals[odd] != 0)).any(axis=1)]
        del off
        # A square plan is indexed by column (row r of diagonal d at
        # r + offsets[d], as ``dia_matvec`` reads it): the chunk is
        # placed by row first, then shifted one slice per diagonal.
        block = np.empty((w, hi - lo), np.float32) if square else coef[:, lo:hi]
        block[...] = vals.T  # slot d is diagonal d, but in the odd rows
        if odd.size:
            v = vals[odd]
            rel = cols[odd] - rows[odd]
            pos = np.searchsorted(sorted_offsets, rel)
            np.minimum(pos, w - 1, out=pos)
            nz = v != 0
            if not np.all((sorted_offsets[pos] == rel) | ~nz):
                return None  # an offset no full row has
            d = diag_of[pos]
            seen = np.maximum.accumulate(np.where(nz, d, -1), axis=1)
            if np.any(nz[:, 1:] & (d[:, 1:] <= seen[:, :-1])):
                return None  # a slot order the diagonals do not keep
            i, s = np.nonzero(nz)
            block[:, odd] = 0
            block[d[i, s], odd[i]] = v[i, s]
        for d, k in enumerate(offsets.tolist() if square else ()):
            a, b = max(lo + k, 0), min(hi + k, m)
            if a < b:
                coef[d, a:b] = block[d, a - k - lo : b - k - lo]
        del block  # before the next chunk's temporaries
    return _DiaPlan(offsets, coef, n)


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
    index_free = fmt == "ell" and prec == "fp32"

    def matvec(A, ops, x, y):
        """``y = A x`` into a zeroed ``y``: the block's diagonal plan
        when it has one, else ``csr_matvec``."""
        plan = _dia_plan(A) if index_free else None
        if plan is None:
            csr_matvec(A.nrows, A.ncols, *ops, x, y)
        else:
            plan.apply(x, y)

    @register("spmv", **kw)
    def spmv(A, x, out=None, ws=None):
        ops = _operands(A)
        y = out if out is not None else np.empty(A.nrows, dtype=A.dtype)
        if ops is None or not _streams(A, x, y, A.nrows):
            return numpy_spmv(A, x, out=out, ws=ws)
        y.fill(0)
        matvec(A, ops, x, y)
        return y

    @register("spmv_multi", **kw)
    def spmv_multi(A, X, out=None, ws=None):
        """One product per column of the F-order panel."""
        Y = _panel_out(A, X, out)
        ops = _operands(A)
        if ops is None or not _streams(A, X, Y, A.nrows):
            return numpy_multi(A, X, out=Y, ws=ws)
        for j in range(X.shape[1]):
            y = Y[:, j]
            y.fill(0)
            matvec(A, ops, X[:, j], y)
        return Y

    def bind_multi(A):
        """``spmv_multi`` with ``A``'s operands and plan resolved once.
        What ``_streams`` tests is checked per call by identity and
        shape; an operand that fails it takes ``spmv_multi`` itself,
        which raises on a short one and routes a mismatched one to the
        NumPy body, so neither reaches a compiled product."""
        ops = _operands(A)
        if ops is None:
            return partial(spmv_multi, A)
        plan = _dia_plan(A) if index_free else None
        m, n, dtype = A.nrows, A.ncols, A.dtype
        step = dtype.itemsize

        def product(X, out, ws=None):
            if (
                X.dtype is not dtype
                or out.dtype is not dtype
                or X.shape[0] != n
                or out.shape[0] != m
                or X.ndim != 2
                or out.shape[1] != X.shape[1]
                or X.strides[0] != step
                or out.strides[0] != step
            ):
                return spmv_multi(A, X, out=out, ws=ws)
            for j in range(X.shape[1]):
                y = out[:, j]
                y.fill(0)
                if plan is None:
                    csr_matvec(m, n, *ops, X[:, j], y)
                else:
                    plan.apply(X[:, j], y)
            return out

        return product

    spmv_multi.bind = bind_multi

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

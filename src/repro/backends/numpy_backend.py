"""Reference backend: vectorized NumPy kernels for every hot operation.

These are the canonical implementations the registry falls back to for
any ``(op, format, precision)`` no other backend claims.  Every kernel
honors two contracts the solver hot path depends on:

- ``out=`` — results land in a caller-provided buffer end-to-end (no
  hidden allocate-then-copy, including CSR's empty-row fixup path);
- ``ws=`` — an optional :class:`~repro.backends.workspace.Workspace`
  supplies pooled scratch.  The ELL kernels (full, row-subset, panel,
  every rung) run through one chunked body, :func:`_ell_chunked`: their
  scratch is ``(CHUNK_ROWS, width)`` whatever the matrix size, and they
  allocate nothing after their first (warmup) call — not even
  transiently: the int32 column block is widened into pooled ``intp``
  scratch per chunk, because ``np.take`` with int32 indices allocates
  an intp copy of the whole index array on every call.  The CSR
  kernels pool O(nnz) gathers and still pay that hidden index copy;
  they have no row-subset kernel (``spmv_rows`` off ELL is the
  format-generic reference: the full product, then the rows).

Without ``ws`` the kernels fall back to plain allocating NumPy, which
keeps them usable from tests and one-shot diagnostics — and is the
reference the chunked bodies are tested bitwise against.

The kernels are duck-typed on the matrix attributes (``indptr`` /
``cols`` ...), not the classes, so this module has no
import edge back into :mod:`repro.sparse`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.registry import register, registry

registry.register_backend(
    "numpy", priority=0, description="vectorized NumPy (always available)"
)


def _check_cols(A, x) -> None:
    if x.shape[0] != A.ncols:
        raise ValueError(
            f"x has {x.shape[0]} entries, matrix has {A.ncols} columns"
        )


def _scratch(ws, key, shape, dtype) -> np.ndarray:
    """Pooled scratch, or a fresh array for workspace-less callers."""
    if ws is None:
        return np.empty(shape, dtype=dtype)
    return ws.get(key, shape, dtype)


def _panel_out(A, X, out):
    if X.ndim != 2:
        raise ValueError(f"panel must be 2-D (n, N), got shape {X.shape}")
    if out is None:
        return np.empty((A.nrows, X.shape[1]), dtype=A.dtype, order="F")
    if out.shape[1] != X.shape[1]:
        raise ValueError(
            f"panel out has {out.shape[1]} columns, X has {X.shape[1]}"
        )
    return out


def _each_column(kernel, A, X, Y, ws) -> None:
    """``Y[:, j] = kernel(A, X[:, j])``: the panel product of a layout
    with no single-pass kernel.  The kernel is *called*, not looked up
    again, so one panel dispatch is one dispatch, and its pooled
    scratch is shared across the columns (an N-wide panel warms exactly
    the buffers one vector does)."""
    for j in range(X.shape[1]):
        kernel(A, X[:, j], out=Y[:, j], ws=ws)


def _register_spmv(fmt, precision=None):
    """Register a single-vector SpMV together with its panel twin, the
    same function applied to each column (CSR)."""

    def deco(kernel):
        def spmv_multi(A, X, out=None, ws=None):
            Y = _panel_out(A, X, out)
            _each_column(kernel, A, X, Y, ws)
            return Y

        register("spmv_multi", fmt=fmt, precision=precision)(spmv_multi)
        return register("spmv", fmt=fmt, precision=precision)(kernel)

    return deco


# ----------------------------------------------------------------------
# CSR
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CSRPlan:
    """Precomputed segmented-reduction structure of one CSR matrix.

    ``reduceat`` boundaries are taken at *nonempty* rows only: an
    empty row's (clamped) boundary would both emit a bogus value and
    truncate the preceding row's segment, so empty rows are excluded
    from the reduction and zeroed by scatter instead.
    """

    nonempty_starts: np.ndarray  # strictly increasing, all < nnz
    nonempty_rows: np.ndarray | None  # None when every row has an entry


def _csr_plan(A) -> _CSRPlan:
    plan = getattr(A, "_spmv_plan", None)
    if plan is None:
        nonempty = A.indptr[:-1] < A.indptr[1:]
        if bool(nonempty.all()):
            plan = _CSRPlan(A.indptr[:-1], None)
        else:
            rows = np.nonzero(nonempty)[0]
            plan = _CSRPlan(A.indptr[:-1][rows], rows)
        A._spmv_plan = plan
    return plan


@_register_spmv("csr")
def spmv_csr(A, x, out=None, ws=None):
    """y = A @ x via ``np.add.reduceat`` over row-pointer boundaries."""
    _check_cols(A, x)
    n = A.nrows
    y = out if out is not None else np.empty(n, dtype=A.data.dtype)
    if A.nnz == 0:
        y[:] = 0
        return y
    plan = _csr_plan(A)
    if ws is not None and A.data.dtype == x.dtype == y.dtype:
        g = ws.get("csr.spmv.gather", (A.nnz,), x.dtype)
        np.take(x, A.indices, out=g, mode="clip")
        np.multiply(A.data, g, out=g)
        if plan.nonempty_rows is None:
            np.add.reduceat(g, plan.nonempty_starts, out=y)
        else:
            s = ws.get("csr.spmv.sums", plan.nonempty_starts.shape, y.dtype)
            np.add.reduceat(g, plan.nonempty_starts, out=s)
            y[:] = 0
            y[plan.nonempty_rows] = s
        return y
    products = A.data * x[A.indices]
    sums = np.add.reduceat(products, plan.nonempty_starts)
    if plan.nonempty_rows is None:
        y[:] = sums
    else:
        y[:] = 0
        y[plan.nonempty_rows] = sums
    return y


# ----------------------------------------------------------------------
# ELL
# ----------------------------------------------------------------------
#: Rows per gather -> multiply -> row-reduce chunk of the ELL kernels.
#: The chunking bounds scratch — nothing scales with nnz — and, at this
#: size, blocks for cache: a chunk's scratch (intp indices + gathered
#: values, 16 B per slot at fp64) is 0.9 MB, against 3.5 MB at the 8192
#: rows PR 16 shipped; ``lscpu`` reports 4 MiB of L2 per core here.  The
#: value is the pick of a recorded sweep, not of that arithmetic: bare
#: 48^3 SpMV, min of 120 calls over 8 interleaved rounds, fp64 / fp32 —
#: 9.5 / 8.0 ms at 8192 rows, 7.8 / 5.8 at 4096, 6.3 / 5.1 at 2048,
#: 6.0 / 5.1 at 1024 (level-0 sweep 11.8 / 7.9, 8.7 / 6.9, 7.0 / 5.6,
#: 6.6 / 5.8).  2048 takes nearly all of it with half the NumPy calls of
#: 1024, each of which is a GIL hand-off for thread-SPMD ranks and
#: service workers; 2048 alone left ``spmd2x32`` ``tts_s`` where it was
#: (2.459 -> 2.451 s over four pairs).  CHANGES.md (PR 19) has the runs.
#: A 16^3 level-0 operand is two chunks; color blocks stay one chunk up
#: to 24^3, which the small-operator fast path below relies on.
CHUNK_ROWS = 2048


def _ell_chunked(A, rows, X, Y, ws) -> None:
    """``Y[:, j] = (A @ X[:, j])[rows]`` for every column of a panel.

    THE ELL kernel body: full-matrix and row-subset, single vector
    (an ``(n, 1)`` view) and panel, fp32 and fp64 all run through it.
    Rows are processed :data:`CHUNK_ROWS` at a time, so all scratch is
    ``(chunk, width)`` — nothing scales with nnz.
    Per chunk the int32 column block is widened **once** into pooled
    ``intp`` scratch (``np.take`` would otherwise allocate that copy on
    every call) and then serves every column, so a panel streams each
    matrix chunk once.  Each row's reduction is one contiguous
    ``sum(axis=1)`` over its ``width`` slots whatever the chunking or
    panel width, which keeps every column bitwise-equal to its solo,
    unchunked product.  ``rows=None`` means all rows.
    """
    w = A.cols.shape[1]
    m = A.cols.shape[0] if rows is None else len(rows)
    if m == 0:
        return
    c = min(CHUNK_ROWS, m)
    idx = ws.get("ell.chunk.idx", (c, w), np.intp)
    gather = ws.get("ell.chunk.gather", (c, w), X.dtype)
    if rows is not None:
        vbuf = ws.get("ell.chunk.vals", (c, w), A.vals.dtype)
        cbuf = ws.get("ell.chunk.cols", (c, w), A.cols.dtype)
    # A view object costs as much as the arithmetic on a coarse level,
    # so operands that are one chunk (every level of a 16^3 hierarchy)
    # are used whole and only a ragged last chunk slices the scratch.
    single = c == m
    for lo in range(0, m, c):
        hi = min(lo + c, m)
        k = hi - lo
        ix, g = (idx, gather) if k == c else (idx[:k], gather[:k])
        if rows is not None:
            sel = rows if single else rows[lo:hi]
            v = np.take(A.vals, sel, axis=0, out=vbuf[:k], mode="clip")
            cols = np.take(A.cols, sel, axis=0, out=cbuf[:k], mode="clip")
        elif single:
            v, cols = A.vals, A.cols
        else:
            v, cols = A.vals[lo:hi], A.cols[lo:hi]
        np.copyto(ix, cols)
        for j in range(X.shape[1]):
            np.take(X[:, j], ix, out=g, mode="clip")
            y = Y[:, j] if single else Y[lo:hi, j]
            np.multiply(v, g, out=g)
            g.sum(axis=1, dtype=v.dtype, out=y)


def _ell_vector(A, rows, x, out, ws) -> np.ndarray:
    """The single-vector entry to :func:`_ell_chunked`: ``x`` and the
    result are viewed as width-1 panels."""
    m = A.cols.shape[0] if rows is None else len(rows)
    y = out if out is not None else np.empty(m, dtype=A.vals.dtype)
    _ell_chunked(A, rows, x[:, None], y[:, None], ws)
    return y


@register("spmv", fmt="ell")
def spmv_ell(A, x, out=None, ws=None):
    """y = A @ x: gather ``x`` through the padded column block,
    multiply, reduce each row (chunked and pooled with ``ws``)."""
    _check_cols(A, x)
    if ws is not None and A.vals.dtype == x.dtype:
        return _ell_vector(A, None, x, out, ws)
    acc = A.vals * x[A.cols]
    y = acc.sum(axis=1, dtype=A.vals.dtype)
    if out is not None:
        out[:] = y
        return out
    return y


@register("spmv_rows", fmt="ell")
def spmv_rows_ell(A, rows, x, out=None, ws=None):
    """(A @ x) on a row subset: one wavefront of the level-scheduled
    smoother's triangular solves, one color of the index-set reference
    sweep."""
    if ws is not None and A.vals.dtype == x.dtype:
        return _ell_vector(A, rows, x, out, ws)
    acc = A.vals[rows] * x[A.cols[rows]]
    y = acc.sum(axis=1, dtype=A.vals.dtype)
    if out is not None:
        out[:] = y
        return out
    return y


@register("spmv_rows")
def spmv_rows_reference(A, rows, x, out=None, ws=None):
    """(A @ x) on a row subset, format-generic: the full product, then
    the rows.  Nothing hot runs it — only ELL, which the level-scheduled
    smoother sweeps per wavefront, has a row-subset kernel; this serves
    the references (``matvec_split``, the index-set sweep on CSR).  The
    product lands in ``out``'s dtype before the rows are taken."""
    from repro.backends.dispatch import spmv

    dtype = A.dtype if out is None else out.dtype
    full = _scratch(ws, "spmv_rows.full", (A.nrows,), dtype)
    spmv(A, x, out=full, ws=ws)
    if out is None:
        return full[rows]
    np.take(full, rows, out=out, mode="clip")
    return out


# ----------------------------------------------------------------------
# Symmetric / multicolor Gauss-Seidel sweep (format-generic)
# ----------------------------------------------------------------------
@register("symgs_sweep")
def symgs_sweep(A, r, xfull, sets, diag_sets, direction="forward", ws=None):
    """One multicolor Gauss-Seidel sweep over all color index sets.

    Rows of a color are mutually independent, so each pass is one
    vectorized relaxation ``x[c] += (r[c] - (A x)[c]) / diag[c]``;
    colors run sequentially (later colors see earlier updates).
    ``diag_sets[i]`` is the diagonal restricted to ``sets[i]``.

    The format-generic *reference*: every pass copies its color's rows
    out of ``A`` (``spmv_rows``).  Smoothers sweep the packed
    ``color_partitioned`` layout instead (``partitioned_ops``), which
    tests pin bitwise to this kernel; nothing else dispatches it.
    """
    from repro.backends.dispatch import spmv_rows

    order = range(len(sets))
    if direction == "backward":
        order = reversed(order)
    elif direction != "forward":
        raise ValueError(f"unknown sweep direction {direction!r}")
    for i in order:
        rows = sets[i]
        m = len(rows)
        if m == 0:
            continue
        if ws is None:
            ax = spmv_rows(A, rows, xfull)
            xfull[rows] += (r[rows] - ax) / diag_sets[i]
            continue
        ax = ws.get(("gs.ax", i), (m,), A.dtype)
        spmv_rows(A, rows, xfull, out=ax, ws=ws)
        rb = ws.get(("gs.rhs", i), (m,), r.dtype)
        np.take(r, rows, out=rb, mode="clip")
        np.subtract(rb, ax, out=rb)
        np.divide(rb, diag_sets[i], out=rb)
        xb = ws.get(("gs.x", i), (m,), xfull.dtype)
        np.take(xfull, rows, out=xb, mode="clip")
        np.add(xb, rb, out=xb)
        xfull[rows] = xb


# ----------------------------------------------------------------------
# Fused motifs
# ----------------------------------------------------------------------
# NumPy cannot truly fuse two passes into one loop, so these reference
# registrations compose the registry's own kernels operation for
# operation — bitwise-identical to the unfused call sequences (the
# property the solver's golden tests pin), with every temporary
# pooled.  Their value is the *seam*: the byte model charges the fused
# pass once, and a compiled backend (a GPU, say) registers a genuinely
# single-pass kernel against the same key.  GMRES-IR's
# residual check fuses at the vector pass (``waxpby_dot`` on ``b`` and
# ``A x``), so the SpMV in front of it keeps its own schedule (halo
# overlap, ABFT).


@register("waxpby_dot")
def waxpby_dot(alpha, x, beta, y, out=None, ws=None):
    """``w = alpha x + beta y`` and local ``w . w`` in one seam."""
    from repro.backends import dispatch

    w = dispatch.waxpby(alpha, x, beta, y, out=out, ws=ws)
    return w, dispatch.dot(w, w)


# ----------------------------------------------------------------------
# Panel (multi-RHS) motifs
# ----------------------------------------------------------------------
# A panel is a column-major (n, N) array: one RHS per contiguous
# column.  NumPy's axis reductions use pairwise summation only on the
# contiguous fast axis, so a "vectorized" 3-D panel reduction would
# silently change each column's rounding; every panel kernel therefore
# reduces column by column and keeps each column bitwise-equal to the
# looped single-RHS calls, which is the contract the panel solver's
# parity tests pin.  ELL ``spmv_multi`` is nevertheless single-pass
# over the matrix: the chunk helper widens and holds one chunk of the
# matrix while it serves every column.  CSR applies its single-RHS
# kernel to each column (:func:`_register_spmv`), as the SciPy class
# does for ELL and CSR alike.


@register("spmv_multi", fmt="ell")
def spmv_multi_ell(A, X, out=None, ws=None):
    """Panel ELL SpMV: with ``ws`` each matrix chunk is streamed once
    for all N columns; without, the allocating per-column reference."""
    Y = _panel_out(A, X, out)
    if ws is not None and A.vals.dtype == X.dtype:
        _check_cols(A, X)
        _ell_chunked(A, None, X, Y, ws)
    else:
        _each_column(spmv_ell, A, X, Y, ws)
    return Y


@register("dot_multi")
def dot_multi(X, Y) -> np.ndarray:
    """Per-column local dots, each through the precision's own kernel."""
    from repro.backends import dispatch

    return np.array(
        [dispatch.dot(X[:, j], Y[:, j]) for j in range(X.shape[1])],
        dtype=np.float64,
    )


@register("waxpby_dot_multi")
def waxpby_dot_multi(alpha, X, beta, Y, out=None, ws=None):
    """Panel waxpby + per-column local dots (fused motif, per column)."""
    from repro.backends import dispatch

    ncol = Y.shape[1]
    W = (
        out
        if out is not None
        else np.empty(Y.shape, dtype=Y.dtype, order="F")
    )
    locals_sq = np.empty(ncol, dtype=np.float64)
    for j in range(ncol):
        _, locals_sq[j] = dispatch.waxpby_dot(
            alpha, X[:, j], beta, Y[:, j], out=W[:, j], ws=ws
        )
    return W, locals_sq


# ----------------------------------------------------------------------
# Fused CGS2 projection + norm
# ----------------------------------------------------------------------
@register("gemv_sub_dot")
def gemv_sub_dot(Q, k, coef, w, ws=None) -> float:
    """``w -= Q[:, :k] @ coef`` plus the *local* ``w . w``, fused.

    The tail of a CGS2 step: the second projection's GEMV, the
    subtraction, and the norm's local reduction share one pass over
    ``w`` in a fused backend.  This reference composes the registry's
    ``gemv``/``dot`` kernels operation-for-operation — bitwise-equal
    to the unfused ``_project_out`` + ``dot`` sequence — and the inner
    lookups resolve the basis precision.
    """
    from repro.backends import dispatch

    if ws is None:
        w -= dispatch.gemv(Q, k, coef)
    else:
        t = ws.get("ortho.gemv", w.shape, w.dtype)
        dispatch.gemv(Q, k, coef, out=t)
        np.subtract(w, t, out=w)
    return dispatch.dot(w, w)


# ----------------------------------------------------------------------
# Dense / vector motifs
# ----------------------------------------------------------------------
@register("dot")
def dot(a, b) -> float:
    """Local dot product (the all-reduce lives in ``parallel``)."""
    return float(np.dot(a, b))


@register("waxpby")
def waxpby(alpha, x, beta, y, out=None, ws=None):
    """``w = alpha x + beta y`` with aliasing-safe in-place updates."""
    if out is None:
        return alpha * x + beta * y
    if out is y:
        if beta != 1.0:
            np.multiply(y, beta, out=out)
        if alpha == 1.0:
            np.add(out, x, out=out)
        elif alpha != 0.0:
            if ws is None:
                np.add(out, alpha * x, out=out)
            else:
                t = ws.get("waxpby.t", x.shape, out.dtype)
                np.multiply(x, alpha, out=t)
                np.add(out, t, out=out)
        return out
    np.multiply(x, alpha, out=out)
    if beta == 1.0:
        np.add(out, y, out=out)
    elif beta != 0.0:
        if ws is None:
            np.add(out, beta * y, out=out)
        else:
            t = ws.get("waxpby.t", y.shape, out.dtype)
            np.multiply(y, beta, out=t)
            np.add(out, t, out=out)
    return out


@register("gemv")
def gemv(Q, k, coef, out=None):
    """``y = Q[:, :k] @ coef`` — the basis-combination GEMV.

    The engine's basis is column-major, so ``Q[:, :k]`` is a
    leading-dimension view (columns contiguous) that BLAS streams
    without copying and without touching the columns past ``k``; with
    ``out`` the call is allocation-free.
    """
    if out is None:
        return Q[:, :k] @ coef
    np.dot(Q[:, :k], coef, out=out)
    return out


@register("gemvT")
def gemvT(Q, k, w, out=None):
    """``h = Q[:, :k]^T w`` — CGS2's batched projection (GEMVT)."""
    if out is None:
        return Q[:, :k].T @ w
    np.dot(w, Q[:, :k], out=out)
    return out


# ----------------------------------------------------------------------
# Grid transfers
# ----------------------------------------------------------------------
# Panel ops (a vector is its ``(n, 1)`` view), one body each for every
# rung: the product runs in the matrix precision, the subtraction in
# the wider of the matrix's and the defect's, and only the store rounds.


def _restrict_product(A, Xfull, ws) -> np.ndarray:
    """``A X`` as an ``(A.nrows, N)`` panel in the matrix precision:
    one ``spmv_multi``."""
    from repro.backends.dispatch import spmv_multi

    if Xfull.ndim == 1:
        Xfull = Xfull[:, None]
    # Column-major, as ``Workspace.get_panel`` lays panels out.
    AX = _scratch(ws, "restrict.ax", (Xfull.shape[1], A.nrows), A.dtype).T
    return spmv_multi(A, Xfull, out=AX, ws=ws)


def _restrict_store(R, AX, f_c, out, dtype, ws):
    """``out[:, j] = R[f_c, j] - AX[:, j]``: subtracted in the wider of
    the defect's and the product's precision, one cast on the store
    into ``out`` (which may be the next level's buffer at another
    rung).  The tail both restrictions share, which keeps the fused op
    and the unfused reference bitwise-equal."""
    m, ncol = AX.shape
    if R.ndim == 1:
        if out is None:
            out = np.empty(m, dtype=dtype)
        _restrict_store(R[:, None], AX, f_c, out[:, None], dtype, ws)
        return out
    if out is None:
        out = np.empty((m, ncol), dtype=dtype, order="F")
    acc_dtype = np.result_type(R.dtype, AX.dtype)
    direct = out.dtype == R.dtype == acc_dtype
    if not direct:
        rb = _scratch(ws, "restrict.r", (m,), R.dtype)
        acc = (
            rb
            if R.dtype == acc_dtype
            else _scratch(ws, "restrict.acc", (m,), acc_dtype)
        )
    for j in range(ncol):
        o = out[:, j]
        if direct:
            np.take(R[:, j], f_c, out=o, mode="clip")
            np.subtract(o, AX[:, j], out=o)
            continue
        np.take(R[:, j], f_c, out=rb, mode="clip")
        np.subtract(rb, AX[:, j], out=acc)
        o[:] = acc
    return out


@register("fused_restrict")
def fused_restrict(A_c, R, Xfull, f_c, out=None, ws=None):
    """Coarse defect without the full residual (eq. 6):
    ``R_c[i, j] = R[f_c(i), j] - (A X[:, j])[f_c(i)]``.

    ``A_c`` is the level's coarse-mapped rows packed once at setup
    (``extract_rows(A, f_c)``, one eighth of the level), so the product
    is ONE ``spmv_multi`` on the block — no matrix row is copied per
    call, and a panel streams the block once.
    """
    AX = _restrict_product(A_c, Xfull, ws)
    return _restrict_store(R, AX, f_c, out, Xfull.dtype, ws)


def unfused_restrict(A, R, Xfull, f_c, out=None, ws=None):
    """Reference (eqs. 4-5), not a registered op: the full product of
    the level matrix, its coarse rows taken, then the fused op's store
    — bitwise-equal to it at every rung."""
    AX = _restrict_product(A, Xfull, ws)[f_c]
    return _restrict_store(R, AX, f_c, out, Xfull.dtype, ws)


@register("prolong")
def prolong(Xfull, Z_c, f_c, ws=None):
    """Transpose-injection prolongation ``X[f_c(i), j] += Z_c[i, j]``."""
    if Xfull.ndim == 1:
        Xfull, Z_c = Xfull[:, None], Z_c[:, None]
    b = _scratch(ws, "prolong.buf", (len(f_c),), Xfull.dtype)
    for j in range(Xfull.shape[1]):
        x = Xfull[:, j]
        np.take(x, f_c, out=b, mode="clip")
        np.add(b, Z_c[:, j], out=b)
        x[f_c] = b

"""Registry ops for the ghost-aware partitioned format.

``spmv_interior`` / ``spmv_boundary`` are the two halves of the
distributed overlap schedule (§3.2.3): interior rows touch no ghost
column and compute while the halo is in flight; boundary rows run
after the ghosts land in the vector tail.  Each half is one
*full-matrix* panel kernel on the corresponding row block — the inner
``spmv_multi`` lookup re-dispatches on the block's own (format,
precision) key, so every storage layout and every ladder rung
(including the row-equilibrated fp16 kernels) is served by these
registrations without further per-format code, and an ELL block is
streamed once for the whole panel.

The non-overlapped ``spmv`` on a partitioned matrix is, by
construction, the same two block kernels run back to back: the
overlapped and sequential schedules execute identical arithmetic in
identical order and are therefore bitwise-equal — the property the
overlap-correctness tests assert.

One body serves vectors and panels: each op and its ``_multi`` twin
are the same function (a 1-D vector is viewed as an ``(n, 1)`` panel
on entry), and a column's bits do not depend on its panel-mates.

Contract: ``out`` (when given) is the full owned-length result; each
half scatters only its own rows.  With ``ws`` the block results land
in pooled buffers keyed by region, so the distributed SpMV is
allocation-free after warmup.
"""

from __future__ import annotations

import numpy as np

from repro.backends.dispatch import spmv_multi
from repro.backends.registry import register


def _as_panels(r, xfull):
    if r.ndim == 1:
        return r[:, None], xfull[:, None]
    return r, xfull


def _block_spmv_into(P, region: str, X, Y, ws) -> None:
    """Run one region's block SpMV and scatter into the full result."""
    blk = P.interior if region == "interior" else P.boundary
    rows = P.interior_rows if region == "interior" else P.boundary_rows
    m = len(rows)
    if m == 0:
        return
    X, Y = _as_panels(X, Y)
    ncol = X.shape[1]
    if ws is None:
        S = spmv_multi(blk, X)
    else:
        S = ws.get_panel(("part.spmv", region), m, ncol, blk.dtype)
        spmv_multi(blk, X, out=S, ws=ws)
    for j in range(ncol):
        Y[:, j][rows] = S[:, j]


def _panel_result_buffer(P, out, ws, ncol):
    if out is not None:
        return out
    if ws is not None:
        return ws.get_panel("part.spmv.Y", P.nlocal, ncol, P.dtype)
    return np.empty((P.nlocal, ncol), dtype=P.dtype, order="F")


def _product(P, X, out, ws, regions):
    if out is not None:
        Y = out
    elif X.ndim == 1:
        Y = _panel_result_buffer(P, None, ws, 1)[:, 0]
    else:
        Y = _panel_result_buffer(P, None, ws, X.shape[1])
    for region in regions:
        _block_spmv_into(P, region, X, Y, ws)
    return Y


def spmv_interior(P, X, out=None, ws=None):
    """Interior-rows half of the product (no ghost columns touched)."""
    return _product(P, X, out, ws, ("interior",))


def spmv_boundary(P, X, out=None, ws=None):
    """Boundary-rows half of the product (requires landed ghosts)."""
    return _product(P, X, out, ws, ("boundary",))


def spmv_partitioned(P, X, out=None, ws=None):
    """Full product: the two region kernels back to back."""
    if X.shape[0] != P.ncols:
        raise ValueError(
            f"x has {X.shape[0]} entries, matrix has {P.ncols} columns"
        )
    return _product(P, X, out, ws, ("interior", "boundary"))


for _op, _fn in (
    ("spmv_interior", spmv_interior),
    ("spmv_boundary", spmv_boundary),
    ("spmv", spmv_partitioned),
):
    for _name in (_op, _op + "_multi"):
        register(_name, fmt="partitioned")(_fn)
del _op, _fn, _name


# ----------------------------------------------------------------------
# Color-partitioned SymGS: packed color blocks under every sweep
# ----------------------------------------------------------------------
# Every multicolor smoother sweeps this layout — serial, blocking SPMD
# and overlapped SPMD alike.  ``symgs_sweep`` is the interleaved
# schedule (interior block, then boundary block, per color; serial
# layouts have one block per color and no boundary blocks);
# ``symgs_interior`` sweeps every color's dependency-closed interior
# block while the halo is in flight and ``symgs_boundary`` finishes
# every color's boundary block after the ghosts land.  Each block
# relaxation is ``x[rows] += (r[rows] - (A_blk x)) / diag_blk`` through
# a *full-matrix* block kernel, so the inner ``spmv_multi`` lookup
# re-dispatches on the block's own (format, precision) key — every
# storage layout, every ladder rung and every backend is served by
# these registrations without per-format code.
#
# The interleaved and the split schedules execute identical reads and
# writes thanks to the dependency closure (see
# ``repro.sparse.partitioned``), and both are bitwise-equal to the
# format-generic index-set ``symgs_sweep`` (blocks keep each row's slot
# layout, so a block row sum is the unpartitioned row sum).
#
# One relaxation body per arithmetic class, taking ``(n, N)`` panels:
# the block SpMV is one ``spmv_multi`` (ELL streams each matrix chunk
# once for all N columns), the update runs column by column, and a
# column's bits do not depend on its panel-mates.  The ``_multi`` ops
# and their single-vector twins are the same functions; a 1-D vector
# is viewed as an ``(n, 1)`` panel on entry to the body.


def _relax_block(blk, R, Xfull, ws, key) -> None:
    """One block's relaxation pass, fp32/fp64 arithmetic.

    ``key`` (direction, region, pass) is part of the block-relaxation
    signature the sweep drivers call — backends may keep per-pass
    state under it.  This body does not: pooled scratch is keyed by
    shape alone, so equal-sized blocks and both sweep directions share
    one set of block vectors.
    """
    rows = blk.rows
    m = len(rows)
    if m == 0:
        return
    R, Xfull = _as_panels(R, Xfull)
    ncol = R.shape[1]
    if ws is None:
        AX = spmv_multi(blk.A, Xfull)
        for j in range(ncol):
            Xfull[rows, j] += (R[rows, j] - AX[:, j]) / blk.diag
        return
    AX = ws.get_panel("cgs.ax", m, ncol, blk.A.dtype)
    spmv_multi(blk.A, Xfull, out=AX, ws=ws)
    rb = ws.get("cgs.rhs", (m,), R.dtype)
    xb = ws.get("cgs.x", (m,), Xfull.dtype)
    for j in range(ncol):
        x = Xfull[:, j]
        np.take(R[:, j], rows, out=rb, mode="clip")
        np.subtract(rb, AX[:, j], out=rb)
        np.divide(rb, blk.diag, out=rb)
        np.take(x, rows, out=xb, mode="clip")
        np.add(xb, rb, out=xb)
        x[rows] = xb


def _relax_block_fp16(blk, R, Xfull, ws, key) -> None:
    """One block's relaxation pass at fp16 storage, fp32 arithmetic.

    Mirrors the fp16 index-set ``symgs_sweep`` kernel: the block SpMV
    already accumulates in fp32 (and folds the row-equilibration
    scale), the near-cancelling update runs in fp32, and only the
    scatter back into the fp16 iterate rounds.
    """
    rows = blk.rows
    m = len(rows)
    if m == 0:
        return
    R, Xfull = _as_panels(R, Xfull)
    ncol = R.shape[1]
    if ws is None:
        AX = np.empty((m, ncol), dtype=np.float32, order="F")
        spmv_multi(blk.A, Xfull, out=AX)
        diag = np.asarray(blk.diag, dtype=np.float32)
        for j in range(ncol):
            upd = (R[rows, j] - AX[:, j]) / diag
            Xfull[rows, j] = Xfull[rows, j] + upd.astype(np.float32)
        return
    AX = ws.get_panel("cgs16.ax", m, ncol, np.float32)
    spmv_multi(blk.A, Xfull, out=AX, ws=ws)
    rb = ws.get("cgs16.r", (m,), R.dtype)
    acc = ws.get("cgs16.acc", (m,), np.float32)
    xb = ws.get("cgs16.x", (m,), Xfull.dtype)
    for j in range(ncol):
        x = Xfull[:, j]
        np.take(R[:, j], rows, out=rb, mode="clip")
        np.subtract(rb, AX[:, j], out=acc)
        np.divide(acc, blk.diag, out=acc)
        np.take(x, rows, out=xb, mode="clip")
        np.add(acc, xb, out=acc)
        x[rows] = acc


def _sweep_region(P, r, xfull, direction, region, ws, relax) -> None:
    sched = P.schedule(direction)
    idx = 0 if region == "interior" else 1
    for p, blocks in enumerate(sched.passes):
        relax(blocks[idx], r, xfull, ws, (direction, region, p))


def _symgs_sweep_cp(P, r, xfull, direction, ws, relax) -> None:
    """Interleaved non-overlapped schedule on the same blocks."""
    sched = P.schedule(direction)
    for p, (interior, boundary) in enumerate(sched.passes):
        relax(interior, r, xfull, ws, (direction, "interior", p))
        relax(boundary, r, xfull, ws, (direction, "boundary", p))


def _register_sweeps(precision, relax) -> None:
    """Register the sweep entry points of one arithmetic class.

    ``relax`` takes a vector or a panel, so each op and its ``_multi``
    twin are one function.
    """

    def interior(P, R, Xfull, direction="forward", ws=None):
        """Interior half of the overlapped sweep (no ghost columns read)."""
        _sweep_region(P, R, Xfull, direction, "interior", ws, relax)

    def boundary(P, R, Xfull, direction="forward", ws=None):
        """Boundary half of the overlapped sweep (requires landed ghosts)."""
        _sweep_region(P, R, Xfull, direction, "boundary", ws, relax)

    def sweep(
        P, R, Xfull, sets=None, diag_sets=None, direction="forward", ws=None
    ):
        """Interleaved schedule: what every non-overlapped smoother
        sweep runs (the color sets live in the partition; ``sets`` /
        ``diag_sets`` only mirror the index-set kernel's signature)."""
        _symgs_sweep_cp(P, R, Xfull, direction, ws, relax)

    for op, fn in (
        ("symgs_interior", interior),
        ("symgs_boundary", boundary),
        ("symgs_sweep", sweep),
    ):
        for name in (op, op + "_multi"):
            register(name, fmt="color_partitioned", precision=precision)(fn)


_register_sweeps(None, _relax_block)
_register_sweeps("fp16", _relax_block_fp16)

"""Registry ops for the ghost-aware partitioned format.

``spmv_interior`` / ``spmv_boundary`` are the two halves of the
distributed overlap schedule (§3.2.3): interior rows touch no ghost
column and compute while the halo is in flight; boundary rows run
after the ghosts land in the vector tail.  Each half is one
*full-matrix* panel kernel on the corresponding row block — the inner
``spmv_multi`` lookup re-dispatches on the block's own (format,
precision) key, so every storage layout and every ladder rung is
served by these registrations without further per-format code, and an
ELL block is streamed once for the whole panel.

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

from repro.backends.dispatch import bind_spmv_multi, spmv_multi
from repro.backends.registry import register, registry


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
# Color-partitioned SymGS: slices of the level's order under every sweep
# ----------------------------------------------------------------------
# Every multicolor smoother sweeps this layout — serial, blocking SPMD
# and overlapped SPMD alike — and the level's vectors are stored in its
# order, so a color block owns the slice ``[lo, hi)`` of the iterate.
# ``symgs_sweep`` relaxes whole colors (interior block, then boundary
# block; serial layouts have one block per color) in either direction;
# ``symgs_interior`` sweeps every color's dependency-closed interior
# block while the halo is in flight and ``symgs_boundary`` finishes
# every color's boundary block after the ghosts land (the forward
# sweep's overlap split).  Each block relaxation is
# ``x[lo:hi] += (r[lo:hi] - A_blk x) / diag[lo:hi]`` through a
# *full-matrix* block product, so every storage layout, every ladder
# rung and every backend is served by these registrations without
# per-format code.
#
# The block product is *bound*: ``dispatch.bind_spmv_multi`` resolves
# each block's ``spmv_multi`` once — through the registry and its
# wrapper, so a wrapper still sees every block product — and the bound
# products are cached on the layout with the registry generation they
# were resolved under.  A sweep makes no lookup until a wrapper or
# backend change moves the generation; the next sweep then rebinds.
#
# The whole-color and the split schedules execute identical reads and
# writes thanks to the dependency closure (see
# ``repro.sparse.partitioned``), and both are bitwise-equal, after
# un-permuting, to the format-generic index-set ``symgs_sweep`` on
# natural-order vectors (blocks keep each row's slot layout and every
# slot still reads the same vector entry, so a block row sum is the
# unpartitioned row sum).
#
# One relaxation body, taking ``(n, N)`` panels: the block product is
# one bound ``spmv_multi`` (ELL streams each matrix chunk once for all
# N columns) and the update is three panel-wide ufunc calls on slices;
# elementwise, so a column's bits do not depend on its panel-mates.
# The ``_multi`` ops and their single-vector twins are the same
# functions; a 1-D vector is viewed as an ``(n, 1)`` panel on entry to
# the sweep.


def _block_panel(ws, key, shape, dtype):
    if ws is None:
        return np.empty(shape, dtype=dtype, order="F")
    return ws.get_panel(key, *shape, dtype)


def _bind(blk):
    """``(lo, hi, product, diag)`` of a block — its bound product and
    its diagonal as an ``(m, 1)`` column — or ``None`` for an empty
    range."""
    if blk.lo == blk.hi:
        return None
    return (blk.lo, blk.hi, bind_spmv_multi(blk.A), blk.diag[:, None])


def _bound_passes(P):
    """``(passes, tallest)``: ``P.passes`` with every block bound (see
    :func:`_bind`) and the most rows any block has.  Resolved under the
    registry's current generation and cached on ``P`` with one
    assignment; threads that race to bind cache equal products."""
    generation = registry.generation
    bound = getattr(P, "_bound", None)
    if bound is None or bound[0] != generation:
        passes = [tuple(map(_bind, pair)) for pair in P.passes]
        tallest = max((b.hi - b.lo for pair in P.passes for b in pair), default=0)
        bound = P._bound = (generation, passes, tallest)
    return bound[1], bound[2]


def _sweep_operands(P, R, Xfull, ws):
    """A sweep's bound passes, its operands as panels, and its two
    scratch panels, leased once: the block product (matrix precision)
    and the numerator ``r - A x`` (the defect's; the same panel when the
    two agree — they differ only across a scheduled grid transfer).
    Each is as tall as the tallest block, and a block uses its head."""
    passes, tallest = _bound_passes(P)
    R, Xfull = _as_panels(R, Xfull)
    shape = (tallest, R.shape[1])
    AX = _block_panel(ws, "cgs.ax", shape, P.dtype)
    acc = AX if P.dtype == R.dtype else _block_panel(ws, "cgs.acc", shape, R.dtype)
    return passes, R, Xfull, AX, acc


def _relax_block(block, R, Xfull, AX, acc, ws, zero_guess=False) -> None:
    """One bound block's relaxation pass: one product, three ufunc
    calls.

    ``zero_guess`` promises the whole iterate, ghosts included, is
    ``+0``: the product is then ``±0`` and is skipped, bitwise
    (``r - ±0`` differs from ``r`` only in a zero's sign, which adding
    to ``+0`` settles the same way).
    """
    if block is None:
        return
    lo, hi, product, diag = block
    m = hi - lo
    r, x, acc = R[lo:hi], Xfull[lo:hi], acc[:m]
    if zero_guess:
        np.copyto(acc, r)
    else:
        ax = AX[:m]
        product(Xfull, out=ax, ws=ws)
        np.subtract(r, ax, out=acc)
    np.divide(acc, diag, out=acc)
    np.add(x, acc, out=x)


def _sweep_region(P, R, Xfull, region, ws) -> None:
    idx = 0 if region == "interior" else 1
    passes, R, Xfull, AX, acc = _sweep_operands(P, R, Xfull, ws)
    for blocks in passes:
        _relax_block(blocks[idx], R, Xfull, AX, acc, ws)


def _symgs_sweep_cp(P, R, Xfull, direction, ws, zero_guess=False) -> None:
    """Whole colors in sweep order.  A ``zero_guess`` sweep skips the
    first color's products: later colors read what it wrote."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown sweep direction {direction!r}")
    passes, R, Xfull, AX, acc = _sweep_operands(P, R, Xfull, ws)
    if direction == "backward":
        passes = reversed(passes)
    for interior, boundary in passes:
        _relax_block(interior, R, Xfull, AX, acc, ws, zero_guess)
        _relax_block(boundary, R, Xfull, AX, acc, ws, zero_guess)
        zero_guess = False


def symgs_interior(P, R, Xfull, ws=None):
    """Interior half of the overlapped forward sweep (no ghost columns
    read)."""
    _sweep_region(P, R, Xfull, "interior", ws)


def symgs_boundary(P, R, Xfull, ws=None):
    """Boundary half of the overlapped forward sweep (requires landed
    ghosts)."""
    _sweep_region(P, R, Xfull, "boundary", ws)


def symgs_sweep(
    P,
    R,
    Xfull,
    sets=None,
    diag_sets=None,
    direction="forward",
    ws=None,
    zero_guess=False,
):
    """What every non-overlapped smoother sweep runs (the color ranges
    live in the partition; ``sets`` / ``diag_sets`` only mirror the
    index-set kernel's signature)."""
    _symgs_sweep_cp(P, R, Xfull, direction, ws, zero_guess)


for _op, _fn in (
    ("symgs_interior", symgs_interior),
    ("symgs_boundary", symgs_boundary),
    ("symgs_sweep", symgs_sweep),
):
    for _name in (_op, _op + "_multi"):
        register(_name, fmt="color_partitioned")(_fn)
del _op, _fn, _name

"""Grid-transfer operators: injection restriction and its transpose.

HPG-MxP's restriction is plain injection from every second fine point
(eq. 3); prolongation is the transpose (corrections land only on the
injected points).  The reference implementation computes the full fine
residual with an SpMV and then injects; the optimized implementation
fuses the two, evaluating the residual *only at coarse points*
(eq. 6) — the kernel registry's ``fused_restrict`` op on the level's
coarse-mapped rows, packed into one block at setup like the smoother's
color blocks.

The transfers are panel ops (a vector is its ``(n, 1)`` view): every
entry point takes an ``out=`` coarse buffer and a workspace, so the
V-cycle's transfers are allocation-free after warmup.  They are
agnostic of the row order: ``f_c`` maps coarse positions to fine
positions in whatever order the two levels' vectors are stored, and the
matrix block's rows and columns are in the fine level's (a built
hierarchy hands in its levels' orders, :func:`coarse_to_fine_map` alone
is the natural one).  The coarse
buffer may live in a *different precision* than the fine level (ladder
schedules assign each multigrid level its own rung): the defect is
accumulated in the fine level's compute precision and cast once on the
store into ``out``.
"""

from __future__ import annotations

import numpy as np

from repro.backends import dispatch, unfused_restrict
from repro.geometry.partition import Subdomain
from repro.parallel.halo_exchange import HaloExchange


def coarse_to_fine_map(fine_sub: Subdomain, coarse_sub: Subdomain) -> np.ndarray:
    """``f_c``: local fine index of each local coarse point, both in
    natural (lexicographic) order.

    Coarse point ``(cx, cy, cz)`` maps to fine point ``(2cx, 2cy, 2cz)``
    of the same rank — coarsening never crosses subdomain boundaries, so
    grid transfers need no communication.
    """
    if fine_sub.rank != coarse_sub.rank:
        raise ValueError("subdomains must belong to the same rank")
    cx, cy, cz = coarse_sub.local.all_coords()
    return fine_sub.local.linear_index(2 * cx, 2 * cy, 2 * cz).astype(np.int64)


def fused_residual_restrict(
    A_c,
    R_f: np.ndarray,
    Xfull_f: np.ndarray,
    f_c: np.ndarray,
    out: np.ndarray | None = None,
    ws=None,
) -> np.ndarray:
    """Optimized path (eq. 6): coarse defect without the full residual.

    ``R_c[i] = R_f[f_c(i)] - (A_f X_f)[f_c(i)]`` evaluated only at the
    coarse-mapped rows: ``A_c`` holds those rows of ``A_f`` (row ``i``
    is the fine row ``f_c(i)``), packed once per level.  ``Xfull_f``
    must have current ghost values.
    """
    return dispatch.fused_restrict(A_c, R_f, Xfull_f, f_c, out=out, ws=ws)


def unfused_residual_restrict(
    A_f,
    R_f: np.ndarray,
    Xfull_f: np.ndarray,
    f_c: np.ndarray,
    out: np.ndarray | None = None,
    ws=None,
) -> np.ndarray:
    """Reference path (eqs. 4-5): full residual SpMV, then injection.

    Bitwise-equal to the fused op at every rung — the full product
    lands in the same precision and the coarse rows go through the
    same subtract-and-store body; it
    exists so ablation benchmarks can charge the extra full-grid work
    the paper removes.
    """
    return unfused_restrict(A_f, R_f, Xfull_f, f_c, out=out, ws=ws)


def prolong_correct(
    Xfull_f: np.ndarray, Z_c: np.ndarray, f_c: np.ndarray, ws=None
) -> None:
    """Transpose-injection prolongation: ``X_f[f_c(i)] += Z_c[i]``."""
    dispatch.prolong(Xfull_f, Z_c, f_c, ws=ws)


def restrict_vector(v_f: np.ndarray, f_c: np.ndarray) -> np.ndarray:
    """Plain injection ``(R v)_i = v_{f_c(i)}`` (eq. 3)."""
    return v_f[f_c].copy()


def exchange_and_fused_restrict_panel(
    halo_ex: HaloExchange,
    A,
    R_f: np.ndarray,
    Xfull_f: np.ndarray,
    f_c: np.ndarray,
    fused: bool = True,
    out: np.ndarray | None = None,
    ws=None,
) -> np.ndarray:
    """Distributed coarse-defect computation behind one wide exchange.

    The smoothed iterate's ghost values are stale after a sweep (local
    entries moved), so the residual evaluation is preceded by a halo
    exchange — the same communication the paper overlaps with interior
    work in its fused kernel.  The whole panel's ghosts refresh in
    **one** wide exchange (one message per neighbor for all N columns),
    then ONE restriction dispatch serves every column.  ``A`` is the
    level's restriction block when ``fused``, the level matrix (in the
    order ``Xfull_f`` is stored in) otherwise; ``out`` is the coarser
    level's ``(n_c, N)`` panel buffer, possibly in a different precision
    (per-level ladder schedules).
    """
    halo_ex.exchange_panel(Xfull_f)
    restrict = fused_residual_restrict if fused else unfused_residual_restrict
    return restrict(A, R_f, Xfull_f, f_c, out=out, ws=ws)

"""Grid-transfer operators: injection restriction and its transpose.

HPG-MxP's restriction is plain injection from every second fine point
(eq. 3); prolongation is the transpose (corrections land only on the
injected points).  The reference implementation computes the full fine
residual with an SpMV and then injects; the optimized implementation
fuses the two, evaluating the residual *only at coarse points*
(eq. 6) — implemented through the kernel registry's ``fused_restrict``
op (a row-subset SpMV at coarse-mapped rows).

All entry points accept an ``out=`` coarse buffer and a workspace, so
the V-cycle's transfers are allocation-free after warmup.  The coarse
buffer may live in a *different precision* than the fine level (ladder
schedules assign each multigrid level its own rung): the defect is
accumulated in the fine level's compute precision and cast once on the
store into ``out``.
"""

from __future__ import annotations

import numpy as np

from repro.backends import dispatch
from repro.geometry.partition import Subdomain
from repro.parallel.halo_exchange import HaloExchange


def coarse_to_fine_map(fine_sub: Subdomain, coarse_sub: Subdomain) -> np.ndarray:
    """``f_c``: local fine index of each local coarse point.

    Coarse point ``(cx, cy, cz)`` maps to fine point ``(2cx, 2cy, 2cz)``
    of the same rank — coarsening never crosses subdomain boundaries, so
    grid transfers need no communication.
    """
    if fine_sub.rank != coarse_sub.rank:
        raise ValueError("subdomains must belong to the same rank")
    cx, cy, cz = coarse_sub.local.all_coords()
    return fine_sub.local.linear_index(2 * cx, 2 * cy, 2 * cz).astype(np.int64)


def fused_residual_restrict(
    A_f,
    r_f: np.ndarray,
    xfull_f: np.ndarray,
    f_c: np.ndarray,
    out: np.ndarray | None = None,
    ws=None,
) -> np.ndarray:
    """Optimized path (eq. 6): coarse defect without the full residual.

    ``r_c[i] = r_f[f_c(i)] - (A_f x_f)[f_c(i)]`` evaluated only at the
    coarse-mapped rows.  ``xfull_f`` must have current ghost values.
    """
    return dispatch.fused_restrict(A_f, r_f, xfull_f, f_c, out=out, ws=ws)


def unfused_residual_restrict(
    A_f,
    r_f: np.ndarray,
    xfull_f: np.ndarray,
    f_c: np.ndarray,
    out: np.ndarray | None = None,
    ws=None,
) -> np.ndarray:
    """Reference path (eqs. 4-5): full residual SpMV, then injection.

    Numerically identical to the fused kernel; it exists so ablation
    benchmarks can charge the extra full-grid work the paper removes.
    """
    n = A_f.nrows
    ax = dispatch.spmv(A_f, xfull_f, ws=ws)
    residual = r_f - ax[:n] if len(ax) >= n else r_f - ax
    r_c = residual[f_c].astype(xfull_f.dtype)
    if out is not None:
        out[:] = r_c
        return out
    return r_c


def prolong_correct(
    xfull_f: np.ndarray, z_c: np.ndarray, f_c: np.ndarray, ws=None
) -> None:
    """Transpose-injection prolongation: ``x_f[f_c(i)] += z_c[i]``."""
    dispatch.prolong(xfull_f, z_c, f_c, ws=ws)


def restrict_vector(v_f: np.ndarray, f_c: np.ndarray) -> np.ndarray:
    """Plain injection ``(R v)_i = v_{f_c(i)}`` (eq. 3)."""
    return v_f[f_c].copy()


def exchange_and_fused_restrict_panel(
    halo_ex: HaloExchange,
    A_f,
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
    then each column's restriction runs through the fused/unfused
    kernel.  ``out`` is the coarser level's ``(n_c, N)`` panel buffer,
    possibly in a different precision (per-level ladder schedules).
    """
    halo_ex.exchange_panel(Xfull_f)
    if out is None:
        out = np.empty(
            (len(f_c), R_f.shape[1]), dtype=Xfull_f.dtype, order="F"
        )
    restrict = fused_residual_restrict if fused else unfused_residual_restrict
    for j in range(R_f.shape[1]):
        restrict(A_f, R_f[:, j], Xfull_f[:, j], f_c, out=out[:, j], ws=ws)
    return out


def exchange_and_fused_restrict(
    halo_ex: HaloExchange,
    A_f,
    r_f: np.ndarray,
    xfull_f: np.ndarray,
    f_c: np.ndarray,
    fused: bool = True,
    out: np.ndarray | None = None,
    ws=None,
) -> np.ndarray:
    """Single-vector entry point: the width-1 panel restriction."""
    if out is None:
        out = np.empty(len(f_c), dtype=xfull_f.dtype)
    exchange_and_fused_restrict_panel(
        halo_ex, A_f, r_f[:, None], xfull_f[:, None], f_c, fused, out[:, None], ws
    )
    return out

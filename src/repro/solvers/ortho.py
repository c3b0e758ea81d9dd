"""Arnoldi orthogonalization kernels.

Three Gram-Schmidt variants with different stability/latency
trade-offs (paper §3):

- :func:`cgs` — classical Gram-Schmidt: one batched projection; fast
  (one all-reduce) but loses orthogonality quickly, especially in low
  precision.
- :func:`cgs2` — classical Gram-Schmidt with reorthogonalization: two
  batched projections; the benchmark's prescription, restoring near
  machine-level orthogonality at twice the BLAS-2 cost.
- :func:`mgs` — modified Gram-Schmidt: stable, but one all-reduce per
  basis vector (k latencies per step), which is why the benchmark
  avoids it at scale.

All variants operate on the leading ``k`` columns of the basis ``Q``
(local rows), modify ``w`` in place, and return the global projection
coefficients in float64.  The solver's basis is column-major, so
``Q[:, :k]`` is one contiguous block and each BLAS-2 pass streams only
the ``k`` live columns.  The passes route through the kernel registry
(``gemv``/``gemvT``); with a workspace the only per-call allocations
are the length-``k`` coefficient vectors.
"""

from __future__ import annotations

import numpy as np

from repro.backends.dispatch import gemv, gemv_sub_dot
from repro.parallel.comm import Communicator
from repro.parallel.distributed import ddot, dmatvec_block


def _project_out(Q: np.ndarray, k: int, w: np.ndarray, h: np.ndarray, ws) -> None:
    """``w -= Q[:, :k] @ h`` (one GEMV), allocation-free with ``ws``."""
    coef = h.astype(w.dtype)  # length-k host vector
    if ws is None:
        w -= Q[:, :k] @ coef
        return
    t = ws.get("ortho.gemv", w.shape, w.dtype)
    gemv(Q, k, coef, out=t)
    np.subtract(w, t, out=w)


def cgs(
    comm: Communicator, Q: np.ndarray, k: int, w: np.ndarray, ws=None
) -> np.ndarray:
    """Classical Gram-Schmidt: single projection pass (GEMVT + GEMV)."""
    h = dmatvec_block(comm, Q[:, :k], w)
    _project_out(Q, k, w, h, ws)
    return np.asarray(h, dtype=np.float64)


def cgs2(
    comm: Communicator, Q: np.ndarray, k: int, w: np.ndarray, ws=None
) -> np.ndarray:
    """CGS with reorthogonalization (Algorithm 3 lines 20-27).

    Two GEMVT/GEMV pairs; the returned coefficients are the sum of both
    passes, which is what lands in the Hessenberg column.
    """
    h1 = dmatvec_block(comm, Q[:, :k], w)
    _project_out(Q, k, w, h1, ws)
    h2 = dmatvec_block(comm, Q[:, :k], w)
    _project_out(Q, k, w, h2, ws)
    return np.asarray(h1, dtype=np.float64) + np.asarray(h2, dtype=np.float64)


def cgs2_fused(
    comm: Communicator, Q: np.ndarray, k: int, w: np.ndarray, ws=None
) -> tuple[np.ndarray, float]:
    """CGS2 with the trailing norm fused into the second projection.

    Identical to :func:`cgs2` followed by a local ``w . w``, except the
    second projection's GEMV, the subtraction and the norm's local
    reduction go through one registry motif (``gemv_sub_dot``) — one
    pass over ``w`` in a fused backend.  Returns ``(h, local_sq)``;
    the caller finishes the norm with ``dnorm2_from_local``.  The
    reference registration composes the same kernels the unfused
    sequence calls, so the result is bitwise-identical — the contract
    the fusion tests assert.
    """
    h1 = dmatvec_block(comm, Q[:, :k], w)
    _project_out(Q, k, w, h1, ws)
    h2 = dmatvec_block(comm, Q[:, :k], w)
    coef = h2.astype(w.dtype)
    local = gemv_sub_dot(Q, k, coef, w, ws=ws)
    h = np.asarray(h1, dtype=np.float64) + np.asarray(h2, dtype=np.float64)
    return h, local


def mgs(
    comm: Communicator, Q: np.ndarray, k: int, w: np.ndarray, ws=None
) -> np.ndarray:
    """Modified Gram-Schmidt: k sequential projections (k all-reduces)."""
    h = np.zeros(k, dtype=np.float64)
    for i in range(k):
        qi = Q[:, i]
        hi = ddot(comm, qi, w)
        h[i] = hi
        w -= np.asarray(hi, dtype=w.dtype) * qi
    return h


ORTHO_METHODS = {"cgs": cgs, "cgs2": cgs2, "mgs": mgs}


def orthogonality_loss(Q: np.ndarray, k: int) -> float:
    """``||I - Q_k^T Q_k||_max`` — the loss-of-orthogonality measure.

    Computed in float64 regardless of basis precision; used by tests to
    verify the CGS < MGS < CGS2 stability ordering the benchmark's
    design relies on.
    """
    Qk = Q[:, :k].astype(np.float64)
    G = Qk.T @ Qk
    return float(np.abs(G - np.eye(k)).max())

"""Distributed vector reductions.

Dot products are the benchmark's global synchronization points: each
GMRES inner iteration performs CGS2's two batched reductions plus a
norm, every one an MPI all-reduce.  Local partial sums are computed in
the vector's native precision (as a GPU BLAS kernel would) and reduced
across ranks in double, in fixed rank order — deterministic across
runs for a given rank count.
"""

from __future__ import annotations

import numpy as np

from repro.backends.dispatch import dot as local_dot
from repro.backends.dispatch import gemvT
from repro.parallel.comm import Communicator


def ddot(comm: Communicator, a: np.ndarray, b: np.ndarray) -> float:
    """Global dot product ``sum_i a_i * b_i`` over all owned entries."""
    local = local_dot(a, b)
    if comm.is_serial:
        return local
    return comm.allreduce_scalar(local, op="sum")


def dnorm2_sq(comm: Communicator, a: np.ndarray) -> float:
    """Global squared 2-norm."""
    return ddot(comm, a, a)


def dnorm2(comm: Communicator, a: np.ndarray) -> float:
    """Global 2-norm."""
    return float(np.sqrt(max(dnorm2_sq(comm, a), 0.0)))


def dnorm2_from_local(comm: Communicator, local_sq: float) -> float:
    """Global 2-norm from an already-computed local squared sum.

    The reduction half of :func:`dnorm2` for fused kernels
    (``waxpby_dot`` / ``gemv_sub_dot``) that produce the local partial sum
    inside their memory pass: same fixed-order double all-reduce, same
    clamping — bitwise-identical to ``dnorm2`` fed the same vector.
    """
    if not comm.is_serial:
        local_sq = comm.allreduce_scalar(local_sq, op="sum")
    return float(np.sqrt(max(local_sq, 0.0)))


def dnorm2_panel_from_local(
    comm: Communicator,
    locals_sq: np.ndarray,
    algorithm: str | None = None,
) -> np.ndarray:
    """Global 2-norms of a panel from its vector of local squared sums.

    The batched counterpart of :func:`dnorm2_from_local`: the N local
    partial sums reduce in **one** vector all-reduce instead of N
    scalar rendezvous, so a panel's restart-boundary collectives are
    O(1) in the panel width.  The default (rendezvous) reduction sums
    rank contributions in fixed rank order elementwise — each entry is
    bitwise-identical to the scalar :func:`dnorm2_from_local` chain at
    any rank count, which is what keeps ``solve_panel``'s convergence
    decisions equal to the per-column loop it replaces.  Passing an
    ``algorithm`` routes the reduction through
    :func:`repro.parallel.collectives.software_allreduce` instead (all
    three algorithms take arrays); tree algorithms pair ranks
    differently and are tolerance-equal, not bitwise.
    """
    vals = np.asarray(locals_sq, dtype=np.float64)
    if not comm.is_serial:
        if algorithm is None:
            vals = comm.allreduce(
                np.array(vals, dtype=np.float64, copy=True), op="sum"
            )
        else:
            from repro.parallel.collectives import software_allreduce

            vals = software_allreduce(comm, vals, algorithm=algorithm)
    return np.sqrt(np.maximum(vals, 0.0))


def dmatvec_block(comm: Communicator, Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Global ``Q^T v`` for a block of basis vectors (CGS2's GEMVT).

    ``Q`` is ``(nlocal, k)``; the result is the length-``k`` vector of
    global inner products, reduced in one batched all-reduce — the
    latency batching the paper credits CGS2 for.
    """
    local = gemvT(Q, Q.shape[1], v)
    if comm.is_serial:
        return local
    return comm.allreduce(local.astype(np.float64), op="sum")

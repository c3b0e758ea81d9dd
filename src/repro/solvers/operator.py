"""Distributed sparse operator: SpMV with halo exchange.

Wraps a local matrix (any registered format) with its halo-exchange
plan and a persistent full-vector workspace, so every matvec is: copy
owned part, exchange ghosts, local SpMV through the kernel registry.

The exchange is blocking.  The paper hides it behind the interior
rows' product (§3.2.3) because a NIC moves bytes while a GPU computes;
thread ranks share one interpreter lock and have no second engine to
overlap with, and that schedule measured slower than this one with
bitwise-equal iterates.

The operator owns (or shares) a :class:`~repro.backends.workspace.Workspace`
arena; with ``out=`` buffers supplied by the caller, ``matvec`` and
``residual`` are allocation-free after warmup — including the halo
path, whose pack buffers and transport messages are pooled.
"""

from __future__ import annotations

import numpy as np

from repro.backends.dispatch import spmv, spmv_multi, waxpby_dot_multi
from repro.backends.workspace import Workspace
from repro.geometry.halo import HaloPattern
from repro.parallel.comm import Communicator
from repro.parallel.halo_exchange import HaloExchange
from repro.resilience.faults import abft_scope


class DistributedOperator:
    """``y = A x`` across ranks, for one matrix in one precision."""

    def __init__(
        self,
        A,
        halo_pattern: HaloPattern,
        comm: Communicator,
        workspace: Workspace | None = None,
    ) -> None:
        self.A = A
        self.comm = comm
        self.ws = workspace if workspace is not None else Workspace("operator")
        self.halo_ex = HaloExchange(halo_pattern, comm, workspace=self.ws)
        self.nlocal = halo_pattern.nlocal
        self._xfull = np.zeros(
            self.nlocal + halo_pattern.n_ghost, dtype=A.dtype
        )
        # Matrix-reuse accounting for the batched pipeline: each full
        # application increments ``matrix_passes`` by the number of
        # times the matrix block is streamed and ``rhs_columns`` by the
        # number of RHS columns served.  A panel matvec charges one
        # pass for N columns, so ``rhs_columns / matrix_passes`` is the
        # measured matrix-traffic amortization (1.0 for sequential
        # single-RHS solves, → panel width for batched ones).
        self.matrix_passes = 0
        self.rhs_columns = 0
        #: Optional :class:`~repro.resilience.abft.ABFTCheck` verifying
        #: every matvec output column against the cached column-sum
        #: checksum.  ``None`` (the default) adds nothing to the hot
        #: path; the check itself is read-only, so attaching one never
        #: changes results on fault-free runs.
        self.abft = None

    def attach_abft(self, check) -> None:
        """Install (or clear, with ``None``) the ABFT verifier."""
        self.abft = check

    @property
    def dtype(self) -> np.dtype:
        return self._xfull.dtype

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply the operator to one vector (the width-1 panel)."""
        y = out if out is not None else np.empty(self.nlocal, dtype=self.dtype)
        self.matvec_panel(x[:, None], out=y[:, None])
        return y

    def matvec_panel(
        self, X: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Panel matvec: one operator application serving every column.

        ``X`` is a column-major ``(nlocal, N)`` panel; column ``j`` of
        the result does not depend on its panel-mates.  The halo is
        panel-native: **one wide exchange** per application ships
        every column's boundary values in one message per neighbor
        (message count is O(1) in the panel width; bytes scale with
        it), then one ``spmv_multi`` — the registry seam a single-pass
        backend serves with one matrix stream for the whole panel.  The
        panel is booked as **one** matrix pass serving N columns, which
        is what the measured ``rhs_columns / matrix_passes``
        amortization records.
        """
        ncol = X.shape[1]
        Y = (
            out
            if out is not None
            else np.empty((self.nlocal, ncol), dtype=self.dtype, order="F")
        )
        self.matrix_passes += 1
        self.rhs_columns += ncol
        nfull = self._xfull.shape[0]
        XF = self.ws.get_panel("op.panel.xfull", nfull, ncol, self.dtype)
        XF[: self.nlocal, :] = X
        self.halo_ex.exchange_panel(XF)
        if self.abft is None:
            spmv_multi(self.A, XF, out=Y, ws=self.ws)
        else:
            self._verified_columns(XF, Y)
        return Y

    def _verified_columns(self, XF: np.ndarray, Y: np.ndarray) -> None:
        """The ABFT-covered write of a matvec, one column at a time.

        Each column runs through the single-vector ``spmv`` (the
        primitive the panel op composes, so the bits are the panel
        op's) inside the scope marker that tells a covered-site fault
        injector this dispatch's output is checksum-verified, and is
        verified before the next column starts — a corrupted column
        raises at once, on every backend.  Reads state only: the
        fault-free path stays bitwise identical.
        """
        for j in range(XF.shape[1]):
            with abft_scope():
                spmv(self.A, XF[:, j], out=Y[:, j], ws=self.ws)
            self.abft.verify(XF[:, j], Y[:, j])

    def residual(
        self, b: np.ndarray, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``b - A x`` in this operator's precision (the width-1 panel)."""
        if out is None:
            out = np.empty(self.nlocal, dtype=np.result_type(b, self.dtype))
        self.residual_panel(b[:, None], x[:, None], out=out[:, None])
        return out

    def residual_panel(
        self, B: np.ndarray, X: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``out[:, j] = B[:, j] - A X[:, j]``: matvec, then subtract."""
        ncol = X.shape[1]
        AX = self.ws.get_panel("op.panel.ax", self.nlocal, ncol, self.dtype)
        self.matvec_panel(X, out=AX)
        np.subtract(B, AX, out=out)
        return out

    def residual_norm2_local(
        self, b: np.ndarray, x: np.ndarray, out: np.ndarray
    ) -> float:
        """``out = b - A x`` plus the *local* ``out . out``, fused (the
        width-1 case of :meth:`residual_panel_norm2_local`)."""
        locals_sq = self.residual_panel_norm2_local(
            b[:, None], x[:, None], out[:, None]
        )
        return float(locals_sq[0])

    def residual_panel_norm2_local(
        self, B: np.ndarray, X: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Panel residual + per-column local ``r . r``, fused.

        ``out[:, j] = B[:, j] - A X[:, j]``; returns the float64 array
        of local squared norms — GMRES-IR's residual check through the
        fused-motif pipeline.  The panel matvec is unchanged and the
        subtraction + dot fuse into one vector pass per column
        (``waxpby_dot_multi``).  The registry's kernels compose
        operation-for-operation under the reference backend, so the
        result is bitwise-identical to the unfused
        :meth:`residual_panel` + ``dot_multi`` sequence; the caller
        still owns the cross-rank reduction.  The matrix pass is
        charged once for the whole panel.
        """
        ncol = X.shape[1]
        AX = self.ws.get_panel("op.panel.ax", self.nlocal, ncol, self.dtype)
        self.matvec_panel(X, out=AX)
        _, locals_sq = waxpby_dot_multi(1.0, B, -1.0, AX, out=out, ws=self.ws)
        return locals_sq

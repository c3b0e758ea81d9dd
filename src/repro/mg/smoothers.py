"""Gauss-Seidel smoothers.

Two parallelization strategies, matching the paper's contrast (§2,
§3.2.1):

- :class:`MulticolorGS` — the optimized kernel: rows are partitioned
  into independent sets; each color is one fully-vectorized relaxation
  pass ``x[c] += (r[c] - (A x)[c]) / diag[c]``.  Within a color no two
  rows couple, so the pass is embarrassingly parallel (this is the GPU
  kernel of the paper; here it is one ``symgs_sweep_multi`` dispatch
  through the kernel registry on a color-ordered copy of the matrix —
  the paper's independent-set reordering, applied to the matrix and
  to the vectors the smoother is handed — format-generic over
  CSR/ELL).
- :class:`LevelScheduledGS` — the reference path: an upper-triangle
  SpMV followed by a level-scheduled lower-triangular substitution,
  bit-identical to sequential lexicographic Gauss-Seidel but with far
  less parallelism (wavefronts of the dependency DAG).

Across ranks both smoothers freeze ghost values for the duration of a
sweep (block-Jacobi coupling), exchanging the halo once per sweep —
exactly the benchmark's behaviour, where each subdomain is reordered
and swept independently.  The exchange is blocking: the paper hides
it behind interior color blocks (§3.2.3), but thread ranks share one
interpreter lock and have no second engine to overlap with, and the
overlapped schedule measured slower than this one, bit for bit the
same.

Precision rides on the kernel registry: the sweep op resolves a
precision-specific kernel from the matrix dtype, so each ladder level
sweeps at its own rung.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.backends.dispatch import spmv, symgs_sweep_multi
from repro.backends.workspace import Workspace
from repro.parallel.halo_exchange import HaloExchange
from repro.sparse.ell import ELLMatrix
from repro.sparse.partitioned import partition_colors
from repro.sparse.triangular import (
    level_sets,
    lower_levels,
    solve_lower_levelscheduled,
    solve_upper_levelscheduled,
    split_triangular,
    upper_levels,
)


class Smoother(abc.ABC):
    """One-sweep Gauss-Seidel smoother with frozen ghost coupling."""

    #: Number of vectorized passes per forward sweep (colors or levels);
    #: the performance model charges one kernel launch per pass.
    num_passes: int

    #: The row order this smoother's vectors are stored in — the
    #: *level's order*: ``order[k]`` is the natural row at position
    #: ``k`` and ``rank`` the inverse (natural row -> position); both
    #: ``None`` for natural order.  The multigrid hierarchy keeps every
    #: level's vectors, halo plan and grid transfers in it.
    order: np.ndarray | None = None
    rank: np.ndarray | None = None

    @abc.abstractmethod
    def forward(self, r: np.ndarray, xfull: np.ndarray) -> None:
        """One forward sweep for ``A x = r``, updating ``xfull[:n]``.

        ``r`` and the owned segment of ``xfull`` are in the level's
        order (:attr:`order`); ``xfull`` holds the current iterate in
        its owned segment and current ghost values (exchanged by the
        caller, in the halo plan's layout) in the rest.
        """

    @abc.abstractmethod
    def backward(self, r: np.ndarray, xfull: np.ndarray) -> None:
        """One backward sweep (reverse update order)."""

    def symmetric(self, r: np.ndarray, xfull: np.ndarray) -> None:
        """Forward then backward sweep (HPCG's symmetric GS)."""
        self.forward(r, xfull)
        self.backward(r, xfull)

    # Panel sweeps ----------------------------------------------------
    # ``R``/``Xfull`` are column-major (n, N) panels in the level's
    # order; column ``j`` must sweep bitwise-identically to the
    # single-RHS methods on ``R[:, j]``/``Xfull[:, j]``.  The base
    # implementations loop the columns; smoothers whose kernels have a
    # panel registration (MulticolorGS) override with one dispatch for
    # the whole panel.

    def forward_panel(self, R: np.ndarray, Xfull: np.ndarray) -> None:
        """One forward sweep of every panel column (level's order)."""
        for j in range(R.shape[1]):
            self.forward(R[:, j], Xfull[:, j])

    def backward_panel(self, R: np.ndarray, Xfull: np.ndarray) -> None:
        """One backward sweep of every panel column (level's order)."""
        for j in range(R.shape[1]):
            self.backward(R[:, j], Xfull[:, j])

    def sweep_panel(
        self,
        R: np.ndarray,
        Xfull: np.ndarray,
        direction: str,
        zero_guess: bool = False,
    ) -> None:
        """One directional panel sweep.  ``zero_guess`` is the caller's
        promise that ``Xfull`` is ``+0`` everywhere, ghosts included —
        work that only multiplies those zeros may be skipped, bitwise
        (nothing to skip in the base implementation)."""
        if direction == "forward":
            self.forward_panel(R, Xfull)
        elif direction == "backward":
            self.backward_panel(R, Xfull)
        else:
            raise ValueError(f"unknown sweep direction {direction!r}")

class MulticolorGS(Smoother):
    """Multicolor Gauss-Seidel in one-sweep relaxation form (§3.2.1).

    Because rows of a color are mutually independent, the relaxation
    update over a color equals the classic triangular-solve form of GS
    restricted to that color.  Every sweep reads the color-ordered
    layout (:class:`~repro.sparse.partitioned.ColorPartitionedMatrix`):
    each color's rows were copied into one contiguous block at setup
    and the vectors are stored in the same order (:attr:`order`), so a
    sweep streams every block — the whole matrix — exactly once,
    copies no matrix rows, and updates slices.  The blocks cost one
    extra copy of the matrix beside ``A`` (which the fine level's
    Krylov operator keeps using, in natural order; the restriction
    multiplies a block of its own).  Works with any format the
    partition can extract rows of (CSR, ELL).
    """

    def __init__(
        self,
        A,
        diag: np.ndarray,
        sets: list[np.ndarray],
        ws: Workspace | None = None,
    ):
        self.A = A
        self.diag = diag
        self.sets = sets
        self.ws = ws
        self.num_passes = len(sets)
        #: The color-ordered layout every sweep dispatches on.
        self.partition = partition_colors(A, sets, diag=diag)
        self.order = self.partition.order
        self.rank = self.partition.rank

    def forward(self, r: np.ndarray, xfull: np.ndarray) -> None:
        self.forward_panel(r[:, None], xfull[:, None])

    def backward(self, r: np.ndarray, xfull: np.ndarray) -> None:
        self.backward_panel(r[:, None], xfull[:, None])

    def forward_panel(self, R: np.ndarray, Xfull: np.ndarray) -> None:
        self.sweep_panel(R, Xfull, "forward")

    def backward_panel(self, R: np.ndarray, Xfull: np.ndarray) -> None:
        self.sweep_panel(R, Xfull, "backward")

    def sweep_panel(
        self,
        R: np.ndarray,
        Xfull: np.ndarray,
        direction: str,
        zero_guess: bool = False,
    ) -> None:
        """Whole colors in sweep order; a ``zero_guess`` sweep skips
        the first color's block products."""
        symgs_sweep_multi(
            self.partition,
            R,
            Xfull,
            direction=direction,
            ws=self.ws,
            zero_guess=zero_guess,
        )

class LevelScheduledGS(Smoother):
    """Lexicographic Gauss-Seidel via level-scheduled SpTRSV (§3.1).

    Forward sweep solves ``(D + L) x_new = r - (U + ghost) x_old``:
    an SpMV with everything above the diagonal (including ghost
    couplings at the old iterate) followed by the scheduled lower
    substitution.  This reproduces the reference implementation's
    two-kernel structure, including its extra matrix pass.
    """

    def __init__(self, A: ELLMatrix):
        self.A = A
        self.L, self.U, self.diag = split_triangular(A)
        self.lower_sets = level_sets(lower_levels(self.L))
        self.upper_sets = level_sets(upper_levels(self.U))
        self.num_passes = len(self.lower_sets)
        # Ghost couplings of U, isolated once for the backward sweep.
        n = self.A.nrows
        ghost_mask = (self.U.vals != 0) & (self.U.cols >= n)
        self.U_ghost = ELLMatrix(
            cols=np.where(ghost_mask, self.U.cols, 0).astype(np.int32),
            vals=np.where(ghost_mask, self.U.vals, 0),
            ncols=self.U.ncols,
        )

    def forward(self, r: np.ndarray, xfull: np.ndarray) -> None:
        n = self.A.nrows
        rhs = r - spmv(self.U, xfull)
        y = solve_lower_levelscheduled(self.L, self.diag, rhs, self.lower_sets)
        xfull[:n] = y

    def backward(self, r: np.ndarray, xfull: np.ndarray) -> None:
        n = self.A.nrows
        # (D + U_local) x_new = r - (L + ghost) x_old.  Ghost couplings
        # live in self.U; they were isolated into U_ghost at setup.
        rhs = r - spmv(self.L, xfull) - spmv(self.U_ghost, xfull)
        # upper_levels assigns level 0 to rows with no upper neighbors,
        # so ascending level order IS the backward-substitution order.
        y = solve_upper_levelscheduled(self.U, self.diag, rhs, self.upper_sets)
        xfull[:n] = y


def make_smoother(
    A,
    kind: str,
    diag: np.ndarray | None = None,
    sets: list[np.ndarray] | None = None,
    ws: Workspace | None = None,
) -> Smoother:
    """Factory: ``"multicolor"`` (needs diag+sets) or ``"levelsched"``."""
    if kind == "multicolor":
        if diag is None or sets is None:
            raise ValueError("multicolor smoother needs diag and color sets")
        return MulticolorGS(A, diag, sets, ws=ws)
    if kind == "levelsched":
        return LevelScheduledGS(A)
    raise ValueError(f"unknown smoother kind {kind!r}")


def smooth_distributed_panel(
    smoother: Smoother,
    halo_ex: HaloExchange,
    R: np.ndarray,
    Xfull: np.ndarray,
    direction: str = "forward",
    zero_guess: bool = False,
) -> None:
    """One distributed panel sweep: one wide exchange per sweep.

    The halo crossing before each directional sweep ships every column
    in one wide message per neighbor, so the smoother's message count
    is O(1) in the panel width.  A symmetric sweep is the forward sweep
    then the backward one, each behind its own exchange.  Per column
    the schedule composes the same kernels in the same order at every
    panel width.

    ``zero_guess`` is what the V-cycle knows right after it zeroed the
    level iterate — ``Xfull`` is ``+0`` on every rank, ghosts included:
    the first directional sweep then posts no exchange (it would ship
    zeros onto zeros) and may skip what only multiplies them.
    """
    steps = ("forward", "backward") if direction == "symmetric" else (direction,)
    for step in steps:
        if not zero_guess:
            halo_ex.exchange_panel(Xfull)
        smoother.sweep_panel(R, Xfull, step, zero_guess=zero_guess)
        zero_guess = False


def smooth_distributed(
    smoother: Smoother,
    halo_ex: HaloExchange,
    r: np.ndarray,
    xfull: np.ndarray,
    direction: str = "forward",
) -> None:
    """Single-vector entry point: the width-1 panel sweep."""
    smooth_distributed_panel(smoother, halo_ex, r[:, None], xfull[:, None], direction)

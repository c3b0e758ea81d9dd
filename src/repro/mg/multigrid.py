"""The 4-level geometric multigrid V-cycle preconditioner.

Hierarchy construction mirrors HPCG/HPG-MxP: each level's problem is
*re-discretized* on the coarsened grid (not a Galerkin product), the
level count is fixed (4), and the coarsest level is "solved" with a
few smoother sweeps.  Because the level count does not grow with the
problem, textbook O(N) multigrid scalability is deliberately absent —
the paper points out this is why iteration counts climb at scale, which
Table 2 and the full-scale validation probe.

The preconditioner owns per-level matrices in a single storage format
(any format registered with the kernel backend layer) and a **per-level
precision schedule**: each level may sit on its own rung of the fp32 <
fp64 ladder (coarse levels, whose corrections get re-smoothed on the
way up, tolerate more roundoff than the fine level).
Every hot operation — smoother sweeps, the fused restriction,
prolongation — dispatches through :mod:`repro.backends`, which resolves
precision-specific kernels per level; cross-precision level boundaries
cast once, at the grid transfer.  All per-level iterate and
coarse-defect panels are pooled in the workspace arena, so one V-cycle
performs zero array allocations after warmup.

Every level lives in its smoother's row order (color-major for the
multicolor smoother — the paper's independent-set reordering of matrix
*and* vectors, §3.2.1): the level's iterate and defect panels, its halo
plan's send indices and its grid-transfer maps are all in that order,
fixed once at build, so a color block relaxes a slice.  Only
:meth:`MultigridPreconditioner.apply_panel` sees natural order: it
permutes the defect in and the correction out, at the fine level.

From a zero guess the V-cycle below a level is a linear map of that
level's defect.  Serially, the finest level with at most
:data:`COARSE_MAP_MAX` unknowns keeps that map as one dense matrix,
formed at build by running the recursion over an identity panel, and a
V-cycle applies it in place of every level from there down: a few dozen
kernel dispatches on tiny arrays become one ``gemv`` per column.  The
levels below stay built (the flop and byte models read their sizes);
no solve runs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import dispatch
from repro.backends.registry import registry
from repro.backends.workspace import Workspace
from repro.fp.ladder import format_ladder, schedule_for_levels
from repro.fp.precision import Precision
from repro.geometry.partition import Subdomain
from repro.mg.restriction import (
    coarse_to_fine_map,
    exchange_and_fused_restrict_panel,
    prolong_correct,
)
from repro.mg.smoothers import (
    Smoother,
    make_smoother,
    smooth_distributed_panel,
)
from repro.parallel.comm import Communicator
from repro.parallel.halo_exchange import HaloExchange
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.sparse.formats import matrix_format_of, to_format
from repro.sparse.partitioned import extract_rows
from repro.sparse.reorder import column_map
from repro.sparse.scaled import to_precision
from repro.stencil.poisson27 import Problem, generate_problem
from repro.util.timers import NullTimers


#: Most unknowns a level may hold for the V-cycle from it down to be
#: compiled into one dense map.  At 64 the map is 32 KB in fp64 and one
#: ``gemv`` per column costs a few microseconds, against ~200-300 us of
#: dispatches for a 16^3 hierarchy's levels 2-3; forming it (one panel
#: V-cycle over the 64 identity columns) costs a few milliseconds of
#: set-up.  The cut falls at 16^3's level 2 and at the coarsest level of
#: 24^3 and 32^3; 48^3's coarsest level (216 unknowns) stays a
#: recursion.
COARSE_MAP_MAX = 64


@dataclass(frozen=True)
class MGConfig:
    """Multigrid preconditioner configuration.

    Defaults follow the HPG-MxP specification: 4 levels, one forward
    Gauss-Seidel pre- and post-smoothing sweep, one sweep as the
    coarsest-level solve, multicolor smoother, fused restriction.
    HPCG's preconditioner is the same shape with ``sweep="symmetric"``.
    """

    nlevels: int = 4
    npre: int = 1
    npost: int = 1
    smoother: str = "multicolor"  # "multicolor" | "levelsched"
    sweep: str = "forward"  # "forward" | "symmetric"
    coarse_sweeps: int = 1
    fused_restrict: bool = True

    def __post_init__(self) -> None:
        if self.nlevels < 1:
            raise ValueError("nlevels must be >= 1")
        if self.smoother not in ("multicolor", "levelsched"):
            raise ValueError(f"unknown smoother {self.smoother!r}")
        if self.sweep not in ("forward", "symmetric"):
            raise ValueError(f"unknown sweep {self.sweep!r}")


@dataclass
class MGLevel:
    """All per-level state: matrix, halo plan, smoother, transfers.

    ``A`` and ``diag`` are in natural order (the fine level's ``A`` may
    be the solver's Krylov operator); everything the V-cycle touches —
    ``halo_ex``'s send indices, ``f_c``, ``A_c``, the smoother's blocks
    — is in the level's order, which the smoother fixes
    (``smoother.order`` / ``smoother.rank``).
    """

    sub: Subdomain
    A: object  # local matrix in the hierarchy's storage format
    diag: np.ndarray
    halo_ex: HaloExchange
    smoother: Smoother
    #: Position, in this level's order, of each point of the next-coarser
    #: level (in *its* order); ``None`` on the coarsest level.
    f_c: np.ndarray | None
    #: The block the restriction multiplies, rows and owned columns in
    #: the level's order: the coarse-mapped rows (one eighth of the
    #: level) in a fused hierarchy, the whole level matrix for the
    #: unfused reference (``None`` on the coarsest level).
    A_c: object = None
    precision: Precision = Precision.DOUBLE  # this level's ladder rung
    #: Rung of the grid transfer *out of* this level: the coarse-defect
    #: vector crossing the boundary to ``lvl+1`` is stored at this
    #: precision (``None`` on the coarsest level).  Defaults to the
    #: coarser level's rung — the historical behaviour — unless the
    #: precision control plane schedules the transfer ingredient apart.
    transfer_precision: Precision | None = None
    #: The V-cycle from this level down as one dense F-order matrix at
    #: this level's rung (``z = C r`` in the level's order), or ``None``
    #: where the recursion runs.  Column ``j`` is, bitwise, the
    #: recursion applied to ``e_j``.
    coarse_map: np.ndarray | None = None

    @property
    def nlocal(self) -> int:
        return self.sub.nlocal

    @property
    def nnz(self) -> int:
        return self.A.nnz

    @property
    def num_colors(self) -> int:
        return self.smoother.num_passes


class MultigridPreconditioner:
    """One V-cycle of geometric multigrid, applied with zero guess."""

    def __init__(
        self,
        levels: list[MGLevel],
        config: MGConfig,
        precision: Precision,
        timers=None,
        workspace: Workspace | None = None,
    ) -> None:
        self.levels = levels
        self.config = config
        #: Fine-level precision (the rung ``apply`` casts its input to).
        self.precision = precision
        self.timers = timers if timers is not None else NullTimers()
        self.ws = workspace if workspace is not None else Workspace("mg")
        #: The kernel backend the coarse map was formed under (``None``
        #: without a map): its bits are that parity class's.
        self._map_backend: str | None = None

    @property
    def schedule(self) -> tuple[Precision, ...]:
        """The per-level precision schedule, finest first."""
        return tuple(lv.precision for lv in self.levels)

    @property
    def transfer_schedule(self) -> tuple[Precision, ...]:
        """Rung of each level boundary's grid transfer, finest first."""
        return tuple(
            lv.transfer_precision
            for lv in self.levels
            if lv.transfer_precision is not None
        )

    @property
    def coarse_level(self) -> int | None:
        """Index of the level whose V-cycle is a dense map, if any."""
        return next(
            (i for i, lv in enumerate(self.levels) if lv.coarse_map is not None),
            None,
        )

    def describe_schedule(self) -> str:
        """Compact ladder spec of this hierarchy (``"fp32:fp64:..."``)."""
        return format_ladder(self.schedule)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        problem: Problem,
        comm: Communicator,
        config: MGConfig | None = None,
        precision: "Precision | str" = Precision.DOUBLE,
        timers=None,
        fine_matrix=None,
        matrix_format: str = "ell",
        workspace: Workspace | None = None,
        transfer_precision: "str | Precision | tuple | None" = None,
    ) -> "MultigridPreconditioner":
        """Build the hierarchy under ``problem``'s fine grid.

        Every rank constructs its levels independently; coarse problems
        are re-discretizations on the coarsened subdomain.  Requires the
        local dims to be divisible by ``2**(nlevels-1)``.

        ``precision`` is either one precision for every level or a
        per-level ladder schedule — a ``"fp32:fp64"`` spec, a sequence,
        or anything :func:`repro.fp.ladder.schedule_for_levels` accepts;
        a schedule shorter than ``nlevels`` extends its last rung to the
        remaining (coarser) levels.  A rung off the ladder is refused
        before anything is built.

        ``fine_matrix`` lets the caller share an already-cast fine-level
        matrix (e.g. the solver's low-precision Krylov operator) instead
        of making another copy — the sharing the memory model assumes.
        It is used only when its format matches the hierarchy's;
        otherwise the level is built fresh (no sharing, no error) —
        the historical behaviour for CSR Krylov matrices.
        ``matrix_format`` selects the per-level storage layout; the
        level-scheduled smoother operates on ELL triangular blocks, so
        a ``levelsched`` hierarchy is stored in ELL outright rather
        than keeping a duplicate ELL conversion beside each level.

        ``transfer_precision`` optionally schedules the grid-transfer
        *ingredient* apart from the levels: entry ``l`` is the rung of
        the coarse-defect vector crossing the ``l -> l+1`` boundary
        (the fused restriction casts once on the store into it, the
        coarse level consumes it as its rhs).  ``None`` keeps the
        historical coupling — each boundary at the coarser level's
        rung.  This is the seam the per-ingredient precision control
        plane drives.

        Every multicolor smoother sweeps a color-ordered copy of its
        level matrix (:func:`repro.sparse.partitioned.partition_colors`)
        and fixes the level's row order with it; the fused restriction
        multiplies a packed copy of the level's coarse-mapped rows
        (``MGLevel.A_c``, one eighth of the level) — whatever the
        smoother kind.
        On a one-rank communicator the V-cycle from the finest level
        with at most :data:`COARSE_MAP_MAX` unknowns down is formed into
        that level's ``coarse_map`` (see :meth:`_form_coarse_map`).
        Every sweep on more than one rank runs behind a blocking halo
        exchange.  The level-scheduled smoother keeps natural order.
        """
        config = config or MGConfig()
        schedule = schedule_for_levels(precision, config.nlevels)
        if transfer_precision is None:
            transfers = tuple(schedule[lvl + 1] for lvl in range(config.nlevels - 1))
        elif config.nlevels < 2:
            transfers = ()
        else:
            transfers = schedule_for_levels(transfer_precision, config.nlevels - 1)
        ws = workspace if workspace is not None else Workspace("mg")
        spec = problem.spec
        if config.smoother == "levelsched":
            matrix_format = "ell"
        if fine_matrix is not None:
            if fine_matrix.dtype != schedule[0].dtype:
                raise ValueError(
                    "fine_matrix precision must match the preconditioner's "
                    "fine-level precision"
                )
            if matrix_format_of(fine_matrix) != matrix_format:
                fine_matrix = None  # format mismatch: build, don't share

        # Pass 1, per level: matrix, smoother — and with the smoother
        # the level's row order.
        built = []
        sub = problem.sub
        level_problem = problem
        for lvl in range(config.nlevels):
            prec = schedule[lvl]
            if lvl == 0 and fine_matrix is not None:
                A = fine_matrix
            else:
                A = to_precision(to_format(level_problem.A, matrix_format), prec)
            diag = A.diagonal()
            smoother = cls._build_smoother(A, diag, sub, config, ws)
            built.append((sub, level_problem.halo, A, diag, smoother))
            if lvl < config.nlevels - 1:
                sub = sub.coarsen(2)
                level_problem = generate_problem(sub, spec=spec)

        # Pass 2: everything that indexes a level's vectors — the halo
        # plan's send indices and the transfer to the next level (whose
        # order pass 1 fixed) — is re-indexed into the level's order.
        levels: list[MGLevel] = []
        for lvl, (sub, halo, A, diag, smoother) in enumerate(built):
            order, rank = smoother.order, smoother.rank
            halo_ex = HaloExchange(halo, comm, workspace=ws)
            col_map = None
            if order is not None:
                col_map = column_map(rank, A.ncols)
                halo_ex.renumber(rank)
            f_c = A_c = None
            if lvl < config.nlevels - 1:
                coarse_sub, _, _, _, coarse_smoother = built[lvl + 1]
                # Natural fine row of each coarse point, coarse points
                # in the coarse level's order.
                rows = coarse_to_fine_map(sub, coarse_sub)
                if coarse_smoother.order is not None:
                    rows = rows[coarse_smoother.order]
                f_c = rows if rank is None else rank[rows]
                if config.fused_restrict:
                    A_c = extract_rows(A, rows, col_map)
                else:
                    A_c = A if order is None else extract_rows(A, order, col_map)
            levels.append(
                MGLevel(
                    sub=sub,
                    A=A,
                    diag=diag,
                    halo_ex=halo_ex,
                    smoother=smoother,
                    f_c=f_c,
                    A_c=A_c,
                    precision=schedule[lvl],
                    transfer_precision=(
                        transfers[lvl] if lvl < len(transfers) else None
                    ),
                )
            )
        mg = cls(levels, config, schedule[0], timers, workspace=ws)
        if comm.size == 1:
            mg._form_coarse_map()
        return mg

    def _form_coarse_map(self) -> None:
        """Form the V-cycle below the cut level as one dense map.

        The cut is the finest level with at most :data:`COARSE_MAP_MAX`
        unknowns.  One panel V-cycle from it over the identity, at the
        level's own rung, gives ``C``: by the panel contract column
        ``j`` is bitwise the recursion applied to ``e_j``.  The timers
        see none of it; it is set-up.  A V-cycle after the active kernel
        backend changed forms the map again, under the new parity class.
        """
        cut = next(
            (i for i, lv in enumerate(self.levels) if lv.nlocal <= COARSE_MAP_MAX),
            None,
        )
        if cut is None:
            return
        level = self.levels[cut]
        level.coarse_map = None
        eye = np.eye(level.nlocal, dtype=level.precision.dtype, order="F")
        timers, self.timers = self.timers, NullTimers()
        try:
            level.coarse_map = np.array(self._vcycle_panel(cut, eye), order="F")
        finally:
            self.timers = timers
        self._map_backend = registry.active_backend

    @staticmethod
    def _build_smoother(
        A,
        diag: np.ndarray,
        sub: Subdomain,
        config: MGConfig,
        ws: Workspace,
    ) -> Smoother:
        if config.smoother == "multicolor":
            sets = color_sets(structured_coloring8(sub))
            return make_smoother(A, "multicolor", diag=diag, sets=sets, ws=ws)
        # build() stores levelsched hierarchies in ELL, so A is the
        # matrix the triangular machinery splits — no duplicate copy.
        return make_smoother(A, "levelsched")

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """z = M^{-1} r: one V-cycle from a zero initial guess.

        The width-1 case of :meth:`apply_panel`.  With a
        caller-provided ``out`` buffer the whole V-cycle is
        allocation-free (the hot path the solvers use); without one a
        fresh vector in the preconditioner precision is returned.
        """
        if out is None:
            out = np.empty(r.shape[0], dtype=self.precision.dtype)
        self.apply_panel(r[:, None], out=out[:, None])
        return out

    def apply_panel(
        self, R: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``Z[:, j] = M^{-1} R[:, j]`` for a column-major panel.

        ``R`` is cast to the preconditioner precision on entry; the
        result is in that precision.  Every level's smoother sweeps,
        the restriction and the prolongation serve all N columns per
        recursion step, and each level boundary's halo crossing is
        **one wide exchange** (one message per neighbor for the whole
        panel) — message count O(1) in the panel width.  Per column
        the kernels compose in the same order at every width (sweeps,
        restriction and prolongation update column by column behind one
        block product per panel), so column ``j`` does not depend on
        its panel-mates — the contract the panel solver's parity tests
        pin.
        """
        n, ncol = R.shape
        dtype = self.precision.dtype
        if self._map_backend not in (None, registry.active_backend):
            self._form_coarse_map()
        Z = out if out is not None else self.ws.get_panel("mg.panel.z", n, ncol, dtype)
        if R.dtype == dtype:
            R_prec = R
        else:
            R_prec = self.ws.get_panel("mg.panel.rcast", n, ncol, dtype)
            np.copyto(R_prec, R)
        fine = self.levels[0].smoother
        if fine.order is None:
            np.copyto(Z, self._vcycle_panel(0, R_prec))
            return Z
        # Natural order ends here: the defect goes down in the fine
        # level's order and the correction comes back out of it.
        R_lvl = self.ws.get_panel("mg.panel.rlevel", n, ncol, dtype)
        for j in range(ncol):
            np.take(R_prec[:, j], fine.order, out=R_lvl[:, j], mode="clip")
        ZV = self._vcycle_panel(0, R_lvl)
        for j in range(ncol):
            np.take(ZV[:, j], fine.rank, out=Z[:, j], mode="clip")
        return Z

    def _vcycle_panel(self, lvl: int, R: np.ndarray) -> np.ndarray:
        """One V-cycle level: all N columns per kernel dispatch.

        ``R`` and the returned correction are in the level's order.
        The level iterate is a pooled ``(nlocal + n_ghost, N)`` panel
        (keyed per level, so the recursion never clobbers a finer
        level's state), the coarse defect a pooled ``(n_c, N)`` panel
        at the transfer rung (the fused restriction casts once on the
        store).  Every smoother sweep but the first and the restriction
        cross the halo in one wide exchange for the whole panel; the
        first sweep starts from the zeros written here, on every rank,
        and is told so.
        """
        level = self.levels[lvl]
        cfg = self.config
        ncol = R.shape[1]
        ZF = self.ws.get_panel(
            ("mg.panel.zfull", lvl),
            level.nlocal + level.halo_ex.n_ghost,
            ncol,
            level.precision.dtype,
        )
        if level.coarse_map is not None:
            return self._apply_coarse_map(lvl, R, ZF)
        ZF[:] = 0.0

        if lvl == len(self.levels) - 1:
            self._smooth(level, R, ZF, cfg.coarse_sweeps, zero_guess=True)
            return ZF[: level.nlocal, :]

        self._smooth(level, R, ZF, cfg.npre, zero_guess=True)

        with self.timers.section("restrict"):
            R_c = self.ws.get_panel(
                ("mg.panel.rc", lvl),
                len(level.f_c),
                ncol,
                level.transfer_precision.dtype,
            )
            exchange_and_fused_restrict_panel(
                level.halo_ex,
                level.A_c,
                R,
                ZF,
                level.f_c,
                fused=cfg.fused_restrict,
                out=R_c,
                ws=self.ws,
            )

        # Recursion reuses deeper workspaces only, so ZF is intact;
        # Z_c is the deeper level's iterate view, consumed immediately.
        Z_c = self._vcycle_panel(lvl + 1, R_c)

        with self.timers.section("prolong"):
            prolong_correct(ZF, Z_c, level.f_c, ws=self.ws)

        self._smooth(level, R, ZF, cfg.npost)
        return ZF[: level.nlocal, :]

    def _apply_coarse_map(self, lvl: int, R: np.ndarray, ZF: np.ndarray) -> np.ndarray:
        """``Z = C R`` one column at a time, as the panel contract asks.

        A defect stored at another rung (a transfer scheduled apart
        from the level) is cast once into a pooled panel at ``C``'s.
        """
        C = self.levels[lvl].coarse_map
        n, ncol = R.shape
        if R.dtype != C.dtype:
            R_map = self.ws.get_panel(("mg.panel.rmap", lvl), n, ncol, C.dtype)
            np.copyto(R_map, R)
            R = R_map
        Z = ZF[:n, :]
        for j in range(ncol):
            dispatch.gemv(C, n, R[:, j], out=Z[:, j])
        return Z

    def _smooth(
        self,
        level: MGLevel,
        R: np.ndarray,
        ZF: np.ndarray,
        sweeps: int,
        zero_guess: bool = False,
    ) -> None:
        """``sweeps`` distributed smoother sweeps on one level's panel;
        ``zero_guess`` says ``ZF`` was zeroed just before the first."""
        with self.timers.section("gs"):
            for k in range(sweeps):
                smooth_distributed_panel(
                    level.smoother,
                    level.halo_ex,
                    R,
                    ZF,
                    self.config.sweep,
                    zero_guess=zero_guess and k == 0,
                )

    # ------------------------------------------------------------------
    # Introspection (flop/byte models)
    # ------------------------------------------------------------------
    def level_dims(self) -> list[dict]:
        """Per-level sizes for the flop and byte models."""
        return [
            {
                "nlocal": lv.nlocal,
                "nnz": lv.nnz,
                "width": lv.A.width,
                "num_colors": lv.num_colors,
                "n_ghost": lv.halo_ex.n_ghost,
                "precision": lv.precision.short_name,
                "value_bytes": lv.precision.bytes,
                "transfer_precision": (
                    lv.transfer_precision.short_name
                    if lv.transfer_precision is not None
                    else None
                ),
            }
            for lv in self.levels
        ]

"""Right-preconditioned mixed-precision GMRES-IR (paper Algorithm 3).

One implementation serves both benchmark phases:

- with :data:`~repro.fp.policy.MIXED_DS_POLICY` it is the "mxp" solver:
  the multigrid preconditioner, SpMV, Krylov basis and CGS2 run in
  single precision, while the outer residual (line 7) and solution
  update (line 47) stay in double — the iterative-refinement structure
  that recovers double-precision accuracy;
- with :data:`~repro.fp.policy.DOUBLE_POLICY` every step is double and
  the algorithm reduces to restarted GMRES (Algorithm 2 with restarts),
  the benchmark's "double" reference phase;
- with a ladder policy (:meth:`PrecisionPolicy.from_ladder`, e.g.
  ``"fp32:fp64"``) each MG level runs on its own rung, and with
  escalation opted in the **precision control plane**
  (:mod:`repro.fp.controller`) adapts the rungs at run time.  In
  ``"policy"`` mode (the default, bit-identical to the PR 2
  escalator) a stalling restart cycle promotes the whole
  policy one rung; in ``"per-ingredient"`` mode each (ingredient, MG
  level) pair — smoother per level, SpMV, grid transfers,
  orthogonalization — owns its rung: only the controllers on the
  binding (lowest) rung promote, and sustained recovery of the outer
  residual demotes promoted controllers back down after a hysteresis
  window.  Every rung change rebuilds the affected low-precision
  state and is recorded in :class:`SolverStats` (with its ingredient
  and level) and exportable as timeline events (:mod:`repro.trace`).

Convergence checking follows the benchmark: the implicit residual from
the Givens-transformed rhs (``|t_{k+1}|``) is monitored every inner
step, and a cycle ends at the target or at the reduction its lowest
rung can deliver (:data:`ATTAINABLE_FACTOR`); the true double-precision
residual is recomputed at every outer (restart) boundary and has final
say.  Iteration counts — the quantity
the validation phase penalizes — count inner Arnoldi steps.

There is one restart-cycle loop, :meth:`GMRESIRSolver.solve_panel`;
``solve(b)`` is its width-1 case.  Every hot operation dispatches
through :mod:`repro.backends`, and all O(n) temporaries (Krylov bases
included) are leased from a solver-owned workspace arena: after warmup
the loop allocates nothing at any panel width, which the allocation
regression tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends.dispatch import dot_multi, gemv
from repro.backends.workspace import Workspace
from repro.fp.controller import (
    ControlConfig,
    PrecisionControlPlane,
    PrecisionEvent,
)
from repro.fp.ladder import NO_ESCALATION, EscalationConfig
from repro.fp.policy import DOUBLE_POLICY, PrecisionPolicy
from repro.fp.precision import Precision
from repro.mg.multigrid import MGConfig, MultigridPreconditioner
from repro.parallel.comm import Communicator
from repro.parallel.distributed import (
    dnorm2,
    dnorm2_from_local,
    dnorm2_panel_from_local,
)
from repro.resilience.abft import ABFTCheck, abft_checksums, abft_rel_tol
from repro.resilience.config import ResilienceConfig
from repro.resilience.errors import FaultDetectedError, NumericalBreakdownError
from repro.resilience.stats import ResilienceStats
from repro.solvers.givens import GivensQR
from repro.solvers.operator import DistributedOperator
from repro.solvers.ortho import ORTHO_METHODS, cgs2_fused
from repro.solvers.setup_cache import SetupCache, operator_fingerprint
from repro.sparse.formats import known_formats, to_format
from repro.sparse.scaled import to_precision
from repro.stencil.poisson27 import Problem
from repro.util.timers import NullTimers


#: Backward-compatible alias: a "promotion" record is now one
#: :class:`~repro.fp.controller.PrecisionEvent` (a superset — it also
#: covers demotions and carries the ingredient + MG level).
Promotion = PrecisionEvent

#: A restart cycle of a solve with a residual target ends once a
#: column's implicit residual is within ``ATTAINABLE_FACTOR`` unit
#: roundoffs (of the lowest live rung) of the cycle's starting fp64
#: residual: that is the reduction one cycle at that rung can deliver,
#: and the next refinement step, from a fresh fp64 residual, goes on
#: from there.  A fixed budget (``tol=0``) keeps full-length cycles.
#: Measured: larger factors end cycles so early that a further cycle
#: is needed (4 and 8 cost iterations at 32^3).  At fp64 the floor sits
#: far below any solve's target, so double solves never reach it.
ATTAINABLE_FACTOR = 2.0


@dataclass
class SolverStats:
    """Outcome of one GMRES / GMRES-IR solve."""

    iterations: int = 0
    restarts: int = 0
    converged: bool = False
    final_relres: float = np.inf
    rho0: float = 0.0
    implicit_history: list[float] = field(default_factory=list)
    cycle_lengths: list[int] = field(default_factory=list)
    breakdown: bool = False  # "happy breakdown" (exact solution in span)
    #: Per-ingredient precision event log: every promotion *and*
    #: demotion, in firing order, with its ingredient and MG level
    #: (whole-policy events carry ``ingredient="policy"``).
    promotions: list[PrecisionEvent] = field(default_factory=list)
    #: Setup-cache counters (cumulative for the solver's cache at the
    #: time the solve finished; both zero without a cache).
    setup_cache_hits: int = 0
    setup_cache_misses: int = 0
    #: A caller-supplied ``cancel`` callback stopped this solve (or
    #: this panel column) at a restart boundary before convergence.
    cancelled: bool = False
    #: Detection/recovery counters; ``None`` unless the solver was
    #: built with a :class:`~repro.resilience.config.ResilienceConfig`
    #: (so pre-existing stats consumers and JSON records are unchanged).
    resilience: "ResilienceStats | None" = None

    @property
    def demotions(self) -> list[PrecisionEvent]:
        """The de-escalation subset of the event log."""
        return [p for p in self.promotions if p.direction == "demote"]

    def summary(self) -> str:
        if self.cancelled:
            state = "cancelled"
        else:
            state = "converged" if self.converged else "NOT converged"
        n_demote = len(self.demotions)
        n_promote = len(self.promotions) - n_demote
        promo = f", {n_promote} promotion(s)" if n_promote else ""
        if n_demote:
            promo += f", {n_demote} demotion(s)"
        return (
            f"{state} in {self.iterations} iterations "
            f"({self.restarts} restarts{promo}), "
            f"relres={self.final_relres:.3e}"
        )


class GMRESIRSolver:
    """Reusable GMRES-IR solver bound to one problem and one policy.

    Construction performs the benchmark's setup work: the double
    operator, the low-precision matrix copy (when the policy needs
    one), the multigrid hierarchy on the policy's per-level precision
    schedule.  ``solve`` / ``solve_panel`` may then be called
    repeatedly (the timed benchmark phase re-solves from a zero guess
    until its time budget is spent); the hot loop's buffers are leased
    from the workspace arena on first use and kept.

    ``escalation`` configures the stall/floor detector; the default
    (:data:`repro.fp.ladder.NO_ESCALATION`) pins the policy for the
    whole solve, ``True`` or an enabled :class:`EscalationConfig` opts
    in.  ``control`` selects the precision control plane's
    granularity: ``"policy"`` (default — the whole-policy escalator,
    bit-identical to PR 2), ``"per-ingredient"`` (independent
    controllers per ingredient and MG level, with de-escalation), or
    ``"off"``; a full :class:`~repro.fp.controller.ControlConfig` may
    be passed instead, optionally carrying a roundoff ``budget`` that
    derives the *initial* per-ingredient rungs from the matrix
    (:mod:`repro.fp.budget`) rather than the flat policy.  After a
    rung change the solver *stays* on the new schedule for subsequent
    ``solve`` calls — rebuilding per solve would repay the setup cost
    the change already bought.
    """

    def __init__(
        self,
        problem: Problem,
        comm: Communicator,
        policy: PrecisionPolicy = DOUBLE_POLICY,
        mg_config: MGConfig | None = None,
        restart: int = 30,
        ortho: str = "cgs2",
        timers=None,
        precond: MultigridPreconditioner | None = None,
        matrix_format: str = "ell",
        escalation: "EscalationConfig | bool" = NO_ESCALATION,
        control: "ControlConfig | str | None" = None,
        fusion: bool = True,
        setup_cache: SetupCache | None = None,
        workspace: Workspace | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        if ortho not in ORTHO_METHODS:
            raise ValueError(f"unknown orthogonalization {ortho!r}")
        if matrix_format not in known_formats():
            raise ValueError(
                f"unknown matrix format {matrix_format!r}; registered "
                f"formats: {known_formats()}"
            )
        self.problem = problem
        self.comm = comm
        self.restart = restart
        self.ortho_name = ortho
        self.matrix_format = matrix_format
        # Fused-motif kernels (waxpby_dot / gemv_sub_dot): the residual
        # check's subtraction and dot share one vector pass.
        # Numerically identical to the unfused sequence (bitwise under
        # the reference backend); off for ablation (--no-fusion).
        self.fusion = bool(fusion)
        self._orthogonalize = ORTHO_METHODS[ortho]
        self.timers = timers if timers is not None else NullTimers()
        # Leased-pool integration: a caller (the batched benchmark, a
        # service front end) may hand in an already-warm arena from a
        # WorkspacePool; the solver otherwise owns a fresh one.
        self.ws = workspace if workspace is not None else Workspace("gmres-ir")
        # Operator-keyed setup cache: format conversions, precision
        # copies and the MG hierarchy are reused across
        # solver instances bound to content-identical operators.
        self.setup_cache = setup_cache
        self._fingerprint = (
            operator_fingerprint(problem.A) if setup_cache is not None else None
        )
        # Fused CGS2: the second projection's GEMV, subtraction and
        # the norm's local reduction share one registry motif
        # (bitwise-identical composition under the reference backend).
        self._ortho_fused = (
            cgs2_fused if (self.fusion and ortho == "cgs2") else None
        )
        if escalation is True:
            escalation = EscalationConfig()
        elif escalation is False:
            escalation = EscalationConfig(enabled=False)
        # The control plane: a ControlConfig wins outright (it carries
        # its own detector settings); a bare mode string combines with
        # the escalation resolution above; None is the historical
        # whole-policy escalator.
        if isinstance(control, ControlConfig):
            escalation = control.escalation
        elif isinstance(control, str):
            control = ControlConfig(mode=control, escalation=escalation)
        elif control is None:
            control = ControlConfig(mode="policy", escalation=escalation)
        else:
            raise TypeError(
                f"control must be a ControlConfig, a mode string or "
                f"None, got {control!r}"
            )
        self.escalation = escalation
        self.control = control

        # Krylov-loop matrix in the requested storage format (the
        # reference implementation uses CSR, the optimized one ELL).
        self.A64 = self._setup(
            "A64",
            (self.matrix_format,),
            lambda: to_format(problem.A, self.matrix_format),
        )

        # Double-precision operator for outer residuals:
        # policy-independent (always fp64), so it survives ladder
        # promotions unchanged.
        self.op64 = DistributedOperator(
            self.A64, problem.halo, comm, workspace=self.ws
        )

        # Resilience: ABFT column-sum checksums, computed ONCE in fp64
        # from A64 and cached with the other setup products.  Scaled
        # low-precision kernels fold their row scales back into the
        # output, so every rung presents the *original* operator and one
        # fp64 checksum pair serves the whole ladder — only the
        # verification tolerance tracks the rung's unit roundoff.
        self.resilience = resilience
        self._abft = None
        if resilience is not None and resilience.abft:
            self._abft = self._setup(
                "abft", (self.matrix_format,), lambda: abft_checksums(self.A64)
            )
            c, cabs = self._abft
            self.op64.attach_abft(
                ABFTCheck(c, cabs, self._abft_tol(np.float64))
            )
        # Givens QR state (one per panel column slot, grown on demand
        # by ``_slot``) and the Hessenberg-column staging buffer are
        # always fp64 and fully reset per restart cycle, so one
        # allocation serves every solve on a reused solver.
        self._qrs: list[GivensQR] = []
        self._hcol = np.zeros(restart + 1, dtype=np.float64)

        self.mg_config = mg_config or MGConfig()
        self._shared_precond = precond
        nlevels = self.mg_config.nlevels
        if control.mode == "per-ingredient" and control.budget is not None:
            # Carson-style chooser: the initial per-ingredient rungs
            # come from the matrix's norm/condition estimates, not the
            # flat policy spec.
            self.plane = PrecisionControlPlane.from_budget(
                control, policy, nlevels, self.A64, restart=restart
            )
        else:
            self.plane = PrecisionControlPlane(control, policy, nlevels)
        self._bind_policy(self.plane.live_policy())

    # ------------------------------------------------------------------
    def _setup(self, kind: str, params: tuple, builder):
        """Build a setup product, through the cache when one is bound."""
        if self.setup_cache is None:
            return builder()
        return self.setup_cache.get_or_build(
            self._fingerprint, kind, params, builder
        )

    def _abft_tol(self, dtype) -> float:
        """ABFT relative tolerance for one rung's arithmetic."""
        if self.resilience is not None and self.resilience.abft_rel_tol:
            return self.resilience.abft_rel_tol
        return abft_rel_tol(dtype)

    # ------------------------------------------------------------------
    def _bind_policy(self, policy: PrecisionPolicy) -> None:
        """(Re)build every precision-dependent piece for ``policy``.

        Called at construction and again by the escalation controller
        after each promotion: the inner operator and the multigrid
        hierarchy (on the policy's per-level schedule) are rebuilt; the
        Krylov bases and hot-loop panels are arena leases keyed by
        dtype, so they follow the rung on their next lease.
        """
        self.policy = policy

        # Inner operator in the policy's matrix precision.  GMRES-IR
        # stores this *second* copy of A (the memory overhead §5 notes);
        # the uniform-double policy reuses the double operator.
        if policy.matrix is Precision.DOUBLE:
            self.op_inner = self.op64
            self.A_low = self.A64
        else:
            prec_name = policy.matrix.short_name
            self.A_low = self._setup(
                "A_low",
                (self.matrix_format, prec_name),
                lambda: to_precision(self.A64, policy.matrix),
            )
            self.op_inner = DistributedOperator(
                self.A_low, self.problem.halo, self.comm, workspace=self.ws
            )
            if self._abft is not None:
                # Same fp64 checksums (the scaled kernels present the
                # original operator); tolerance at this rung's roundoff.
                c, cabs = self._abft
                self.op_inner.attach_abft(
                    ABFTCheck(c, cabs, self._abft_tol(policy.matrix.dtype))
                )

        # Multigrid preconditioner on the policy's per-level schedule.
        # When the fine level runs in the inner-operator precision (and
        # the hierarchy's format), share it (no second low copy).
        if self._shared_precond is not None:
            self.M = self._shared_precond
        else:
            shared = (
                self.A_low
                if policy.preconditioner is policy.matrix
                else None
            )
            mg_schedule = policy.mg_schedule(self.mg_config.nlevels)
            transfer_schedule = self.plane.transfer_schedule()

            def _build_mg():
                return MultigridPreconditioner.build(
                    self.problem,
                    self.comm,
                    self.mg_config,
                    precision=mg_schedule,
                    timers=self.timers,
                    fine_matrix=shared,
                    matrix_format=self.matrix_format,
                    # A cached hierarchy outlives this solver and is
                    # acquired by later ones holding *other* arenas
                    # (the service leases one per batch, and hands this
                    # solver's to another operator's batch on another
                    # thread): it owns its arena, never the solver's.
                    workspace=self.ws if self.setup_cache is None else None,
                    # Per-ingredient mode schedules the grid transfers
                    # apart from the levels; None preserves the
                    # historical coarse-rung coupling (the
                    # "policy"-mode bitwise guarantee).
                    transfer_precision=transfer_schedule,
                )

            # The cached hierarchy carries its colorings, color-ordered
            # smoother layouts and its own warm workspace with it; only
            # the timers rebind to the acquiring solver.
            self.M = self._setup(
                "mg",
                (
                    self.matrix_format,
                    tuple(mg_schedule),
                    tuple(transfer_schedule) if transfer_schedule else None,
                    self.mg_config,
                    shared is not None,
                    self.comm.size,
                    self.comm.rank,
                ),
                _build_mg,
            )
            self.M.timers = self.timers

        # Basis-precision staging for the least-squares solution (the
        # update's ``y`` cast), sliced per cycle length.  Everything
        # O(n) is leased from the arena per rung (``_slot``/``get_panel``).
        self._ycast = np.zeros(self.restart, dtype=policy.krylov_basis.dtype)

        # Unit roundoff of the lowest live rung (inner matrix, Krylov
        # basis, orthogonalization, every MG level and transfer):
        # re-read on every rebind, so a promotion raises it.
        self.eps_low = max(
            p.eps
            for p in (
                policy.matrix,
                policy.krylov_basis,
                policy.orthogonalization,
                *self.M.schedule,
                *self.M.transfer_schedule,
            )
        )

    # ------------------------------------------------------------------
    def _halo_exchanges(self) -> list:
        """Every distinct halo-exchange plan the solver drives."""
        plans = [self.op64.halo_ex]
        if self.op_inner is not self.op64:
            plans.append(self.op_inner.halo_ex)
        for lv in self.M.levels:
            if all(lv.halo_ex is not p for p in plans):
                plans.append(lv.halo_ex)
        return plans

    def halo_seconds(self) -> float:
        """Measured wall-clock seconds inside halo exchanges.

        Summed over the outer/inner operators and every MG level;
        counters restart on :meth:`reset_halo_counters` (a rung-change
        rebuild also restarts the rebuilt components' counters).
        """
        return sum(ex.seconds for ex in self._halo_exchanges())

    def halo_exchange_count(self) -> int:
        """Measured number of halo exchanges (same scope as above)."""
        return sum(ex.exchanges for ex in self._halo_exchanges())

    def halo_message_count(self) -> int:
        """Measured halo *messages* posted (same scope as above).

        One per neighbor per exchange round — the quantity the
        panel-native wide exchange divides by the panel width relative
        to the looped schedule (bytes on the wire are unchanged).
        """
        return sum(ex.messages for ex in self._halo_exchanges())

    def halo_sent_bytes(self) -> int:
        """Measured halo wire bytes sent (same scope as above)."""
        return sum(ex.sent_bytes for ex in self._halo_exchanges())

    def halo_exposed_seconds(self) -> float:
        """Measured wall clock in halo communication no compute hid.

        Every exchange blocks, so this is :meth:`halo_seconds`; the
        benchmark suite reads the name for its exposed share.
        """
        return self.halo_seconds()

    def reset_halo_counters(self) -> None:
        for ex in self._halo_exchanges():
            ex.reset_counters()

    # ------------------------------------------------------------------
    def _apply_events(
        self, stats: list[SolverStats], events: list[PrecisionEvent]
    ) -> None:
        """Record the plane's rung changes (on every column still in
        the panel: one schedule serves them all) and rebuild the inner
        stage.

        A caller-supplied preconditioner is abandoned here: it sits on
        the old schedule — often containing the very component whose
        roundoff floor triggered the change — so the rebuild constructs
        a fresh hierarchy on the plane's live schedule instead.
        """
        for s in stats:
            s.promotions.extend(events)
        self._shared_precond = None
        self._bind_policy(self.plane.live_policy())

    def _replay_fault(self, fault: Exception, live: list[SolverStats]) -> bool:
        """Judge a fault detected inside the restart cycle of ``live``.

        The lockstep cycle is shared, so every active column records
        the fault and the replay.  ``True`` tells the caller to restore
        the restart-boundary checkpoint and go again: the replay budget
        is charged and the binding ingredient promoted one rung through
        the control plane's breakdown path (a corrupted low-precision
        unit retries with more headroom).  ``False`` means re-raise —
        resilience off, finite guards off for a breakdown, or the
        replay budget spent (the persistent-fault escape hatch).
        """
        res = self.resilience
        if res is None:
            return False
        detected = isinstance(fault, FaultDetectedError)
        if not detected and not res.finite_guards:
            return False
        for s in live:
            if detected:
                s.resilience.detected += 1
            else:
                s.resilience.breakdowns += 1
        # Columns only ever leave the panel, so every active column has
        # been through every replay so far: any of them holds the count.
        if live[0].resilience.replays >= res.max_replays:
            return False
        for s in live:
            s.resilience.replays += 1
        events = self.plane.observe_fault(
            max(s.final_relres for s in live),
            max(s.iterations for s in live),
            max(s.restarts for s in live),
        )
        if events:
            self._apply_events(live, events)
        return True

    def _slot(self, j: int) -> tuple[np.ndarray, GivensQR]:
        """Column slot ``j``'s Krylov basis (live rung) and Givens QR.

        The basis is an F-order ``(nlocal, restart+1)`` panel: each
        basis vector is contiguous and ``Q[:, :k]`` is one contiguous
        leading block, so CGS2's GEMV / GEMVT and the solution update
        stream only the ``k`` live columns.  Leased, not allocated per
        solve — the basis from the workspace arena (zeroed when first
        leased), the rung-independent QR from a solver-owned list — so
        repeated solves re-warm nothing.
        """
        misses = self.ws.misses
        Q = self.ws.get_panel(
            ("gmres.basis", j),
            self.problem.nlocal,
            self.restart + 1,
            self.policy.krylov_basis.dtype,
        )
        if self.ws.misses != misses:
            Q[:] = 0
        while len(self._qrs) <= j:
            self._qrs.append(GivensQR(self.restart))
        return Q, self._qrs[j]

    @property
    def Q(self) -> np.ndarray:
        """The Krylov basis of column slot 0 (a solo solve's basis)."""
        return self._slot(0)[0]

    def _outer_residuals(
        self, B: np.ndarray, X: np.ndarray, cols: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Line 7 for columns ``cols``: the fp64 residual panel and its
        global norms, in one matrix pass.

        Fused, each column's subtraction and local dot share a vector
        pass (``waxpby_dot_multi``) — bitwise-identical to the unfused
        sequence under the reference backend; either way the norms
        cross ranks in ONE vector all-reduce.
        """
        n, ncol = self.problem.nlocal, len(cols)
        Bact = self.ws.get_panel("panel.b", n, ncol, np.float64)
        Xact = self.ws.get_panel("panel.x", n, ncol, np.float64)
        Ract = self.ws.get_panel("panel.r", n, ncol, np.float64)
        for i, j in enumerate(cols):
            np.copyto(Bact[:, i], B[:, j])
            np.copyto(Xact[:, i], X[:, j])
        with self.timers.section("spmv"):
            if self.fusion:
                locals_sq = self.op64.residual_panel_norm2_local(
                    Bact, Xact, out=Ract
                )
            else:
                self.op64.residual_panel(Bact, Xact, out=Ract)
        with self.timers.section("dot"):
            if not self.fusion:
                locals_sq = dot_multi(Ract, Ract)
            rhos = dnorm2_panel_from_local(self.comm, locals_sq)
        if not np.all(np.isfinite(rhos)):
            # NaN/inf never compares <= abs_tol: unguarded, the solver
            # burns to maxiter on poisoned state.  Typed abort (or,
            # with resilience enabled, a checkpoint replay).
            bad = int(np.flatnonzero(~np.isfinite(rhos))[0])
            raise NumericalBreakdownError(
                f"outer residual norm (column {cols[bad]})", float(rhos[bad])
            )
        return Ract, rhos

    # ------------------------------------------------------------------
    def solve(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        tol: float = 1e-9,
        maxiter: int = 300,
        target_residual: float | None = None,
        cancel=None,
    ) -> tuple[np.ndarray, SolverStats]:
        """Solve ``A x = b``: the width-1 :meth:`solve_panel`.

        Same parameters, except that ``cancel`` is a *zero-argument*
        callable; returns the iterate and its one :class:`SolverStats`.
        """
        X, stats = self.solve_panel(
            b[:, None],
            None if x0 is None else x0[:, None],
            tol=tol,
            maxiter=maxiter,
            target_residual=target_residual,
            cancel=None if cancel is None else lambda j: cancel(),
        )
        return X[:, 0], stats[0]

    def solve_panel(
        self,
        B: np.ndarray,
        X0: np.ndarray | None = None,
        tol: float = 1e-9,
        maxiter: int = 300,
        target_residual: float | None = None,
        cancel=None,
    ) -> tuple[np.ndarray, list[SolverStats]]:
        """Solve ``A X = B`` for a panel of right-hand sides at once.

        The solver's one restart-cycle loop (:meth:`solve` is its
        width-1 case).  ``B`` is ``(nlocal, N)`` (any layout; consumed
        column-major).  All active columns advance in lockstep restart
        cycles so the operator applications are *panel* kernels: one
        ``matvec_panel`` / ``apply_panel`` / panel residual per step,
        the matrix block charged **once** per panel (the amortization
        ``DistributedOperator.matrix_passes`` / ``rhs_columns``
        records).  Per column the arithmetic sequence does not depend
        on the panel-mates, so every column's result is bitwise-equal
        to solving it alone (the batched pipeline's acceptance test).

        Parameters
        ----------
        tol:
            Relative-residual convergence tolerance (vs ``||b||``, per
            column).
        maxiter:
            Cap on each column's total inner iterations.
        target_residual:
            Optional *absolute* residual-norm target overriding ``tol``
            (the full-scale validation mode converges GMRES-IR to the
            residual the double solver achieved).
        cancel:
            Optional one-argument callable polled per column
            (``cancel(j) -> bool``) at every restart boundary; ``True``
            stops column ``j`` there (its partial iterate and true
            boundary residual are still returned, with
            ``stats[j].cancelled`` set).  Restart-boundary granularity
            keeps the workspace and setup cache consistent — a cycle
            either runs whole or not at all.

        Columns **deflate**: one that converges, is cancelled, or
        exhausts ``maxiter`` leaves the panel at the restart boundary
        that recorded its final true residual, and later cycles run
        narrower.  The precision control plane is consulted once per
        boundary (on the worst active column); a rung change rebinds
        the whole panel — one schedule for all columns.  With a
        :class:`~repro.resilience.config.ResilienceConfig` the active
        columns are checkpointed at every boundary, and a fault
        detected inside the cycle (ABFT mismatch, non-finite residual)
        discards it and replays from there, within ``max_replays``.

        Returns ``(X, stats)``, one :class:`SolverStats` per column.
        """
        comm, timers = self.comm, self.timers
        n, m = self.problem.nlocal, self.restart

        B = np.asarray(B)
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must be (nlocal, N) = ({n}, *), got {B.shape}")
        ncol = B.shape[1]
        X = np.zeros((n, ncol), dtype=np.float64, order="F")
        if X0 is not None:
            X[:] = X0
        stats = [SolverStats() for _ in range(ncol)]
        self.plane.reset_observation()

        with timers.section("dot"):
            # Batched: N local dots, then ONE vector all-reduce — each
            # entry bitwise-equal to a per-column dnorm2 (same local
            # kernel, same fixed-rank-order reduction).
            rho0 = dnorm2_panel_from_local(comm, dot_multi(B, B))
        for j in range(ncol):
            stats[j].rho0 = rho0[j]
            if rho0[j] == 0.0:
                stats[j].converged = True
                stats[j].final_relres = 0.0
        if target_residual is not None:
            abs_tol = np.full(ncol, float(target_residual))
        else:
            abs_tol = tol * rho0
        active = [j for j in range(ncol) if rho0[j] != 0.0]

        # Resilience: checkpoint panel + per-column counters.  ``None``
        # (the default) skips both — the loop pays one ``is None`` test
        # per restart boundary.
        ckpt = None
        if self.resilience is not None:
            for s in stats:
                s.resilience = ResilienceStats()
            ckpt = self.ws.get_panel("gmres.ckpt", n, ncol, np.float64)
        # Columns stopped for good by an empty-cycle breakdown with no
        # rung left to promote (a breakdown with k > 0 does NOT halt a
        # column: it updates and keeps restarting).
        halted: set[int] = set()

        while active:
            if ckpt is not None:
                # Restart-boundary checkpoint: a fault detected inside
                # this cycle discards it and replays from here.  Reads
                # state only: a fault-free run is bitwise identical.
                for j in active:
                    np.copyto(ckpt[:, j], X[:, j])
            try:
                # --- outer (iterative-refinement) step: double precision ---
                Ract, rhos = self._outer_residuals(B, X, active)

                # --- convergence + deflation at the panel boundary ---
                cycle_cols: list[tuple[int, int]] = []
                worst: tuple[float, float] | None = None
                for i, j in enumerate(active):
                    st = stats[j]
                    st.final_relres = rhos[i] / rho0[j]
                    if rhos[i] <= abs_tol[j]:
                        st.converged = True
                        if st.resilience is not None and st.resilience.replays:
                            st.resilience.recovered = 1  # converged after replay
                    elif st.iterations >= maxiter or j in halted:
                        pass  # out of budget: that residual was its last
                    elif cancel is not None and cancel(j):
                        # Cancellation deflates the column at the
                        # boundary — the panel's normal narrowing path.
                        st.cancelled = True
                    else:
                        cycle_cols.append((i, j))
                        if worst is None or st.final_relres > worst[1]:
                            worst = (rhos[i], st.final_relres)
                # The rest have left the panel; a replay restores (and
                # the next boundary re-judges) the cycling columns only.
                active = [j for _, j in cycle_cols]
                if not active:
                    break
                cycling = [stats[j] for j in active]

                # --- precision control plane: one verdict per panel.
                # Stagnation promotes the binding rung (whole policy in
                # "policy" mode, the lowest-rung controllers otherwise);
                # sustained recovery demotes after the hysteresis window.
                events = self.plane.observe_restart(
                    worst[0],
                    worst[1],
                    max(s.iterations for s in cycling),
                    max(s.restarts for s in cycling),
                )
                if events:
                    self._apply_events(cycling, events)

                # Per-rung bindings (a promotion above replaces these).
                basis_dtype = self.policy.krylov_basis.dtype
                op_dtype = self.op_inner.dtype
                prec_dtype = self.M.precision.dtype
                floor = ATTAINABLE_FACTOR * self.eps_low
                slots = {j: self._slot(j) for j in active}

                # --- start a lockstep restart cycle (lines 11-13) ---
                klast = dict.fromkeys(active, 0)  # cycle length per column
                stop = {}  # implicit residual that ends the column's cycle
                for i, j in cycle_cols:
                    Q, qr = slots[j]
                    qr.start(rhos[i])
                    stop[j] = (
                        max(abs_tol[j], floor * rhos[i]) if abs_tol[j] > 0 else 0.0
                    )
                    np.divide(Ract[:, i], rhos[i], out=Q[:, 0])  # casts to basis dtype
                    stats[j].restarts += 1

                cols = active
                k = 0
                while k < m and cols:
                    cols = [j for j in cols if stats[j].iterations < maxiter]
                    if not cols:
                        break
                    nw = len(cols)
                    # --- inner Arnoldi step, low precision allowed.
                    # Each live column's basis vector is gathered into
                    # one panel: the V-cycle never aliases a basis. ---
                    Qk = self.ws.get_panel("panel.qk", n, nw, basis_dtype)
                    for idx, j in enumerate(cols):
                        np.copyto(Qk[:, idx], slots[j][0][:, k])
                    Zp = self.ws.get_panel("panel.z", n, nw, prec_dtype)
                    self.M.apply_panel(Qk, out=Zp)  # line 18: MG precond
                    if prec_dtype != op_dtype:
                        Zin = self.ws.get_panel("panel.zop", n, nw, op_dtype)
                        np.copyto(Zin, Zp)  # precision cast, no alloc
                    else:
                        Zin = Zp  # preconditioner output feeds SpMV directly
                    Wp = self.ws.get_panel("panel.w", n, nw, op_dtype)
                    with timers.section("spmv"):
                        self.op_inner.matvec_panel(Zin, out=Wp)  # line 19
                    if op_dtype != basis_dtype:
                        Wb = self.ws.get_panel("panel.wb", n, nw, basis_dtype)
                        np.copyto(Wb, Wp)
                    else:
                        Wb = Wp

                    # --- per-column orthogonalization + Givens update ---
                    still: list[int] = []
                    for idx, j in enumerate(cols):
                        Q, qr = slots[j]
                        w = Wb[:, idx]
                        with timers.section("ortho"):
                            if self._ortho_fused is not None:
                                # lines 20-27, the norm's local dot
                                # fused into the second projection.
                                h, local = self._ortho_fused(
                                    comm, Q, k + 1, w, ws=self.ws
                                )
                                beta = dnorm2_from_local(comm, local)
                            else:
                                h = self._orthogonalize(
                                    comm, Q, k + 1, w, ws=self.ws
                                )  # lines 20-27
                                beta = dnorm2(comm, w)
                        stats[j].iterations += 1
                        # (Near-)breakdown: the new direction depends
                        # numerically on the basis at this precision.
                        # The column leaves the cycle without it; the
                        # outer loop restarts from a fresh fp64 residual.
                        pre_ortho_norm = float(np.sqrt(h @ h + beta * beta))
                        if beta <= 4.0 * np.finfo(basis_dtype).eps * max(
                            pre_ortho_norm, 1e-300
                        ):
                            stats[j].breakdown = True
                            continue
                        np.divide(
                            w, np.asarray(beta, dtype=basis_dtype), out=Q[:, k + 1]
                        )  # lines 28-30
                        with timers.section("qr_host"):
                            # Staged in the preallocated buffer
                            # (add_column copies: the view is safe).
                            col = self._hcol[: k + 2]
                            col[: k + 1] = h
                            col[k + 1] = beta
                            rho_j = qr.add_column(col)  # lines 31-43
                        klast[j] = k + 1
                        stats[j].implicit_history.append(rho_j / rho0[j])
                        if rho_j > stop[j]:
                            still.append(j)
                        # else: implicit convergence (lines 15-17) or
                        # the cycle's attainable accuracy; the
                        # boundary's true residual has final say.
                    cols = still
                    k += 1
                self.plane.cycle_completed()

                # --- solution update (lines 45-47): per-column host QR
                # back-solves and basis GEMVs feed ONE panel V-cycle ---
                for j in active:
                    stats[j].cycle_lengths.append(klast[j])
                upd_cols = [j for j in active if klast[j]]
                if upd_cols:
                    nupd = len(upd_cols)
                    Up = self.ws.get_panel("panel.u", n, nupd, basis_dtype)
                    for idx, j in enumerate(upd_cols):
                        Q, qr = slots[j]
                        kj = klast[j]
                        with timers.section("qr_host"):
                            y = qr.solve(kj)  # t <- H^{-1} t
                        with timers.section("ortho"):
                            yc = self._ycast[:kj]
                            np.copyto(yc, y)  # basis-precision cast, no alloc
                            gemv(Q, kj, yc, out=Up[:, idx])  # r <- Q t
                    Zup = self.ws.get_panel("panel.zup", n, nupd, prec_dtype)
                    self.M.apply_panel(Up, out=Zup)  # M^{-1} r, one wide pass
                    with timers.section("waxpby"):
                        for idx, j in enumerate(upd_cols):
                            xj = X[:, j]
                            np.add(xj, Zup[:, idx], out=xj)  # fp64 mandated

                # Empty-cycle breakdown: this precision cannot extend
                # the column's basis at all.  With rungs left, one
                # panel-wide promotion retries it next boundary; on a
                # fixed plane it halts (further restarts would spin).
                stuck = [j for j in active if not klast[j] and stats[j].breakdown]
                if stuck:
                    events = self.plane.observe_breakdown(
                        worst[0],
                        worst[1],
                        max(stats[j].iterations for j in stuck),
                        max(stats[j].restarts for j in stuck),
                    )
                    if events:
                        self._apply_events(cycling, events)
                        for j in stuck:
                            stats[j].breakdown = False
                    else:
                        halted.update(stuck)
            except (FaultDetectedError, NumericalBreakdownError) as fault:
                if not self._replay_fault(fault, [stats[j] for j in active]):
                    raise
                for j in active:
                    np.copyto(X[:, j], ckpt[:, j])
        if self.setup_cache is not None:
            for st in stats:
                st.setup_cache_hits = self.setup_cache.hits
                st.setup_cache_misses = self.setup_cache.misses
        return X, stats


def gmres_solve(
    problem: Problem,
    comm: Communicator,
    b: np.ndarray | None = None,
    policy: PrecisionPolicy = DOUBLE_POLICY,
    mg_config: MGConfig | None = None,
    restart: int = 30,
    tol: float = 1e-9,
    maxiter: int = 300,
    ortho: str = "cgs2",
    escalation: "EscalationConfig | bool" = NO_ESCALATION,
    control: "ControlConfig | str | None" = None,
) -> tuple[np.ndarray, SolverStats]:
    """One-shot convenience wrapper around :class:`GMRESIRSolver`."""
    solver = GMRESIRSolver(
        problem,
        comm,
        policy=policy,
        mg_config=mg_config,
        restart=restart,
        ortho=ortho,
        escalation=escalation,
        control=control,
    )
    rhs = problem.b if b is None else b
    return solver.solve(rhs, tol=tol, maxiter=maxiter)

"""Benchmark configuration (paper Table 1, with scaled offline defaults).

The official parameters (320³ local mesh, 1800 s runs, 10,000-iteration
validation cap) target 64 GB GPUs; this reproduction defaults to sizes
a CPU-only Python process handles, while keeping every knob and its
official value visible via :meth:`BenchmarkConfig.table1`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fp.ladder import EscalationConfig, parse_ascending_ladder
from repro.fp.policy import DOUBLE_POLICY, PrecisionPolicy
from repro.fp.precision import Precision
from repro.mg.multigrid import MGConfig


def parse_process_grid(spec: str) -> tuple[int, int, int]:
    """Parse a ``"PXxPYxPZ"`` process-grid spec (e.g. ``"2x2x1"``)."""
    parts = spec.lower().split("x")
    if len(parts) != 3:
        raise ValueError(
            f"bad process grid {spec!r}; expected PXxPYxPZ (e.g. 2x2x1)"
        )
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(
            f"bad process grid {spec!r}; dims must be integers"
        ) from None
    if min(dims) < 1:
        raise ValueError(f"bad process grid {spec!r}; dims must be >= 1")
    return dims


#: Official parameter values from Table 1 of the paper.
OFFICIAL_TABLE1 = {
    "Restart length": 30,
    "Local mesh size": "320^3",
    "Specified running time (< 1024 nodes)": "1800 s",
    "Specified running time (>= 1024 nodes)": "900 s",
    "Max. GMRES iterations per solve": 300,
    "No. GCDs used for validation": 8,
    "Relative convergence tolerance for validation": 1e-9,
}


@dataclass(frozen=True)
class BenchmarkConfig:
    """All knobs of an HPG-MxP run.

    Attributes
    ----------
    local_nx/ny/nz:
        Local mesh per rank ("GCD").  The official size is 320³; the
        offline default 32³ preserves a 4-level hierarchy (divisible by
        8) at tractable cost.
    nranks:
        Ranks in the benchmark phase (the machine's GCD count).
    validation_ranks:
        Ranks for the standard validation phase (official: 8 = 1 node);
        clamped to ``nranks``.
    impl:
        ``"optimized"`` — ELL + multicolor GS + fused restriction — or
        ``"reference"`` — CSR + level-scheduled GS + unfused (the
        xsdk/reference code path of §3.1).
    validation_mode:
        ``"standard"`` (small fixed size) or ``"fullscale"`` (§3.3).
    num_solves:
        Repetitions of the timed solve (the paper fills a wall-clock
        budget; offline a fixed count is deterministic and cheap).
    """

    local_nx: int = 32
    local_ny: int | None = None
    local_nz: int | None = None
    nranks: int = 1
    gcds_per_node: int = 8
    validation_ranks: int | None = None
    restart: int = 30
    max_iters_per_solve: int = 60
    num_solves: int = 1
    #: Optional wall-clock budget (seconds) for each timed phase; when
    #: set, solves repeat until the budget is spent (the official
    #: benchmark's 1800 s / 900 s semantics) instead of ``num_solves``.
    time_budget_seconds: float | None = None
    validation_tol: float = 1e-9
    validation_max_iters: int = 2000
    validation_mode: str = "standard"
    impl: str = "optimized"
    low_precision: str = "fp32"
    #: Optional per-MG-level precision ladder for the mxp phase, e.g.
    #: ``"fp32:fp64"`` (finest level first; the last rung extends
    #: to the remaining coarse levels).  Overrides ``low_precision``;
    #: the first rung also sets the inner matrix/basis/ortho precision.
    precision_ladder: str | None = None
    #: Lets the rungs a ``precision_budget`` seeds climb on inner-stage
    #: stagnation; ``False`` pins them.  Every other configuration
    #: keeps the paper's fixed policy either way.
    escalation: bool = True
    #: Optional Carson-style roundoff budget (per-cycle relative
    #: allowance, e.g. ``1e-4``) for the *initial* rungs of every
    #: ingredient, grid transfers included — derived from the matrix's
    #: norm/condition estimates instead of the flat ladder string.
    precision_budget: float | None = None
    matrix_kind: str = "symmetric"
    ortho: str = "cgs2"
    nlevels: int = 4
    #: Sparse storage layout for the solver and hierarchy: any format
    #: registered with the kernel backend layer ("csr", "ell"), or
    #: "auto" to follow ``impl`` (optimized -> ell, reference -> csr).
    #: Resolved to a concrete format name at construction.
    matrix_format: str = "auto"
    #: Fused-motif kernels (``waxpby_dot`` / ``gemv_sub_dot``): the
    #: residual check's subtraction and dot share one vector pass, as
    #: do CGS2's second projection and norm.  Numerically identical to
    #: the unfused sequence; off for ablation (``--no-fusion``).
    fusion: bool = True
    #: Optional ``"PXxPYxPZ"`` process grid for the distributed phase:
    #: a weak-scaling-shaped run (same local box per rank) on the
    #: thread-SPMD runtime with the blocking halo pipeline, repeated
    #: until ``distributed_budget_seconds`` of wall clock is spent.
    distributed_grid: str | None = None
    distributed_budget_seconds: float = 1.0
    #: Right-hand-side panel width for the batched solve phase: with
    #: ``rhs_panel > 1`` the distributed phase additionally runs one
    #: ``solve_panel`` over an N-column RHS panel — matrix traffic
    #: amortized across the panel (the measured
    #: ``panel_matrix_reuse``), with the operator-keyed setup cache
    #: and a leased workspace arena serving the batched solver.
    rhs_panel: int = 1
    #: Solver-service load phase (``--service N``): N concurrent
    #: synthetic clients drive the asyncio :class:`SolverService` for
    #: ``service_rounds`` rounds against one operator.  Each round's
    #: burst coalesces into one ``solve_panel`` batch, so the phase's
    #: headline metrics (coalesce width, setup-cache hit rate, matrix
    #: reuse per request) are deterministic and CI-gated.  0 disables
    #: the phase.
    service_clients: int = 0
    service_rounds: int = 2
    #: Batching window (seconds) for the service phase's coalescer; a
    #: round's burst is already queued when the batcher wakes, so the
    #: window closes early and this is an upper bound, not a sleep.
    service_batch_window: float = 0.25
    #: Workspace arenas in the service phase's bounded pool.
    service_max_arenas: int = 2
    #: Fault-injection campaign spec (``--fault-inject``), e.g.
    #: ``"spmv:bitflip:2;service:transient:1;seed=7"`` — see
    #: :mod:`repro.resilience.faults` for the grammar.  When set, the
    #: benchmark runs an extra deterministic resilience phase (clean
    #: bitwise parity + injected-fault detection/recovery); the other
    #: phases are untouched.  ``None`` (default) skips the phase.
    fault_inject: str | None = None

    @staticmethod
    def _auto_format(impl: str) -> str:
        return "ell" if impl == "optimized" else "csr"

    def __post_init__(self) -> None:
        if self.impl not in ("optimized", "reference"):
            raise ValueError(f"unknown impl {self.impl!r}")
        if self.validation_mode not in ("standard", "fullscale"):
            raise ValueError(f"unknown validation mode {self.validation_mode!r}")
        if self.matrix_format == "auto":
            object.__setattr__(
                self, "matrix_format", self._auto_format(self.impl)
            )
        else:
            from repro.sparse.formats import known_formats

            if self.matrix_format not in known_formats():
                raise ValueError(
                    f"unknown matrix format {self.matrix_format!r}; "
                    f"registered formats: {known_formats()} (or 'auto')"
                )
        nx, ny, nz = self.local_dims
        div = 2 ** (self.nlevels - 1)
        if any(d % div or d < div * 2 for d in (nx, ny, nz)):
            raise ValueError(
                f"local dims {self.local_dims} must be multiples of {div} "
                f"(and at least {2 * div}) for a {self.nlevels}-level hierarchy"
            )
        if self.precision_ladder is not None:
            # Fail fast on bad specs; ladders must climb strictly
            # (duplicate/descending rungs are rejected by name).
            parse_ascending_ladder(self.precision_ladder)
        if self.precision_budget is not None and self.precision_budget <= 0:
            raise ValueError("precision_budget must be positive")
        if self.distributed_grid is not None:
            parse_process_grid(self.distributed_grid)  # fail fast
            if self.distributed_budget_seconds <= 0:
                raise ValueError("distributed_budget_seconds must be positive")
        if self.rhs_panel < 1:
            raise ValueError(
                f"rhs_panel must be >= 1, got {self.rhs_panel}"
            )
        if self.service_clients < 0:
            raise ValueError(
                f"service_clients must be >= 0, got {self.service_clients}"
            )
        if self.fault_inject is not None:
            from repro.resilience.faults import parse_fault_spec

            plan = parse_fault_spec(self.fault_inject)  # fail fast
            if plan.empty:
                raise ValueError(
                    f"fault-inject spec {self.fault_inject!r} schedules "
                    f"no faults (use at least one site:mode clause)"
                )
        if self.service_clients:
            if self.service_rounds < 1:
                raise ValueError(
                    f"service_rounds must be >= 1, got {self.service_rounds}"
                )
            if self.service_batch_window <= 0:
                raise ValueError("service_batch_window must be positive")
            if self.service_max_arenas < 1:
                raise ValueError(
                    f"service_max_arenas must be >= 1, "
                    f"got {self.service_max_arenas}"
                )

    # ------------------------------------------------------------------
    @property
    def local_dims(self) -> tuple[int, int, int]:
        ny = self.local_ny if self.local_ny is not None else self.local_nx
        nz = self.local_nz if self.local_nz is not None else self.local_nx
        return (self.local_nx, ny, nz)

    @property
    def effective_validation_ranks(self) -> int:
        v = (
            self.validation_ranks
            if self.validation_ranks is not None
            else self.gcds_per_node
        )
        return min(v, self.nranks)

    @property
    def nodes(self) -> float:
        """Node count implied by nranks (GCDs) and gcds_per_node."""
        return self.nranks / self.gcds_per_node

    @property
    def distributed_shape(self) -> tuple[int, int, int] | None:
        """Parsed distributed-phase process grid, or None."""
        if self.distributed_grid is None:
            return None
        return parse_process_grid(self.distributed_grid)

    @property
    def distributed_ranks(self) -> int:
        shape = self.distributed_shape
        return shape[0] * shape[1] * shape[2] if shape else 0

    def mg_config(self) -> MGConfig:
        """Multigrid configuration implied by the impl choice."""
        if self.impl == "optimized":
            return MGConfig(
                nlevels=self.nlevels, smoother="multicolor", fused_restrict=True
            )
        return MGConfig(
            nlevels=self.nlevels, smoother="levelsched", fused_restrict=False
        )


    def mixed_policy(self) -> PrecisionPolicy:
        """The mxp phase's precision policy.

        A ``precision_ladder`` builds the per-level ladder policy;
        otherwise the classic single-low-precision configuration from
        ``low_precision``.
        """
        if self.precision_ladder is not None:
            return PrecisionPolicy.from_ladder(self.precision_ladder)
        return DOUBLE_POLICY.with_low(Precision.from_any(self.low_precision))

    def double_policy(self) -> PrecisionPolicy:
        return DOUBLE_POLICY

    def escalation_config(self) -> EscalationConfig:
        """The escalator settings handed to the solvers.

        Off — the paper's fixed policy — except under a
        ``precision_budget``, where it is on unless ``escalation=False``
        pins it: the chooser may seed rungs below the configured ladder
        (e.g. fp32 coarse levels under an fp64 ladder), and a frozen
        escalator could never climb back out of them.
        """
        return EscalationConfig(
            enabled=self.precision_budget is not None and self.escalation
        )

    def with_updates(self, **kwargs) -> "BenchmarkConfig":
        """Functional update helper.

        An auto-derived ``matrix_format`` follows a bare ``impl``
        update (the historical behaviour); a format that differs from
        the current impl's auto choice was evidently pinned and stays
        put.  This is value-based, so it survives arbitrary chains of
        unrelated updates.
        """
        if (
            "impl" in kwargs
            and "matrix_format" not in kwargs
            and self.matrix_format == self._auto_format(self.impl)
        ):
            kwargs["matrix_format"] = "auto"
        return replace(self, **kwargs)

    def table1(self) -> dict[str, tuple[object, object]]:
        """(official value, this run's value) per Table 1 parameter."""
        nx, ny, nz = self.local_dims
        return {
            "Restart length": (OFFICIAL_TABLE1["Restart length"], self.restart),
            "Local mesh size": (
                OFFICIAL_TABLE1["Local mesh size"],
                f"{nx}x{ny}x{nz}",
            ),
            "Specified running time (< 1024 nodes)": (
                OFFICIAL_TABLE1["Specified running time (< 1024 nodes)"],
                f"{self.num_solves} solve(s)",
            ),
            "Specified running time (>= 1024 nodes)": (
                OFFICIAL_TABLE1["Specified running time (>= 1024 nodes)"],
                f"{self.num_solves} solve(s)",
            ),
            "Max. GMRES iterations per solve": (
                OFFICIAL_TABLE1["Max. GMRES iterations per solve"],
                self.max_iters_per_solve,
            ),
            "No. GCDs used for validation": (
                OFFICIAL_TABLE1["No. GCDs used for validation"],
                self.effective_validation_ranks,
            ),
            "Relative convergence tolerance for validation": (
                OFFICIAL_TABLE1["Relative convergence tolerance for validation"],
                self.validation_tol,
            ),
        }

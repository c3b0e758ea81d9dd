"""Solve-request/response types and service errors.

A :class:`SolveRequest` carries everything one client wants from one
solve: the operator (by content fingerprint — the client registered it
up front), the right-hand side, and the *per-request* solver knobs the
precision control plane exposes — the precision ladder, an optional
Carson-style roundoff budget, the tolerance/iteration caps, and a
wall-clock timeout.

Requests are **coalesced** by :class:`~repro.service.SolverService`:
requests whose :meth:`SolveRequest.key` compare equal may share one
``solve_panel`` call (same operator, same precision schedule, same
convergence contract — the panel's lockstep cycles then reproduce each
column's solo arithmetic bitwise).  Anything that would change the
solver's arithmetic lives in the key; anything that doesn't (the RHS
values, the timeout) stays out of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.solvers.gmres_ir import SolverStats


class ServiceError(RuntimeError):
    """Base class for solver-service errors."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the request; retry after a backoff.

    Raised (set on the request's future) when the pending queue is
    full or every workspace arena is leased out.  ``retry_after`` is
    the service's suggested backoff in seconds — the bounded-queue
    alternative to buffering unbounded work.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SolveTimeoutError(ServiceError):
    """The request's wall-clock deadline expired before convergence.

    The in-flight column is cancelled at the next restart boundary
    (its lease and cache entries stay consistent); the partial result
    is discarded.
    """

    def __init__(self, message: str, timeout: float) -> None:
        super().__init__(message)
        self.timeout = timeout


class ServiceClosedError(ServiceError):
    """The service stopped before the request could run."""


@dataclass(frozen=True)
class SolveKey:
    """Coalescing compatibility key: requests sharing one panel solve.

    Two requests may ride the same ``solve_panel`` call iff their keys
    are equal — the key pins every knob that shapes the solver's
    arithmetic (operator, precision schedule, convergence contract),
    so coalescing can never change a request's bitwise result.
    """

    operator: str
    ladder: str | None
    budget: float | None
    tol: float
    maxiter: int
    target_residual: float | None


@dataclass
class SolveRequest:
    """One client's solve: operator fingerprint + RHS + per-request knobs.

    Attributes
    ----------
    operator:
        Content fingerprint returned by
        :meth:`~repro.service.SolverService.register_operator`.
    b:
        Right-hand side, shape ``(nlocal,)`` float64.
    ladder:
        Optional precision-ladder spec (e.g. ``"fp32:fp64"``) for this
        request's inner stage; ``None`` solves in uniform double.
    budget:
        Optional Carson-style per-cycle roundoff budget: the initial
        per-ingredient rungs derive from the matrix's norm/condition
        estimates (per-ingredient control), not the flat ladder.
    timeout:
        Optional wall-clock deadline in seconds, measured from
        submission.  Expiry fails the request with
        :class:`SolveTimeoutError` and cancels its in-flight column at
        the next restart boundary.
    """

    operator: str
    b: np.ndarray
    ladder: str | None = None
    budget: float | None = None
    tol: float = 1e-9
    maxiter: int = 300
    target_residual: float | None = None
    timeout: float | None = None

    def key(self) -> SolveKey:
        """The coalescing compatibility key (see :class:`SolveKey`)."""
        return SolveKey(
            operator=self.operator,
            ladder=self.ladder,
            budget=self.budget,
            tol=float(self.tol),
            maxiter=int(self.maxiter),
            target_residual=(
                float(self.target_residual)
                if self.target_residual is not None
                else None
            ),
        )


@dataclass
class SolveResponse:
    """One completed request: the solution plus its service telemetry."""

    x: np.ndarray
    stats: SolverStats
    #: Seconds the request sat queued before its batch launched.
    queue_wait_seconds: float
    #: Wall-clock seconds of the batch's panel solve.
    solve_seconds: float
    #: Number of requests coalesced into this request's panel.
    coalesce_width: int
    #: Operator matrix passes / RHS columns charged by the batch (the
    #: amortization pair: columns / passes = coalesce width when every
    #: pass served the whole panel).
    matrix_passes: int = 0
    rhs_columns: int = 0
    #: Setup-cache counters at batch construction (service-cumulative).
    setup_cache_hits: int = 0
    setup_cache_misses: int = 0

    @property
    def matrix_reuse(self) -> float:
        """RHS columns served per matrix pass in this request's batch."""
        return (
            self.rhs_columns / self.matrix_passes if self.matrix_passes else 0.0
        )


@dataclass
class ServiceMetrics:
    """Service-lifetime counters (one instance per service)."""

    accepted: int = 0
    rejected: int = 0
    completed: int = 0
    cancelled: int = 0
    timed_out: int = 0
    batches: int = 0
    coalesce_width_sum: int = 0
    max_coalesce_width: int = 0
    queue_wait_seconds: float = 0.0
    solve_seconds: float = 0.0
    matrix_passes: int = 0
    rhs_columns: int = 0
    setup_cache_hits: int = 0
    setup_cache_misses: int = 0
    pool_acquires: int = 0
    pool_reuses: int = 0
    pool_exhaustions: int = 0
    pool_peak_leased: int = 0
    #: Injected transient worker faults observed by batches.
    transient_faults: int = 0
    #: Batch re-runs after a first fault.
    fault_retries: int = 0
    #: Batch re-runs after a second fault (the third and last attempt).
    degradations: int = 0
    #: Client-side backoff retries taken by ``solve_with_retry``.
    retries: int = 0
    #: ``solve_with_retry`` calls that exhausted their attempt budget.
    retry_giveups: int = 0
    #: Per-batch coalesce widths in completion order (diagnostics).
    widths: list[int] = field(default_factory=list)

    @property
    def coalesce_width(self) -> float:
        """Mean requests per panel solve (1.0 = no coalescing)."""
        return self.coalesce_width_sum / self.batches if self.batches else 0.0

    @property
    def panel_matrix_reuse(self) -> float:
        """RHS columns served per operator matrix pass, service-wide."""
        return (
            self.rhs_columns / self.matrix_passes if self.matrix_passes else 0.0
        )

    @property
    def setup_cache_hit_rate(self) -> float:
        """Cache hits / lookups across every batch's solver construction."""
        total = self.setup_cache_hits + self.setup_cache_misses
        return self.setup_cache_hits / total if total else 0.0

    @property
    def mean_queue_wait_seconds(self) -> float:
        return (
            self.queue_wait_seconds / self.completed if self.completed else 0.0
        )

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "timed_out": self.timed_out,
            "batches": self.batches,
            "coalesce_width": self.coalesce_width,
            "max_coalesce_width": self.max_coalesce_width,
            "panel_matrix_reuse": self.panel_matrix_reuse,
            "setup_cache_hit_rate": self.setup_cache_hit_rate,
            "setup_cache_hits": self.setup_cache_hits,
            "setup_cache_misses": self.setup_cache_misses,
            "mean_queue_wait_seconds": self.mean_queue_wait_seconds,
            "solve_seconds": self.solve_seconds,
            "pool_acquires": self.pool_acquires,
            "pool_reuses": self.pool_reuses,
            "pool_exhaustions": self.pool_exhaustions,
            "pool_peak_leased": self.pool_peak_leased,
            "transient_faults": self.transient_faults,
            "fault_retries": self.fault_retries,
            "degradations": self.degradations,
            "retries": self.retries,
            "retry_giveups": self.retry_giveups,
        }

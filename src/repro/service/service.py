"""Solver-as-a-service: the asyncio front end over the panel pipeline.

:class:`SolverService` turns the PR 6/7 seams into a request-driven
system:

- **Coalescing** — requests arriving within one batching window whose
  :class:`~repro.service.requests.SolveKey` compare equal share a
  single :meth:`~repro.solvers.gmres_ir.GMRESIRSolver.solve_panel`
  call: one matrix stream serves every coalesced RHS column, and each
  column's arithmetic is the per-column solo sequence (the PR 6
  bitwise contract), so batching is invisible to the client's numbers.
- **Admission control** — pending requests queue up to ``max_pending``
  and every batch leases its arena from a bounded
  :class:`~repro.backends.workspace.WorkspacePool`; a full queue or an
  exhausted pool *rejects* with
  :class:`~repro.service.requests.ServiceOverloadedError` carrying a
  ``retry_after`` hint, instead of buffering unbounded work.
- **Timeouts and cancellation** — each request may carry a wall-clock
  deadline; expiry (or an explicit caller cancel) deflates the
  in-flight column at the solver's next restart boundary via the
  ``cancel`` checkpoint, the other columns proceed untouched, and the
  batch's arena lease is released on every exit path (the pool can
  never leak a lease to a dead request).

The CPU-bound panel solves run on worker threads
(``asyncio.to_thread``); the shared :class:`SetupCache` is
thread-safe, and batches against the *same* operator serialize on a
per-fingerprint lock — the cached multigrid hierarchy carries one warm
workspace, so two concurrent applies of the same hierarchy would race.
Batches against different operators overlap freely.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends.workspace import WorkspacePool
from repro.fp.policy import DOUBLE_POLICY, PrecisionPolicy
from repro.mg.multigrid import MGConfig
from repro.parallel.comm import SerialComm
from repro.resilience.config import ResilienceConfig
from repro.resilience.errors import (
    FaultDetectedError,
    NumericalBreakdownError,
    TransientFaultError,
)
from repro.resilience.faults import FaultInjector, maybe_raise_transient
from repro.service.requests import (
    ServiceClosedError,
    ServiceMetrics,
    ServiceOverloadedError,
    SolveKey,
    SolveRequest,
    SolveResponse,
    SolveTimeoutError,
)
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.solvers.setup_cache import SetupCache, operator_fingerprint
from repro.stencil.poisson27 import Problem

#: Errors a batch treats as fault-recoverable: injected transients,
#: ABFT detections and numerical breakdowns that escaped the solver's
#: own replay budget.
_FAULT_ERRORS = (
    TransientFaultError,
    FaultDetectedError,
    NumericalBreakdownError,
)


@dataclass
class _Pending:
    """One submitted request's in-service state."""

    request: SolveRequest
    future: asyncio.Future
    submitted: float
    #: Absolute monotonic deadline, or None (no timeout).
    deadline: float | None = None
    #: Set from the event loop (caller cancel / watchdog); read by the
    #: solve thread's cancel checkpoint.  A plain attribute is enough:
    #: writes are atomic under the GIL and the checkpoint re-polls
    #: every restart boundary.
    cancelled: bool = False
    #: The solve thread observed the deadline before the watchdog ran.
    timed_out: bool = False
    #: Monotonic time the batcher popped the request from the queue.
    batch_start: float = 0.0
    timer: asyncio.TimerHandle | None = field(default=None, repr=False)


class SolverService:
    """Asyncio solve front end with coalescing and admission control.

    Parameters
    ----------
    batch_window:
        Seconds the batcher waits after the first queued request for
        compatible companions before launching the panel.  The window
        closes early once ``max_panel`` requests are in hand and the
        queue is drained.
    max_panel:
        Widest panel one batch may solve; a wider compatible group
        splits into consecutive batches.
    max_pending:
        Bound on queued (not yet launched) requests; beyond it
        ``submit`` rejects with retry-after.
    pool / max_arenas:
        The workspace-arena pool batches lease from (a fresh
        ``WorkspacePool(name="service", max_arenas=max_arenas)`` when
        no pool is passed).  Exhaustion rejects the batch's requests.
    retry_after:
        Backoff hint (seconds) carried by overload rejections.
    setup_cache:
        Shared operator-keyed setup cache (fresh when omitted); every
        batch solver constructs through it, so repeated traffic
        against one operator pays setup once.
    mg_config / restart / ortho / matrix_format:
        Service-wide solver construction knobs (per-request knobs ride
        the :class:`SolveRequest`).
    """

    def __init__(
        self,
        batch_window: float = 0.01,
        max_panel: int = 16,
        max_pending: int = 64,
        pool: WorkspacePool | None = None,
        max_arenas: int = 2,
        retry_after: float = 0.05,
        setup_cache: SetupCache | None = None,
        mg_config: MGConfig | None = None,
        restart: int = 30,
        ortho: str = "cgs2",
        matrix_format: str = "ell",
        resilience: ResilienceConfig | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        if batch_window <= 0:
            raise ValueError("batch_window must be positive")
        if max_panel < 1:
            raise ValueError("max_panel must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.batch_window = batch_window
        self.max_panel = max_panel
        self.max_pending = max_pending
        self.retry_after = retry_after
        self.pool = pool or WorkspacePool("service", max_arenas=max_arenas)
        self.setup_cache = setup_cache or SetupCache()
        self.mg_config = mg_config or MGConfig()
        self.restart = restart
        self.ortho = ortho
        self.matrix_format = matrix_format
        # Resilience: batch solvers run with this config (ABFT +
        # checkpoint replay); the injector drives the service's
        # transient-fault site (kernel/halo sites are installed by the
        # campaign, not here).  Both default off with zero overhead.
        self.resilience = resilience
        self.injector = injector
        self.metrics = ServiceMetrics()
        self._problems: dict[str, Problem] = {}
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue()
        self._depth = 0  # requests queued, or batched behind their operator
        self._op_locks: dict[str, asyncio.Lock] = {}
        #: Admitted batches per operator, running or queued on its lock.
        self._op_batches: dict[str, int] = {}
        self._batcher: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        self._closed = False

    # ------------------------------------------------------------------
    def register_operator(self, problem: Problem) -> str:
        """Register a problem; returns the fingerprint requests cite.

        Content-addressed: registering an identical operator twice
        returns the same fingerprint (and the second registration is a
        no-op), so its requests coalesce and its setup products share
        cache entries.
        """
        fp = operator_fingerprint(problem.A)
        self._problems.setdefault(fp, problem)
        return fp

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the batching loop (idempotent)."""
        if self._batcher is None or self._batcher.done():
            self._closed = False
            self._batcher = asyncio.create_task(self._batch_loop())

    async def stop(self) -> None:
        """Stop accepting work, fail queued requests, drain in-flight.

        In-flight batches run to completion (their clients get
        results); queued-but-unlaunched requests fail with
        :class:`ServiceClosedError`.
        """
        self._closed = True
        if self._batcher is not None:
            self._batcher.cancel()
            await asyncio.gather(self._batcher, return_exceptions=True)
            self._batcher = None
        while not self._queue.empty():
            p = self._queue.get_nowait()
            self._depth -= 1
            if not p.future.done():
                p.future.set_exception(
                    ServiceClosedError("solver service stopped")
                )
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def __aenter__(self) -> "SolverService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> asyncio.Future:
        """Enqueue a request; returns the future its response lands on.

        Raises :class:`ServiceOverloadedError` immediately when the
        pending queue is full (admission control — the caller backs
        off ``retry_after`` seconds rather than the service buffering
        unboundedly), :class:`ServiceClosedError` when stopped, and
        ``KeyError``/``ValueError`` on an unknown operator or a
        mis-shaped RHS.
        """
        if self._closed or self._batcher is None:
            raise ServiceClosedError(
                "solver service is not running (use 'async with service:' "
                "or await service.start())"
            )
        problem = self._problems.get(request.operator)
        if problem is None:
            raise KeyError(
                f"unknown operator {request.operator!r}; register it with "
                f"register_operator() first"
            )
        b = np.asarray(request.b)
        if b.shape != (problem.nlocal,):
            raise ValueError(
                f"rhs shape {b.shape} does not match operator "
                f"({problem.nlocal},)"
            )
        if self._depth >= self.max_pending:
            self.metrics.rejected += 1
            raise ServiceOverloadedError(
                f"solver service overloaded: {self._depth} requests "
                f"pending (max_pending={self.max_pending}); retry after "
                f"{self.retry_after:.3g}s",
                retry_after=self.retry_after,
            )
        loop = asyncio.get_running_loop()
        pending = _Pending(
            request=request,
            future=loop.create_future(),
            submitted=time.monotonic(),
        )
        if request.timeout is not None:
            pending.deadline = pending.submitted + request.timeout
            pending.timer = loop.call_later(
                request.timeout, self._expire, pending
            )
        pending.future.add_done_callback(
            lambda fut, p=pending: self._on_done(p, fut)
        )
        self._depth += 1
        self.metrics.accepted += 1
        self._queue.put_nowait(pending)
        return pending.future

    async def solve(self, request: SolveRequest) -> SolveResponse:
        """Submit and await one request (cancellation-transparent).

        Cancelling the awaiting task cancels the request: a queued
        request never launches, an in-flight one deflates from its
        panel at the next restart boundary.
        """
        future = self.submit(request)
        try:
            return await future
        except asyncio.CancelledError:
            future.cancel()
            raise

    async def solve_with_retry(
        self,
        request: SolveRequest,
        max_attempts: int = 5,
        base_delay: float = 0.01,
        max_delay: float = 1.0,
        rng: "random.Random | None" = None,
    ) -> SolveResponse:
        """Submit with jittered exponential backoff on overload.

        Admission-control rejections
        (:class:`~repro.service.requests.ServiceOverloadedError`) back
        off and resubmit: the wait doubles each attempt from
        ``base_delay`` up to ``max_delay``, carries full jitter (a
        uniform factor in ``[0.5, 1)`` so synchronized clients
        desynchronize), and never undercuts the service's own
        ``retry_after`` hint.  After ``max_attempts`` submissions the
        final rejection propagates.  Pass a seeded ``rng`` for
        deterministic backoff schedules in tests.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        rng = rng if rng is not None else random.Random()
        attempt = 0
        while True:
            try:
                return await self.solve(request)
            except ServiceOverloadedError as exc:
                attempt += 1
                if attempt >= max_attempts:
                    self.metrics.retry_giveups += 1
                    raise
                self.metrics.retries += 1
                backoff = min(max_delay, base_delay * 2 ** (attempt - 1))
                backoff *= 0.5 + rng.random() / 2
                await asyncio.sleep(max(exc.retry_after, backoff))

    # ------------------------------------------------------------------
    def _expire(self, pending: _Pending) -> None:
        """Watchdog: the request's wall-clock deadline passed."""
        if pending.future.done():
            return
        pending.cancelled = True  # solve thread deflates the column
        pending.timed_out = True
        self.metrics.timed_out += 1
        pending.future.set_exception(
            SolveTimeoutError(
                f"solve timed out after {pending.request.timeout:.3g}s "
                f"(cancelled at the next restart boundary)",
                timeout=pending.request.timeout,
            )
        )

    def _on_done(self, pending: _Pending, future: asyncio.Future) -> None:
        """Future resolved (result, error, or caller cancel)."""
        if pending.timer is not None:
            pending.timer.cancel()
        if future.cancelled():
            pending.cancelled = True  # deflate if in flight
            self.metrics.cancelled += 1

    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            self._depth -= 1
            group = [first]
            try:
                window_end = loop.time() + self.batch_window
                while True:
                    # Window closed early: a full panel is in hand and
                    # no request is waiting to join it.
                    if len(group) >= self.max_panel and self._queue.empty():
                        break
                    remaining = window_end - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(
                            self._queue.get(), timeout=remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    self._depth -= 1
                    group.append(nxt)
            except asyncio.CancelledError:
                # stop() cancelled the batcher mid-window: requests
                # already popped from the queue would otherwise strand
                # unresolved (stop() only drains the queue itself).
                for p in group:
                    if not p.future.done():
                        p.future.set_exception(
                            ServiceClosedError("solver service stopped")
                        )
                raise
            now = time.monotonic()
            for p in group:
                p.batch_start = now
            # Group by compatibility key (arrival order preserved) and
            # chunk each group to the panel-width cap.
            batches: dict[SolveKey, list[_Pending]] = {}
            for p in group:
                batches.setdefault(p.request.key(), []).append(p)
            for key, members in batches.items():
                for i in range(0, len(members), self.max_panel):
                    chunk = members[i : i + self.max_panel]
                    task = asyncio.create_task(self._run_batch(key, chunk))
                    self._tasks.add(task)
                    task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, key: SolveKey, chunk: list[_Pending]) -> None:
        live = [p for p in chunk if not p.future.done()]
        if not live:
            return
        # One operator fingerprint = one cached MG hierarchy (with one
        # warm internal workspace): same-operator batches serialize;
        # different operators overlap.  Admission control, stage 2: no
        # arena, no batch — rejected requests get the same retry-after
        # contract as a full queue.  A batch whose operator has one
        # running or queued waits behind it without a lease (held, it
        # would refuse other operators' batches) and leases on its
        # turn; its requests count as pending until then.
        lock = self._op_locks.setdefault(key.operator, asyncio.Lock())
        ahead = self._op_batches.get(key.operator, 0)  # running or queued
        arena = None
        if not ahead:
            arena = self.pool.try_acquire()
            if arena is None:
                self._refuse(live)
                return
        self._op_batches[key.operator] = ahead + 1
        waiting = 0 if arena is not None else len(live)
        self._depth += waiting
        try:
            async with lock:
                self._depth -= waiting
                waiting = 0
                if arena is None:
                    arena = self.pool.try_acquire()
                    if arena is None:
                        self._refuse(live)
                        return
                t0 = time.monotonic()
                try:
                    outcome = await self._attempt_batch(key, live, arena)
                except Exception as exc:  # construction/solve failure
                    for p in live:
                        if not p.future.done():
                            p.future.set_exception(exc)
                    return
                solve_seconds = time.monotonic() - t0
        finally:
            # Every exit path — result, error, timeout, cancellation —
            # returns the lease; the pool cannot leak arenas.
            self._op_batches[key.operator] -= 1
            self._depth -= waiting
            if arena is not None:
                self.pool.release(arena)
        self._deliver(live, outcome, solve_seconds)

    def _refuse(self, live: list[_Pending]) -> None:
        exc = ServiceOverloadedError(
            f"solver service overloaded: workspace pool "
            f"{self.pool.name!r} has all {self.pool.max_arenas} "
            f"arenas leased; retry after {self.retry_after:.3g}s",
            retry_after=self.retry_after,
        )
        for p in live:
            if not p.future.done():
                self.metrics.rejected += 1
                p.future.set_exception(exc)

    async def _attempt_batch(self, key: SolveKey, live: list[_Pending], arena):
        """One batch with up to three attempts.

        A fault error — an injected transient, an ABFT detection or a
        numerical breakdown the solver's own replay budget could not
        absorb — earns a retry (counted in ``fault_retries``); a second
        fault earns the last attempt (counted in ``degradations``).
        Every attempt builds the same serial solver, so
        a retried batch answers bitwise what a clean one would.  A
        third failure propagates to every member's future.
        """
        try:
            return await asyncio.to_thread(self._solve_batch, key, live, arena)
        except _FAULT_ERRORS as exc:
            self._note_fault(exc)
            self.metrics.fault_retries += 1
        try:
            return await asyncio.to_thread(self._solve_batch, key, live, arena)
        except _FAULT_ERRORS as exc:
            self._note_fault(exc)
            self.metrics.degradations += 1
        return await asyncio.to_thread(self._solve_batch, key, live, arena)

    def _note_fault(self, exc: Exception) -> None:
        if isinstance(exc, TransientFaultError):
            self.metrics.transient_faults += 1

    # ------------------------------------------------------------------
    def _solve_batch(self, key: SolveKey, live: list[_Pending], arena):
        """Worker thread: one coalesced panel solve."""
        # Service fault site: an injected transient raises here, before
        # any solver state is built (the retry path re-runs cleanly).
        maybe_raise_transient(self.injector)
        problem = self._problems[key.operator]
        policy = (
            PrecisionPolicy.from_ladder(key.ladder)
            if key.ladder
            else DOUBLE_POLICY
        )
        # A budget's seeded rungs may climb; a bare ladder stays fixed.
        solver = GMRESIRSolver(
            problem,
            SerialComm(),
            policy=policy,
            mg_config=self.mg_config,
            restart=self.restart,
            ortho=self.ortho,
            matrix_format=self.matrix_format,
            escalation=key.budget is not None,
            budget=key.budget,
            setup_cache=self.setup_cache,
            workspace=arena,
            resilience=self.resilience,
        )
        n = problem.nlocal
        B = np.empty((n, len(live)), dtype=np.float64, order="F")
        for i, p in enumerate(live):
            np.copyto(B[:, i], p.request.b)

        ops = [solver.op64]
        if solver.op_inner is not solver.op64:
            ops.append(solver.op_inner)
        passes0 = sum(op.matrix_passes for op in ops)
        columns0 = sum(op.rhs_columns for op in ops)

        def cancel(j: int) -> bool:
            p = live[j]
            if p.cancelled:
                return True
            if p.deadline is not None and time.monotonic() >= p.deadline:
                # The thread noticed before the loop's watchdog fired;
                # the flag makes the verdict sticky either way.
                p.cancelled = True
                p.timed_out = True
                return True
            return False

        X, stats = solver.solve_panel(
            B,
            tol=key.tol,
            maxiter=key.maxiter,
            target_residual=key.target_residual,
            cancel=cancel,
        )
        # Rung changes may swap op_inner mid-solve; recollect.
        ops = [solver.op64]
        if solver.op_inner is not solver.op64:
            ops.append(solver.op_inner)
        passes = sum(op.matrix_passes for op in ops) - passes0
        columns = sum(op.rhs_columns for op in ops) - columns0
        return X, stats, passes, columns

    def _deliver(self, live, outcome, solve_seconds: float) -> None:
        """Event loop: resolve futures and fold in batch telemetry."""
        X, stats, passes, columns = outcome
        width = len(live)
        m = self.metrics
        m.batches += 1
        m.widths.append(width)
        m.coalesce_width_sum += width
        m.max_coalesce_width = max(m.max_coalesce_width, width)
        m.matrix_passes += passes
        m.rhs_columns += columns
        m.solve_seconds += solve_seconds
        m.setup_cache_hits = self.setup_cache.hits
        m.setup_cache_misses = self.setup_cache.misses
        m.pool_acquires = self.pool.acquires
        m.pool_reuses = self.pool.reuses
        m.pool_exhaustions = self.pool.exhaustions
        m.pool_peak_leased = self.pool.peak_leased
        for i, p in enumerate(live):
            if p.future.done():
                continue  # watchdog timeout or caller cancel already won
            s = stats[i]
            if s.cancelled:
                # The thread-side deadline check deflated the column
                # before the watchdog fired on the loop.
                m.timed_out += 1
                p.future.set_exception(
                    SolveTimeoutError(
                        f"solve timed out after "
                        f"{p.request.timeout:.3g}s (column cancelled at a "
                        f"restart boundary)",
                        timeout=p.request.timeout or 0.0,
                    )
                )
                continue
            m.completed += 1
            wait = p.batch_start - p.submitted
            m.queue_wait_seconds += wait
            p.future.set_result(
                SolveResponse(
                    x=X[:, i].copy(),
                    stats=s,
                    queue_wait_seconds=wait,
                    solve_seconds=solve_seconds,
                    coalesce_width=width,
                    matrix_passes=passes,
                    rhs_columns=columns,
                    setup_cache_hits=self.setup_cache.hits,
                    setup_cache_misses=self.setup_cache.misses,
                )
            )

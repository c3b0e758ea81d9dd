"""The CI-gated service phase: deterministic load on the solver service.

``run_service_phase`` drives :class:`~repro.service.SolverService` with
``service_clients`` concurrent synthetic clients for ``service_rounds``
rounds against one operator.  Each round's clients submit together, so
the batcher coalesces them into one ``solve_panel`` call; every solve
runs a fixed iteration budget (``tol=0``) so the phase's headline
metrics are **deterministic** and the CI regression gate can hold them
tight:

- ``coalesce_width`` — requests per panel solve; exactly the client
  count when every round coalesces fully.
- ``setup_cache_hit_rate`` — round 1 builds the solver's setup
  products (misses), later rounds are served from the shared cache, so
  the rate is exactly ``(rounds - 1) / rounds``.
- ``panel_matrix_reuse`` — RHS columns served per operator matrix
  pass; exactly the client count when every matrix pass serves the
  whole panel (the PR 7 single-pass pipeline).

The phase also re-asserts the service's core contract on real traffic:
a coalesced request's solution is **bitwise-equal** to the same solve
run solo (``bitwise_parity``), so a regression in the panel pipeline's
per-column arithmetic fails CI even before the dedicated test suite.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import BenchmarkConfig
from repro.fp.policy import DOUBLE_POLICY, PrecisionPolicy
from repro.geometry.grid import BoxGrid
from repro.geometry.partition import ProcessGrid, Subdomain
from repro.parallel.comm import SerialComm
from repro.service import SolveRequest, SolverService
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.stencil.poisson27 import ProblemSpec, generate_problem


@dataclass
class ServicePhaseMetrics:
    """Outcome of the solver-service load phase (``--service``).

    The three deterministic headline metrics (``coalesce_width``,
    ``setup_cache_hit_rate``, ``panel_matrix_reuse``) are gated
    higher-is-better by ``benchmarks/check_regression.py``; the wall
    clock and queue waits ride along as noisy context.
    """

    clients: int
    rounds: int
    wall_seconds: float
    completed: int
    rejected: int
    timed_out: int
    batches: int
    coalesce_width: float
    max_coalesce_width: int
    panel_matrix_reuse: float
    setup_cache_hit_rate: float
    setup_cache_hits: int
    setup_cache_misses: int
    mean_queue_wait_seconds: float
    solve_seconds: float
    pool_acquires: int
    pool_reuses: int
    pool_exhaustions: int
    pool_peak_leased: int
    #: Client 0's coalesced solution compared bitwise to a solo solve
    #: with identical knobs (the PR 6 per-column contract, asserted on
    #: the phase's own traffic).
    bitwise_parity: bool = False

    @property
    def requests_per_second(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds else 0.0

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "rounds": self.rounds,
            "wall_seconds": self.wall_seconds,
            "completed": self.completed,
            "rejected": self.rejected,
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
            "requests_per_second": self.requests_per_second,
            "pool_acquires": self.pool_acquires,
            "pool_reuses": self.pool_reuses,
            "pool_exhaustions": self.pool_exhaustions,
            "pool_peak_leased": self.pool_peak_leased,
            "bitwise_parity": self.bitwise_parity,
        }


def _client_rhs(b: np.ndarray, j: int) -> np.ndarray:
    """Client ``j``'s deterministic RHS: a distinct scaled copy of b."""
    return b * (1.0 + 0.5 * j)


def run_service_phase(config: BenchmarkConfig) -> ServicePhaseMetrics:
    """Run the solver-service load phase (``--service N``).

    Serial (one rank's local box): the service seam under test is the
    asyncio front end — coalescing, the shared setup cache, the
    bounded arena pool — not the SPMD transport, which the distributed
    phase already covers.
    """
    if config.service_clients < 1:
        raise ValueError("config.service_clients is not set")
    clients = config.service_clients
    rounds = config.service_rounds
    sub = Subdomain(BoxGrid(*config.local_dims), ProcessGrid.from_size(1), 0)
    problem = generate_problem(sub, spec=ProblemSpec(kind=config.matrix_kind))
    ladder = config.precision_ladder
    maxiter = config.max_iters_per_solve

    async def _drive() -> tuple[SolverService, list]:
        svc = SolverService(
            batch_window=config.service_batch_window,
            max_panel=clients,
            max_pending=2 * clients,
            max_arenas=config.service_max_arenas,
            mg_config=config.mg_config(),
            restart=config.restart,
            ortho=config.ortho,
            matrix_format=config.matrix_format,
        )
        async with svc:
            fp = svc.register_operator(problem)
            for _ in range(rounds):
                # One round = one burst: the clients submit together,
                # so the batcher coalesces them into one panel solve
                # (tol=0 runs the fixed budget — every column marches
                # in lockstep and every matrix pass serves the panel).
                responses = await asyncio.gather(
                    *(
                        svc.solve(
                            SolveRequest(
                                operator=fp,
                                b=_client_rhs(problem.b, j),
                                ladder=ladder,
                                tol=0.0,
                                maxiter=maxiter,
                            )
                        )
                        for j in range(clients)
                    )
                )
        return svc, responses

    t0 = time.perf_counter()
    svc, responses = asyncio.run(_drive())
    wall = time.perf_counter() - t0

    # The service contract, asserted on the phase's own traffic: client
    # 0's coalesced solution must equal its solo solve bitwise (the
    # solo solver mirrors the service's construction knobs exactly).
    solo = GMRESIRSolver(
        problem,
        SerialComm(),
        policy=(
            PrecisionPolicy.from_ladder(ladder) if ladder else DOUBLE_POLICY
        ),
        mg_config=config.mg_config(),
        restart=config.restart,
        ortho=config.ortho,
        matrix_format=config.matrix_format,
    )
    x_solo, _ = solo.solve(_client_rhs(problem.b, 0), tol=0.0, maxiter=maxiter)
    parity = bool(np.array_equal(responses[0].x, x_solo))

    m = svc.metrics
    return ServicePhaseMetrics(
        clients=clients,
        rounds=rounds,
        wall_seconds=wall,
        completed=m.completed,
        rejected=m.rejected,
        timed_out=m.timed_out,
        batches=m.batches,
        coalesce_width=m.coalesce_width,
        max_coalesce_width=m.max_coalesce_width,
        panel_matrix_reuse=m.panel_matrix_reuse,
        setup_cache_hit_rate=m.setup_cache_hit_rate,
        setup_cache_hits=m.setup_cache_hits,
        setup_cache_misses=m.setup_cache_misses,
        mean_queue_wait_seconds=m.mean_queue_wait_seconds,
        solve_seconds=m.solve_seconds,
        pool_acquires=m.pool_acquires,
        pool_reuses=m.pool_reuses,
        pool_exhaustions=m.pool_exhaustions,
        pool_peak_leased=m.pool_peak_leased,
        bitwise_parity=parity,
    )

"""The CI-gated resilience phase: a deterministic fault campaign.

``run_fault_inject_phase`` executes the ``--fault-inject`` spec against
one rank's local operator and asserts the resilience subsystem's
contracts on real solves:

- **Clean parity** — a resilience-enabled solve with zero injected
  faults is bitwise-identical to a resilience-off solve (detection is
  read-only, checkpoints only copy state).
- **Detection** — every scheduled ``spmv`` corruption fires inside an
  ABFT-verified dispatch (``FaultInjector.cover``), so the checksum
  must catch each one: the phase's ``detection_rate`` is exactly 1.0
  or the gate fails.
- **Recovery** — every faulted solve replays from its restart-boundary
  checkpoint and still converges to the request tolerance
  (``recovered_converged``); injected service transients are absorbed
  by the batch retry path.

The schedule is a pure function of the spec (the seeded RNG only picks
*what* to corrupt), so every campaign metric is deterministic and the
regression gate holds them as hard invariants — no baseline needed.
``halo`` clauses are not driven here (the phase is serial; the SPMD
fault suites in ``tests/test_comm_faults.py`` own that surface).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends.registry import registry
from repro.core.config import BenchmarkConfig
from repro.geometry.grid import BoxGrid
from repro.geometry.partition import ProcessGrid, Subdomain
from repro.parallel.comm import SerialComm
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import parse_fault_spec
from repro.service import SolveRequest, SolverService
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.stencil.poisson27 import ProblemSpec, generate_problem

#: Extra solves allowed beyond one per scheduled fault before the
#: campaign gives up waiting for its budget to drain (a fault that
#: never becomes eligible would otherwise loop forever).
_CAMPAIGN_SLACK = 4


@dataclass
class ResiliencePhaseMetrics:
    """Outcome of the fault-injection phase (``--fault-inject``).

    ``clean_parity``, ``detection_rate`` (on ABFT-covered sites) and
    ``recovered_converged`` are hard invariants in
    ``benchmarks/check_regression.py`` — deterministic by
    construction, so any drift is a real regression.
    """

    spec: str
    wall_seconds: float
    #: Resilience-on + zero faults is bitwise-equal to resilience-off.
    clean_parity: bool
    #: Faults fired, by ``site:mode`` (the injector's own ledger).
    injected: dict = field(default_factory=dict)
    injected_total: int = 0
    #: Scheduled faults that never fired (should be the halo clauses
    #: only — the serial phase does not drive that site).
    unfired: int = 0
    #: ABFT detections across the kernel campaign's solves.
    detected: int = 0
    #: detections / injected spmv faults (1.0 when any were scheduled).
    detection_rate: float = 1.0
    #: Checkpoint replays the campaign's solves performed.
    replays: int = 0
    #: Solves that absorbed at least one injected kernel fault.
    faulted_solves: int = 0
    #: Faulted solves that converged to the request tolerance.
    recovered_solves: int = 0
    recovered_converged: bool = True
    #: Service-site counters (transient injection -> batch retries).
    service_solves: int = 0
    service_transients: int = 0
    service_fault_retries: int = 0
    service_degradations: int = 0

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "wall_seconds": self.wall_seconds,
            "clean_parity": self.clean_parity,
            "injected": dict(self.injected),
            "injected_total": self.injected_total,
            "unfired": self.unfired,
            "detected": self.detected,
            "detection_rate": self.detection_rate,
            "replays": self.replays,
            "faulted_solves": self.faulted_solves,
            "recovered_solves": self.recovered_solves,
            "recovered_converged": self.recovered_converged,
            "service_solves": self.service_solves,
            "service_transients": self.service_transients,
            "service_fault_retries": self.service_fault_retries,
            "service_degradations": self.service_degradations,
        }


def run_fault_inject_phase(config: BenchmarkConfig) -> ResiliencePhaseMetrics:
    """Run the deterministic fault-injection campaign (serial)."""
    if not config.fault_inject:
        raise ValueError("config.fault_inject is not set")
    plan = parse_fault_spec(config.fault_inject)
    sub = Subdomain(BoxGrid(*config.local_dims), ProcessGrid.from_size(1), 0)
    problem = generate_problem(sub, spec=ProblemSpec(kind=config.matrix_kind))
    policy = config.mixed_policy()
    rescfg = ResilienceConfig()
    knobs = dict(
        mg_config=config.mg_config(),
        restart=config.restart,
        ortho=config.ortho,
        matrix_format=config.matrix_format,
        control=config.control_config(),
    )
    tol = config.validation_tol
    maxiter = config.validation_max_iters
    t0 = time.perf_counter()

    # --- 1) clean parity: resilience on + no faults == resilience off ---
    x_off, _ = GMRESIRSolver(problem, SerialComm(), policy, **knobs).solve(
        problem.b, tol=tol, maxiter=maxiter
    )
    st_clean = GMRESIRSolver(
        problem, SerialComm(), policy, resilience=rescfg, **knobs
    )
    x_on, stats_on = st_clean.solve(problem.b, tol=tol, maxiter=maxiter)
    clean_parity = bool(np.array_equal(x_off, x_on)) and (
        stats_on.resilience.detected == 0
        and stats_on.resilience.replays == 0
    )

    # --- 2) kernel campaign: scheduled spmv corruptions, covered sites ---
    injector = plan.injector()
    injector.cover()
    detected = replays = faulted = recovered = 0
    spmv_budget = injector.remaining("spmv")
    if spmv_budget:
        solver = GMRESIRSolver(
            problem, SerialComm(), policy, resilience=rescfg, **knobs
        )
        registry.set_wrapper(injector.kernel_wrapper())
        try:
            for _ in range(spmv_budget + _CAMPAIGN_SLACK):
                before = injector.remaining("spmv")
                if before == 0:
                    break
                _, st = solver.solve(problem.b, tol=tol, maxiter=maxiter)
                rs = st.resilience
                detected += rs.detected
                replays += rs.replays
                if injector.remaining("spmv") < before:
                    faulted += 1
                    if st.converged:
                        recovered += 1
        finally:
            registry.set_wrapper(None)
    injected_spmv = spmv_budget - injector.remaining("spmv")
    detection_rate = detected / injected_spmv if injected_spmv else 1.0

    # --- 3) service transients: batch retries ---
    service_budget = injector.remaining("service")
    service_solves = 0
    svc_metrics = None
    if service_budget:

        async def _drive():
            svc = SolverService(
                resilience=rescfg,
                injector=injector,
                mg_config=config.mg_config(),
                restart=config.restart,
                ortho=config.ortho,
                matrix_format=config.matrix_format,
            )
            solves = 0
            async with svc:
                fp = svc.register_operator(problem)
                for _ in range(service_budget + _CAMPAIGN_SLACK):
                    if injector.remaining("service") == 0:
                        break
                    resp = await svc.solve(
                        SolveRequest(
                            operator=fp,
                            b=problem.b,
                            ladder=config.precision_ladder,
                            tol=tol,
                            maxiter=maxiter,
                        )
                    )
                    solves += 1
                    if not resp.stats.converged:
                        raise RuntimeError(
                            "service solve failed to converge under "
                            "transient-fault injection"
                        )
            return svc, solves

        svc, service_solves = asyncio.run(_drive())
        svc_metrics = svc.metrics

    wall = time.perf_counter() - t0
    return ResiliencePhaseMetrics(
        spec=config.fault_inject,
        wall_seconds=wall,
        clean_parity=clean_parity,
        injected={k: v for k, v in sorted(injector.stats.injected.items())},
        injected_total=injector.stats.injected_total,
        unfired=injector.remaining(),
        detected=detected,
        detection_rate=detection_rate,
        replays=replays,
        faulted_solves=faulted,
        recovered_solves=recovered,
        recovered_converged=(recovered == faulted),
        service_solves=service_solves,
        service_transients=(
            svc_metrics.transient_faults if svc_metrics else 0
        ),
        service_fault_retries=(
            svc_metrics.fault_retries if svc_metrics else 0
        ),
        service_degradations=(
            svc_metrics.degradations if svc_metrics else 0
        ),
    )

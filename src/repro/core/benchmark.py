"""The HPG-MxP benchmark driver.

Orchestrates the benchmark's three phases (§3) as separate SPMD
launches — validation (standard or full-scale), the timed
mixed-precision GMRES-IR phase, and the timed double-precision GMRES
phase — then assembles the penalized GFLOP/s ratings and per-motif
breakdowns the paper's figures are built from.

Timing semantics offline: the official benchmark fills a wall-clock
budget with repeated solves; here a fixed number of solves runs and
real per-motif wall time is accumulated by :class:`MotifTimers`.  Flop
counts always come from the model in :mod:`repro.core.flops`, exactly
as in the official code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.config import BenchmarkConfig, parse_process_grid
from repro.core.flops import (
    flops_gmres_solve,
    hierarchy_dims,
)
from repro.core.metrics import PhaseMetrics, motif_speedups
from repro.core.resilience_phase import (
    ResiliencePhaseMetrics,
    run_fault_inject_phase,
)
from repro.core.service_phase import ServicePhaseMetrics, run_service_phase
from repro.core.validation import ValidationResult, run_validation
from repro.fp.policy import PrecisionPolicy
from repro.geometry.grid import BoxGrid
from repro.geometry.partition import ProcessGrid, Subdomain
from repro.parallel.comm import Communicator, SerialComm
from repro.parallel.spmd import run_spmd
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.stencil.poisson27 import ProblemSpec, generate_problem
from repro.util.timers import MotifTimers


@dataclass
class DistributedPhaseMetrics:
    """Outcome of the wall-clock-budget distributed (SPMD) phase.

    ``comm_bytes_per_iteration`` is *measured* (the slowest rank's halo
    + collective traffic divided by inner iterations) and
    ``model_bytes_per_cycle`` is the byte model's per-restart-cycle
    total (HBM + halo at rung widths, charged at the solver's *live*
    per-ingredient schedule) — the two quantities the CI regression
    gate tracks, next to the noisy per-solve wall clock.

    The halo pipeline additionally reports its measured wire bytes and
    wall clock next to the network model's prediction
    (``halo_bytes_measured/modeled_per_iteration``) — the
    modeled-vs-measured pair :mod:`repro.perf.calibrate` folds into
    the alpha-beta network fit — and the per-motif wall-clock
    breakdown the gate records (``motif_seconds_per_solve``; halo
    seconds nest inside the spmv/symgs sections that triggered them).
    """

    grid: tuple[int, int, int]
    nranks: int
    wall_seconds: float
    solves: int
    iterations: int
    seconds_by_motif: dict[str, float]
    send_bytes: int
    allreduce_bytes: int
    comm_bytes_per_iteration: float
    model_bytes_per_cycle: float
    send_messages: int = 0
    halo_seconds: float = 0.0
    halo_exchanges: int = 0
    halo_bytes_measured_per_iteration: float = 0.0
    halo_bytes_modeled_per_iteration: float = 0.0
    #: ``model_symgs_bytes_per_cycle`` isolates the dominant motif's
    #: modeled HBM stream (gated by ``check_regression.py``).
    fusion: bool = True
    model_symgs_bytes_per_cycle: float = 0.0
    #: PR 6: the batched multi-RHS phase.  ``rhs_panel`` is the panel
    #: width; ``panel_matrix_reuse`` is the *measured* RHS columns
    #: served per matrix stream (``rhs_columns / matrix_passes`` over
    #: the batched solver's operators — 1.0 sequential, → N batched);
    #: ``bytes_per_rhs`` is the byte model's per-cycle total at this
    #: panel width divided by the width (the modeled amortization the
    #: CI gate tracks).  The setup-cache counters record how much of
    #: the batched solver's construction the operator-keyed cache
    #: served.
    rhs_panel: int = 1
    panel_matrix_reuse: float = 0.0
    bytes_per_rhs: float = 0.0
    panel_wall_seconds: float = 0.0
    panel_setup_cache_hits: int = 0
    panel_setup_cache_misses: int = 0
    #: PR 7: the panel-native distributed pipeline.
    #: ``halo_messages_per_rhs`` is the network model's per-cycle
    #: message count divided by the panel width — the wide exchange
    #: ships all columns per neighbor in one message, so the count is
    #: panel-independent and per-RHS drops ~N× versus the looped
    #: schedule (bytes are unchanged); gated by ``check_regression.py``
    #: next to ``bytes_per_rhs``.  The ``panel_halo_*`` counters are
    #: the *measured* wire traffic of the batched segment (messages
    #: posted, bytes sent, seconds inside exchange windows, exchange
    #: rounds) — the second, message-lean sample the alpha-beta
    #: network fit needs to separate per-message latency from per-byte
    #: cost.
    halo_messages_per_rhs: float = 0.0
    panel_halo_messages: int = 0
    panel_halo_bytes: int = 0
    panel_halo_seconds: float = 0.0
    panel_halo_exchanges: int = 0

    @property
    def seconds_per_solve(self) -> float:
        return self.wall_seconds / self.solves if self.solves else 0.0

    @property
    def halo_model_ratio(self) -> float:
        """Measured / modeled halo bytes per iteration (0 when serial)."""
        if self.halo_bytes_modeled_per_iteration <= 0:
            return 0.0
        return (
            self.halo_bytes_measured_per_iteration
            / self.halo_bytes_modeled_per_iteration
        )

    def motif_seconds_per_solve(self) -> dict[str, float]:
        """Per-motif wall clock per solve (paper motif names).

        ``halo`` is measured inside the halo-exchange plans and *also*
        contributes to the motif whose kernel triggered the exchange
        (spmv/symgs) — it is reported on its own, not to sum with the
        others.
        """
        solves = self.solves or 1
        motifs = self.seconds_by_motif
        return {
            "spmv": motifs.get("spmv", 0.0) / solves,
            "symgs": motifs.get("gs", 0.0) / solves,
            "ortho": motifs.get("ortho", 0.0) / solves,
            "halo": self.halo_seconds / solves,
        }

    def to_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "nranks": self.nranks,
            "wall_seconds": self.wall_seconds,
            "solves": self.solves,
            "iterations": self.iterations,
            "seconds_per_solve": self.seconds_per_solve,
            "send_bytes": self.send_bytes,
            "send_messages": self.send_messages,
            "allreduce_bytes": self.allreduce_bytes,
            "comm_bytes_per_iteration": self.comm_bytes_per_iteration,
            "model_bytes_per_cycle": self.model_bytes_per_cycle,
            "halo_seconds": self.halo_seconds,
            "halo_exchanges": self.halo_exchanges,
            "halo_bytes_measured_per_iteration": (
                self.halo_bytes_measured_per_iteration
            ),
            "halo_bytes_modeled_per_iteration": (
                self.halo_bytes_modeled_per_iteration
            ),
            "halo_model_ratio": self.halo_model_ratio,
            "model_symgs_bytes_per_cycle": self.model_symgs_bytes_per_cycle,
            "rhs_panel": self.rhs_panel,
            "panel_matrix_reuse": self.panel_matrix_reuse,
            "bytes_per_rhs": self.bytes_per_rhs,
            "panel_wall_seconds": self.panel_wall_seconds,
            "panel_setup_cache_hits": self.panel_setup_cache_hits,
            "panel_setup_cache_misses": self.panel_setup_cache_misses,
            "halo_messages_per_rhs": self.halo_messages_per_rhs,
            "panel_halo_messages": self.panel_halo_messages,
            "panel_halo_bytes": self.panel_halo_bytes,
            "panel_halo_seconds": self.panel_halo_seconds,
            "panel_halo_exchanges": self.panel_halo_exchanges,
            "seconds_by_motif": dict(self.seconds_by_motif),
            "motif_seconds_per_solve": self.motif_seconds_per_solve(),
            "fusion": self.fusion,
        }


@dataclass
class BenchmarkResult:
    """Everything a benchmark run produces."""

    config: BenchmarkConfig
    validation: ValidationResult
    mxp: PhaseMetrics
    double: PhaseMetrics
    setup_seconds: float = 0.0
    speedups: dict[str, float] = field(default_factory=dict)
    distributed: DistributedPhaseMetrics | None = None
    service: ServicePhaseMetrics | None = None
    resilience: ResiliencePhaseMetrics | None = None

    @property
    def speedup(self) -> float:
        """Headline penalized speedup of mxp over double (Fig. 5)."""
        return self.speedups.get("total", 0.0)


def _phase_worker(
    comm: Communicator,
    config: BenchmarkConfig,
    policy: PrecisionPolicy,
) -> dict:
    """One rank's timed phase: setup, then ``num_solves`` fixed solves."""
    proc = ProcessGrid.from_size(comm.size)
    sub = Subdomain(BoxGrid(*config.local_dims), proc, comm.rank)
    problem = generate_problem(sub, spec=ProblemSpec(kind=config.matrix_kind))

    t_setup0 = time.perf_counter()
    timers = MotifTimers()
    solver = GMRESIRSolver(
        problem,
        comm,
        policy=policy,
        mg_config=config.mg_config(),
        restart=config.restart,
        ortho=config.ortho,
        timers=timers,
        matrix_format=config.matrix_format,
        control=config.control_config(),
        fusion=config.fusion,
    )
    setup_seconds = time.perf_counter() - t_setup0

    comm.barrier()
    t0 = time.perf_counter()
    cycle_lengths: list[int] = []
    iterations = 0
    solves = 0
    while True:
        # tol=0: run the fixed iteration budget (the benchmark phase
        # executes a fixed number of iterations, not to convergence).
        _, stats = solver.solve(
            problem.b, tol=0.0, maxiter=config.max_iters_per_solve
        )
        cycle_lengths.extend(stats.cycle_lengths)
        iterations += stats.iterations
        solves += 1
        if config.time_budget_seconds is not None:
            # Official semantics: repeat whole solves until the budget
            # is spent.  All ranks agree via the rank-0 clock.
            elapsed = comm.bcast(time.perf_counter() - t0, root=0)
            if elapsed >= config.time_budget_seconds:
                break
        elif solves >= config.num_solves:
            break
    comm.barrier()
    wall = time.perf_counter() - t0

    return {
        "seconds_by_motif": dict(timers.seconds),
        "wall": wall,
        "setup": setup_seconds,
        "cycle_lengths": cycle_lengths,
        "iterations": iterations,
    }


def _merge_phase(
    label: str,
    config: BenchmarkConfig,
    per_rank: list[dict],
    penalty: float,
) -> tuple[PhaseMetrics, float]:
    """Combine per-rank phase records into one :class:`PhaseMetrics`.

    Ranks execute identical work in lockstep, so motif seconds are
    merged with an elementwise max (the slowest rank paces the run).
    """
    motifs: dict[str, float] = {}
    for rec in per_rank:
        for m, s in rec["seconds_by_motif"].items():
            motifs[m] = max(motifs.get(m, 0.0), s)
    wall = max(rec["wall"] for rec in per_rank)
    setup = max(rec["setup"] for rec in per_rank)

    nx, ny, nz = config.local_dims
    proc = ProcessGrid.from_size(config.nranks)
    dims = hierarchy_dims(
        nx * proc.px, ny * proc.py, nz * proc.pz, config.nlevels
    )
    flops = flops_gmres_solve(
        dims, config.mg_config(), per_rank[0]["cycle_lengths"], config.ortho
    )
    metrics = PhaseMetrics(
        label=label,
        flops_by_motif=flops,
        seconds_by_motif=motifs,
        total_seconds=wall,
        iterations=per_rank[0]["iterations"],
        penalty=penalty,
    )
    return metrics, setup


def _distributed_worker(
    comm: Communicator,
    config: BenchmarkConfig,
    policy: PrecisionPolicy,
    proc_shape: tuple[int, int, int],
) -> dict:
    """One rank of the distributed phase: mxp solves on a budget."""
    proc = ProcessGrid(*proc_shape)
    sub = Subdomain(BoxGrid(*config.local_dims), proc, comm.rank)
    problem = generate_problem(sub, spec=ProblemSpec(kind=config.matrix_kind))
    timers = MotifTimers()
    solver = GMRESIRSolver(
        problem,
        comm,
        policy=policy,
        mg_config=config.mg_config(),
        restart=config.restart,
        ortho=config.ortho,
        timers=timers,
        matrix_format=config.matrix_format,
        control=config.control_config(),
        fusion=config.fusion,
    )
    # Warmup solve: populates every workspace buffer and transport
    # freelist, so the timed loop below runs allocation-free.  Both the
    # comm counters and the motif timers restart afterwards, so every
    # reported quantity covers exactly the timed window.
    solver.solve(problem.b, tol=0.0, maxiter=min(config.restart, 10))
    comm.stats.reset()
    timers.reset()
    solver.reset_halo_counters()
    comm.barrier()
    t0 = time.perf_counter()
    iterations = 0
    solves = 0
    while True:
        _, stats = solver.solve(
            problem.b, tol=0.0, maxiter=config.max_iters_per_solve
        )
        iterations += stats.iterations
        solves += 1
        # All ranks agree on the budget via the rank-0 clock (the
        # official wall-clock-budget semantics).
        elapsed = comm.bcast(time.perf_counter() - t0, root=0)
        if elapsed >= config.distributed_budget_seconds:
            break
    comm.barrier()
    wall = time.perf_counter() - t0
    # Snapshot the timed window's communication counters before the
    # batched segment adds its own traffic (shared per-rank stats).
    send_bytes = comm.stats.send_bytes
    send_messages = comm.stats.sends
    allreduce_bytes = comm.stats.allreduce_bytes

    # --- batched multi-RHS segment (PR 6) ---
    # One panel solve over an rhs_panel-wide RHS block: the solver is
    # constructed against the operator-keyed setup cache (a second
    # construction demonstrates the hits a many-solver service gets)
    # with its workspace leased from a bounded pool, and the panel
    # solve's operator counters measure the matrix-traffic
    # amortization (RHS columns served per operator application).
    panel: dict = {}
    if config.rhs_panel > 1:
        import numpy as np

        from repro.backends.workspace import WorkspacePool
        from repro.solvers.setup_cache import SetupCache

        cache = SetupCache()
        pool = WorkspacePool("panel-bench", max_arenas=1)
        arena = pool.acquire()

        def _panel_solver():
            return GMRESIRSolver(
                problem,
                comm,
                policy=policy,
                mg_config=config.mg_config(),
                restart=config.restart,
                ortho=config.ortho,
                matrix_format=config.matrix_format,
                control=config.control_config(),
                fusion=config.fusion,
                setup_cache=cache,
                workspace=arena,
            )

        _panel_solver()  # populate the cache (construction misses)
        psolver = _panel_solver()  # served from the cache (hits)
        ncol = config.rhs_panel
        n = problem.nlocal
        B = np.empty((n, ncol), dtype=np.float64, order="F")
        for j in range(ncol):
            # Distinct, deterministic columns: scaled copies of b keep
            # every column's convergence path identical and non-trivial.
            np.multiply(problem.b, 1.0 + 0.5 * j, out=B[:, j])
        ops = [psolver.op64]
        if psolver.op_inner is not psolver.op64:
            ops.append(psolver.op_inner)
        # The batched segment's own wire counters: the wide exchange
        # makes it message-lean per RHS, which is exactly the second
        # sample mix the alpha-beta network fit needs.
        psolver.reset_halo_counters()
        comm.barrier()
        tp0 = time.perf_counter()
        _, pstats = psolver.solve_panel(
            B, tol=0.0, maxiter=config.max_iters_per_solve
        )
        comm.barrier()
        panel_wall = time.perf_counter() - tp0
        passes = sum(op.matrix_passes for op in ops)
        columns = sum(op.rhs_columns for op in ops)
        pool.release(arena)
        panel = {
            "rhs_panel": ncol,
            "panel_wall": panel_wall,
            "panel_iterations": sum(s.iterations for s in pstats),
            "panel_matrix_reuse": columns / passes if passes else 0.0,
            "panel_setup_cache_hits": cache.hits,
            "panel_setup_cache_misses": cache.misses,
            "panel_halo_messages": psolver.halo_message_count(),
            "panel_halo_bytes": psolver.halo_sent_bytes(),
            "panel_halo_seconds": psolver.halo_seconds(),
            "panel_halo_exchanges": psolver.halo_exchange_count(),
        }

    return {
        "wall": wall,
        "iterations": iterations,
        "solves": solves,
        "panel": panel,
        "seconds_by_motif": dict(timers.seconds),
        "send_bytes": send_bytes,
        "send_messages": send_messages,
        "allreduce_bytes": allreduce_bytes,
        "halo_seconds": solver.halo_seconds(),
        "halo_exchanges": solver.halo_exchange_count(),
        "fusion": solver.fusion,
        # The live per-ingredient schedule at the end of the timed
        # window — the byte model charges each ingredient at its
        # *current* rung (a plain policy when the plane ran in
        # whole-policy mode).
        "live_schedule": solver.plane.snapshot(),
    }


def run_distributed_phase(config: BenchmarkConfig) -> DistributedPhaseMetrics:
    """Run the weak-scaling-shaped distributed phase (``--distributed``).

    Launches the configured ``PXxPYxPZ`` process grid on the
    thread-SPMD runtime — every rank owning the same local box, behind
    the zero-allocation blocking halo pipeline — and repeats whole mxp
    solves until the wall-clock budget is spent.
    """
    if config.distributed_grid is None:
        raise ValueError("config.distributed_grid is not set")
    shape = parse_process_grid(config.distributed_grid)
    nranks = shape[0] * shape[1] * shape[2]
    policy = config.mixed_policy()
    if nranks == 1:
        records = [_distributed_worker(SerialComm(), config, policy, shape)]
    else:
        records = run_spmd(nranks, _distributed_worker, config, policy, shape)

    motifs: dict[str, float] = {}
    for rec in records:
        for m, s in rec["seconds_by_motif"].items():
            motifs[m] = max(motifs.get(m, 0.0), s)
    wall = max(rec["wall"] for rec in records)
    send_bytes = max(rec["send_bytes"] for rec in records)
    send_messages = max(rec["send_messages"] for rec in records)
    allreduce_bytes = max(rec["allreduce_bytes"] for rec in records)
    halo_seconds = max(rec["halo_seconds"] for rec in records)
    halo_exchanges = max(rec["halo_exchanges"] for rec in records)
    iterations = records[0]["iterations"]
    comm_per_iter = (
        (send_bytes + allreduce_bytes) / iterations if iterations else 0.0
    )

    from repro.perf.scaling import ScalingModel

    model = ScalingModel(
        local_dims=config.local_dims,
        impl=config.impl,
        restart=config.restart,
        nlevels=config.nlevels,
        matrix_format=config.matrix_format,
        # The schedule the solver runs: every exchange blocks.
        overlap=False,
        fusion=config.fusion,
    )
    # Charge the byte model at the *live* schedule the solver ended on
    # (identical to the configured policy unless the control plane
    # moved a rung mid-run).
    schedule = records[0].get("live_schedule", policy)
    model_bytes = model.cycle_traffic_bytes(schedule)["total"]
    # The network model's prediction for this rank's wire traffic: the
    # per-cycle halo total spread over the cycle's inner iterations.
    halo_modeled_per_iter = (
        model.halo_traffic_bytes(schedule) / config.restart
        if nranks > 1
        else 0.0
    )
    halo_measured_per_iter = send_bytes / iterations if iterations else 0.0
    # Batched multi-RHS phase: modeled bytes-per-RHS at the configured
    # panel width (total / width; equals model_bytes_per_cycle at
    # width 1) next to the measured matrix-reuse amortization.
    panel_rec = records[0].get("panel") or {}
    bytes_per_rhs = (
        model.cycle_traffic_bytes(schedule, panel=config.rhs_panel)["total"]
        / config.rhs_panel
    )
    # The wide exchange's latency win: the modeled per-cycle message
    # count is panel-independent, so per-RHS it drops ~panel×.
    halo_messages_per_rhs = (
        model.cycle_halo_messages(panel=config.rhs_panel) / config.rhs_panel
        if nranks > 1
        else 0.0
    )

    return DistributedPhaseMetrics(
        grid=shape,
        nranks=nranks,
        wall_seconds=wall,
        solves=records[0]["solves"],
        iterations=iterations,
        seconds_by_motif=motifs,
        send_bytes=send_bytes,
        allreduce_bytes=allreduce_bytes,
        comm_bytes_per_iteration=comm_per_iter,
        model_bytes_per_cycle=model_bytes,
        send_messages=send_messages,
        halo_seconds=halo_seconds,
        halo_exchanges=halo_exchanges,
        halo_bytes_measured_per_iteration=halo_measured_per_iter,
        halo_bytes_modeled_per_iteration=halo_modeled_per_iter,
        fusion=records[0]["fusion"],
        model_symgs_bytes_per_cycle=model.cycle_symgs_bytes(schedule),
        rhs_panel=config.rhs_panel,
        panel_matrix_reuse=panel_rec.get("panel_matrix_reuse", 0.0),
        bytes_per_rhs=bytes_per_rhs,
        panel_wall_seconds=panel_rec.get("panel_wall", 0.0),
        panel_setup_cache_hits=panel_rec.get("panel_setup_cache_hits", 0),
        panel_setup_cache_misses=panel_rec.get("panel_setup_cache_misses", 0),
        halo_messages_per_rhs=halo_messages_per_rhs,
        panel_halo_messages=panel_rec.get("panel_halo_messages", 0),
        panel_halo_bytes=panel_rec.get("panel_halo_bytes", 0),
        panel_halo_seconds=panel_rec.get("panel_halo_seconds", 0.0),
        panel_halo_exchanges=panel_rec.get("panel_halo_exchanges", 0),
    )


class HPGMxPBenchmark:
    """Top-level benchmark: validation + timed mxp + timed double."""

    def __init__(self, config: BenchmarkConfig | None = None) -> None:
        self.config = config or BenchmarkConfig()

    def _run_phase(self, policy: PrecisionPolicy) -> list[dict]:
        cfg = self.config
        if cfg.nranks == 1:
            return [_phase_worker(SerialComm(), cfg, policy)]
        return run_spmd(cfg.nranks, _phase_worker, cfg, policy)

    def run(self) -> BenchmarkResult:
        """Execute all three phases and assemble the result."""
        cfg = self.config

        validation = run_validation(cfg)

        mxp_records = self._run_phase(cfg.mixed_policy())
        mxp, setup_mxp = _merge_phase("mxp", cfg, mxp_records, validation.penalty)

        dbl_records = self._run_phase(cfg.double_policy())
        double, setup_dbl = _merge_phase("double", cfg, dbl_records, 1.0)

        speedups = motif_speedups(mxp, double)
        distributed = (
            run_distributed_phase(cfg) if cfg.distributed_grid else None
        )
        service = run_service_phase(cfg) if cfg.service_clients else None
        resilience = (
            run_fault_inject_phase(cfg) if cfg.fault_inject else None
        )
        return BenchmarkResult(
            config=cfg,
            validation=validation,
            mxp=mxp,
            double=double,
            setup_seconds=max(setup_mxp, setup_dbl),
            speedups=speedups,
            distributed=distributed,
            service=service,
            resilience=resilience,
        )


def run_benchmark(config: BenchmarkConfig | None = None) -> BenchmarkResult:
    """Convenience entry point."""
    return HPGMxPBenchmark(config).run()

"""The five workloads of the untraced end-to-end pass.

Every workload has a *primary* path and a *reference* path that are
interleaved inside each repetition, so a core-speed flip hits both
sides of a comparison alike:

============  ==========================  ===============================
workload      primary                     reference
============  ==========================  ===============================
solve48/16    ``solve`` under mixed d/s   ``solve`` under uniform double
panel32       ``solve_panel`` of 8 / 8    the same 8 columns solved solo
spmd2x32      2-rank SPMD ``solve``       1-rank solve of one local box
service16     client submit->response     the same request solved directly
============  ==========================  ===============================

All inputs are drawn here from ``default_rng([seed, workload, j, rank])``;
the program only ever receives the generated arrays.  Every timed
answer is checked against a residual recomputed outside the solver.
"""

from __future__ import annotations

import asyncio
import gc
import random
import resource
import time
import zlib
from dataclasses import dataclass, field

import numpy as np
from noise import Calibrator, summary, tail

from repro.fp.policy import DOUBLE_POLICY, MIXED_DS_POLICY, PrecisionPolicy
from repro.geometry.grid import BoxGrid
from repro.geometry.partition import ProcessGrid, Subdomain
from repro.parallel.comm import SerialComm
from repro.parallel.distributed import dnorm2
from repro.parallel.spmd import run_spmd
from repro.service import ServiceError, SolveRequest, SolverService
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.stencil.poisson27 import generate_problem

TOL = 1e-9
#: Acceptance threshold of the harness's own residual check (the
#: solver's fused residual and this one differ in the last digits).
CHECK_TOL = 1.01e-9
MAXITER = 500
PANEL = 8
#: Distinct right-hand sides cycled through the repetitions, so one
#: run's median does not hinge on one draw's iteration count.
N_RHS = 8
SERVICE_LADDER = "fp32:fp64"
SERVICE_TIMEOUT_S = 60.0
#: Requests per client per round: six 16^3 clients, two 24^3 clients.
#: The small-operator clients run in lockstep batches of six that take
#: 2-5x longer while a large-operator batch shares the GIL; 10:2 keeps
#: that contended stretch to a quarter of a round, so the median sits
#: inside the uncontended mode instead of on the cliff between the two
#: (at the issue's 6:2 it moved by 0.23 of itself from run to run).
SERVICE_QUOTAS = (10, 10, 10, 10, 10, 10, 2, 2)
SERVICE_DIRECT_PER_ROUND = 10

MIN_BUILDS, MAX_BUILDS, SETUP_BUDGET_S = 3, 9, 2.0


@dataclass
class Tally:
    """Operations attempted and failed (one solve / one request each)."""

    attempted: int = 0
    failed: int = 0

    def note(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


@dataclass
class Outcome:
    """What one workload run hands to :func:`end_to_end`."""

    cal: Calibrator
    tally: Tally
    #: ``rhs_per_s`` = primary samples / sum of this side's seconds.
    rate_side: str = "primary"
    #: ``False`` reports raw seconds (see :func:`run_spmd_pair`).
    normalise: bool = True
    detail: dict = field(default_factory=dict)


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark, so a workload
    run after others in one process reports its own peak."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the mark then covers the whole process, as in the driver


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_rhs(b: np.ndarray, seed: int, workload: str, j: int, rank: int = 0):
    """``b * (1 + 0.5 u) + 0.01 g``: a scaled, perturbed copy of the
    generated right-hand side, reproducible from the seed."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode()), j, rank])
    return b * (1.0 + 0.5 * rng.random()) + 0.01 * rng.standard_normal(b.size)


def ell_bytes(n: int, value_bytes: int) -> int:
    """Level-0 ELL block: 27 values + 27 int32 column indices per row."""
    return n * 27 * (value_bytes + 4)


def timed(cal: Calibrator, comm, side: str, fn, weight: float = 1.0):
    """Time ``fn()`` between two barriers and record it on rank 0.

    On a serial communicator the barriers are no-ops; under SPMD the
    other ranks wait in the first barrier while rank 0 probes.
    """
    if comm.rank == 0:
        cal.maybe_probe()
    comm.barrier()
    t0 = time.perf_counter()
    out = fn()
    comm.barrier()
    if comm.rank == 0:
        cal.record(side, t0, time.perf_counter(), weight)
    return out


def more_builds(n: int, begin: float) -> bool:
    """Set-up repetitions: at least three, more while they fit 2 s."""
    return n < MIN_BUILDS or (
        n < MAX_BUILDS and time.perf_counter() - begin < SETUP_BUDGET_S
    )


def time_is_up(begin: float, reps: int, seconds: float) -> bool:
    """Stop at the whole repetition nearest to ``seconds``."""
    elapsed = time.perf_counter() - begin
    return elapsed + 0.5 * elapsed / reps > seconds


def timed_setups(cal: Calibrator, comm, build):
    """Median-able set-up: fresh builds, the last one kept."""
    built = None
    begin = time.perf_counter()
    n = 0
    while True:
        built = None  # drop the previous build before the next one
        gc.collect()
        built = timed(cal, comm, "setup", build)
        n += 1
        if not comm.bcast(more_builds(n, begin), root=0):
            return built


def repeat_for(seconds: float, comm, rep, max_reps: int = 10**9) -> int:
    """Call ``rep(i)`` until ``seconds`` are used; rank 0 decides."""
    begin = time.perf_counter()
    i = 0
    while True:
        rep(i)
        i += 1
        more = i < max_reps and not time_is_up(begin, i, seconds)
        if not comm.bcast(more, root=0):
            return i


def check_serial(problem, b, x, stats) -> bool:
    """fp64 residual recomputed outside the solver."""
    r = b - problem.A.spmv(x)
    return bool(stats.converged and np.linalg.norm(r) <= CHECK_TOL * np.linalg.norm(b))


def build_serial(nx: int, policies: dict, panel_warmup: bool = False):
    """``generate_problem`` + one solver per policy + their warm-ups —
    the work ``setup_s`` times."""
    problem = generate_problem(Subdomain.serial(nx))
    solvers = {}
    for side, policy in policies.items():
        solver = GMRESIRSolver(problem, SerialComm(), policy=policy)
        solver.solve(problem.b, tol=0.0, maxiter=3)
        if panel_warmup:
            B = np.asfortranarray(np.tile(problem.b[:, None], (1, PANEL)))
            solver.solve_panel(B, tol=0.0, maxiter=3)
        solvers[side] = solver
    return problem, solvers


# ----------------------------------------------------------------------
# solve48 / solve16
# ----------------------------------------------------------------------
def run_solve(name: str, seconds: float, seed: int, nx: int) -> Outcome:
    """Serial box: mixed d/s and double solves of the same RHS, paired."""
    cal, tally, comm = Calibrator(), Tally(), SerialComm()
    cal.probe()
    policies = {"primary": MIXED_DS_POLICY, "reference": DOUBLE_POLICY}
    problem, solvers = timed_setups(cal, comm, lambda: build_serial(nx, policies))
    rhs = [make_rhs(problem.b, seed, name, j) for j in range(N_RHS)]
    iters = {side: [] for side in solvers}

    def rep(i: int) -> None:
        b = rhs[i % N_RHS]
        for side, solver in solvers.items():
            x, stats = timed(
                cal,
                comm,
                side,
                lambda solver=solver: solver.solve(b, tol=TOL, maxiter=MAXITER),
            )
            tally.note(check_serial(problem, b, x, stats))
            iters[side].append(stats.iterations)

    repeat_for(seconds, comm, rep)
    cal.finish()
    n = problem.nlocal
    detail = {
        "rows": n,
        "working_set_bytes": {"fp64": ell_bytes(n, 8), "fp32": ell_bytes(n, 4)},
        "iterations_mxp": iters["primary"],
        "iterations_double": iters["reference"],
    }
    return Outcome(cal, tally, detail=detail)


# ----------------------------------------------------------------------
# panel32
# ----------------------------------------------------------------------
def run_panel(name: str, seconds: float, seed: int, nx: int) -> Outcome:
    """One warmed mixed solver: a panel of 8 vs its 8 columns solo."""
    cal, tally, comm = Calibrator(), Tally(), SerialComm()
    cal.probe()
    problem, solvers = timed_setups(
        cal,
        comm,
        lambda: build_serial(nx, {"primary": MIXED_DS_POLICY}, panel_warmup=True),
    )
    solver = solvers["primary"]
    B = np.asfortranarray(
        np.stack([make_rhs(problem.b, seed, name, j) for j in range(PANEL)], axis=1)
    )

    def rep(i: int) -> None:
        X, pstats = timed(
            cal,
            comm,
            "primary",
            lambda: solver.solve_panel(B, tol=TOL, maxiter=MAXITER),
            weight=1.0 / PANEL,
        )
        for j in range(PANEL):
            tally.note(check_serial(problem, B[:, j], X[:, j], pstats[j]))
        # Half of the columns solo per repetition (the halves alternate):
        # three panels fit a 20 s run instead of two.
        for j in range(i % 2, PANEL, 2):
            b = B[:, j]
            x, stats = timed(
                cal,
                comm,
                "reference",
                lambda b=b: solver.solve(b, tol=TOL, maxiter=MAXITER),
            )
            # The panel contract: each column is its solo solve, bitwise.
            tally.note(
                check_serial(problem, b, x, stats) and np.array_equal(X[:, j], x)
            )

    repeat_for(seconds, comm, rep)
    cal.finish()
    n = problem.nlocal
    detail = {
        "rows": n,
        "panel_width": PANEL,
        "working_set_bytes": {"fp64": ell_bytes(n, 8), "fp32": ell_bytes(n, 4)},
    }
    return Outcome(cal, tally, detail=detail)


# ----------------------------------------------------------------------
# spmd2x32
# ----------------------------------------------------------------------
def build_spmd(comm, nx: int):
    """One rank's share of a 2x1x1 grid of ``nx``^3 boxes, warmed."""
    sub = Subdomain(BoxGrid(nx, nx, nx), ProcessGrid(comm.size, 1, 1), comm.rank)
    problem = generate_problem(sub)
    solver = GMRESIRSolver(problem, comm, policy=MIXED_DS_POLICY)
    solver.solve(problem.b, tol=0.0, maxiter=3)
    return problem, solver


def check_spmd(comm, solver, b, x, stats) -> bool:
    """Global fp64 residual plus identical verdicts on every rank."""
    r = solver.op64.residual(b, x)
    ok = stats.converged and dnorm2(comm, r) <= CHECK_TOL * dnorm2(comm, b)
    verdicts = comm.allgather((stats.iterations, bool(stats.converged)))
    return bool(ok and len(set(verdicts)) == 1)


def run_spmd_pair(name: str, seconds: float, seed: int, nx: int) -> Outcome:
    """Two thread-ranks, overlap on; one rank's box solved serially
    beside it is the plain single-threaded baseline.

    This workload reports **raw** seconds.  A barrier-coupled pair of
    threads waits for whichever core is held up, and neither a probe on
    one thread nor one run on both at once predicts that: over the same
    runs normalised medians moved by 0.09-0.12 of themselves from run to
    run, raw ones by 0.05-0.07.  The probes are still taken and written
    out (``perf.slow_frac`` flags a slow run).
    """
    cal, tally = Calibrator(), Tally()
    cal.probe()
    serial = SerialComm()
    box, box_solvers = build_serial(nx, {"reference": MIXED_DS_POLICY})
    box_solver = box_solvers["reference"]
    box_rhs = [make_rhs(box.b, seed, name, j, rank=2) for j in range(N_RHS)]
    iters: dict[str, list] = {"primary": [], "reference": []}

    def rank_main(comm):
        problem, solver = timed_setups(cal, comm, lambda: build_spmd(comm, nx))
        rhs = [make_rhs(problem.b, seed, name, j, comm.rank) for j in range(N_RHS)]

        def rep(i: int) -> None:
            b = rhs[i % N_RHS]
            x, stats = timed(
                cal,
                comm,
                "primary",
                lambda: solver.solve(b, tol=TOL, maxiter=MAXITER),
            )
            ok = check_spmd(comm, solver, b, x, stats)
            if comm.rank != 0:
                return  # waits in the next barrier while rank 0 works alone
            tally.note(ok)
            iters["primary"].append(stats.iterations)
            b1 = box_rhs[i % N_RHS]
            x1, stats1 = timed(
                cal,
                serial,
                "reference",
                lambda: box_solver.solve(b1, tol=TOL, maxiter=MAXITER),
            )
            tally.note(check_serial(box, b1, x1, stats1))
            iters["reference"].append(stats1.iterations)

        repeat_for(seconds, comm, rep)
        return problem.nlocal

    nlocal = run_spmd(2, rank_main)[0]
    cal.finish()
    detail = {
        "rows_per_rank": nlocal,
        "ranks": 2,
        "working_set_bytes": {
            "fp64": 2 * ell_bytes(nlocal, 8),
            "fp32": 2 * ell_bytes(nlocal, 4),
        },
        "iterations_mxp": iters["primary"],
        "iterations_serial_box": iters["reference"],
    }
    return Outcome(cal, tally, normalise=False, detail=detail)


# ----------------------------------------------------------------------
# service16
# ----------------------------------------------------------------------
class ServiceTraffic:
    """The two operators of service16 and the request stream on them.

    Clients 0-5 hammer the small operator through the mixed ladder,
    clients 6-7 the larger one in double, so batches of two operators
    overlap on the service's worker threads.
    """

    def __init__(self, name, seed, nx, nx_b, quotas=SERVICE_QUOTAS) -> None:
        self.name, self.seed, self.quotas = name, seed, quotas
        self.problems = {
            "A": generate_problem(Subdomain.serial(nx)),
            "B": generate_problem(Subdomain.serial(nx_b)),
        }
        self.ladders = {"A": SERVICE_LADDER, "B": None}
        self.client_ops = ["A"] * (len(quotas) - 2) + ["B"] * 2
        self.sent = 0
        self.fingerprints: dict[str, str] = {}

    def new_service(self) -> SolverService:
        """A fresh service with both operators registered (registering
        hashes the matrix, so it happens here and not per request)."""
        svc = SolverService(
            batch_window=0.005, max_panel=PANEL, max_pending=32, max_arenas=2
        )
        for key, problem in self.problems.items():
            self.fingerprints[key] = svc.register_operator(problem)
        return svc

    def request(self, key: str, b: np.ndarray) -> SolveRequest:
        return SolveRequest(
            operator=self.fingerprints[key],
            b=b,
            ladder=self.ladders[key],
            tol=TOL,
            maxiter=MAXITER,
            timeout=SERVICE_TIMEOUT_S,
        )

    def check(self, key: str, b, response) -> bool:
        """A refused or timed-out request (``None``) is a failure."""
        return response is not None and check_serial(
            self.problems[key], b, response.x, response.stats
        )

    async def round(self, svc) -> tuple[float, float, list[dict]]:
        """One closed-loop round: every client sends its quota, each
        request only after the previous one returned.  Returns the
        round's start and end (the right-hand sides are drawn before
        the clock starts) and one record per request."""
        records: list[dict] = []

        async def client(cid: int, key: str, rhs: list, first_rid: int) -> None:
            for k, b in enumerate(rhs):
                request = self.request(key, b)
                t0 = time.perf_counter()
                try:
                    # Two operators share two arenas: a third batch is
                    # refused with retry-after, and a client backs off
                    # and resubmits as the service's API intends.
                    response = await svc.solve_with_retry(
                        request, rng=random.Random(first_rid + k)
                    )
                except ServiceError:
                    response = None
                records.append(
                    {
                        "rid": first_rid + k,
                        "client": cid,
                        "key": key,
                        "b": b,
                        "start": t0,
                        "end": time.perf_counter(),
                        "response": response,
                    }
                )

        plans = []
        for cid, quota in enumerate(self.quotas):
            key = self.client_ops[cid]
            rhs = [
                make_rhs(self.problems[key].b, self.seed, self.name, self.sent + k)
                for k in range(quota)
            ]
            plans.append((cid, key, rhs, self.sent))
            self.sent += quota
        start = time.perf_counter()
        await asyncio.gather(*(client(*plan) for plan in plans))
        return start, time.perf_counter(), records


def run_service(
    name: str,
    seconds: float,
    seed: int,
    nx: int,
    nx_b: int,
    quotas=SERVICE_QUOTAS,
) -> Outcome:
    """Closed loop of eight in-process asyncio clients, two operators."""
    cal, tally, comm = Calibrator(), Tally(), SerialComm()
    cal.probe()
    traffic = ServiceTraffic(name, seed, nx, nx_b, quotas)
    box = traffic.problems["A"]
    direct = GMRESIRSolver(
        box, comm, policy=PrecisionPolicy.from_ladder(SERVICE_LADDER)
    )
    direct.solve(box.b, tol=0.0, maxiter=3)
    direct_rhs = [
        make_rhs(box.b, seed, name, j, rank=1)
        for j in range(SERVICE_DIRECT_PER_ROUND)
    ]
    service_metrics: dict = {}

    async def setup() -> SolverService:
        """register_operator x2 + the first (cold-cache) request each."""
        svc = traffic.new_service()
        await svc.start()
        for key, problem in traffic.problems.items():
            response = await svc.solve(traffic.request(key, problem.b))
            tally.note(traffic.check(key, problem.b, response))
        return svc

    async def main() -> None:
        svc = None
        begin = time.perf_counter()
        n = 0
        while more_builds(n, begin):
            if svc is not None:
                await svc.stop()
            svc = None
            gc.collect()
            cal.maybe_probe()
            t0 = time.perf_counter()
            svc = await setup()
            cal.record("setup", t0, time.perf_counter())
            n += 1

        begin = time.perf_counter()
        rounds = 0
        while True:
            cal.probe()
            start, end, records = await traffic.round(svc)
            cal.record("round", start, end)
            cal.maybe_probe()
            rounds += 1
            for rec in records:
                ok = traffic.check(rec["key"], rec["b"], rec["response"])
                tally.note(ok)
                if ok:
                    cal.record("primary", rec["start"], rec["end"])
            # The same kind of request without the service, between rounds.
            for b in direct_rhs:
                x, stats = timed(
                    cal,
                    comm,
                    "reference",
                    lambda b=b: direct.solve(b, tol=TOL, maxiter=MAXITER),
                )
                tally.note(check_serial(box, b, x, stats))
            if time_is_up(begin, rounds, seconds):
                break
        service_metrics.update(svc.metrics.to_dict())
        await svc.stop()

    asyncio.run(main())
    cal.finish()
    rows = {key: p.nlocal for key, p in traffic.problems.items()}
    detail = {
        "rows": rows,
        "clients": len(quotas),
        "requests": traffic.sent,
        "working_set_bytes": {
            "A_fp64": ell_bytes(rows["A"], 8),
            "A_fp32": ell_bytes(rows["A"], 4),
            "B_fp64": ell_bytes(rows["B"], 8),
        },
        "service_metrics": service_metrics,
    }
    return Outcome(cal, tally, rate_side="round", detail=detail)


# ----------------------------------------------------------------------
# End-to-end metrics (the same six for every workload)
# ----------------------------------------------------------------------
def end_to_end(outcome: Outcome) -> dict[str, dict]:
    """The end-to-end metrics of one run, each with its raw record."""

    def samples(side: str):
        norm, raw = outcome.cal.samples(side)
        return (norm if outcome.normalise else raw), raw

    metrics = {}
    for name, side in (
        ("setup_s", "setup"),
        ("tts_s", "primary"),
        ("ref_tts_s", "reference"),
    ):
        metrics[name] = summary(*samples(side))
    norm, raw = samples("primary")
    count = len(norm)
    metrics["tts_tail_s"] = {"value": tail(norm), "raw": tail(raw), "n": count}
    norm, raw = samples(outcome.rate_side)
    metrics["rhs_per_s"] = {
        "value": count / sum(norm),
        "raw": count / sum(raw),
        "n": count,
    }
    metrics["peak_rss_mb"] = {"value": peak_rss_mb()}
    return metrics


#: name -> (function, size arguments).  Sizes are the issue's; the smoke
#: test calls the same functions at 8^3.
WORKLOADS = {
    "solve48": (run_solve, {"nx": 48}),
    "solve16": (run_solve, {"nx": 16}),
    "panel32": (run_panel, {"nx": 32}),
    "spmd2x32": (run_spmd_pair, {"nx": 32}),
    "service16": (run_service, {"nx": 16, "nx_b": 24}),
}

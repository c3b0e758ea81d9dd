"""The traced pass: per-layer metrics and the span tree.

Every layer is measured from outside, through public functions and the
two public seams (``GMRESIRSolver(timers=...)`` and
``registry.set_wrapper``).  One shared routine, :func:`trace_stack`,
measures the layers every workload runs through (machine probe, set-up
products, level-0 kernels, dispatch, V-cycle, solver, precision) on the
workload's own operator and communicator; the workload-specific layers
(``parallel`` on spmd2x32, ``service`` on service16, the panel path on
panel32) are measured beside it.  A per-layer metric whose layer the
workload does not execute reads 0 — the layer did no work.

Shares are sums over the traced solves divided by their wall; times of
single calls are medians, speed-normalised like the end-to-end numbers.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

import numpy as np
from noise import Calibrator, quartiles
from spans import MG_SECTIONS, SpanRecorder, descendants, self_times
from workloads import (
    MAXITER,
    PANEL,
    SERVICE_LADDER,
    SERVICE_QUOTAS,
    TOL,
    ServiceTraffic,
    Tally,
    check_serial,
    check_spmd,
    make_rhs,
    repeat_for,
    time_is_up,
    timed,
)

import repro.backends as backends
from repro.backends.registry import registry
from repro.backends.workspace import Workspace
from repro.core.flops import flops_gmres_solve, hierarchy_dims, total_flops
from repro.fp.policy import DOUBLE_POLICY, MIXED_DS_POLICY, PrecisionPolicy
from repro.fp.precision import Precision
from repro.geometry.grid import BoxGrid
from repro.geometry.partition import ProcessGrid, Subdomain
from repro.mg.multigrid import MGConfig
from repro.parallel.comm import SerialComm
from repro.parallel.spmd import run_spmd
from repro.perf.kernels import KernelModel
from repro.perf.machine import probe_machine
from repro.perf.scaling import ScalingModel
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.solvers.ortho import cgs2_fused
from repro.solvers.setup_cache import SetupCache
from repro.sparse.formats import to_format
from repro.sparse.partitioned import partition_matrix
from repro.sparse.scaled import to_precision
from repro.stencil.poisson27 import generate_problem

#: Bytes per array of the STREAM-style probe (three arrays).  Stated
#: beside the cache sizes in the machine block: 64 MiB is below four
#: times the host's shared L3, so the figure is a context number.
PROBE_ARRAY_BYTES = 1 << 26
#: Share of ``--seconds`` the solve phase may use, and its cap — five
#: traced solves are plenty at 16^3 and keep the span file small.
SOLVE_PHASE_SHARE, MAX_TRACED = 0.75, 5
#: Micro-operations timed after the solve phase share what is left of
#: ``--seconds``, within these per-operation limits.
MICRO_OPS, MICRO_MIN_S, MICRO_MAX_S = 14, 0.05, 0.4
ORTHO_K = 15
DISPATCH_CALLS = 200
RESTART = 30

#: Per-layer metrics of layers only some workloads execute; they read
#: 0 unless the workload's own pass overwrites them.
_WORKLOAD_SPECIFIC = (
    "solvers.panel_speedup",
    "solvers.setup_cache_hit_rate",
    "parallel.weak_eff",
    "service.coalesce_width",
    "service.batches",
    "service.queue_wait_share",
    "service.batch_vs_direct",
    "service.overlap_factor",
    "service.rejected",
    "service.pool_exhaustions",
)


class Traced:
    """What one traced pass hands back."""

    def __init__(self) -> None:
        self.cal = Calibrator()
        self.rec = SpanRecorder()
        self.tally = Tally()
        self.values: dict[str, float] = dict.fromkeys(_WORKLOAD_SPECIFIC, 0.0)
        self.detail: dict = {}

    def median(self, side: str) -> float:
        """Median speed-normalised seconds of one recorded side."""
        return quartiles(self.cal.samples(side)[0])[1]


class _Bench:
    """Median seconds of a micro-operation, probe-bracketed.

    Local operations run on rank 0 only (the other ranks wait in the
    next collective); collective ones run everywhere with the
    repetition count decided by rank 0.
    """

    def __init__(self, comm, cal: Calibrator, budget_s: float) -> None:
        self.comm = comm
        self.cal = cal
        self.budget_s = budget_s
        self.last = cal.probe() if comm.rank == 0 else 1.0

    def __call__(self, fn, collective: bool = False, min_reps: int = 3) -> float:
        comm = self.comm
        if not collective and comm.rank != 0:
            return 0.0

        def once() -> float:
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        first = once()  # warm-up, and the estimate that sizes the loop
        reps = min(max(int(self.budget_s / max(first, 1e-9)), min_reps), 200)
        if collective:
            reps = comm.bcast(reps, root=0)
        med = statistics.median(once() for _ in range(reps))
        if comm.rank == 0:
            now = self.cal.probe()
            med /= 0.5 * (self.last + now)
            self.last = now
        return med


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _counters(comm, solver) -> dict:
    """The program's own counters, read around one untraced operation."""
    ops = [solver.op64]
    if solver.op_inner is not solver.op64:
        ops.append(solver.op_inner)
    return {
        "halo_s": solver.halo_seconds(),
        "halo_exposed_s": solver.halo_exposed_seconds(),
        "halo_msgs": solver.halo_message_count(),
        "halo_bytes": solver.halo_sent_bytes(),
        "allreduces": comm.stats.allreduces,
        "passes": sum(op.matrix_passes for op in ops),
        "columns": sum(op.rhs_columns for op in ops),
    }


def span_shares(shard, nlocal: int, iterations: int) -> dict[str, float]:
    """Shares of the traced solves' wall, from one rank's span tree."""
    roots = [
        i
        for i in range(shard.count)
        if shard.kind[i] == "root" and shard.name[i] == "traced"
    ]
    tree = descendants(shard, roots)
    own = self_times(shard)
    wall = sum(shard.end[i] - shard.start[i] for i in roots)
    dur = dict.fromkeys(("gs", "spmv", "ortho"), 0.0)
    kernels = 0
    top_kernel_s = mg_total = mg_self = mg_level0 = 0.0
    first_rows: dict[int, int] = {}  # section -> rows of its first kernel
    for i in tree:
        if shard.kind[i] == "kernel":
            kernels += 1
            p = shard.parent[i]
            if shard.kind[p] != "kernel":
                top_kernel_s += shard.end[i] - shard.start[i]
                first_rows.setdefault(p, shard.rows[i])
    for i in tree:
        name = shard.name[i]
        if shard.kind[i] != "section":
            continue
        d = shard.end[i] - shard.start[i]
        if name in dur:
            dur[name] += d
        if name in MG_SECTIONS:
            mg_total += d
            mg_self += own[i]
            if first_rows.get(i, 0) >= nlocal:  # operands of the fine level
                mg_level0 += d
    return {
        "backends.dispatches_per_iter": kernels / iterations,
        "backends.kernel_time_frac": top_kernel_s / wall,
        "mg.gs_share": dur["gs"] / wall,
        "mg.level0_frac": mg_level0 / mg_total,
        "mg.glue_frac": mg_self / wall,
        "solvers.spmv_share": dur["spmv"] / wall,
        "solvers.ortho_share": dur["ortho"] / wall,
        "solvers.glue_frac": sum(own[i] for i in roots) / wall,
        "selftime_closure": sum(own[i] for i in tree) / wall,
    }


def micro_ops(bench: _Bench, comm, solvers, A64, P, target, policy_m) -> dict:
    """Seconds per call of the micro-operations, on the level-0 operands
    of the built solvers (``"m"`` mixed, ``"d"`` double), plus the
    computed bytes of the four kernels.  ``target`` is the serial
    problem of the warm-cache constructor timing."""
    n = A64.nrows
    rng = np.random.default_rng(7)
    ws = solvers["m"].ws
    model = KernelModel()
    micro: dict[str, float] = {}
    for tag, key, prec in (
        ("fp64", "d", Precision.DOUBLE),
        ("fp32", "m", Precision.SINGLE),
    ):
        solver = solvers[key]
        A = solver.A64 if key == "d" else solver.A_low
        lv = solver.M.levels[0]
        x = rng.standard_normal(A.ncols).astype(A.dtype)
        y = np.empty(n, dtype=A.dtype)
        r = rng.standard_normal(n).astype(A.dtype)
        xfull = np.zeros(n + lv.halo_ex.n_ghost, dtype=A.dtype)
        micro["spmv_" + tag] = bench(
            lambda A=A, x=x, y=y: backends.spmv(A, x, out=y, ws=ws)
        )
        micro["symgs_" + tag] = bench(
            lambda lv=lv, r=r, xfull=xfull: lv.smoother.forward(r, xfull)
        )
        # Bytes are *computed* from the traffic model, not measured.
        micro["spmv_bytes_" + tag] = model.spmv(n, prec, "ell").nbytes
        micro["symgs_bytes_" + tag] = model.gs_sweep(
            n, prec, num_colors=lv.num_colors, fmt="ell"
        ).nbytes

    tiny = np.zeros(8), np.ones(8), np.empty(8)

    def dispatch_loop() -> None:
        for _ in range(DISPATCH_CALLS):
            backends.waxpby(1.0, tiny[0], 2.0, tiny[1], out=tiny[2])

    micro["dispatch"] = bench(dispatch_loop) / DISPATCH_CALLS

    solver = solvers["m"]
    lv = solver.M.levels[0]
    A32 = solver.A_low
    dtype = A32.dtype
    X8 = np.asfortranarray(rng.standard_normal((A32.ncols, PANEL)).astype(dtype))
    Y8 = np.empty((n, PANEL), dtype=dtype, order="F")
    R8 = np.asfortranarray(rng.standard_normal((n, PANEL)).astype(dtype))
    XF8 = np.zeros((n + lv.halo_ex.n_ghost, PANEL), dtype=dtype, order="F")
    micro["spmv_multi8"] = bench(
        lambda: backends.spmv_multi(A32, X8, out=Y8, ws=ws), min_reps=2
    )
    micro["symgs_multi8"] = bench(
        lambda: lv.smoother.forward_panel(R8, XF8), min_reps=2
    )
    xg = rng.standard_normal(A64.ncols)
    y64 = np.empty(n)
    micro["spmv_whole"] = bench(lambda: backends.spmv(A64, xg, out=y64, ws=ws))

    def split_spmv() -> None:
        backends.spmv_interior(P, xg, out=y64, ws=ws)
        backends.spmv_boundary(P, xg, out=y64, ws=ws)

    micro["spmv_split"] = bench(split_spmv)

    r1 = R8[:, 0].copy()
    z1 = np.empty(n, dtype=dtype)
    Z8 = np.empty((n, PANEL), dtype=dtype, order="F")
    micro["vcycle"] = bench(lambda: solver.M.apply(r1, out=z1), collective=True)
    micro["vcycle_panel8"] = bench(
        lambda: solver.M.apply_panel(R8, out=Z8), collective=True, min_reps=2
    )
    Q = solver.Q
    w0 = rng.standard_normal(n).astype(Q.dtype)
    w = np.empty_like(w0)

    def ortho_step() -> None:
        np.copyto(w, w0)  # the step projects w in place
        cgs2_fused(comm, Q, ORTHO_K, w, ws=ws)

    micro["ortho_step"] = bench(ortho_step, collective=True)

    cache, arena = SetupCache(), Workspace("suite-batch")

    def construct() -> None:
        GMRESIRSolver(
            target,
            SerialComm(),
            policy=policy_m,
            setup_cache=cache,
            workspace=arena,
        )

    if comm.rank == 0:
        construct()  # the cold build fills the cache
    micro["batch_construct"] = bench(construct)
    return micro


def micro_values(micro: dict, triad: float) -> dict[str, float]:
    """The per-layer metrics derived from :func:`micro_ops` and the
    triad bandwidth (bytes/s) of the same pass."""
    values = {}
    for kernel in ("spmv", "symgs"):
        for tag in ("fp64", "fp32"):
            t = micro[f"{kernel}_{tag}"]
            values[f"backends.{kernel}_{tag}_us"] = t * 1e6
            values[f"backends.{kernel}_{tag}_frac_triad"] = (
                micro[f"{kernel}_bytes_{tag}"] / t / triad
            )
        values[f"backends.fp32_{kernel}_gain"] = (
            micro[kernel + "_fp64"] / micro[kernel + "_fp32"]
        )
    values["backends.dispatch_us"] = micro["dispatch"] * 1e6
    values["backends.spmv_multi8_amortization"] = (
        PANEL * micro["spmv_fp32"] / micro["spmv_multi8"]
    )
    values["backends.symgs_multi8_amortization"] = (
        PANEL * micro["symgs_fp32"] / micro["symgs_multi8"]
    )
    values["mg.vcycle_panel8_amortization"] = (
        PANEL * micro["vcycle"] / micro["vcycle_panel8"]
    )
    values["backends.spmv_split_overhead"] = micro["spmv_split"] / micro["spmv_whole"]
    values["mg.vcycle_us"] = micro["vcycle"] * 1e6
    values["solvers.ortho_step_us"] = micro["ortho_step"] * 1e6
    values["service.batch_construct_us"] = micro["batch_construct"] * 1e6
    return values


def trace_stack(
    out: Traced,
    name: str,
    seconds: float,
    seed: int,
    comm,
    sub: Subdomain,
    policy_m: PrecisionPolicy = MIXED_DS_POLICY,
    panel: bool = False,
    box=None,
) -> dict:
    """Measure the layers every workload runs through, on ``sub``.

    Runs on every rank of ``comm``; values and samples are written by
    rank 0.  ``panel`` makes the traced operation a ``solve_panel`` of
    eight columns; ``box`` is the serial problem used for the
    warm-cache constructor timing when ``sub`` is one rank of many.
    Returns what the workload-specific passes build on.
    """
    cal, rec, tally, values = out.cal, out.rec, out.tally, out.values
    lead = comm.rank == 0
    begin = time.perf_counter()
    rec.bind_rank(comm.rank)
    if lead:
        cal.probe()
        machine = probe_machine(nbytes=PROBE_ARRAY_BYTES)
        values["perf.triad_gbs"] = machine.triad_bandwidth / 1e9
        values["perf.copy_gbs"] = machine.copy_bandwidth / 1e9
        values["perf.numpy_call_us"] = machine.dispatch_latency * 1e6
        out.detail["probe_array_bytes"] = PROBE_ARRAY_BYTES

    # -- set-up products, one timed call each --------------------------
    def convert():
        A = to_format(problem.A, "ell")
        return A, to_precision(A, "fp32")

    problem = timed(cal, comm, "generate", lambda: generate_problem(sub))
    A64, _ = timed(cal, comm, "to_format", convert)
    P = timed(cal, comm, "partition", lambda: partition_matrix(A64, problem.halo))
    n = problem.nlocal
    B = np.asfortranarray(
        np.stack(
            [make_rhs(problem.b, seed, name, j, comm.rank) for j in range(PANEL)],
            axis=1,
        )
    )
    b = B[:, 0].copy()
    solvers = {}
    for key, policy, timers in (
        ("m", policy_m, None),
        ("d", DOUBLE_POLICY, None),
        ("t", policy_m, rec),
    ):
        solver = timed(
            cal,
            comm,
            "construct",
            lambda policy=policy, timers=timers: GMRESIRSolver(
                problem, comm, policy=policy, timers=timers
            ),
        )

        def warm_up(solver=solver) -> None:
            solver.solve(problem.b, tol=0.0, maxiter=3)
            if panel:
                solver.solve_panel(B, tol=0.0, maxiter=3)

        timed(cal, comm, "warmup", warm_up)
        solvers[key] = solver

    # -- the solve phase: untraced / traced / double, interleaved ------
    def run(key: str, side: str, as_panel: bool = False):
        """One timed solve (or panel solve) on ``solvers[key]``; returns
        ``(solution columns, stats per column)``."""
        solver = solvers[key]

        def op():
            with rec.span(side):
                if as_panel:
                    X, stats = solver.solve_panel(B, tol=TOL, maxiter=MAXITER)
                    return [X[:, j] for j in range(PANEL)], stats
                x, stats = solver.solve(b, tol=TOL, maxiter=MAXITER)
                return [x], [stats]

        return timed(cal, comm, side, op)

    def check(key: str, result) -> list:
        """Tally every column of ``result``; returns its stats."""
        columns, stats = result
        for j, (xj, sj) in enumerate(zip(columns, stats)):
            ok = check_spmd(comm, solvers[key], B[:, j], xj, sj)
            if lead:
                tally.note(ok)
        return stats

    def on_lead(action) -> None:
        """Run ``action`` on rank 0 while every rank is quiescent."""
        comm.barrier()
        if lead:
            action()
        comm.barrier()

    seen: dict = {"iters_traced": 0}

    def rep(_i: int) -> None:
        solver = solvers["m"]
        solver.reset_halo_counters()
        before = _counters(comm, solver)
        result = run("m", "untraced", as_panel=panel)
        # Read before the check below runs its own operator pass.
        seen["counters"] = before, _counters(comm, solver)
        seen["primary"] = check("m", result)
        on_lead(lambda: registry.set_wrapper(rec.wrap))
        try:
            result = run("t", "traced", as_panel=panel)
        finally:
            on_lead(lambda: registry.set_wrapper(None))
        seen["iters_traced"] += sum(s.iterations for s in check("t", result))
        if not panel:
            seen["double"] = check("d", run("d", "double"))

    # Spans are on for the whole phase (an untraced solve records only
    # its own root span); kernels are wrapped for the traced solves only.
    on_lead(rec.start)
    try:
        with rec.span(name):
            repeat_for(SOLVE_PHASE_SHARE * seconds, comm, rep, max_reps=MAX_TRACED)
    finally:
        on_lead(rec.stop)
    seen["mxp"] = seen["primary"]
    if panel:
        # No plain solve sits in the panel repetitions; the precision
        # metrics still want one mixed and one double solve.
        seen["mxp"] = check("m", run("m", "mxp"))
        seen["double"] = check("d", run("d", "double"))
    if lead:
        cal.finish()

    # -- micro-operations, then every per-layer value ---------------------
    left = seconds - (time.perf_counter() - begin)
    bench = _Bench(comm, cal, min(max(left / MICRO_OPS, MICRO_MIN_S), MICRO_MAX_S))
    target = box if box is not None else problem
    micro = micro_ops(bench, comm, solvers, A64, P, target, policy_m)
    if not lead:
        return {}
    for side, metric in (
        ("generate", "stencil.generate_s"),
        ("to_format", "sparse.to_format_s"),
        ("partition", "sparse.partition_s"),
        ("construct", "solvers.construct_s"),
        ("warmup", "solvers.warmup_s"),
    ):
        values[metric] = out.median(side)
    values.update(micro_values(micro, values["perf.triad_gbs"] * 1e9))

    shares = span_shares(rec.shard_of(0), n, seen["iters_traced"])
    out.detail["selftime_closure"] = shares.pop("selftime_closure")
    values.update(shares)
    untraced = out.median("untraced")
    values["trace.overhead_frac"] = out.median("traced") / untraced - 1.0

    stats_m, stats_d = seen["mxp"][0], seen["double"][0]
    mxp_s = out.median("mxp") if panel else untraced
    penalty = min(1.0, stats_d.iterations / stats_m.iterations)
    values["solvers.iters_mxp"] = stats_m.iterations
    values["solvers.iters_double"] = stats_d.iterations
    values["solvers.restarts_mxp"] = stats_m.restarts
    values["fp.mxp_speedup"] = out.median("double") / mxp_s
    values["fp.iter_penalty"] = penalty
    values["fp.promotions"] = len(stats_m.promotions)
    gg = sub.global_grid
    flops = total_flops(
        flops_gmres_solve(
            hierarchy_dims(gg.nx, gg.ny, gg.nz, MGConfig().nlevels),
            MGConfig(),
            stats_m.cycle_lengths,
        )
    )
    values["core.mxp_gflops_rated"] = flops / mxp_s * penalty / 1e9
    values["core.rss_mb"] = rss_mb()

    before, after = seen["counters"]
    c = {k: after[k] - before[k] for k in after}
    iters = sum(s.iterations for s in seen["primary"])
    values["solvers.panel_matrix_reuse"] = c["columns"] / c["passes"]
    values["parallel.halo_frac"] = c["halo_s"] / cal.last("untraced")
    values["parallel.halo_exposed_frac"] = (
        c["halo_exposed_s"] / c["halo_s"] if c["halo_s"] else 0.0
    )
    values["parallel.halo_msgs_per_iter"] = c["halo_msgs"] / iters
    values["parallel.halo_bytes_per_iter"] = c["halo_bytes"] / iters
    values["parallel.allreduces_per_iter"] = c["allreduces"] / iters
    local = sub.local
    model_bytes = ScalingModel(
        local_dims=(local.nx, local.ny, local.nz), restart=RESTART
    ).halo_traffic_bytes(policy_m)
    values["parallel.halo_model_ratio"] = values["parallel.halo_bytes_per_iter"] / (
        model_bytes / RESTART
    )
    return {
        "solvers": solvers,
        "problem": problem,
        "s_per_iter": untraced / iters,
    }


# ----------------------------------------------------------------------
# The five traced passes
# ----------------------------------------------------------------------
def trace_solve(name: str, seconds: float, seed: int, nx: int) -> Traced:
    out = Traced()
    trace_stack(out, name, seconds, seed, SerialComm(), Subdomain.serial(nx))
    return out


def trace_panel(name: str, seconds: float, seed: int, nx: int) -> Traced:
    """The shared stack with ``solve_panel`` as the traced operation,
    then the eight columns solved solo for ``solvers.panel_speedup``."""
    out = Traced()
    comm = SerialComm()
    built = trace_stack(
        out, name, 0.6 * seconds, seed, comm, Subdomain.serial(nx), panel=True
    )
    solver, problem = built["solvers"]["m"], built["problem"]
    for j in range(PANEL):
        b = make_rhs(problem.b, seed, name, j)
        x, stats = timed(
            out.cal,
            comm,
            "looped",
            lambda b=b: solver.solve(b, tol=TOL, maxiter=MAXITER),
        )
        out.tally.note(check_serial(problem, b, x, stats))
    out.cal.finish()
    out.values["solvers.panel_speedup"] = out.median("looped") / (
        out.median("untraced") / PANEL
    )
    return out


def trace_spmd(name: str, seconds: float, seed: int, nx: int) -> Traced:
    """The shared stack on both thread-ranks (spans per rank), plus the
    one-rank box for the weak-scaling efficiency."""
    out = Traced()
    box = generate_problem(Subdomain.serial(nx))
    built: dict = {}

    def rank_main(comm) -> None:
        sub = Subdomain(BoxGrid(nx, nx, nx), ProcessGrid(comm.size, 1, 1), comm.rank)
        built.update(trace_stack(out, name, 0.8 * seconds, seed, comm, sub, box=box))

    try:
        run_spmd(2, rank_main)
    finally:
        # A rank that raised leaves its peer in a broken barrier, short
        # of the clean-up in trace_stack.
        registry.set_wrapper(None)
    serial = SerialComm()
    solver = GMRESIRSolver(box, serial, policy=MIXED_DS_POLICY)
    solver.solve(box.b, tol=0.0, maxiter=3)
    b = make_rhs(box.b, seed, name, 0, rank=2)
    for _ in range(3):
        x, stats = timed(
            out.cal,
            serial,
            "box",
            lambda: solver.solve(b, tol=TOL, maxiter=MAXITER),
        )
        out.tally.note(check_serial(box, b, x, stats))
    out.cal.finish()
    out.values["parallel.weak_eff"] = (
        out.median("box") / stats.iterations / built["s_per_iter"]
    )
    return out


def trace_service(
    name: str,
    seconds: float,
    seed: int,
    nx: int,
    nx_b: int,
    quotas=SERVICE_QUOTAS,
) -> Traced:
    """The shared stack on the small operator (the request a client
    sends, solved directly), then closed-loop rounds through the
    service for the waiting-vs-solving split."""
    out = Traced()
    cal, values = out.cal, out.values
    trace_stack(
        out,
        name,
        0.5 * seconds,
        seed,
        SerialComm(),
        Subdomain.serial(nx),
        policy_m=PrecisionPolicy.from_ladder(SERVICE_LADDER),
    )
    direct_s = quartiles(cal.samples("untraced")[1])[1]
    traffic = ServiceTraffic(name, seed, nx, nx_b, quotas)
    svc = traffic.new_service()
    records: list[dict] = []

    async def main() -> None:
        async with svc:
            begin = time.perf_counter()
            rounds = 0
            while True:
                cal.probe()
                start, end, got = await traffic.round(svc)
                cal.record("round", start, end)
                records.extend(got)
                rounds += 1
                if time_is_up(begin, rounds, 0.4 * seconds):
                    break

    asyncio.run(main())
    cal.finish()
    wait_s = latency_s = 0.0
    batch_solve_s = []
    for r in records:
        ok = traffic.check(r["key"], r["b"], r["response"])
        out.tally.note(ok)
        if ok:
            latency_s += r["end"] - r["start"]
            wait_s += r["end"] - r["start"] - r["response"].solve_seconds
            batch_solve_s.append(r["response"].solve_seconds)
            out.rec.add(f"request[{r['rid']}]", r["start"], r["end"])
    m = svc.metrics
    values["service.coalesce_width"] = m.coalesce_width
    values["service.batches"] = m.batches
    values["service.queue_wait_share"] = wait_s / latency_s
    values["service.batch_vs_direct"] = statistics.median(batch_solve_s) / direct_s
    values["service.overlap_factor"] = m.solve_seconds / sum(cal.samples("round")[1])
    values["service.rejected"] = m.rejected
    values["service.pool_exhaustions"] = m.pool_exhaustions
    values["solvers.setup_cache_hit_rate"] = m.setup_cache_hit_rate
    values["solvers.panel_matrix_reuse"] = m.panel_matrix_reuse
    return out


def per_layer(traced: Traced) -> dict[str, float]:
    """Every per-layer value of a finished pass, the calibration-derived
    ones included."""
    traced.values["perf.core_speed_min"] = traced.cal.speed_min()
    traced.values["perf.slow_frac"] = traced.cal.slow_frac()
    return traced.values


TRACED = {
    "solve48": (trace_solve, {"nx": 48}),
    "solve16": (trace_solve, {"nx": 16}),
    "panel32": (trace_panel, {"nx": 32}),
    "spmd2x32": (trace_spmd, {"nx": 32}),
    "service16": (trace_service, {"nx": 16, "nx_b": 24}),
}

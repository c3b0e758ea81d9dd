"""Human-readable benchmark reports (official-output style)."""

from __future__ import annotations

from repro.core.benchmark import BenchmarkResult
from repro.util.timers import MOTIFS


def format_report(result: BenchmarkResult) -> str:
    """Render a benchmark result as an official-style text report."""
    cfg = result.config
    val = result.validation
    lines: list[str] = []
    add = lines.append

    add("HPG-MxP Benchmark (reproduction)")
    add("=" * 60)
    add("[Parameters]  (official value | this run)")
    for name, (official, actual) in cfg.table1().items():
        add(f"  {name}: {official} | {actual}")
    add(f"  Implementation: {cfg.impl}")
    add(f"  Ranks (GCDs): {cfg.nranks}  (nodes: {cfg.nodes:g})")
    add(f"  Matrix: {cfg.matrix_kind}, format {cfg.matrix_format}")
    add(f"  Setup/optimization time: {result.setup_seconds:.3f} s")
    add("")
    add(f"[Validation]  mode={val.mode} on {val.ranks} rank(s)")
    add(f"  double GMRES iterations (n_d): {val.n_d}")
    add(f"  GMRES-IR iterations (n_ir):    {val.n_ir}")
    add(f"  ratio n_d/n_ir: {val.ratio:.4f}   penalty applied: {val.penalty:.4f}")
    add(
        f"  double relres: {val.double_relres:.3e}  "
        f"(converged: {val.double_converged})"
    )
    add(f"  mxp relres:    {val.ir_relres:.3e}  (converged: {val.ir_converged})")
    if val.target_residual is not None:
        add(f"  fullscale target residual: {val.target_residual:.3e}")
    add("")
    for phase in (result.mxp, result.double):
        add(f"[Phase: {phase.label}]")
        add(f"  iterations: {phase.iterations}")
        add(f"  wall seconds: {phase.total_seconds:.3f}")
        add(f"  model GFLOP:  {phase.total_flops / 1e9:.3f}")
        add(f"  GFLOP/s raw:  {phase.gflops_raw:.3f}")
        add(f"  GFLOP/s rated:{phase.gflops:.3f}  (penalty {phase.penalty:.4f})")
        add("  time by motif:")
        fr = phase.time_fractions()
        for m in MOTIFS:
            s = phase.seconds_by_motif.get(m, 0.0)
            if s > 0:
                add(f"    {m:<9} {s:8.3f} s  ({100 * fr.get(m, 0):5.1f}%)")
        add("")
    add("[Speedups mxp vs double]  (penalized GFLOP/s ratio)")
    for m, v in sorted(result.speedups.items()):
        add(f"  {m:<9} {v:.3f}x")
    if result.distributed is not None:
        d = result.distributed
        add("")
        add(
            f"[Phase: distributed]  grid {d.grid[0]}x{d.grid[1]}x{d.grid[2]}"
            f" ({d.nranks} rank(s)), blocking halo pipeline"
        )
        add(
            f"  wall seconds: {d.wall_seconds:.3f}  "
            f"({d.solves} solve(s), {d.iterations} iterations)"
        )
        add(f"  comm bytes/iteration (measured): {d.comm_bytes_per_iteration:.0f}")
        add(f"  model bytes/cycle (HBM+halo):    {d.model_bytes_per_cycle:.0f}")
        add(f"  model symgs bytes/cycle:         {d.model_symgs_bytes_per_cycle:.0f}")
        if d.halo_seconds > 0:
            add(
                f"  halo comm: {d.halo_seconds:.3f} s in "
                f"{d.halo_exchanges} blocking exchange(s)"
            )
        if d.rhs_panel > 1:
            add(
                f"  batched solves: panel of {d.rhs_panel} RHS in "
                f"{d.panel_wall_seconds:.3f} s — matrix reuse "
                f"{d.panel_matrix_reuse:.2f} columns/pass, model "
                f"{d.bytes_per_rhs:.0f} bytes/RHS "
                f"({d.model_bytes_per_cycle / d.bytes_per_rhs:.2f}x "
                f"amortization), setup cache "
                f"{d.panel_setup_cache_hits} hits / "
                f"{d.panel_setup_cache_misses} misses"
            )
    if result.service is not None:
        s = result.service
        add("")
        add(
            f"[Phase: service]  {s.clients} client(s) x {s.rounds} round(s), "
            f"{s.batches} coalesced batch(es)"
        )
        add(
            f"  wall seconds: {s.wall_seconds:.3f}  "
            f"({s.completed} completed, {s.rejected} rejected, "
            f"{s.timed_out} timed out)"
        )
        add(
            f"  coalesce width: {s.coalesce_width:.2f} mean / "
            f"{s.max_coalesce_width} max"
        )
        add(
            f"  matrix reuse: {s.panel_matrix_reuse:.2f} columns/pass  "
            f"setup cache hit rate: {100 * s.setup_cache_hit_rate:.1f}%"
        )
        add(
            f"  mean queue wait: {s.mean_queue_wait_seconds * 1e3:.1f} ms  "
            f"pool: {s.pool_peak_leased} peak leased, "
            f"{s.pool_reuses} warm reuses, {s.pool_exhaustions} exhaustions"
        )
        add(
            f"  bitwise parity vs solo solve: "
            f"{'OK' if s.bitwise_parity else 'FAILED'}"
        )
    if result.resilience is not None:
        r = result.resilience
        add("")
        add(
            f"[Phase: resilience]  spec {r.spec!r}, "
            f"{r.injected_total} fault(s) injected in {r.wall_seconds:.3f} s"
        )
        add(
            f"  ABFT detection rate: {r.detection_rate:.2f} "
            f"({r.detected} detected), {r.replays} checkpoint replay(s)"
        )
        add(
            f"  recovery: {r.recovered_solves}/{r.faulted_solves} faulted "
            f"solve(s) converged; service "
            f"{r.service_transients} transient(s) -> "
            f"{r.service_fault_retries} retry(ies), "
            f"{r.service_degradations} degradation(s)"
        )
        add(
            f"  clean-run bitwise parity: "
            f"{'OK' if r.clean_parity else 'FAILED'}"
        )
    return "\n".join(lines)


def result_to_dict(result: BenchmarkResult) -> dict:
    """Machine-readable summary (EXPERIMENTS.md bookkeeping)."""
    val = result.validation
    return {
        "config": {
            "local_dims": result.config.local_dims,
            "nranks": result.config.nranks,
            "impl": result.config.impl,
            "matrix_format": result.config.matrix_format,
            "restart": result.config.restart,
            "validation_mode": result.config.validation_mode,
            "precision_ladder": result.config.precision_ladder,
            "escalation": result.config.escalation,
            "precision_budget": result.config.precision_budget,
        },
        "validation": {
            "n_d": val.n_d,
            "n_ir": val.n_ir,
            "ratio": val.ratio,
            "penalty": val.penalty,
            "double_relres": val.double_relres,
            "ir_relres": val.ir_relres,
        },
        "mxp": {
            "gflops": result.mxp.gflops,
            "gflops_raw": result.mxp.gflops_raw,
            "seconds": result.mxp.total_seconds,
            "iterations": result.mxp.iterations,
        },
        "double": {
            "gflops": result.double.gflops,
            "seconds": result.double.total_seconds,
            "iterations": result.double.iterations,
        },
        "speedups": dict(result.speedups),
        "distributed": (
            result.distributed.to_dict() if result.distributed else None
        ),
        "service": (result.service.to_dict() if result.service else None),
        "resilience": (
            result.resilience.to_dict() if result.resilience else None
        ),
    }

"""Command-line interface: ``python -m repro <command>``.

Mirrors how the official benchmark binary is driven, plus analysis
commands for the performance model:

- ``run``        — the full HPG-MxP benchmark (three phases, report)
- ``hpcg``       — the HPCG cross-benchmark
- ``validate``   — validation phase only (standard or fullscale)
- ``project``    — exascale weak-scaling / speedup projections
- ``roofline``   — hot-kernel roofline placement
- ``trace``      — overlap timeline for one level (ASCII + JSON export)
- ``ablation``   — per-optimization model ablation
- ``memory``     — solver memory footprints and mesh equalization (§5)
- ``energy``     — mixed-precision energy saving estimate
- ``fit``        — iteration-scaling power-law fit from real solves
"""

from __future__ import annotations

import argparse
import json
import sys


def _format_choices() -> list[str]:
    """Storage formats registered with the kernel backend layer."""
    from repro.sparse.formats import known_formats

    return ["auto", *known_formats()]


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--local-nx", type=int, default=32, help="local box edge")
    p.add_argument("--nranks", type=int, default=1, help="SPMD ranks (GCDs)")
    p.add_argument("--impl", choices=["optimized", "reference"], default="optimized")
    p.add_argument(
        "--format",
        dest="matrix_format",
        choices=_format_choices(),
        default="auto",
        help="sparse storage layout (auto follows --impl)",
    )
    p.add_argument(
        "--validation-mode", choices=["standard", "fullscale"], default="standard"
    )
    p.add_argument(
        "--precision-ladder",
        type=str,
        default=None,
        metavar="SPEC",
        help="per-MG-level precision ladder for the mxp phase, finest "
        "level first (e.g. fp32:fp64); the first rung also sets "
        "the inner matrix/basis precision",
    )
    p.add_argument(
        "--no-escalation",
        action="store_true",
        help="pin the rungs --precision-budget seeds (no adaptive "
        "promotion); without a budget every policy is already fixed",
    )
    p.add_argument(
        "--precision-budget",
        type=float,
        default=None,
        metavar="EPS",
        help="Carson-style per-cycle roundoff budget (e.g. 1e-4): "
        "derive the initial per-ingredient rungs from the matrix's "
        "norm/condition estimates instead of the flat ladder",
    )
    p.add_argument("--max-iters", type=int, default=40, help="iterations per solve")
    p.add_argument("--num-solves", type=int, default=1)
    p.add_argument("--validation-max-iters", type=int, default=500)
    p.add_argument(
        "--no-fusion",
        action="store_true",
        help="disable the fused-motif kernels (waxpby_dot / gemv_sub_dot); "
        "the residual check runs as separate SpMV, subtraction and dot "
        "passes",
    )
    p.add_argument(
        "--distributed",
        type=str,
        default=None,
        metavar="PXxPYxPZ",
        help="also run the distributed phase on this SPMD process grid "
        "(weak-scaling-shaped: the same local box per rank) under a "
        "wall-clock budget",
    )
    p.add_argument(
        "--distributed-budget",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="wall-clock budget for the distributed phase",
    )
    p.add_argument(
        "--rhs-panel",
        type=int,
        default=1,
        metavar="N",
        help="RHS panel width for the batched solve phase: with N > 1 "
        "the distributed phase also runs one solve_panel over an "
        "N-column panel (matrix traffic amortized across columns, "
        "setup served by the operator-keyed cache and a leased "
        "workspace arena)",
    )
    p.add_argument(
        "--service",
        type=int,
        default=0,
        metavar="N",
        help="also run the solver-service load phase with N concurrent "
        "synthetic clients: each round's burst coalesces into one "
        "solve_panel batch on the shared setup cache and bounded "
        "arena pool (deterministic coalesce-width / cache-hit-rate / "
        "matrix-reuse metrics, CI-gated)",
    )
    p.add_argument(
        "--service-rounds",
        type=int,
        default=2,
        metavar="R",
        help="rounds of the service phase (round 1 builds the setup "
        "cache, later rounds hit it)",
    )
    p.add_argument(
        "--service-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the service-phase metrics (JSON) here (the CI "
        "artifact next to --bench-out)",
    )
    p.add_argument(
        "--fault-inject",
        type=str,
        default=None,
        metavar="SPEC",
        help="also run the deterministic fault-injection phase: "
        "';'-separated clauses 'site:mode[:count]' plus 'seed=N' "
        "(sites: spmv bitflip|nan, halo drop|delay|corrupt|straggle, "
        "service transient).  Asserts clean-run bitwise parity, 1.0 "
        "ABFT detection on covered sites, and replayed convergence "
        "(CI-gated)",
    )
    p.add_argument(
        "--bench-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the distributed-phase benchmark record (JSON) here "
        "for benchmarks/check_regression.py",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--save", type=str, default=None,
                   help="write the official-style results document here")


def cmd_run(args) -> int:
    from repro.core import (
        BenchmarkConfig,
        check_official_compliance,
        format_report,
        result_to_dict,
        run_benchmark,
        save_results_document,
    )

    if args.bench_out and not args.distributed:
        print("--bench-out requires --distributed", file=sys.stderr)
        return 2
    if args.service_out and not args.service:
        print("--service-out requires --service", file=sys.stderr)
        return 2
    config = BenchmarkConfig(
        local_nx=args.local_nx,
        nranks=args.nranks,
        impl=args.impl,
        matrix_format=args.matrix_format,
        validation_mode=args.validation_mode,
        precision_ladder=args.precision_ladder,
        escalation=not args.no_escalation,
        precision_budget=args.precision_budget,
        max_iters_per_solve=args.max_iters,
        num_solves=args.num_solves,
        validation_max_iters=args.validation_max_iters,
        fusion=not args.no_fusion,
        distributed_grid=args.distributed,
        distributed_budget_seconds=args.distributed_budget,
        rhs_panel=args.rhs_panel,
        service_clients=args.service,
        service_rounds=args.service_rounds,
        fault_inject=args.fault_inject,
    )
    result = run_benchmark(config)
    if args.json:
        print(json.dumps(result_to_dict(result), indent=1))
    else:
        print(format_report(result))
        print(str(check_official_compliance(config)))
    if args.save:
        save_results_document(result, args.save)
        print(f"\nwrote results document to {args.save}")
    if args.bench_out:
        record = {
            "config": {
                "local_dims": list(config.local_dims),
                "grid": args.distributed,
                "impl": config.impl,
                "matrix_format": config.matrix_format,
                "precision_ladder": config.precision_ladder,
                "restart": config.restart,
                "max_iters_per_solve": config.max_iters_per_solve,
                "fusion": config.fusion,
                "rhs_panel": config.rhs_panel,
            },
            **result.distributed.to_dict(),
        }
        # A machine-fingerprint block (STREAM-style triad/copy bandwidth
        # plus dispatch latency) so a recorded run names the hardware it
        # measured and the network fit gets a measured-bandwidth prior.
        from repro.perf.machine import probe_machine

        machine = probe_machine()
        record["machine"] = machine.to_dict()
        if result.service is not None:
            record["config"]["service_clients"] = config.service_clients
            record["config"]["service_rounds"] = config.service_rounds
            record["service"] = result.service.to_dict()
        if result.resilience is not None:
            record["config"]["fault_inject"] = config.fault_inject
            record["resilience"] = result.resilience.to_dict()
        # Fold the measured halo counters into the alpha-beta network
        # fit: the recorded per-byte cost (and, with multiple samples,
        # per-message latency) this machine's transport actually
        # showed, next to the model's prediction.
        from repro.perf.calibrate import fit_alpha_beta, halo_samples_from_records

        samples = halo_samples_from_records([record])
        if samples:
            fit = fit_alpha_beta(samples, bandwidth_prior=machine.copy_bandwidth)
            record["network_fit"] = {
                "alpha_seconds_per_message": fit.alpha,
                "beta_seconds_per_byte": fit.beta,
                "effective_bandwidth": fit.bandwidth,
                "nsamples": fit.nsamples,
            }
            print(
                f"measured halo transport: "
                f"{fit.bandwidth / 1e6:.1f} MB/s effective "
                f"({record['halo_model_ratio']:.2f}x of modeled bytes)"
            )
        with open(args.bench_out, "w") as f:
            json.dump(record, f, indent=1)
        print(f"wrote benchmark record to {args.bench_out}")
    if args.service_out and result.service is not None:
        with open(args.service_out, "w") as f:
            json.dump(result.service.to_dict(), f, indent=1)
        print(f"wrote service-phase metrics to {args.service_out}")
    return 0


def cmd_compliance(args) -> int:
    from repro.core import BenchmarkConfig, check_official_compliance

    config = BenchmarkConfig(
        local_nx=args.local_nx,
        nranks=args.nranks,
        max_iters_per_solve=args.max_iters,
    )
    report = check_official_compliance(config)
    print(str(report))
    return 0 if report.compliant else 1


def cmd_hpcg(args) -> int:
    from repro.core import HPCGConfig, run_hpcg

    res = run_hpcg(
        HPCGConfig(local_nx=args.local_nx, nranks=args.nranks, maxiter=args.max_iters)
    )
    print(f"HPCG: {res.iterations} iterations, relres {res.final_relres:.3e}")
    print(f"GFLOP/s: {res.gflops:.3f}  (wall {res.metrics.total_seconds:.3f} s)")
    return 0


def cmd_validate(args) -> int:
    from repro.core import BenchmarkConfig, run_validation

    config = BenchmarkConfig(
        local_nx=args.local_nx,
        nranks=args.nranks,
        validation_mode=args.validation_mode,
        validation_max_iters=args.validation_max_iters,
    )
    val = run_validation(config)
    print(f"mode: {val.mode} on {val.ranks} rank(s)")
    print(f"n_d = {val.n_d}, n_ir = {val.n_ir}, ratio = {val.ratio:.4f}")
    print(f"penalty applied to mxp GFLOP/s: {val.penalty:.4f}")
    print(f"double relres {val.double_relres:.3e}, mxp relres {val.ir_relres:.3e}")
    return 0


def cmd_project(args) -> int:
    from repro.perf import MACHINES
    from repro.perf.scaling import ScalingModel, paper_node_counts

    machine = MACHINES[args.machine]
    model = ScalingModel(machine=machine, impl=args.impl)
    nodes = args.nodes or paper_node_counts()
    print(f"machine: {machine.name}   impl: {args.impl}")
    print(f"{'nodes':>6} {'GF/s/GCD':>10} {'total PF':>9} {'eff':>6}")
    for row in model.weak_scaling_series(nodes):
        print(
            f"{row['nodes']:>6} {row['gflops_per_gcd']:>10.1f} "
            f"{row['total_pflops']:>9.3f} {row['efficiency']:>6.3f}"
        )
    s = model.motif_speedups(nodes[-1] * machine.gcds_per_node)
    print("\nspeedups at the largest scale:")
    for k, v in sorted(s.items()):
        print(f"  {k:<9} {v:.3f}x")
    h = model.half_precision_projection(machine.gcds_per_node)
    print(f"\nfp16 future-work projection (1 node): total {h['total']:.2f}x")
    return 0


def cmd_roofline(args) -> int:
    from repro.perf import MACHINES, roofline_points

    machine = MACHINES[args.machine]
    print(f"machine: {machine.name}, effective BW "
          f"{machine.effective_bw / 1e12:.2f} TB/s")
    for p in roofline_points(machine=machine):
        print(f"  {p}")
    return 0


def cmd_trace(args) -> int:
    from repro.perf import gs_operation_timeline
    from repro.trace import Timeline, to_ascii, to_chrome_json

    tl = gs_operation_timeline(local_dims=(args.size,) * 3)
    verdict = (
        "fully overlapped"
        if tl.fully_overlapped
        else f"exposed {tl.exposed_comm * 1e6:.1f} us"
    )
    print(f"GS at {args.size}^3 local: {verdict}, makespan "
          f"{tl.makespan * 1e6:.1f} us")
    print(to_ascii(Timeline(tl.events)))
    if args.out:
        with open(args.out, "w") as f:
            f.write(to_chrome_json(Timeline(tl.events)))
        print(f"\nwrote Chrome trace to {args.out}")
    return 0


def cmd_ablation(args) -> int:
    from repro.perf.scaling import ABLATION_CONFIGS as ablations
    from repro.perf.scaling import ScalingModel

    nranks = args.nodes * 8
    print(f"ablation at {args.nodes} node(s), 320^3/GCD, mxp:")
    base = None
    for name, kwargs in ablations:
        g = ScalingModel(**kwargs).gflops_per_gcd("mxp", nranks)
        base = base or g
        print(f"  {name:<22} {g:8.1f} GF/GCD  ({g / base:5.1%} of optimized)")
    return 0


def cmd_memory(args) -> int:
    from repro.core.memory import (
        equalized_double_mesh,
        memory_overhead_ratio,
        solver_footprint,
    )
    from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY

    dims = (args.local_nx,) * 3
    for label, policy in (("double", DOUBLE_POLICY), ("mxp", MIXED_DS_POLICY)):
        fp = solver_footprint(dims, policy)
        print(f"{label}: total {fp.total / 1e6:.1f} MB  "
              + "  ".join(f"{k}={v / 1e6:.1f}MB" for k, v in fp.breakdown().items()))
    ratio = memory_overhead_ratio(dims, MIXED_DS_POLICY, DOUBLE_POLICY)
    print(f"mxp/double memory ratio: {ratio:.3f} (paper: 'more than' 1)")
    eq = equalized_double_mesh(dims, MIXED_DS_POLICY, DOUBLE_POLICY)
    print(f"double-precision mesh affordable in the mxp budget: "
          f"{eq[0]}x{eq[1]}x{eq[2]} (vs {dims[0]}^3)")
    mf = memory_overhead_ratio(
        dims, MIXED_DS_POLICY, DOUBLE_POLICY, matrix_free_inner=True
    )
    print(f"with matrix-free inner operator (§5): ratio {mf:.3f}")
    return 0


def cmd_energy(args) -> int:
    from repro.perf.energy import EnergyModel

    model = EnergyModel()
    nranks = args.nodes * 8
    for mode in ("double", "mxp"):
        prof = model.cycle_energy(mode, nranks)
        print(f"{mode:>6}: {prof.total_j:8.2f} J/cycle/GCD  "
              + "  ".join(f"{k}={v:.2f}J" for k, v in prof.breakdown().items()))
        print(f"        {model.energy_per_gflop(mode, nranks):.3f} J/GFLOP")
    print(f"mixed-precision energy saving: "
          f"{model.mixed_precision_saving(nranks):.2f}x")
    return 0


def cmd_fit(args) -> int:
    from repro.core.convergence import measure_iteration_scaling

    fit = measure_iteration_scaling(box_sizes=args.sizes, mixed=args.mixed)
    print(f"measured: {list(zip(fit.sizes, fit.iterations))}")
    print(fit.describe())
    pred = fit.predict_paper_validation()
    print(f"extrapolated to the paper's validation size (8 x 320^3): "
          f"{pred:.0f} iterations (paper measured 2305)")
    return 0


def cmd_figures(args) -> int:
    import os

    from repro.analysis import all_figures

    os.makedirs(args.outdir, exist_ok=True)
    for name, series in all_figures().items():
        path = os.path.join(args.outdir, f"{name}.csv")
        series.save(path)
        print(f"wrote {path} ({len(series.rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPG-MxP benchmark reproduction (SC'25, Kashi et al.)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full benchmark")
    _add_run_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("hpcg", help="run the HPCG cross-benchmark")
    p.add_argument("--local-nx", type=int, default=32)
    p.add_argument("--nranks", type=int, default=1)
    p.add_argument("--max-iters", type=int, default=30)
    p.set_defaults(fn=cmd_hpcg)

    p = sub.add_parser("validate", help="run the validation phase only")
    p.add_argument("--local-nx", type=int, default=32)
    p.add_argument("--nranks", type=int, default=1)
    p.add_argument(
        "--validation-mode", choices=["standard", "fullscale"], default="standard"
    )
    p.add_argument("--validation-max-iters", type=int, default=2000)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("project", help="exascale performance projections")
    p.add_argument("--machine", choices=["frontier", "k80"], default="frontier")
    p.add_argument("--impl", choices=["optimized", "reference"], default="optimized")
    p.add_argument("--nodes", type=int, nargs="*", default=None)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("roofline", help="hot-kernel roofline (Fig. 8)")
    p.add_argument("--machine", choices=["frontier", "k80"], default="frontier")
    p.set_defaults(fn=cmd_roofline)

    p = sub.add_parser("trace", help="overlap timeline (Fig. 9)")
    p.add_argument("--size", type=int, default=40, help="local box edge")
    p.add_argument("--out", type=str, default=None, help="Chrome-trace JSON path")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("ablation", help="per-optimization model ablation")
    p.add_argument("--nodes", type=int, default=1)
    p.set_defaults(fn=cmd_ablation)

    p = sub.add_parser("memory", help="solver memory footprints (§5)")
    p.add_argument("--local-nx", type=int, default=32)
    p.set_defaults(fn=cmd_memory)

    p = sub.add_parser("energy", help="mixed-precision energy estimate")
    p.add_argument("--nodes", type=int, default=1)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("fit", help="iteration-scaling fit from real solves")
    p.add_argument("--sizes", type=int, nargs="*", default=None)
    p.add_argument("--mixed", action="store_true")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser(
        "compliance", help="check a configuration against the official rules"
    )
    p.add_argument("--local-nx", type=int, default=32)
    p.add_argument("--nranks", type=int, default=1)
    p.add_argument("--max-iters", type=int, default=40)
    p.set_defaults(fn=cmd_compliance)

    p = sub.add_parser(
        "figures", help="export every model-generated figure as CSV"
    )
    p.add_argument("--outdir", type=str, default=".")
    p.set_defaults(fn=cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

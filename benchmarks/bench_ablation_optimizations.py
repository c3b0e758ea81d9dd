"""Ablation: the contribution of each §3.2 optimization.

The paper presents its optimizations as a bundle ("present" vs "xsdk");
this ablation separates them in the model, switching one at a time off
the optimized configuration at the official 320^3/GCD, 1 node:

- ELL -> CSR storage (§3.2.2),
- multicolor -> level-scheduled Gauss-Seidel (§3.2.1),
- fused -> unfused SpMV-restriction (§3.2.4),
- overlap -> no compute-communication overlap (§3.2.3),
- overlapped SymGS -> blocking smoother exchanges (PR 5),
- fused motifs (waxpby_dot / gemv_sub_dot) -> separate passes (PR 5),
- device -> host-staged mixed-precision kernels (§3.2.5).

Each configuration also reports an fp16 column ("mxp-half": the §5
future-work projection with half-precision inner kernels — a model
only; the solvers run fp32 and fp64), tracking how every optimization
interacts with a narrower rung.

Also cross-checks fused-vs-unfused with *real* kernel timings.
"""

import time

import numpy as np
from conftest import print_table

from repro.geometry import Subdomain
from repro.mg.restriction import (
    coarse_to_fine_map,
    fused_residual_restrict,
    unfused_residual_restrict,
)
from repro.perf.scaling import ABLATION_CONFIGS as ABLATIONS
from repro.perf.scaling import ScalingModel
from repro.sparse.partitioned import extract_rows
from repro.stencil import generate_problem


def test_ablation_model(benchmark):
    nranks = 8  # one node
    rows = []
    base = None
    for name, kwargs in ABLATIONS:
        model = ScalingModel(**kwargs)
        g = model.gflops_per_gcd("mxp", nranks)
        # fp16 column: the same configuration with half-precision inner
        # kernels ("mxp-half", the §5 future-work projection) — tracks
        # how each optimization interacts with a narrower rung.
        g16 = model.gflops_per_gcd("mxp-half", nranks)
        s = model.speedup_overall(nranks)
        if base is None:
            base = g
        rows.append([name, g, g16, g / base, s])
    print_table(
        "Ablation at 1 node, 320^3/GCD (model, mxp)",
        ["configuration", "GF/GCD", "fp16 GF/GCD", "vs optimized", "speedup"],
        rows,
        widths=[22, 9, 12, 13, 9],
    )
    # fp16 must beat fp32 on every bandwidth-bound configuration.
    for name, g32, g16, *_rest in rows:
        assert g16 > g32, f"{name}: fp16 {g16} <= fp32 {g32}"

    # Orthogonalization-method comparison (§2's CGS2 justification).
    print("\northogonalization method (ortho seconds per cycle, model):")
    for nranks, label in ((8, "1 node"), (9408 * 8, "9408 nodes")):
        parts = []
        for method in ("cgs2", "cgs", "mgs"):
            t = (
                ScalingModel(ortho_method=method)
                .cycle_profile("mxp", nranks)
                .seconds_by_motif["ortho"]
            )
            parts.append(f"{method}={t * 1e3:.1f}ms")
        print(f"  {label:<11} " + "  ".join(parts))

    by_name = {r[0]: r for r in rows}
    # Every ablation hurts.
    for name, *_ in rows[1:]:
        assert by_name[name][1] <= by_name["optimized (all on)"][1] + 1e-9, name
    # The smoother strategy is the single largest lever (launch-bound
    # wavefronts), and the all-off reference is the worst.
    losses = {
        name: 1 - r[3]
        for name, r in by_name.items()
        if name != "optimized (all on)"
    }
    assert losses["level-scheduled GS"] == max(
        v for k, v in losses.items() if k != "reference (all off)"
    )
    assert by_name["reference (all off)"][1] == min(r[1] for r in rows)
    # Host-staged mixed ops erode the mxp *speedup* specifically.
    assert by_name["host mixed ops"][4] < by_name["optimized (all on)"][4]

    benchmark(lambda: ScalingModel(smoother="levelsched").gflops_per_gcd("mxp", 8))


def test_ablation_overlap_fusion(benchmark):
    """Model ablation: SymGS overlap on/off x fusion on/off in one table.

    Model columns (GF/GCD, exposed-comm share of halo bytes, bytes) for
    every combination on the paper's machine, where the smoother's halo
    window is real.  The thread-SPMD solver runs no overlap (its
    exchanges block), so there is no executed counterpart to compare.
    Both layouts stream the same color-packed blocks, so SymGS bytes do
    not move with the overlap flag.
    """
    from repro.fp import MIXED_DS_POLICY

    nranks = 8
    rows = []
    for ov, fu in ((True, True), (True, False), (False, True), (False, False)):
        model = ScalingModel(overlap_symgs=ov, fusion=fu)
        g = model.gflops_per_gcd("mxp", nranks)
        split = model.halo_traffic_split(MIXED_DS_POLICY)
        frac = split["exposed"] / (split["exposed"] + split["overlapped"])
        sym = model.cycle_symgs_bytes(MIXED_DS_POLICY)
        tot = model.cycle_traffic_bytes(MIXED_DS_POLICY)["total"]
        rows.append(
            [
                f"symgs-overlap={'on' if ov else 'off'} "
                f"fusion={'on' if fu else 'off'}",
                g,
                frac,
                sym / 1e6,
                tot / 1e6,
            ]
        )
    print_table(
        "SymGS-overlap x fusion ablation (model, 1 node, 320^3/GCD)",
        ["configuration", "GF/GCD", "exposed frac", "symgs MB", "total MB"],
        rows,
        widths=[34, 9, 13, 10, 10],
    )
    # Both optimizations must help (or at worst be neutral) on every axis.
    by = {r[0]: r for r in rows}
    on = by["symgs-overlap=on fusion=on"]
    assert on[1] >= max(r[1] for r in rows) - 1e-9  # best rating
    assert on[2] == min(r[2] for r in rows)  # least exposed comm
    assert on[3] == min(r[3] for r in rows)  # fewest symgs bytes
    assert on[4] == min(r[4] for r in rows)  # fewest total bytes

    benchmark(lambda: ScalingModel(overlap_symgs=False).gflops_per_gcd("mxp", 8))


def test_ablation_rhs_panel(benchmark):
    """PR 6 ablation: bytes-per-RHS amortization across panel widths.

    The batched pipeline streams the matrix (values + indices + halo
    gathers) once per panel while vector traffic scales with the
    column count, so the modeled per-RHS byte total must fall
    monotonically with the panel width and reach >= 2x amortization by
    a panel of 8 (the ISSUE acceptance floor) at the official
    320^3/GCD configuration.
    """
    from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY

    model = ScalingModel()
    rows = []
    for policy, label in ((MIXED_DS_POLICY, "mxp"), (DOUBLE_POLICY, "double")):
        per_rhs = {}
        for panel in (1, 2, 4, 8):
            total = model.cycle_traffic_bytes(policy, panel=panel)["total"]
            per_rhs[panel] = total / panel
            rows.append(
                [
                    f"{label} panel={panel}",
                    total / 1e6,
                    per_rhs[panel] / 1e6,
                    per_rhs[1] / per_rhs[panel],
                ]
            )
        # Wider panels always amortize more, and panel=1 is bitwise the
        # unbatched model (no refactored formulas behind a default).
        widths = sorted(per_rhs)
        assert all(
            per_rhs[b] < per_rhs[a] for a, b in zip(widths, widths[1:])
        ), f"{label}: per-RHS bytes not monotone in panel width: {per_rhs}"
        assert per_rhs[1] == model.cycle_traffic_bytes(policy)["total"]
        assert per_rhs[1] / per_rhs[8] >= 2.0, (
            f"{label}: panel-8 amortization {per_rhs[1] / per_rhs[8]:.2f}x < 2x"
        )
    print_table(
        "RHS-panel ablation (model, 1 node, 320^3/GCD)",
        ["configuration", "cycle MB", "MB/RHS", "amortization"],
        rows,
        widths=[18, 10, 9, 13],
    )

    benchmark(lambda: ScalingModel().cycle_traffic_bytes(MIXED_DS_POLICY, panel=8))


def test_ablation_fused_restrict_real(benchmark):
    """Real kernel: fused restriction must beat the unfused path."""
    prob = generate_problem(Subdomain.serial(48, 48, 48))
    coarse = prob.sub.coarsen()
    f_c = coarse_to_fine_map(prob.sub, coarse)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(prob.nlocal)
    xfull = rng.standard_normal(prob.A.ncols)

    A_c = extract_rows(prob.A, f_c)  # the coarse rows, packed once (MG setup)

    # Correctness first: the two paths are bitwise-equal.
    assert np.array_equal(
        fused_residual_restrict(A_c, r, xfull, f_c),
        unfused_residual_restrict(prob.A, r, xfull, f_c),
    )

    def timeit(fn, n=5):
        best = np.inf
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_fused = timeit(lambda: fused_residual_restrict(A_c, r, xfull, f_c))
    t_unfused = timeit(lambda: unfused_residual_restrict(prob.A, r, xfull, f_c))
    print(f"\nfused {t_fused * 1e3:.2f} ms vs unfused {t_unfused * 1e3:.2f} ms "
          f"({t_unfused / t_fused:.1f}x) at 48^3")
    assert t_fused < t_unfused

    benchmark(lambda: fused_residual_restrict(A_c, r, xfull, f_c))

"""Official-rules compliance checker.

The benchmark's reportable configuration is fixed (Table 1 plus the
spec's structural rules).  A scaled-down research run deviates in known
ways; this checker enumerates every deviation so results are labeled
honestly — the reproduction analog of HPCG's "official run" rules.

The restart length stays the official 30.  GMRES-IR's inner stop
(``repro.solvers.gmres_ir.ATTAINABLE_FACTOR``) may end a restart cycle
of a solve with a residual target before 30 steps, once the cycle has
reached the reduction its lowest rung can deliver; it only ever
shortens a cycle, never lengthens one.  Fixed-budget solves (``tol=0``:
the timed phase and every warm-up) keep full 30-step cycles.

The multigrid V-cycle keeps the spec's shape (4 levels, one sweep each
way, one coarsest sweep).  Serially, the V-cycle from the finest level
with at most ``repro.mg.multigrid.COARSE_MAP_MAX`` unknowns down is
applied as one dense map ``C`` formed at set-up from that very
recursion (``MGLevel.coarse_map``): the same preconditioner in exact
arithmetic, rounded differently.  The rated GFLOP/s keeps the spec's
flop count for every level (``repro.core.flops``), never the map's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BenchmarkConfig


@dataclass(frozen=True)
class ComplianceReport:
    """Outcome of a rules check."""

    compliant: bool
    deviations: tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.compliant:
            return "configuration follows the official HPG-MxP parameters"
        return "deviations from official parameters:\n" + "\n".join(
            f"  - {d}" for d in self.deviations
        )


#: Official values the checker enforces.
OFFICIAL = {
    "local_mesh": 320,
    "restart": 30,
    "max_iters_per_solve": 300,
    "validation_tol": 1e-9,
    "validation_max_iters": 10_000,
    "validation_ranks": 8,
    "time_budget_small": 1800.0,
    "time_budget_large": 900.0,
    "large_node_threshold": 1024,
}


def check_official_compliance(config: BenchmarkConfig) -> ComplianceReport:
    """List every way ``config`` deviates from an official run."""
    devs: list[str] = []
    nx, ny, nz = config.local_dims
    if (nx, ny, nz) != (OFFICIAL["local_mesh"],) * 3:
        devs.append(
            f"local mesh {nx}x{ny}x{nz} != official "
            f"{OFFICIAL['local_mesh']}^3"
        )
    if config.restart != OFFICIAL["restart"]:
        devs.append(f"restart length {config.restart} != {OFFICIAL['restart']}")
    if config.max_iters_per_solve != OFFICIAL["max_iters_per_solve"]:
        devs.append(
            f"max iterations per solve {config.max_iters_per_solve} != "
            f"{OFFICIAL['max_iters_per_solve']}"
        )
    if config.validation_tol != OFFICIAL["validation_tol"]:
        devs.append(
            f"validation tolerance {config.validation_tol} != "
            f"{OFFICIAL['validation_tol']}"
        )
    if config.validation_max_iters != OFFICIAL["validation_max_iters"]:
        devs.append(
            f"validation iteration cap {config.validation_max_iters} != "
            f"{OFFICIAL['validation_max_iters']}"
        )
    if config.effective_validation_ranks != min(
        OFFICIAL["validation_ranks"], config.nranks
    ):
        devs.append(
            f"validation ranks {config.effective_validation_ranks} != one "
            f"node ({OFFICIAL['validation_ranks']} GCDs)"
        )
    expected_budget = (
        OFFICIAL["time_budget_large"]
        if config.nodes >= OFFICIAL["large_node_threshold"]
        else OFFICIAL["time_budget_small"]
    )
    if config.time_budget_seconds != expected_budget:
        devs.append(
            f"time budget {config.time_budget_seconds} != official "
            f"{expected_budget} s at {config.nodes:g} nodes"
        )
    if config.matrix_kind != "symmetric":
        devs.append(
            "nonsymmetric matrix selected; official submissions use the "
            "symmetric problem (it is at least as hard for GMRES, §3)"
        )
    if config.ortho != "cgs2":
        devs.append(f"orthogonalization {config.ortho} != prescribed cgs2")
    if config.nlevels != 4:
        devs.append(f"multigrid levels {config.nlevels} != prescribed 4")
    return ComplianceReport(compliant=not devs, deviations=tuple(devs))


def official_config(nranks: int = 8, gcds_per_node: int = 8) -> BenchmarkConfig:
    """The configuration an official run would use (NOT laptop-sized:
    320^3 per rank allocates ~25 GB of matrix per rank)."""
    nodes = nranks / gcds_per_node
    return BenchmarkConfig(
        local_nx=OFFICIAL["local_mesh"],
        nranks=nranks,
        gcds_per_node=gcds_per_node,
        restart=OFFICIAL["restart"],
        max_iters_per_solve=OFFICIAL["max_iters_per_solve"],
        validation_tol=OFFICIAL["validation_tol"],
        validation_max_iters=OFFICIAL["validation_max_iters"],
        time_budget_seconds=(
            OFFICIAL["time_budget_large"]
            if nodes >= OFFICIAL["large_node_threshold"]
            else OFFICIAL["time_budget_small"]
        ),
    )

"""Solver memory-footprint model (paper §5's memory discussion).

The conclusion observes that mixed-precision GMRES-IR stores a
low-precision copy of the system matrix *in addition* to the double
one, so "its overall memory utilization is more than double-precision
GMRES", and proposes that a fair benchmark could let the double solver
use a larger mesh; it also notes the matrix-free escape hatch.  This
module quantifies all of that: per-solver byte budgets from the problem
dimensions, the mesh-size equalization factor, and the matrix-free
savings — backing the memory-equalized benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flops import LevelDims, hierarchy_dims
from repro.fp.policy import PrecisionPolicy
from repro.fp.precision import Precision

#: Bytes per ELL column index.
IDX_BYTES = 4
#: ELL row width of the stencil matrix (padded).
ROW_WIDTH = 27


@dataclass(frozen=True)
class MemoryFootprint:
    """Byte budget of one solver configuration."""

    matrix_fp64: int
    matrix_low: int
    mg_hierarchy: int
    krylov_basis: int
    vectors: int

    @property
    def total(self) -> int:
        return (
            self.matrix_fp64
            + self.matrix_low
            + self.mg_hierarchy
            + self.krylov_basis
            + self.vectors
        )

    def breakdown(self) -> dict[str, int]:
        return {
            "matrix_fp64": self.matrix_fp64,
            "matrix_low": self.matrix_low,
            "mg_hierarchy": self.mg_hierarchy,
            "krylov_basis": self.krylov_basis,
            "vectors": self.vectors,
        }


def _matrix_bytes(n: int, value_bytes: int) -> int:
    """ELL storage of one stencil matrix block (values + indices)."""
    return n * ROW_WIDTH * (value_bytes + IDX_BYTES)


def _coarse_hierarchy_bytes(
    dims: list[LevelDims], policy: PrecisionPolicy
) -> int:
    """Matrices of the coarse levels only, on the policy's schedule.

    Each level is charged at its own ladder rung (``policy.mg_level``);
    the fine-level matrix is shared between the Krylov operator and the
    smoother (as in HPCG/HPGMP), so it is accounted once by the caller.
    """
    return sum(
        _matrix_bytes(d.n, policy.mg_level(lvl).bytes)
        for lvl, d in enumerate(dims)
        if lvl > 0
    )


def solver_footprint(
    local_dims: tuple[int, int, int],
    policy: PrecisionPolicy,
    restart: int = 30,
    nlevels: int = 4,
    matrix_free_inner: bool = False,
    num_work_vectors: int = 6,
) -> MemoryFootprint:
    """Memory footprint of one GMRES(-IR) configuration per rank.

    Accounting mirrors the real codebases: the fine-level matrix is
    shared between the Krylov SpMV and the fine smoother in each
    precision, so GMRES-IR stores the fine matrix twice (fp64 for the
    outer residual + the policy precision for everything inner) — the
    §5 observation that "the mixed-precision GMRES-IR solver requires a
    lower-precision copy of the system matrix".

    ``matrix_free_inner`` models the §5 escape hatch: the operator
    application becomes matrix-free (1-byte coefficient codes + the
    shared index block), and "only the low-precision matrix needs to be
    stored ... for preconditioning".
    """
    nx, ny, nz = local_dims
    n = nx * ny * nz
    dims = hierarchy_dims(nx, ny, nz, nlevels)
    low = policy.matrix

    if matrix_free_inner and not policy.is_uniform_double:
        # Matrix-free A in both precisions: codes only; the smoother
        # still needs the low-precision fine matrix.
        matrix_fp64 = n * ROW_WIDTH + n * ROW_WIDTH * IDX_BYTES
        matrix_low = _matrix_bytes(n, low.bytes)
    else:
        matrix_fp64 = _matrix_bytes(n, Precision.DOUBLE.bytes)
        if policy.is_uniform_double:
            matrix_low = 0  # single shared fp64 fine matrix
        else:
            matrix_low = _matrix_bytes(n, low.bytes)

    # Coarse levels of the preconditioner hierarchy, each on its own
    # ladder rung (the fine level is the shared matrix counted above).
    mg = _coarse_hierarchy_bytes(dims, policy)

    basis = n * (restart + 1) * policy.krylov_basis.bytes
    vectors = n * num_work_vectors * Precision.DOUBLE.bytes
    return MemoryFootprint(
        matrix_fp64=matrix_fp64,
        matrix_low=matrix_low,
        mg_hierarchy=mg,
        krylov_basis=basis,
        vectors=vectors,
    )


def memory_overhead_ratio(
    local_dims: tuple[int, int, int],
    mixed_policy: PrecisionPolicy,
    double_policy: PrecisionPolicy,
    restart: int = 30,
    nlevels: int = 4,
    matrix_free_inner: bool = False,
) -> float:
    """mxp/double total-memory ratio (paper: "more than" 1)."""
    mxp = solver_footprint(
        local_dims, mixed_policy, restart, nlevels, matrix_free_inner
    )
    dbl = solver_footprint(local_dims, double_policy, restart, nlevels)
    return mxp.total / dbl.total


def equalized_double_mesh(
    local_dims: tuple[int, int, int],
    mixed_policy: PrecisionPolicy,
    double_policy: PrecisionPolicy,
    restart: int = 30,
    nlevels: int = 4,
) -> tuple[int, int, int]:
    """Mesh the double solver could afford in the mxp solver's memory.

    The paper's proposed benchmark modification: "we should utilize a
    larger mesh size while running double-precision GMRES" to equalize
    memory.  Scales the box isotropically (keeping the multigrid
    divisibility constraint) until the double footprint first exceeds
    the mixed one.
    """
    div = 2 ** (nlevels - 1)
    target = solver_footprint(local_dims, mixed_policy, restart, nlevels).total
    nx, ny, nz = local_dims
    best = local_dims
    # Grow in divisibility-preserving steps.
    for step in range(0, 64):
        cand = (nx + step * div, ny + step * div, nz + step * div)
        total = solver_footprint(cand, double_policy, restart, nlevels).total
        if total > target:
            break
        best = cand
    return best

"""Generator for the HPG-MxP / HPCG 27-point stencil matrix.

Each rank builds its block of rows with zero communication: the
geometry package supplies ghost column indices for stencil neighbors
owned by other ranks.  The right-hand side is chosen so the exact
solution is the vector of ones (HPCG's convention: ``b_i`` equals the
row sum), which gives tests an exact global solution at any scale.

Per Yamazaki et al. the symmetric matrix (diag 26, offdiag -1) is used
for the benchmark even though GMRES permits nonsymmetry — the symmetric
problem takes more GMRES iterations.  The nonsymmetric variant is kept
for completeness: lower couplings ``-(1+delta)``, upper ``-(1-delta)``,
which preserves the weak diagonal dominance ``sum_j |a_ij| <= a_ii``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fp.precision import Precision
from repro.geometry.halo import (
    CENTER_SLOT,
    STENCIL_OFFSETS,
    HaloPattern,
    build_halo_pattern,
)
from repro.geometry.partition import Subdomain
from repro.sparse.ell import ELLMatrix


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of the generated matrix.

    Attributes
    ----------
    kind:
        ``"symmetric"`` (benchmark default) or ``"nonsymmetric"``.
    diag_value:
        Diagonal entry (26 in the benchmark).
    offdiag_value:
        Magnitude of the off-diagonal coupling (-1 in the benchmark).
    nonsym_delta:
        Skew for the nonsymmetric variant; lower couplings are scaled by
        ``(1+delta)`` and upper by ``(1-delta)``.
    """

    kind: str = "symmetric"
    diag_value: float = 26.0
    offdiag_value: float = -1.0
    nonsym_delta: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in ("symmetric", "nonsymmetric"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if not 0.0 <= self.nonsym_delta < 1.0:
            raise ValueError("nonsym_delta must be in [0, 1)")


@dataclass
class Problem:
    """A generated local problem: matrix, rhs, exact solution, halo."""

    sub: Subdomain
    halo: HaloPattern
    A: ELLMatrix
    b: np.ndarray
    x_exact: np.ndarray
    spec: ProblemSpec = field(default_factory=ProblemSpec)

    @property
    def nlocal(self) -> int:
        return self.sub.nlocal

    @property
    def nglobal(self) -> int:
        return self.sub.nglobal


def generate_problem(
    sub: Subdomain,
    spec: ProblemSpec | None = None,
    halo: HaloPattern | None = None,
    dtype: "Precision | str" = Precision.DOUBLE,
) -> Problem:
    """Generate the local rows of the 27-point stencil problem.

    Fully vectorized: one pass per stencil slot (27 slots), each a flat
    masked write of one contiguous slot-major row over all local points;
    one transpose at the end gives the row-major ELL block.  Slots whose
    neighbour falls outside the global domain stay padding (column 0,
    value 0).
    """
    spec = spec or ProblemSpec()
    halo = halo or build_halo_pattern(sub)
    vdtype = Precision.from_any(dtype).dtype

    n = sub.nlocal
    local = sub.local
    nx, ny, _ = local.shape
    gg = sub.global_grid
    ix, iy, iz = local.all_coords()
    gx0, gy0, gz0 = sub.origin
    gx, gy, gz = ix + gx0, iy + gy0, iz + gz0
    rows = np.arange(n, dtype=np.int32)

    cols = np.zeros((27, n), dtype=np.int32)
    vals = np.zeros((27, n), dtype=vdtype)
    for slot, (ox, oy, oz) in enumerate(STENCIL_OFFSETS):
        if slot == CENTER_SLOT:
            cols[slot] = rows
            vals[slot] = spec.diag_value
            continue
        valid = gg.contains(gx + ox, gy + oy, gz + oz)
        if not valid.any():
            continue
        if halo.n_ghost:
            cols[slot, valid] = halo.ghost_columns(
                ix[valid] + ox, iy[valid] + oy, iz[valid] + oz
            )
        else:
            # Serially every neighbour is owned, one fixed offset away.
            np.add(rows, ox + nx * (oy + ny * oz), out=cols[slot], where=valid)
        value = spec.offdiag_value
        if spec.kind == "nonsymmetric":
            # The global index is lexicographic (x fastest), so an
            # in-domain neighbour precedes the row exactly when its
            # offset does, z first: "lower" is one answer per slot.
            lower = (oz, oy, ox) < (0, 0, 0)
            value *= 1.0 + spec.nonsym_delta if lower else 1.0 - spec.nonsym_delta
        np.copyto(vals[slot], value, where=valid)
    cols = np.ascontiguousarray(cols.T)
    vals = np.ascontiguousarray(vals.T)

    A = ELLMatrix(cols=cols, vals=vals, ncols=n + halo.n_ghost)
    # b = A @ ones (global ones, so ghost entries contribute too):
    # simply the row sums of all stored values.
    b = vals.sum(axis=1, dtype=np.float64)
    x_exact = np.ones(n, dtype=np.float64)
    return Problem(sub=sub, halo=halo, A=A, b=b, x_exact=x_exact, spec=spec)


def generate_serial_problem(
    nx: int,
    ny: int | None = None,
    nz: int | None = None,
    spec: ProblemSpec | None = None,
) -> Problem:
    """Single-rank convenience wrapper."""
    sub = Subdomain.serial(nx, ny, nz)
    return generate_problem(sub, spec=spec)

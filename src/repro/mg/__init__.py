"""Geometric multigrid preconditioner (HPG-MxP specification).

One V-cycle over a fixed 4-level hierarchy, coarsened by 2 per axis:
forward Gauss-Seidel smoothing, injection restriction (fused with the
residual SpMV in the optimized path, §3.2.4), and transpose-injection
prolongation.  The smoother is pluggable: multicolor relaxation (the
paper's optimized kernel) or level-scheduled lexicographic Gauss-Seidel
(the reference implementation), plus symmetric variants for HPCG.
"""

from repro.mg.smoothers import (
    MulticolorGS,
    LevelScheduledGS,
    make_smoother,
)
from repro.mg.restriction import (
    coarse_to_fine_map,
    fused_residual_restrict,
    unfused_residual_restrict,
    prolong_correct,
)
from repro.mg.multigrid import MGConfig, MGLevel, MultigridPreconditioner

__all__ = [
    "MulticolorGS",
    "LevelScheduledGS",
    "make_smoother",
    "coarse_to_fine_map",
    "fused_residual_restrict",
    "unfused_residual_restrict",
    "prolong_correct",
    "MGConfig",
    "MGLevel",
    "MultigridPreconditioner",
]

"""27-point stencil problem generation (the HPCG / HPG-MxP matrix).

The benchmark solves a Poisson-like problem discretized with a 27-point
stencil on a uniform Cartesian grid: all diagonal entries 26, all
off-diagonal entries -1, truncated at the global boundary, which makes
the matrix weakly diagonally dominant.  A nonsymmetric variant skews
the lower/upper couplings while preserving weak diagonal dominance.
"""

from repro.stencil.poisson27 import (
    Problem,
    ProblemSpec,
    generate_problem,
)
from repro.stencil.operator import stencil_apply_dense

__all__ = [
    "Problem",
    "ProblemSpec",
    "generate_problem",
    "stencil_apply_dense",
]

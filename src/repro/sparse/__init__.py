"""Sparse matrix formats and kernels.

Implements the storage formats the paper contrasts — CSR (used by the
reference HPG-MxP implementation) and ELLPACK/ELL (used by the
optimized one, §3.2.2) — plus the parallelism-exposing machinery:
greedy / Jones-Plassmann-Luby multicoloring (§3.2.1), symmetric
reordering, and level-scheduled triangular solves (the reference
implementation's Gauss-Seidel building block).

Kernels (SpMV and friends) live in :mod:`repro.backends`; the classes
here hold layout and dispatch through the registry.
"""

from repro.sparse.ell import ELLMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.formats import (
    MATRIX_FORMATS,
    known_formats,
    matrix_format_of,
    to_format,
)
from repro.sparse.scaled import to_precision
from repro.sparse.partitioned import (
    ColorPartitionedMatrix,
    PartitionedMatrix,
    partition_colors,
    partition_matrix,
)
from repro.sparse.coloring import (
    greedy_coloring,
    jpl_coloring,
    structured_coloring8,
    validate_coloring,
    color_sets,
)
from repro.sparse.reorder import (
    permute_symmetric,
    inverse_permutation,
    coloring_permutation,
    rcm_ordering,
)
from repro.sparse.triangular import (
    lower_levels,
    solve_lower_levelscheduled,
    solve_upper_levelscheduled,
)

__all__ = [
    "ELLMatrix",
    "CSRMatrix",
    "MATRIX_FORMATS",
    "known_formats",
    "matrix_format_of",
    "to_format",
    "to_precision",
    "ColorPartitionedMatrix",
    "PartitionedMatrix",
    "partition_colors",
    "partition_matrix",
    "greedy_coloring",
    "jpl_coloring",
    "structured_coloring8",
    "validate_coloring",
    "color_sets",
    "permute_symmetric",
    "inverse_permutation",
    "coloring_permutation",
    "rcm_ordering",
    "lower_levels",
    "solve_lower_levelscheduled",
    "solve_upper_levelscheduled",
]

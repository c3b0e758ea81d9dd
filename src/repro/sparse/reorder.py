"""Symmetric permutations of local sparse matrices.

The optimized implementation reorders the matrix and vectors by color so
each Gauss-Seidel color pass reads a contiguous row block (§3.2.1).  On
ghost columns the permutation is the identity — ghosts live past the
local range and their layout is fixed by the halo plan.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.ell import ELLMatrix


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse of a permutation given as an index array."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=perm.dtype)
    return inv


def column_map(new_of_old: np.ndarray, ncols: int) -> np.ndarray:
    """Old -> new column labels of a row permutation (int32, length
    ``ncols``): owned columns follow ``new_of_old``, the ghost tail
    keeps the labels the halo plan gave it."""
    col_map = np.arange(ncols, dtype=np.int32)
    col_map[: len(new_of_old)] = new_of_old
    return col_map


def coloring_permutation(colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Permutation sorting rows by color (stable within a color).

    Returns ``(old_of_new, new_of_old)``: ``old_of_new[k]`` is the old
    index of the row placed at new position ``k``.
    """
    old_of_new = np.argsort(colors, kind="stable").astype(np.int64)
    return old_of_new, inverse_permutation(old_of_new)


def permute_symmetric(A, new_of_old: np.ndarray):
    """Apply a symmetric permutation ``P A P^T`` to the local block.

    Rows are reordered and local column indices relabeled; ghost columns
    (``col >= nrows``) keep their indices.  The packing the color
    blocks are built from, applied to every row: any format, each
    row's slot layout kept.
    """
    from repro.sparse.partitioned import extract_rows

    if len(new_of_old) != A.nrows:
        raise ValueError("permutation length must equal nrows")
    new_of_old = np.asarray(new_of_old, dtype=np.int64)
    return extract_rows(
        A, inverse_permutation(new_of_old), column_map(new_of_old, A.ncols)
    )


def permute_vector(x: np.ndarray, new_of_old: np.ndarray) -> np.ndarray:
    """Reorder the owned part of a vector to match a row permutation."""
    old_of_new = inverse_permutation(np.asarray(new_of_old, dtype=np.int64))
    return x[old_of_new]


def unpermute_vector(x: np.ndarray, new_of_old: np.ndarray) -> np.ndarray:
    """Undo :func:`permute_vector`."""
    return x[np.asarray(new_of_old, dtype=np.int64)]


def rcm_ordering(A: ELLMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering of the local graph.

    The paper cites RCM as the classic alternative to multicoloring
    (better convergence, less parallelism); it backs the ordering
    ablation benchmark.  Returns ``old_of_new``.
    """
    import scipy.sparse.csgraph as csgraph

    sp = A.to_csr().to_scipy()[:, : A.nrows]
    perm = csgraph.reverse_cuthill_mckee(sp.tocsr(), symmetric_mode=True)
    return np.asarray(perm, dtype=np.int64)

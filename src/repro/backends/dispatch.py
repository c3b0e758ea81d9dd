"""Typed dispatch facade over the kernel registry.

These are the functions the solver and multigrid layers call: each one
derives the ``(format, precision)`` key from its matrix/vector
arguments, resolves the kernel through the (cached) registry lookup,
and forwards the ``out=`` / ``ws=`` contracts unchanged.  Swapping the
active backend (:func:`repro.backends.set_backend`) retargets every
call site at once.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.backends.registry import registry
from repro.fp.precision import Precision

#: dtype -> Precision memo (Precision.from_any scans; this is hot-path).
_PREC: dict = {}


def _prec(dtype) -> Precision:
    p = _PREC.get(dtype)
    if p is None:
        p = Precision.from_any(dtype)
        _PREC[dtype] = p
    return p


def matrix_format(A) -> str:
    """Storage-format name of a matrix (its class's ``format_name``)."""
    fmt = getattr(type(A), "format_name", None)
    if fmt is None:
        raise TypeError(
            f"{type(A).__name__} does not declare a storage format; "
            f"registered formats: {registry.formats()}"
        )
    return fmt


# ----------------------------------------------------------------------
# Sparse motifs
# ----------------------------------------------------------------------
def spmv(A, x: np.ndarray, out: np.ndarray | None = None, ws=None):
    """``y = A @ x`` through the registered kernel for A's format."""
    fn = registry.lookup("spmv", matrix_format(A), _prec(A.dtype))
    return fn(A, x, out=out, ws=ws)


def spmv_rows(A, rows: np.ndarray, x: np.ndarray, out=None, ws=None):
    """``(A @ x)`` restricted to a row subset (ELL has a row-subset
    kernel; every other format takes the full product's rows)."""
    fn = registry.lookup("spmv_rows", matrix_format(A), _prec(A.dtype))
    return fn(A, rows, x, out=out, ws=ws)


def spmv_interior(P, x: np.ndarray, out=None, ws=None):
    """Interior-rows half of a partitioned SpMV (overlap schedule)."""
    fn = registry.lookup("spmv_interior", matrix_format(P), _prec(P.dtype))
    return fn(P, x, out=out, ws=ws)


def spmv_boundary(P, x: np.ndarray, out=None, ws=None):
    """Boundary-rows half of a partitioned SpMV (after the halo lands)."""
    fn = registry.lookup("spmv_boundary", matrix_format(P), _prec(P.dtype))
    return fn(P, x, out=out, ws=ws)


def symgs_sweep(
    A,
    r: np.ndarray,
    xfull: np.ndarray,
    sets,
    diag_sets,
    direction: str = "forward",
    ws=None,
) -> None:
    """One multicolor Gauss-Seidel sweep (all color passes): on a
    plain matrix, the index-set reference the block sweep is pinned to."""
    fn = registry.lookup("symgs_sweep", matrix_format(A), _prec(A.dtype))
    return fn(A, r, xfull, sets, diag_sets, direction=direction, ws=ws)


def symgs_interior(P, r: np.ndarray, xfull: np.ndarray, ws=None) -> None:
    """Interior half of the overlapped (forward) multicolor GS sweep.

    ``P`` is a color-partitioned matrix, ``r`` / ``xfull`` are in its
    order; every color's dependency-closed interior block runs (in
    sweep order) while the halo is in flight.
    """
    fn = registry.lookup("symgs_interior", matrix_format(P), _prec(P.dtype))
    return fn(P, r, xfull, ws=ws)


def symgs_boundary(P, r: np.ndarray, xfull: np.ndarray, ws=None) -> None:
    """Boundary half of the overlapped sweep (after the ghosts land)."""
    fn = registry.lookup("symgs_boundary", matrix_format(P), _prec(P.dtype))
    return fn(P, r, xfull, ws=ws)


def fused_restrict(A_c, R, Xfull, f_c, out=None, ws=None):
    """Fused residual + injection restriction (eq. 6) of a panel (or a
    vector): ``A_c`` is the level's coarse-mapped rows, packed at setup."""
    fn = registry.lookup("fused_restrict", matrix_format(A_c), _prec(A_c.dtype))
    return fn(A_c, R, Xfull, f_c, out=out, ws=ws)


def prolong(Xfull: np.ndarray, Z_c: np.ndarray, f_c: np.ndarray, ws=None):
    """Transpose-injection prolongation ``X[f_c] += Z_c``, per column."""
    fn = registry.lookup("prolong", None, _prec(Xfull.dtype))
    return fn(Xfull, Z_c, f_c, ws=ws)


# ----------------------------------------------------------------------
# Fused motifs (one memory pass where the backend registers one)
# ----------------------------------------------------------------------
def waxpby_dot(alpha, x, beta, y, out=None, ws=None):
    """``w = alpha x + beta y`` plus the *local* ``w . w``, fused.

    Returns ``(w, local_sq)``.  A backend that registers a fused
    kernel produces both in one pass; no shipped backend does, so every
    precision resolves to the NumPy wildcard registration, which
    composes the registry's ``waxpby`` / ``dot`` kernels
    operation-for-operation — bitwise-identical to the separate calls.
    """
    fn = registry.lookup("waxpby_dot", None, _prec(y.dtype))
    return fn(alpha, x, beta, y, out=out, ws=ws)


def gemv_sub_dot(Q, k: int, coef, w, ws=None) -> float:
    """``w -= Q[:, :k] @ coef`` plus the *local* ``w . w``, fused.

    The tail of a CGS2 step (second projection + the norm's local
    reduction) as one registry motif; returns the local squared sum.
    Same wildcard-fallback contract as the other fused motifs.
    """
    fn = registry.lookup("gemv_sub_dot", None, _prec(Q.dtype))
    return fn(Q, k, coef, w, ws=ws)


# ----------------------------------------------------------------------
# Panel (multi-RHS) motifs
# ----------------------------------------------------------------------
# A *panel* is a column-major (order='F') 2-D array of shape (n, N):
# one RHS per column, every column contiguous.  The panel ops are what
# the engine dispatches at every width (a solo solve is the (n, 1)
# panel); each column is bitwise-equal to the single-vector op on it,
# with the matrix traffic amortized over the panel wherever the layout
# allows (NumPy's ELL SpMV, the color-block sweep, the restriction
# block; the SciPy class multiplies once per column).


def spmv_multi(A, X: np.ndarray, out: np.ndarray | None = None, ws=None):
    """``Y = A @ X`` for a column-major RHS panel ``X``.

    Column ``j`` of the result is bitwise-equal to ``spmv(A, X[:, j])``
    inside every backend (the panel kernels keep each column's
    reduction order identical to the single-RHS kernel's).
    """
    fn = registry.lookup("spmv_multi", matrix_format(A), _prec(A.dtype))
    return fn(A, X, out=out, ws=ws)


def bind_spmv_multi(A):
    """``spmv_multi`` on ``A``, resolved now: ``product(X, out=, ws=)``
    is ``spmv_multi(A, X, out=out, ws=ws)`` without the lookup.

    A kernel that carries a ``bind`` attribute (the SciPy class's)
    returns its own product, which resolves ``A``'s operands once; any
    other kernel — a wrapped one included, so the installed wrapper sees
    every call — comes back with ``A`` bound.  The product is as fresh
    as ``registry.generation``: a caller that keeps it checks that.
    """
    fn = registry.lookup("spmv_multi", matrix_format(A), _prec(A.dtype))
    bind = getattr(fn, "bind", None)
    return partial(fn, A) if bind is None else bind(A)


def spmv_interior_multi(P, X: np.ndarray, out=None, ws=None):
    """Interior-rows half of a partitioned panel SpMV.

    The whole panel's interior compute runs while one *wide* halo
    exchange is in flight — the panel-native §3.2.3 schedule.
    """
    fn = registry.lookup("spmv_interior_multi", matrix_format(P), _prec(P.dtype))
    return fn(P, X, out=out, ws=ws)


def spmv_boundary_multi(P, X: np.ndarray, out=None, ws=None):
    """Boundary-rows half of a partitioned panel SpMV (ghosts landed)."""
    fn = registry.lookup("spmv_boundary_multi", matrix_format(P), _prec(P.dtype))
    return fn(P, X, out=out, ws=ws)


def symgs_interior_multi(P, R: np.ndarray, Xfull: np.ndarray, ws=None) -> None:
    """Interior half of the overlapped panel GS sweep (all columns)."""
    fn = registry.lookup(
        "symgs_interior_multi", matrix_format(P), _prec(P.dtype)
    )
    return fn(P, R, Xfull, ws=ws)


def symgs_boundary_multi(P, R: np.ndarray, Xfull: np.ndarray, ws=None) -> None:
    """Boundary half of the overlapped panel GS sweep (ghosts landed)."""
    fn = registry.lookup(
        "symgs_boundary_multi", matrix_format(P), _prec(P.dtype)
    )
    return fn(P, R, Xfull, ws=ws)


def symgs_sweep_multi(
    P,
    R: np.ndarray,
    Xfull: np.ndarray,
    direction: str = "forward",
    ws=None,
    zero_guess: bool = False,
) -> None:
    """One multicolor GS sweep over every column of a panel.

    ``P`` is the color-packed layout every smoother sweeps
    (:func:`repro.sparse.partitioned.partition_colors`) — a plain
    matrix has no panel sweep and raises :class:`KernelNotFoundError` —
    and ``R`` / ``Xfull`` are in its row order.  Columns are mutually
    independent (each column's relaxation reads only its own vectors),
    so each color block streams once across the panel while every
    column stays bitwise-equal to the looped sweep.  ``zero_guess`` is
    the caller's promise that ``Xfull`` is ``+0`` everywhere, ghosts
    included (it just zeroed it): the first color's block products are
    skipped, bitwise.
    """
    fn = registry.lookup("symgs_sweep_multi", matrix_format(P), _prec(P.dtype))
    return fn(P, R, Xfull, direction=direction, ws=ws, zero_guess=zero_guess)


def dot_multi(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-column local dots ``[X[:, j] . Y[:, j]]`` (float64 array)."""
    return registry.lookup("dot_multi", None, _prec(X.dtype))(X, Y)


def waxpby_dot_multi(alpha, X, beta, Y, out=None, ws=None):
    """Panel variant of :func:`waxpby_dot` → ``(W, locals)``."""
    fn = registry.lookup("waxpby_dot_multi", None, _prec(Y.dtype))
    return fn(alpha, X, beta, Y, out=out, ws=ws)


# ----------------------------------------------------------------------
# Dense motifs
# ----------------------------------------------------------------------
def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Local dot product."""
    return registry.lookup("dot", None, _prec(a.dtype))(a, b)


def waxpby(alpha, x, beta, y, out=None, ws=None):
    """``w = alpha x + beta y`` (aliasing with ``out`` allowed)."""
    fn = registry.lookup("waxpby", None, _prec(y.dtype))
    return fn(alpha, x, beta, y, out=out, ws=ws)


def gemv(Q: np.ndarray, k: int, coef: np.ndarray, out=None):
    """``Q[:, :k] @ coef`` (basis combination)."""
    return registry.lookup("gemv", None, _prec(Q.dtype))(Q, k, coef, out=out)


def gemvT(Q: np.ndarray, k: int, w: np.ndarray, out=None):
    """``Q[:, :k]^T w`` (CGS2 projection coefficients)."""
    return registry.lookup("gemvT", None, _prec(Q.dtype))(Q, k, w, out=out)

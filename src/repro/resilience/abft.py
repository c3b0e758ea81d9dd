"""ABFT checksum verification for SpMV (Huang–Abraham, SpMV form).

The identity ``eᵀ(Ax) = (eᵀA)·x`` holds exactly in real arithmetic;
in floating point the two sides differ by a roundoff term bounded by
``O(eps · Σᵢⱼ |aᵢⱼ||xⱼ|)``.  Caching the column-sum vector
``c = eᵀA`` (and ``|c| = eᵀ|A|`` for the bound) per operator makes the
check one extra reduction per matvec: compare ``sum(y)`` against
``c·x`` at the active rung's tolerance and any corruption whose
magnitude clears the rung's roundoff floor is caught.

The checksums are computed once from the fp64 operator — every rung
stores a plain cast of the same operator, so one fp64 ``c`` serves
every rung; only the tolerance changes with the precision plane.  The check
is read-only: with no fault present it changes no solver state, which
is what keeps resilience-on runs bitwise identical to resilience-off.
"""

from __future__ import annotations

import numpy as np

from repro.resilience.errors import FaultDetectedError
from repro.sparse.formats import to_format

#: Multiple of the rung's machine epsilon the relative checksum error
#: may reach before the check trips.  Must clear the true roundoff
#: bound (``~(row_nnz + log2 n) * eps`` for the 27-point stencil) with
#: margin; 128 gives ~3x headroom at every rung.
ABFT_TOL_FACTOR = 128.0


def abft_checksums(A) -> tuple[np.ndarray, np.ndarray]:
    """``(c, cabs)``: fp64 column sums of ``A`` and ``|A|``.

    Both span the operator's full column space (owned + ghost), so the
    check contracts against the same ``xfull`` the kernels consumed.
    The CSR conversion runs once per operator; callers cache the result
    in the :class:`~repro.solvers.setup_cache.SetupCache` under the
    operator's fingerprint.
    """
    csr = to_format(A, "csr")
    data = csr.data.astype(np.float64, copy=False)
    idx = csr.indices
    c = np.bincount(idx, weights=data, minlength=csr.ncols)
    cabs = np.bincount(idx, weights=np.abs(data), minlength=csr.ncols)
    return c, cabs


def abft_rel_tol(dtype) -> float:
    """The relative checksum tolerance for one precision rung."""
    return ABFT_TOL_FACTOR * float(np.finfo(np.dtype(dtype)).eps)


class ABFTCheck:
    """One operator's checksum verifier, bound to a rung tolerance."""

    __slots__ = ("c", "cabs", "rel_tol", "site", "stats", "checks")

    def __init__(
        self,
        c: np.ndarray,
        cabs: np.ndarray,
        rel_tol: float,
        site: str = "spmv",
        stats=None,
    ) -> None:
        self.c = c
        self.cabs = cabs
        self.rel_tol = rel_tol
        self.site = site
        #: Optional :class:`~repro.resilience.stats.ResilienceStats`
        #: receiving ``detected`` increments.
        self.stats = stats
        self.checks = 0

    def verify(self, xfull: np.ndarray, y: np.ndarray) -> None:
        """Raise :class:`FaultDetectedError` if ``y ≉ A @ xfull``.

        Read-only: no solver state is touched on the clean path.
        """
        self.checks += 1
        s_y = float(np.sum(y, dtype=np.float64))
        x64 = xfull.astype(np.float64, copy=False)
        s_cx = float(np.dot(self.c, x64))
        denom = float(np.dot(self.cabs, np.abs(x64)))
        tol = self.rel_tol * (denom + abs(s_cx)) + np.finfo(np.float64).tiny
        err = abs(s_y - s_cx)
        if not err <= tol:  # NaN-safe: a NaN comparison is False
            if self.stats is not None:
                self.stats.detected += 1
            raise FaultDetectedError(
                self.site,
                f"checksum error {err:.3e} exceeds rung tolerance "
                f"{tol:.3e} (rel_tol={self.rel_tol:.1e})",
            )

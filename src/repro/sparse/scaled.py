"""Row-equilibrated low-precision matrix storage (fp16 support).

IEEE half precision spans roughly ``[6e-5, 65504]`` with ~3 decimal
digits — narrow enough that storing a matrix verbatim risks both
underflow (small couplings flush to zero) and overflow (row combinations
exceed the max).  The standard remedy, used by every fp16 LU/HPL-MxP
pipeline, is **row equilibration**: store ``D^{-1} A`` in fp16 together
with the scale vector ``D``, where ``d_i`` is a power of two near the
row's max magnitude.  Power-of-two scales make the division *exact*
(it only shifts the exponent), so equilibration costs no accuracy —
it just recenters each row's entries near 1.0 where fp16's relative
grid is finest.

:class:`ScaledELLMatrix` carries the scaled values plus ``row_scale``;
the fp16 kernels in :mod:`repro.backends.numpy_backend` fold the scale
back into their output (``y = D (D^{-1}A) x``), so callers see the
original operator.  ``diagonal()`` likewise reports the *unscaled*
diagonal, which keeps the Gauss-Seidel relaxation formula unchanged.

:func:`to_precision` is the construction seam the solver and multigrid
layers use: fp16 requests on ELL matrices get scaled storage, every
other (format, precision) pair falls back to a plain ``astype`` — for
CSR the benchmark stencil's entries (26 and -1) are exactly
representable in fp16, so unscaled storage is correct there too.
"""

from __future__ import annotations

import numpy as np

from repro.fp.precision import Precision
from repro.sparse.ell import ELLMatrix


def row_equilibration_scales(maxabs: np.ndarray) -> np.ndarray:
    """Power-of-two scale per row from the row-wise max magnitudes.

    ``s_i = 2**round(log2(max_j |a_ij|))``; all-zero rows get scale 1
    so the division is a no-op.  Returned in float32 (exact for the
    exponent range fp16 storage can survive anyway).
    """
    maxabs = np.asarray(maxabs, dtype=np.float64)
    safe = np.where(maxabs > 0.0, maxabs, 1.0)
    scales = np.exp2(np.round(np.log2(safe)))
    return scales.astype(np.float32)


class ScaledELLMatrix(ELLMatrix):
    """ELL block holding ``D^{-1} A`` in a narrow dtype plus ``D``.

    ``row_scale`` is the float32 diagonal ``D``; kernels multiply it
    back into their output so the matrix *acts* as the original ``A``.
    ``format_name`` is inherited ("ell"): the registry dispatches on
    ``(format, precision)`` and the fp16 kernels pick up ``row_scale``
    by attribute, so no new format key is needed.
    """

    def __init__(
        self,
        cols: np.ndarray,
        vals: np.ndarray,
        ncols: int,
        row_scale: np.ndarray,
    ) -> None:
        super().__init__(cols=cols, vals=vals, ncols=ncols)
        if row_scale.shape != (vals.shape[0],):
            raise ValueError("row_scale must have one entry per row")
        self.row_scale = np.ascontiguousarray(row_scale, dtype=np.float32)

    def diagonal(self) -> np.ndarray:
        """The *unscaled* diagonal ``D diag(D^{-1}A)``, in float32.

        Smoother relaxations divide by this, so it must refer to the
        operator the kernels present (the original ``A``).
        """
        scaled = super().diagonal()
        return (scaled.astype(np.float32) * self.row_scale).astype(np.float32)

    def astype(self, prec: "Precision | str") -> ELLMatrix:
        """Rematerialize at another precision (un-equilibrated).

        Promotion off the fp16 rung reconstructs the plain values
        ``s_i * (a_ij / s_i)`` — exact, because the scales are powers
        of two.
        """
        target = Precision.from_any(prec)
        if target is Precision.HALF:
            return ScaledELLMatrix(
                self.cols, self.vals.copy(), self.ncols, self.row_scale
            )
        vals = self.vals.astype(target.dtype) * self.row_scale[:, None].astype(
            target.dtype
        )
        return ELLMatrix(cols=self.cols, vals=vals, ncols=self.ncols)

    def to_csr(self):
        """CSR of the *unscaled* operator (conversion round-trips)."""
        return self.astype(Precision.DOUBLE).to_csr()


def equilibrated_half(A: ELLMatrix) -> ScaledELLMatrix:
    """Row-equilibrated fp16 copy of an ELL matrix.

    This is the low-precision matrix copy an fp16 GMRES-IR rung keeps
    beside the fp64 one: values stored as ``a_ij / s_i`` in half
    precision, scales in float32.
    """
    vals64 = A.vals.astype(np.float64)
    scales = row_equilibration_scales(np.abs(vals64).max(axis=1))
    scaled = (vals64 / scales[:, None]).astype(np.float16)
    return ScaledELLMatrix(
        cols=A.cols, vals=scaled, ncols=A.ncols, row_scale=scales
    )


def to_precision(A, prec: "Precision | str"):
    """Convert a matrix to a target precision, format preserved.

    The fp16 rung of the ladder gets row-equilibrated storage when the
    format supports it (ELL, the optimized layout); everything else is
    a plain value cast.  Identity conversions return the input's
    ``astype`` copy semantics unchanged.
    """
    target = Precision.from_any(prec)
    if target is Precision.HALF and isinstance(A, ELLMatrix):
        if isinstance(A, ScaledELLMatrix):
            return A.astype(target)
        return equilibrated_half(A)
    return A.astype(target)

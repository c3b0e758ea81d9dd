"""Storage-format helpers: names, conversion, registry-backed lookup.

One place maps format names (``"csr"``, ``"ell"``) to
matrix classes and converts any matrix to any format — the glue between
``core.config``'s ``matrix_format`` knob, the CLI ``--format`` flag,
and the kernel registry's per-format dispatch.

Adding a format end-to-end means two registrations: kernels in
:mod:`repro.backends` (the compute seam) and a class entry here (the
construction/conversion seam — the class needs ``format_name``,
``from_csr`` and ``to_csr``).  :func:`known_formats` reports only
formats present on *both* sides, so config validation never admits a
format the pipeline cannot actually build.
"""

from __future__ import annotations

from repro.backends.dispatch import matrix_format as matrix_format_of
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import ELLMatrix

#: Format name -> matrix class.  Every class provides ``from_csr`` /
#: ``to_csr`` (CSR is the interchange format).
MATRIX_FORMATS = {
    CSRMatrix.format_name: CSRMatrix,
    ELLMatrix.format_name: ELLMatrix,
}

__all__ = [
    "MATRIX_FORMATS",
    "content_arrays",
    "known_formats",
    "matrix_format_of",
    "to_format",
]


def content_arrays(A):
    """The ndarray attributes that define a matrix's content.

    Yields ``(name, array)`` pairs in sorted attribute order — the
    deterministic byte stream the setup cache's operator fingerprint
    hashes.  Covers every registered format generically (CSR's
    indptr/indices/data, ELL's cols/vals); non-array state
    (shapes, dtypes) is the caller's to fold in.
    """
    import numpy as np

    for name in sorted(vars(A)):
        value = getattr(A, name)
        if isinstance(value, np.ndarray):
            yield name, value


def known_formats() -> list[str]:
    """Formats usable end-to-end: constructible here *and* backed by
    registered kernels."""
    from repro.backends.registry import registered_formats

    regs = set(registered_formats())
    usable = [f for f in sorted(MATRIX_FORMATS) if f in regs]
    return usable if usable else sorted(MATRIX_FORMATS)


def to_format(A, fmt: str):
    """Convert a matrix to the named storage format.

    Conversion between any pair goes through CSR (the interchange
    format); identity conversions return the input unchanged.
    """
    if fmt not in MATRIX_FORMATS:
        raise ValueError(
            f"unknown matrix format {fmt!r}; registered formats: "
            f"{known_formats()}"
        )
    if matrix_format_of(A) == fmt:
        return A
    csr = A if isinstance(A, CSRMatrix) else A.to_csr()
    if fmt == CSRMatrix.format_name:
        return csr
    return MATRIX_FORMATS[fmt].from_csr(csr)

"""The precision-conversion seam for sparse matrices.

:func:`to_precision` is the one place the solver and multigrid layers
turn a matrix into a rung's storage: a plain value cast, format
preserved.  Every rung of :data:`repro.fp.ladder.LADDER` stores its
values verbatim.
"""

from __future__ import annotations

from repro.fp.ladder import solver_rung
from repro.fp.precision import Precision


def to_precision(A, prec: "Precision | str"):
    """Convert a matrix to a ladder rung, format preserved.

    Identity conversions keep the input's ``astype`` copy semantics; a
    precision off the ladder raises (:func:`repro.fp.ladder.solver_rung`).
    """
    return A.astype(solver_rung(prec))

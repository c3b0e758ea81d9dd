"""Precision policies for the GMRES-IR solver (paper Algorithm 3).

Algorithm 3 marks most steps blue: "allowed to be performed in low or
mixed precision".  Two steps are pinned to double precision by the
benchmark specification:

- the residual update ``r <- b - A x`` (line 7), and
- the solution update ``x <- x_0 + M^{-1} r`` (line 47).

A :class:`PrecisionPolicy` records the precision for each group of
steps.  The multigrid preconditioner is not one precision but a
**level-indexed schedule** (``mg_levels``): the coarse levels — whose
corrections are smoothed again on the way up — tolerate more roundoff
than the fine level and may sit on another rung.  The all-double
policy reproduces plain GMRES; the double-single policy is the
configuration the paper evaluates; :meth:`PrecisionPolicy.from_ladder`
builds per-level ladder configurations such as ``"fp32:fp64"``.  Every
field is a rung of :data:`repro.fp.ladder.LADDER`: fp16 is refused at
construction (:func:`repro.fp.ladder.solver_rung`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.fp.ladder import (
    format_ladder,
    next_rung,
    parse_ascending_ladder,
    parse_ladder,
    solver_rung,
)
from repro.fp.precision import Precision


@dataclass(frozen=True)
class PrecisionPolicy:
    """Which precision each GMRES-IR ingredient uses.

    Attributes
    ----------
    matrix:
        Storage/compute precision of the low-precision copy of ``A`` used
        inside the restart cycle (SpMV, line 19).  GMRES-IR keeps this
        *in addition* to the double-precision matrix, which the paper
        notes makes its memory footprint larger than plain GMRES.
    mg_levels:
        Per-multigrid-level precision schedule (matrices, smoother
        sweeps, grid-transfer vectors; lines 18 and 47's ``M^{-1}``).
        Entry ``i`` is level ``i``'s precision, level 0 the finest; the
        last entry extends to any coarser level (see :meth:`mg_level`).
        Accepts a ladder spec (``"fp32:fp64"``), a single precision, or
        a sequence at construction.
    krylov_basis:
        Storage precision of the Krylov basis vectors ``Q``.
    orthogonalization:
        Compute precision of the CGS2 GEMV/GEMVT kernels (lines 20-27).
    least_squares:
        Precision of the small host-side Hessenberg/Givens updates.  The
        paper performs the QR update redundantly on every process on the
        CPU; double is cheap and is what the reference code does.
    residual_update:
        Precision of the outer residual computation (line 7).  The
        benchmark requires double.
    solution_update:
        Precision of the outer solution update (line 47).  The benchmark
        requires double.
    """

    matrix: Precision = Precision.DOUBLE
    mg_levels: tuple[Precision, ...] = (Precision.DOUBLE,)
    krylov_basis: Precision = Precision.DOUBLE
    orthogonalization: Precision = Precision.DOUBLE
    least_squares: Precision = Precision.DOUBLE
    residual_update: Precision = field(default=Precision.DOUBLE)
    solution_update: Precision = field(default=Precision.DOUBLE)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mg_levels", parse_ladder(self.mg_levels))
        for name in (
            "matrix", "krylov_basis", "orthogonalization", "least_squares"
        ):
            object.__setattr__(self, name, solver_rung(getattr(self, name)))
        if self.residual_update is not Precision.DOUBLE:
            raise ValueError(
                "HPG-MxP requires the residual update in double precision"
            )
        if self.solution_update is not Precision.DOUBLE:
            raise ValueError(
                "HPG-MxP requires the solution update in double precision"
            )

    # ------------------------------------------------------------------
    # The preconditioner schedule
    # ------------------------------------------------------------------
    @property
    def preconditioner(self) -> Precision:
        """Fine-level preconditioner precision (``mg_levels[0]``)."""
        return self.mg_levels[0]

    def mg_level(self, lvl: int) -> Precision:
        """Precision of multigrid level ``lvl`` (last entry extends)."""
        if lvl < 0:
            raise ValueError("level index must be >= 0")
        return self.mg_levels[min(lvl, len(self.mg_levels) - 1)]

    def mg_schedule(self, nlevels: int) -> tuple[Precision, ...]:
        """The schedule expanded to exactly ``nlevels`` entries."""
        return tuple(self.mg_level(lvl) for lvl in range(nlevels))

    # ------------------------------------------------------------------
    def _inner_precisions(self) -> tuple[Precision, ...]:
        """Every "blue" (non-pinned) precision in the policy."""
        return (
            self.matrix,
            *self.mg_levels,
            self.krylov_basis,
            self.orthogonalization,
            self.least_squares,
        )

    @property
    def is_uniform_double(self) -> bool:
        """True when every step runs in double (plain GMRES)."""
        return all(p is Precision.DOUBLE for p in self._inner_precisions())

    @property
    def low(self) -> Precision:
        """The lowest precision appearing anywhere in the policy."""
        return min(self._inner_precisions(), key=lambda p: p.bytes)

    @property
    def can_promote(self) -> bool:
        """True when a rung above the current policy exists."""
        return not self.is_uniform_double

    def with_low(self, prec: "Precision | str") -> "PrecisionPolicy":
        """Return a policy with all blue steps set to ``prec``."""
        p = Precision.from_any(prec)
        return replace(
            self,
            matrix=p,
            mg_levels=(p,),
            krylov_basis=p,
            orthogonalization=p,
        )

    def with_mg_schedule(
        self, schedule: "str | Precision | tuple"
    ) -> "PrecisionPolicy":
        """Return a policy with the given per-level MG schedule."""
        return replace(self, mg_levels=parse_ladder(schedule))

    @classmethod
    def from_ladder(cls, spec: "str | tuple") -> "PrecisionPolicy":
        """Build a ladder policy from a spec like ``"fp32:fp64"``.

        The first rung is the fine-level (Krylov-side) precision: it
        sets the inner matrix, the Krylov basis, the orthogonalization,
        and MG level 0; the remaining rungs are the coarser MG levels.
        The host-side least-squares and the pinned outer updates stay
        double, per the benchmark specification.

        A ladder must climb strictly (fp32 < fp64): duplicate or
        descending rungs are rejected with an error naming the
        offending rung (:func:`repro.fp.ladder.parse_ascending_ladder`).
        Use the :class:`PrecisionPolicy` constructor directly for
        arbitrary per-level schedules.
        """
        rungs = parse_ascending_ladder(spec)
        return cls(
            matrix=rungs[0],
            mg_levels=rungs,
            krylov_basis=rungs[0],
            orthogonalization=rungs[0],
        )

    def promote(self) -> "PrecisionPolicy":
        """One rung up the ladder for every blue step.

        fp32 -> fp64 elementwise (the pinned outer updates and
        the host least-squares are already double).  A uniform-double
        policy returns itself unchanged — the top of the ladder.
        """
        if self.is_uniform_double:
            return self
        return replace(
            self,
            matrix=next_rung(self.matrix),
            mg_levels=tuple(next_rung(p) for p in self.mg_levels),
            krylov_basis=next_rung(self.krylov_basis),
            orthogonalization=next_rung(self.orthogonalization),
            least_squares=next_rung(self.least_squares),
        )

    def describe(self) -> str:
        """Human-readable one-line description (used by reports)."""
        if self.is_uniform_double:
            return "uniform fp64 (plain GMRES)"
        return (
            f"matrix={self.matrix.short_name} "
            f"mg={format_ladder(self.mg_levels)} "
            f"basis={self.krylov_basis.short_name} "
            f"ortho={self.orthogonalization.short_name} "
            f"lsq={self.least_squares.short_name} "
            f"outer=fp64"
        )


#: Plain double-precision GMRES configuration (the "double" phase).
DOUBLE_POLICY = PrecisionPolicy()

#: The paper's double+single GMRES-IR configuration (the "mxp" phase).
MIXED_DS_POLICY = PrecisionPolicy().with_low(Precision.SINGLE)

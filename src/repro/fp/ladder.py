"""The precision ladder: ordered rungs and per-MG-level schedules.

The paper evaluates double/single GMRES-IR; Carson's inexactness
framework motivates choosing a precision per solver ingredient against
a roundoff budget.  This module provides the two pieces of machinery
that generalization needs:

- a **ladder** — the ordered rungs fp32 < fp64 with :func:`next_rung`
  ("promote") navigation, parsed from compact specs like
  ``"fp32:fp64"``;
- a **per-level schedule** — one precision per multigrid level, so the
  coarse levels (which contribute less to the correction and tolerate
  more roundoff) can run on another rung than the fine level.

A schedule shorter than the hierarchy extends its last entry to the
remaining (coarser) levels, so ``"fp32:fp64"`` means "fp32 fine level,
fp64 everywhere below".  The ladder holds only the precisions this
machine computes fast: fp16 (:attr:`Precision.HALF`) is a key of the
:mod:`repro.perf` projection, never a solver rung, and every spec that
names it is rejected by :func:`solver_rung` before anything is built.

:class:`EscalationConfig` carries the knobs of the adaptive controller
in :mod:`repro.solvers.gmres_ir` that climbs the ladder when an inner
stage stagnates at its precision floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.fp.precision import Precision

#: The rungs, lowest first.  Promotion moves one step right.
LADDER: tuple[Precision, ...] = (Precision.SINGLE, Precision.DOUBLE)

#: Separator of textual ladder specs (``fp32:fp64``).
LADDER_SEP = ":"


def solver_rung(prec: "Precision | str") -> Precision:
    """``prec`` as a rung of :data:`LADDER`, or a ``ValueError`` naming it.

    The one check every policy field and schedule entry passes
    (:func:`parse_ladder`, ``PrecisionPolicy.__post_init__``), so a
    precision no solver kernel computes is refused before any storage
    is built.
    """
    p = Precision.from_any(prec)
    if p not in LADDER:
        raise ValueError(
            f"rung {p.short_name!r} is not a solver precision; the "
            f"ladder is {format_ladder(LADDER)!r}"
        )
    return p


def next_rung(prec: "Precision | str") -> Precision:
    """The next-higher rung (fp32 -> fp64; fp64 is a fixpoint)."""
    i = LADDER.index(solver_rung(prec))
    return LADDER[min(i + 1, len(LADDER) - 1)]


def prev_rung(prec: "Precision | str") -> Precision:
    """The next-lower rung (fp64 -> fp32; fp32 is a fixpoint).

    The de-escalation move: like :func:`next_rung` at the top, the
    bottom of the ladder is an explicit no-op rather than an error, so
    controllers never need a bounds check before demoting.
    """
    i = LADDER.index(solver_rung(prec))
    return LADDER[max(i - 1, 0)]


def parse_ladder(spec: "str | Precision | Iterable") -> tuple[Precision, ...]:
    """Parse a ladder/schedule spec into a tuple of rungs.

    Accepts a colon-separated string (``"fp32:fp64"``), a single
    precision-like value, or any iterable of precision-like values.
    Raises ``ValueError`` on empty specs, unknown precision names
    (listing the valid ones, via :meth:`Precision.from_any`) and
    precisions off the ladder (:func:`solver_rung`).
    """
    if isinstance(spec, str):
        parts: Sequence = [s for s in spec.split(LADDER_SEP) if s.strip()]
    elif isinstance(spec, Precision):
        parts = [spec]
    else:
        parts = list(spec)
    if not parts:
        raise ValueError(f"empty precision ladder spec: {spec!r}")
    return tuple(solver_rung(p) for p in parts)


def format_ladder(schedule: Iterable[Precision]) -> str:
    """Inverse of :func:`parse_ladder`: ``"fp32:fp64"``."""
    return LADDER_SEP.join(p.short_name for p in schedule)


def parse_ascending_ladder(
    spec: "str | Precision | Iterable",
) -> tuple[Precision, ...]:
    """Parse a *ladder* spec: rungs must be strictly ascending.

    Per-level MG schedules may legitimately run coarse levels higher
    (or, experimentally, lower) than their neighbors, so
    :func:`parse_ladder` accepts any ordering; a *ladder* — the
    escalation path fed to :meth:`PrecisionPolicy.from_ladder` — must
    climb strictly, or promotion would revisit (duplicate rung) or
    descend (non-ascending) and the controller could loop.  The error
    names the offending rung.
    """
    rungs = parse_ladder(spec)
    for prev, cur in zip(rungs, rungs[1:]):
        if cur.bytes == prev.bytes:
            raise ValueError(
                f"duplicate rung {cur.short_name!r} in ladder "
                f"{format_ladder(rungs)!r}; each rung may appear once"
            )
        if cur.bytes < prev.bytes:
            raise ValueError(
                f"rung {cur.short_name!r} after {prev.short_name!r} in "
                f"ladder {format_ladder(rungs)!r}; ladder rungs must "
                f"ascend (fp32 < fp64)"
            )
    return rungs


def schedule_for_levels(
    schedule: "str | Precision | Iterable", nlevels: int
) -> tuple[Precision, ...]:
    """Expand a schedule spec to exactly ``nlevels`` entries.

    The last entry extends to the remaining (coarser) levels; a
    schedule longer than the hierarchy is truncated.
    """
    rungs = parse_ladder(schedule)
    if nlevels < 1:
        raise ValueError("nlevels must be >= 1")
    if len(rungs) >= nlevels:
        return rungs[:nlevels]
    return rungs + (rungs[-1],) * (nlevels - len(rungs))


def promote_schedule(schedule: Iterable[Precision]) -> tuple[Precision, ...]:
    """Every entry one rung up (the whole-ladder promotion move)."""
    return tuple(next_rung(p) for p in schedule)


@dataclass(frozen=True)
class EscalationConfig:
    """Knobs of the adaptive ladder-escalation controller.

    The controller watches the *outer* (fp64) residual at every restart
    boundary.  An inner stage running at precision ``u`` cannot reduce
    the outer residual below roughly ``u * kappa(A)`` per cycle; when
    the per-cycle reduction degrades past ``stall_ratio`` the stage has
    hit that floor and the whole policy is promoted one rung.

    Attributes
    ----------
    enabled:
        Master switch; a disabled controller never promotes (the solver
        then behaves exactly like the fixed-policy GMRES-IR).
    stall_ratio:
        A restart cycle must shrink the true residual to at most
        ``stall_ratio * previous`` or it counts as stagnation.
    floor_factor:
        Classification only: a stagnation with relative residual at or
        below ``floor_factor * eps(active low precision)`` is labeled
        ``"floor"`` (stuck at the precision's roundoff floor) rather
        than ``"stall"``.
    min_cycles:
        Completed cycles at the active rung before stagnation is
        judged (the first cycle after a promotion gets a free pass).
    """

    enabled: bool = True
    stall_ratio: float = 0.5
    floor_factor: float = 4.0
    min_cycles: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.stall_ratio <= 1.0:
            raise ValueError("stall_ratio must be in (0, 1]")
        if self.min_cycles < 1:
            raise ValueError("min_cycles must be >= 1")


#: Escalation disabled — the fixed-policy historical behaviour.
NO_ESCALATION = EscalationConfig(enabled=False)

"""The precision ladder: ordered rungs and per-MG-level schedules.

The paper evaluates double/single GMRES-IR; this module generalizes it:

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

The :class:`Escalator` (knobs: :class:`EscalationConfig`) is consulted
by :class:`~repro.solvers.gmres_ir.GMRESIRSolver` at every restart
boundary: when an inner stage stalls at its precision floor, breaks
down or faults, it promotes the whole policy one rung — HPL-MxP's
fall-back to higher precision.  On two rungs that moves every fp32
ingredient to fp64 at once, the only move a per-ingredient controller
could make too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.fp.precision import Precision

if TYPE_CHECKING:
    from repro.fp.policy import PrecisionPolicy

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
    """Parse a *ladder* spec, whose rungs must strictly ascend.

    Unlike a per-level MG schedule (:func:`parse_ladder`, any order),
    the spec fed to :meth:`PrecisionPolicy.from_ladder` must climb; the
    error names a duplicate or descending rung.
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
    """Knobs of the :class:`Escalator`.

    An inner stage at unit roundoff ``u`` cannot push the outer (fp64)
    residual below roughly ``u * kappa(A)`` per cycle, so a cycle that
    fails to shrink it to ``stall_ratio * previous`` has hit that floor.

    ``enabled`` is the master switch (off: the fixed-policy GMRES-IR).
    ``floor_factor`` only classifies: a stagnation at relative residual
    ``<= floor_factor * eps(lowest rung)`` reads ``"floor"``, else
    ``"stall"``.  ``min_cycles`` completed cycles pass before the first
    judgement of a solve or after a promotion.
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


@dataclass(frozen=True)
class PrecisionEvent:
    """One promotion during a solve (``SolverStats.promotions``).

    ``from_low`` / ``to_low`` are the lowest live rung before and after;
    ``ingredient`` names what moved, always the whole ``"policy"``.
    """

    iteration: int  # inner-iteration count when the event fired
    restart: int  # restart cycles completed at that point
    relres: float  # outer relative residual that triggered it
    reason: str  # "stall" | "floor" | "breakdown" | "fault"
    from_low: Precision
    to_low: Precision
    ingredient: str = "policy"

    def describe(self) -> str:
        return (
            f"iter {self.iteration}: promote {self.ingredient} "
            f"{self.from_low.short_name}->{self.to_low.short_name} "
            f"({self.reason}, relres={self.relres:.2e})"
        )


class Escalator:
    """The live rungs of one solver, and the rule that raises them.

    ``policy`` and ``transfers`` (one rung per MG level boundary;
    ``None`` couples each to the coarser level's rung) persist across
    solves, so a promotion's setup is paid once; :meth:`reset` forgets
    only the residual history and the cycles since the last promotion.
    """

    def __init__(
        self,
        config: EscalationConfig,
        policy: "PrecisionPolicy",
        transfers: "tuple[Precision, ...] | None" = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.transfers = transfers
        self.reset()

    def reset(self) -> None:
        self._prev_rho: float | None = None
        self._cycles = 0

    def cycle_completed(self) -> None:
        self._cycles += 1

    @property
    def low(self) -> Precision:
        """The lowest live rung, transfers included."""
        return min(
            (self.policy.low, *(self.transfers or ())), key=lambda p: p.bytes
        )

    def observe_restart(
        self, rho: float, relres: float, iteration: int, restarts: int
    ) -> list[PrecisionEvent]:
        """Judge the outer residual ``rho`` at a restart boundary: a
        cycle that failed to shrink it to ``stall_ratio`` of the last
        one promotes (``"floor"`` at the rung's roundoff, else
        ``"stall"``)."""
        prev, self._prev_rho = self._prev_rho, rho
        esc = self.config
        if not esc.enabled or prev is None or self._cycles < esc.min_cycles:
            return []
        if rho <= esc.stall_ratio * prev:
            return []
        reason = "floor" if relres <= esc.floor_factor * self.low.eps else "stall"
        return self.promote(reason, relres, iteration, restarts)

    def promote(
        self, reason: str, relres: float, iteration: int, restarts: int
    ) -> list[PrecisionEvent]:
        """Every live rung one up; ``[]`` when disabled or at fp64.

        A breakdown or fault calls this directly (no stall window); the
        boundary after any promotion starts without residual history.
        """
        frm = self.low
        if not self.config.enabled or frm is Precision.DOUBLE:
            return []
        self.policy = self.policy.promote()
        if self.transfers is not None:
            self.transfers = promote_schedule(self.transfers)
        self.reset()
        return [PrecisionEvent(iteration, restarts, relres, reason, frm, self.low)]

"""Floating-point precision framework.

HPG-MxP counts floating point operations of every precision equally and
lets most solver steps run in a low precision while pinning the outer
residual and solution updates to double.  This package provides:

- :class:`~repro.fp.precision.Precision` — an enum of IEEE formats with
  their dtype, byte width, and unit roundoff.
- :class:`~repro.fp.policy.PrecisionPolicy` — which GMRES-IR step runs in
  which precision (the paper's "blue" steps of Algorithm 3), including
  the per-multigrid-level schedule.
- :mod:`~repro.fp.ladder` — the fp32 < fp64 rung ordering,
  ladder-spec parsing, and the :class:`~repro.fp.ladder.Escalator`
  that promotes the whole policy one rung on stall, floor, breakdown
  or fault, emitting one :class:`~repro.fp.ladder.PrecisionEvent`.
- :mod:`~repro.fp.budget` — the Carson-style roundoff-budget chooser
  that derives the *initial* rungs (a policy plus the grid-transfer
  rungs) from the matrix's norm/condition estimates instead of a flat
  CLI string.
"""

from repro.fp.precision import Precision, as_dtype, cast, machine_eps
from repro.fp.ladder import (
    EscalationConfig,
    Escalator,
    NO_ESCALATION,
    PrecisionEvent,
    format_ladder,
    next_rung,
    parse_ascending_ladder,
    parse_ladder,
    schedule_for_levels,
)
from repro.fp.policy import (
    PrecisionPolicy,
    DOUBLE_POLICY,
    MIXED_DS_POLICY,
)
from repro.fp.budget import (
    INGREDIENTS,
    BudgetReport,
    choose_plane,
    estimate_condition,
)

__all__ = [
    "Precision",
    "as_dtype",
    "cast",
    "machine_eps",
    "EscalationConfig",
    "Escalator",
    "NO_ESCALATION",
    "PrecisionEvent",
    "format_ladder",
    "next_rung",
    "parse_ascending_ladder",
    "parse_ladder",
    "schedule_for_levels",
    "PrecisionPolicy",
    "DOUBLE_POLICY",
    "MIXED_DS_POLICY",
    "INGREDIENTS",
    "BudgetReport",
    "choose_plane",
    "estimate_condition",
]

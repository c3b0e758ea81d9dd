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
  ladder-spec parsing, and the adaptive-escalation configuration.
- :mod:`~repro.fp.controller` — the per-ingredient precision control
  plane: one :class:`~repro.fp.controller.IngredientController` per
  (ingredient, MG level), with promotion *and* hysteresis-guarded
  de-escalation, plus the whole-policy compatibility mode.
- :mod:`~repro.fp.budget` — the Carson-style roundoff-budget chooser
  that derives the initial per-ingredient rungs from the matrix's
  norm/condition estimates instead of a flat CLI string.
"""

from repro.fp.precision import Precision, as_dtype, cast, machine_eps
from repro.fp.ladder import (
    EscalationConfig,
    NO_ESCALATION,
    format_ladder,
    next_rung,
    parse_ascending_ladder,
    parse_ladder,
    prev_rung,
    schedule_for_levels,
)
from repro.fp.policy import (
    PrecisionPolicy,
    DOUBLE_POLICY,
    MIXED_DS_POLICY,
)
from repro.fp.controller import (
    CONTROL_MODES,
    ControlConfig,
    INGREDIENTS,
    IngredientController,
    IngredientSchedule,
    NO_CONTROL,
    PrecisionControlPlane,
    PrecisionEvent,
)
from repro.fp.budget import (
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
    "NO_ESCALATION",
    "format_ladder",
    "next_rung",
    "prev_rung",
    "parse_ascending_ladder",
    "parse_ladder",
    "schedule_for_levels",
    "PrecisionPolicy",
    "DOUBLE_POLICY",
    "MIXED_DS_POLICY",
    "CONTROL_MODES",
    "ControlConfig",
    "INGREDIENTS",
    "IngredientController",
    "IngredientSchedule",
    "NO_CONTROL",
    "PrecisionControlPlane",
    "PrecisionEvent",
    "BudgetReport",
    "choose_plane",
    "estimate_condition",
]

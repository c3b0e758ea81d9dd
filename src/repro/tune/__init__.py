"""Measured format autotuning: machine-probed CSR-vs-ELL plans.

The paper compares two storage formats — CSR in the reference HPG-MxP,
ELL in the optimized code — and this package picks between them by
measurement, not configuration.  The prober times the matrix motifs
the engine dispatches (``spmv``, ``spmv_multi``, ``symgs_sweep_multi``)
in both formats on a representative slice of the actual operator under
the active backend; the resulting :class:`DispatchPlan` records the
winning format per (op, rung), and a persistent :class:`PlanCache`
keyed by (operator content x machine fingerprint) makes warm runs
free.  A plan reaches a solver only through its setup cache
(``SetupCache.store_plan``), which switches the solver-wide format
when every entry agrees.  A plan can only ever select a format whose
probe output was bitwise-identical to the baseline's — tuning changes
speed, never numerics.
"""

from repro.tune.autotune import (
    apply_plan_to_config,
    autotune_operator,
    config_rungs,
    tune_for_config,
)
from repro.tune.cache import PlanCache, default_cache_path
from repro.tune.plan import DispatchPlan, PlanChoice, PlanParityError, ProbeRecord
from repro.tune.probe import OperatorProber, representative_slice

__all__ = [
    "DispatchPlan",
    "OperatorProber",
    "PlanCache",
    "PlanChoice",
    "PlanParityError",
    "ProbeRecord",
    "apply_plan_to_config",
    "autotune_operator",
    "config_rungs",
    "default_cache_path",
    "representative_slice",
    "tune_for_config",
]

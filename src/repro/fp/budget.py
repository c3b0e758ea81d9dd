"""Carson-style roundoff-budget chooser for the initial ladder.

Instead of a flat CLI ladder string applied to every ingredient, the
chooser assigns each ``(ingredient, MG level)`` controller the lowest
rung whose expected per-cycle roundoff contribution fits a caller
budget — the inexactness-balancing idea of Carson's mixed-precision
analysis: an ingredient running at unit roundoff ``u`` perturbs the
outer residual by roughly ``w * u * kappa(A)``, where the weight ``w``
captures how strongly the algorithm amplifies that ingredient's
rounding.

Weights, coarsest model that reproduces the paper's qualitative
ordering:

- **spmv** — backward error of a row with ``nnz`` entries is
  ``~nnz * u``; amplified by ``kappa`` through the refinement loop.
- **ortho** — CGS2 keeps the basis orthogonal to ``O(u)``, but the
  projection errors accumulate over the ``restart`` columns.
- **smoother, level l** — preconditioner inexactness: GMRES-IR
  tolerates a sloppy ``M^{-1}``, and a level-``l`` correction is
  re-smoothed on every finer level on the way up, attenuating its
  rounding by ~the coarsening factor per level.  Weight decays
  ``4**-l`` from an already-forgiving base.
- **transfer, level l** — the coarse defect crossing the ``l -> l+1``
  boundary; same attenuation, slightly tighter base than the smoother
  (the defect seeds the whole coarse correction).

Condition estimation stays cheap and deterministic: ``||A||_inf`` from
row sums and a Gershgorin-flavoured ``kappa`` bound from the diagonal
(the benchmark stencil is near-singular, so the bound is clamped; the
chooser only needs the right order of magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fp.controller import INGREDIENTS
from repro.fp.ladder import LADDER
from repro.fp.precision import Precision

#: Amplification weight per ingredient at level 0; levels decay 4**-l.
INGREDIENT_WEIGHTS = {
    "spmv": 27.0,  # the stencil's row nnz
    "ortho": 30.0,  # ~restart columns of CGS2 projections
    "transfer": 4.0,
    "smoother": 1.0,
}

#: Per-level attenuation of the preconditioner-side ingredients (a
#: coarse correction is re-smoothed once per finer level on the way up).
LEVEL_DECAY = 4.0

#: kappa clamp: the near-singular benchmark stencil makes the raw
#: Gershgorin bound blow up; beyond this the chooser's rung decisions
#: no longer change, so the clamp only keeps the report readable.
KAPPA_CAP = 1e12


@dataclass(frozen=True)
class ConditionEstimate:
    """Cheap deterministic bounds used by the chooser."""

    norm_inf: float  # max row sum of |A|
    diag_min: float  # smallest |diagonal| entry
    kappa: float  # clamped ||A||_inf / min|a_ii| bound

    def describe(self) -> str:
        return (
            f"||A||_inf={self.norm_inf:.3g} "
            f"min|a_ii|={self.diag_min:.3g} kappa~{self.kappa:.3g}"
        )


def estimate_condition(A) -> ConditionEstimate:
    """Gershgorin-flavoured norm/condition bounds of a local matrix.

    ``kappa ~ ||A||_inf / min_i |a_ii|`` — exact only for diagonal
    matrices, but for the diagonally-dominant benchmark operator it
    lands within the order of magnitude the rung decision needs.
    Works on any registered format via ``to_csr``-free duck typing:
    only ``diagonal()`` and the value/column arrays are touched.
    """
    diag = np.abs(np.asarray(A.diagonal(), dtype=np.float64))
    if hasattr(A, "vals"):  # ELL-family: padded (rows x width) block
        row_sums = np.abs(np.asarray(A.vals, dtype=np.float64)).sum(axis=1)
    else:  # CSR
        data = np.abs(np.asarray(A.data, dtype=np.float64))
        starts, ends = A.indptr[:-1], A.indptr[1:]
        row_sums = np.zeros(len(starts))
        nonempty = starts < ends
        if data.size and nonempty.any():
            # reduceat boundaries at nonempty rows only (an empty
            # row's clamped boundary would corrupt its neighbour).
            row_sums[nonempty] = np.add.reduceat(data, starts[nonempty])
    norm_inf = float(row_sums.max()) if len(row_sums) else 0.0
    diag_min = float(diag.min()) if len(diag) else 0.0
    if diag_min <= 0.0 or norm_inf <= 0.0:
        kappa = KAPPA_CAP
    else:
        kappa = min(norm_inf / diag_min * len(diag) ** 0.5, KAPPA_CAP)
    return ConditionEstimate(norm_inf=norm_inf, diag_min=diag_min, kappa=kappa)


def ingredient_weight(ingredient: str, level: int, restart: int = 30) -> float:
    """Roundoff-amplification weight of one controller."""
    if ingredient not in INGREDIENTS:
        raise ValueError(f"unknown ingredient {ingredient!r}; valid: {INGREDIENTS}")
    w = INGREDIENT_WEIGHTS[ingredient]
    if ingredient == "ortho":
        w = float(max(restart, 1))
    if ingredient in ("smoother", "transfer"):
        w /= LEVEL_DECAY**level
    return w


@dataclass(frozen=True)
class BudgetReport:
    """Outcome of one budget-chooser run."""

    budget: float
    condition: ConditionEstimate
    assignments: dict  # (ingredient, level) -> Precision
    contributions: dict  # (ingredient, level) -> chosen w * u * kappa

    def ladder_for(self, ingredient: str, nlevels: int) -> tuple:
        """The per-level rungs chosen for one ingredient."""
        return tuple(
            self.assignments[(ingredient, lvl)]
            for lvl in range(nlevels)
            if (ingredient, lvl) in self.assignments
        )

    def describe(self) -> str:
        lines = [f"roundoff budget {self.budget:.2e} ({self.condition.describe()})"]
        for key in sorted(self.assignments):
            ing, lvl = key
            lines.append(
                f"  {ing}@L{lvl}: {self.assignments[key].short_name} "
                f"(contribution {self.contributions[key]:.2e})"
            )
        return "\n".join(lines)


def choose_rung(weight: float, kappa: float, budget: float) -> Precision:
    """Lowest rung whose ``weight * u * kappa`` fits the budget.

    Falls back to fp64 when no rung fits — the budget then simply
    cannot be met and the top of the ladder is the best available.
    """
    for prec in LADDER:
        if weight * prec.eps * kappa <= budget:
            return prec
    return Precision.DOUBLE


def choose_plane(A, nlevels: int, budget: float, restart: int = 30) -> BudgetReport:
    """Per-ingredient initial rungs from the matrix and a budget.

    ``budget`` is the per-cycle relative roundoff allowance (e.g.
    ``1e-4``: each ingredient may perturb the outer residual by at most
    one part in ten thousand per cycle).  Smaller budgets push every
    ingredient up the ladder; the decay weights mean coarse smoother
    levels drop below the fine level first — the qualitative shape of
    the paper's hand-tuned schedules, now derived instead of typed.
    """
    if budget <= 0.0:
        raise ValueError("budget must be positive")
    if nlevels < 1:
        raise ValueError("nlevels must be >= 1")
    cond = estimate_condition(A)
    assignments: dict[tuple[str, int], Precision] = {}
    contributions: dict[tuple[str, int], float] = {}

    def assign(ingredient: str, level: int) -> None:
        w = ingredient_weight(ingredient, level, restart=restart)
        prec = choose_rung(w, cond.kappa, budget)
        assignments[(ingredient, level)] = prec
        contributions[(ingredient, level)] = w * prec.eps * cond.kappa

    assign("spmv", 0)
    assign("ortho", 0)
    for lvl in range(nlevels):
        assign("smoother", lvl)
    for lvl in range(nlevels - 1):
        assign("transfer", lvl)
    return BudgetReport(
        budget=budget,
        condition=cond,
        assignments=assignments,
        contributions=contributions,
    )

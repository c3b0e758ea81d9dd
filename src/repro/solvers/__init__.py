"""Krylov solvers: preconditioned CG, GMRES, and mixed-precision GMRES-IR.

The benchmark's two timed phases run the same code path with different
precision policies: ``MIXED_DS_POLICY`` gives Algorithm 3 (GMRES-IR
with CGS2 reorthogonalization, low-precision inner steps, double outer
updates) and ``DOUBLE_POLICY`` reduces it to plain restarted GMRES —
mathematically Algorithm 2 with iterative-refinement restarts.  Ladder
policies (``PrecisionPolicy.from_ladder("fp32:fp64")``) put each MG
level on its own rung; with escalation opted in, the
:class:`~repro.fp.ladder.Escalator` promotes the whole policy one rung
when a restart cycle stalls, breaks down or faults, recording each
promotion as a :class:`Promotion`
(:class:`~repro.fp.ladder.PrecisionEvent`).
"""

from repro.solvers.givens import GivensQR, givens_coefficients
from repro.solvers.ortho import cgs, cgs2, mgs
from repro.solvers.operator import DistributedOperator
from repro.solvers.gmres_ir import (
    GMRESIRSolver,
    Promotion,
    SolverStats,
    gmres_solve,
)
from repro.solvers.cg import PCGSolver, pcg_solve
from repro.solvers.switched import SwitchedGMRESSolver, SwitchedStats
from repro.solvers.uniform import UniformStats, uniform_precision_gmres

__all__ = [
    "GivensQR",
    "givens_coefficients",
    "cgs",
    "cgs2",
    "mgs",
    "DistributedOperator",
    "GMRESIRSolver",
    "Promotion",
    "SolverStats",
    "gmres_solve",
    "PCGSolver",
    "pcg_solve",
    "SwitchedGMRESSolver",
    "SwitchedStats",
    "UniformStats",
    "uniform_precision_gmres",
]

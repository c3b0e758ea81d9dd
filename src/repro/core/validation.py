"""Benchmark validation phase: standard and full-scale modes (§3.3).

``standard`` (Yamazaki et al.): double-precision GMRES runs on a small
fixed rank count (one node) to the validation tolerance, recording
``n_d`` iterations; mixed-precision GMRES-IR then converges to the same
tolerance, recording ``n_ir``.  The ratio ``n_d/n_ir`` penalizes the
benchmark rating when below one.

``fullscale`` (this paper's addition): *all* ranks and the full problem
size participate.  The double solver runs to min(tolerance, iteration
cap); the *achieved* absolute residual is recorded, and GMRES-IR must
reach that same residual.  At small scale this coincides with the
standard tolerance; at large scale the cap binds first and the
achieved residual stalls (the paper reports 1.15e-5 at 1024 nodes),
bounding the validation cost while still measuring convergence loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import BenchmarkConfig
from repro.core.metrics import penalty_factor
from repro.fp.policy import PrecisionPolicy
from repro.geometry.grid import BoxGrid
from repro.geometry.partition import ProcessGrid, Subdomain
from repro.parallel.comm import Communicator, SerialComm
from repro.parallel.spmd import run_spmd
from repro.solvers.gmres_ir import GMRESIRSolver, SolverStats
from repro.stencil.poisson27 import ProblemSpec, generate_problem


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of the validation phase."""

    mode: str
    ranks: int
    n_d: int
    n_ir: int
    double_relres: float
    ir_relres: float
    target_residual: float | None  # absolute target (fullscale mode)
    double_converged: bool
    ir_converged: bool

    @property
    def ratio(self) -> float:
        """``n_d / n_ir`` (Table 2's quantity, may exceed 1)."""
        return self.n_d / self.n_ir

    @property
    def penalty(self) -> float:
        """``min(1, ratio)`` applied to the mxp GFLOP/s rating."""
        return penalty_factor(self.n_d, self.n_ir)


def _build_problem(config: BenchmarkConfig, comm: Communicator):
    proc = ProcessGrid.from_size(comm.size)
    sub = Subdomain(BoxGrid(*config.local_dims), proc, comm.rank)
    return generate_problem(sub, spec=ProblemSpec(kind=config.matrix_kind))


def _validation_solve(
    comm: Communicator,
    config: BenchmarkConfig,
    policy: PrecisionPolicy,
    target_residual: float | None,
    budget: float | None,
) -> SolverStats:
    """One validation solve on the phase communicator, zero guess
    (``budget`` seeds GMRES-IR's rungs, :mod:`repro.fp.budget`)."""
    problem = _build_problem(config, comm)
    solver = GMRESIRSolver(
        problem,
        comm,
        policy=policy,
        mg_config=config.mg_config(),
        restart=config.restart,
        ortho=config.ortho,
        matrix_format=config.matrix_format,
        escalation=config.escalation_config(),
        budget=budget,
    )
    _, stats = solver.solve(
        problem.b,
        tol=config.validation_tol,
        maxiter=config.validation_max_iters,
        target_residual=target_residual,
    )
    return stats


def _run_phase(
    nranks: int,
    config: BenchmarkConfig,
    policy: PrecisionPolicy,
    target_residual: float | None = None,
    budget: float | None = None,
) -> SolverStats:
    """Run a validation solve on ``nranks`` (serial fast-path for 1)."""
    if nranks == 1:
        return _validation_solve(
            SerialComm(), config, policy, target_residual, budget
        )
    results = run_spmd(
        nranks, _validation_solve, config, policy, target_residual, budget
    )
    return results[0]  # identical on every rank


def run_validation(config: BenchmarkConfig) -> ValidationResult:
    """Execute the configured validation mode and compute the penalty."""
    if config.validation_mode == "standard":
        ranks = config.effective_validation_ranks
        d_stats = _run_phase(ranks, config, config.double_policy())
        ir_stats = _run_phase(
            ranks, config, config.mixed_policy(), budget=config.precision_budget
        )
        target = None
    else:  # fullscale
        ranks = config.nranks
        d_stats = _run_phase(ranks, config, config.double_policy())
        # GMRES-IR must reach the residual the double solver achieved
        # (whether or not that met the tolerance before the cap).
        target = d_stats.final_relres * d_stats.rho0
        # Guard against a zero target when double hit machine floor.
        target = max(target, np.finfo(np.float64).tiny)
        ir_stats = _run_phase(
            ranks, config, config.mixed_policy(), target, config.precision_budget
        )

    return ValidationResult(
        mode=config.validation_mode,
        ranks=ranks,
        n_d=d_stats.iterations,
        n_ir=ir_stats.iterations,
        double_relres=d_stats.final_relres,
        ir_relres=ir_stats.final_relres,
        target_residual=target,
        double_converged=d_stats.converged,
        ir_converged=ir_stats.converged,
    )

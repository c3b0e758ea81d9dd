"""Uniformly low-precision GMRES — the counter-example solver.

HPG-MxP *requires* the outer residual and solution updates in double
(Algorithm 3's non-blue lines); :class:`~repro.fp.policy.PrecisionPolicy`
enforces that.  This module deliberately implements what the benchmark
forbids — restarted GMRES with *every* operation, including the outer
residual, in one low precision — to demonstrate the stall that the
iterative-refinement structure exists to prevent: the true residual of
a uniform fp32 solve flattens near the precision floor (around
``eps_fp32 * kappa``-ish levels) and nine orders of reduction are
unreachable, while GMRES-IR sails through.

Tests and the strategy-comparison example use it as the negative
control; it is not part of the benchmark configuration space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fp.ladder import solver_rung
from repro.fp.precision import Precision
from repro.mg.multigrid import MGConfig, MultigridPreconditioner
from repro.parallel.comm import Communicator
from repro.parallel.distributed import dnorm2
from repro.solvers.givens import GivensQR
from repro.solvers.operator import DistributedOperator
from repro.solvers.ortho import cgs2
from repro.stencil.poisson27 import Problem


@dataclass
class UniformStats:
    """Outcome of a uniform-precision solve."""

    iterations: int = 0
    restarts: int = 0
    converged: bool = False
    final_relres: float = np.inf
    residual_floor: float = np.inf  # best true relres ever reached
    history: list[float] = field(default_factory=list)


def uniform_precision_gmres(
    problem: Problem,
    comm: Communicator,
    precision: "Precision | str" = Precision.SINGLE,
    restart: int = 30,
    tol: float = 1e-9,
    maxiter: int = 300,
    mg_config: MGConfig | None = None,
) -> tuple[np.ndarray, UniformStats]:
    """Restarted GMRES entirely in one precision (outer loop included)."""
    prec = solver_rung(precision)
    dtype = prec.dtype
    A = problem.A.astype(prec)
    op = DistributedOperator(A, problem.halo, comm)
    M = MultigridPreconditioner.build(
        problem, comm, mg_config or MGConfig(), precision=prec
    )
    n = problem.nlocal
    b = np.asarray(problem.b, dtype=dtype)
    x = np.zeros(n, dtype=dtype)
    Q = np.zeros((n, restart + 1), dtype=dtype)
    stats = UniformStats()

    rho0 = dnorm2(comm, b)
    if rho0 == 0.0:
        stats.converged = True
        stats.final_relres = 0.0
        return x, stats

    while stats.iterations < maxiter:
        r = (b - op.matvec(x)).astype(dtype)  # low-precision outer residual
        rho = dnorm2(comm, r)
        relres = rho / rho0
        stats.final_relres = relres
        stats.residual_floor = min(stats.residual_floor, relres)
        if relres < tol:
            stats.converged = True
            return x, stats
        qr = GivensQR(restart)
        qr.start(rho)
        Q[:, 0] = (r / np.asarray(rho, dtype=dtype)).astype(dtype)
        stats.restarts += 1
        k = 0
        while k < restart and stats.iterations < maxiter:
            z = M.apply(Q[:, k])
            w = op.matvec(np.asarray(z, dtype=dtype)).astype(dtype)
            h = cgs2(comm, Q, k + 1, w)
            beta = dnorm2(comm, w)
            stats.iterations += 1
            if beta <= 4.0 * prec.eps * max(float(np.sqrt(h @ h + beta**2)), 1e-30):
                break
            Q[:, k + 1] = (w / np.asarray(beta, dtype=dtype)).astype(dtype)
            rho_imp = qr.add_column(np.append(h, beta))
            k += 1
            stats.history.append(rho_imp / rho0)
            if rho_imp <= tol * rho0:
                break
        if k > 0:
            y = qr.solve(k)
            u = Q[:, :k] @ y.astype(dtype)
            # Low-precision solution update — the step the benchmark
            # mandates in double; this is where the floor forms.
            x = (x + np.asarray(M.apply(u), dtype=dtype)).astype(dtype)

    r = b - op.matvec(x)
    rho = dnorm2(comm, r)
    stats.final_relres = rho / rho0
    stats.residual_floor = min(stats.residual_floor, stats.final_relres)
    stats.converged = stats.final_relres < tol
    return x, stats

"""Precision-policy study: what runs in low precision, and how low.

The benchmark pins the outer residual and solution updates to double
but frees everything else (Algorithm 3's blue steps).  This example
sweeps the low precision (fp64 / fp32), tries *partial* policies (only
the preconditioner in low precision, only the orthogonalization, ...)
and a per-MG-level ladder on one problem, reporting iterations to 1e-9
and the achieved accuracy.

Run:  python examples/mixed_precision_study.py
"""

import numpy as np
from dataclasses import replace

from repro import DOUBLE_POLICY, Precision, SerialComm, Subdomain
from repro.solvers import GMRESIRSolver
from repro.stencil import generate_problem


def run_policy(problem, comm, policy, label, tol=1e-9, maxiter=3000):
    solver = GMRESIRSolver(problem, comm, policy=policy)
    x, stats = solver.solve(problem.b, tol=tol, maxiter=maxiter)
    err = np.abs(x - 1.0).max()
    flag = "converged" if stats.converged else "STALLED  "
    print(
        f"  {label:<34} {flag} iters={stats.iterations:<5} "
        f"relres={stats.final_relres:.1e}  max err={err:.1e}"
    )
    return stats


def main() -> None:
    problem = generate_problem(Subdomain.serial(24, 24, 24))
    comm = SerialComm()
    print(f"problem: 24^3, tol 1e-9\n")

    print("uniform low-precision sweeps (all blue steps):")
    base = run_policy(problem, comm, DOUBLE_POLICY, "fp64 (plain GMRES)")
    run_policy(problem, comm, DOUBLE_POLICY.with_low("fp32"), "fp32 GMRES-IR")

    print("\npartial policies (one ingredient in fp32, rest fp64):")
    for field in ("matrix", "mg_levels", "krylov_basis", "orthogonalization"):
        value = (
            (Precision.SINGLE,) if field == "mg_levels" else Precision.SINGLE
        )
        policy = replace(DOUBLE_POLICY, **{field: value})
        run_policy(problem, comm, policy, f"fp32 {field}")

    print("\nladder policies (per-MG-level schedule, fp32 fine level):")
    from repro.fp import PrecisionPolicy

    run_policy(
        problem, comm, PrecisionPolicy.from_ladder("fp32:fp64"),
        "fp32:fp64 ladder",
    )

    print(
        f"\nreference: fp64 took {base.iterations} iterations; the penalty "
        "of each policy is the iteration ratio against that."
    )


if __name__ == "__main__":
    main()

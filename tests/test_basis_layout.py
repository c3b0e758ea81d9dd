"""The Krylov basis is column-major.

Each panel column slot leases its ``(nlocal, restart+1)`` basis F-order,
so ``Q[:, :k]`` is one contiguous leading block: CGS2's GEMV / GEMVT and
the solution update stream only the ``k`` columns they read.  A C-order
basis still computes a right answer, only slower (every GEMV over
``Q[:, :k]`` then pulls the cache lines of all ``restart+1`` columns),
so nothing but these assertions would notice the strided layout coming
back.
"""

import pytest
from helpers_distributed import scaled_rhs_panel

from repro.backends.registry import registry
from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
from repro.parallel import SerialComm
from repro.solvers import GMRESIRSolver

RESTART = 8
POLICIES = {
    "double": DOUBLE_POLICY,
    "mixed": MIXED_DS_POLICY,
}


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("policy", POLICIES)
def test_every_basis_block_is_column_contiguous(policy, width, problem16):
    """Every basis block a GEMV / GEMVT reads, every leased slot basis
    and each of its leading blocks is F-contiguous."""
    seen = []

    def record_basis(op, fn):
        if op not in ("gemv", "gemvT"):
            return fn

        def recorded(Q, k, *args, **kwargs):
            seen.append(Q[:, :k].flags.f_contiguous)
            return fn(Q, k, *args, **kwargs)

        return recorded

    solver = GMRESIRSolver(
        problem16, SerialComm(), policy=POLICIES[policy], restart=RESTART
    )
    registry.set_wrapper(record_basis)
    try:
        solver.solve_panel(
            scaled_rhs_panel(problem16.b, width), tol=0.0, maxiter=2 * RESTART
        )
    finally:
        registry.set_wrapper(None)
    assert seen and all(seen)
    for j in range(width):
        Q, _ = solver._slot(j)
        assert Q.shape == (problem16.nlocal, RESTART + 1)
        assert Q.flags.f_contiguous
        for k in range(1, RESTART + 1):
            assert Q[:, :k].flags.f_contiguous

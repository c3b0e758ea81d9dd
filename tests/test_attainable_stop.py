"""The inner stop at a cycle's attainable accuracy.

A restart cycle of a solve with a residual target ends once a column's
implicit residual reaches ``max(abs_tol, ATTAINABLE_FACTOR * eps_low *
rho_start)``: ``rho_start`` is the column's fp64 residual at the start
of the cycle and ``eps_low`` the unit roundoff of the lowest live rung.
Past that point an fp32 cycle chases an implicit residual its
arithmetic cannot deliver; the next refinement step goes on from a
fresh fp64 residual instead.

The tests compare against the old stop (``rho <= abs_tol`` alone) by
setting the factor to 0, which turns the floor off.  Every test runs
once per kernel parity class.
"""

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES, STALL_ESCALATION, STALL_RESTART

from repro.fp import (
    DOUBLE_POLICY,
    MIXED_DS_POLICY,
    EscalationConfig,
    Precision,
    PrecisionPolicy,
)
from repro.geometry import Subdomain
from repro.parallel import SerialComm
from repro.solvers import GMRESIRSolver, gmres_ir
from repro.stencil import generate_problem

pytestmark = BOTH_CLASSES

TOL = 1e-9
#: The benchmark suite's outside acceptance check.
CHECK_TOL = 1.01e-9
RESTART = 30
EPS32 = Precision.SINGLE.eps
EPS64 = Precision.DOUBLE.eps


@pytest.fixture(scope="module")
def problem32():
    return generate_problem(Subdomain.serial(32, 32, 32))


@pytest.fixture
def old_stop(monkeypatch):
    """The stop before the floor: a cycle runs until ``abs_tol``."""
    monkeypatch.setattr(gmres_ir, "ATTAINABLE_FACTOR", 0.0)


def rhs(prob, seed) -> np.ndarray:
    return np.random.default_rng([4401, seed]).standard_normal(prob.nlocal)


def solve(prob, b, policy=MIXED_DS_POLICY, **kw):
    solver = GMRESIRSolver(prob, SerialComm(), policy=policy, restart=RESTART, **kw)
    return solver.solve(b, tol=TOL, maxiter=300)


def outside_check(prob, b, x) -> bool:
    r = b - prob.A.spmv(x)
    return bool(np.linalg.norm(r) <= CHECK_TOL * np.linalg.norm(b))


class TestCycleOne:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_cycle_one_ends_short(self, problem16, seed, request):
        """16^3 mixed at restart 30: cycle 1 ends before the double's
        cycle, the solve takes fewer iterations than under the old stop,
        and the answer passes the outside fp64 check."""
        b = rhs(problem16, seed)
        x, st = solve(problem16, b)
        _, st64 = solve(problem16, b, policy=DOUBLE_POLICY)
        assert st.converged and outside_check(problem16, b, x)
        assert not st.promotions
        assert st.cycle_lengths[0] < st64.cycle_lengths[0]

        # Cycle 1 stopped at its floor, not at the target: its last
        # implicit residual is within the floor, the one before is not.
        k1 = st.cycle_lengths[0]
        floor = gmres_ir.ATTAINABLE_FACTOR * EPS32  # relative to rho0 = rho_start
        assert st.implicit_history[k1 - 1] <= floor < st.implicit_history[k1 - 2]
        assert st.implicit_history[k1 - 1] > TOL

        request.getfixturevalue("old_stop")
        x_old, st_old = solve(problem16, b)
        assert st_old.converged and outside_check(problem16, b, x_old)
        assert st_old.cycle_lengths[0] > k1
        assert st.iterations < st_old.iterations

    def test_double_keeps_its_bits(self, problem16, request):
        """At fp64 the floor sits below the target: cycle lengths and
        the iterate equal the old stop's, bitwise."""
        b = rhs(problem16, 0)
        solver = GMRESIRSolver(problem16, SerialComm(), policy=DOUBLE_POLICY)
        assert solver.eps_low == EPS64
        got = [solver.solve(b, tol=tol, maxiter=300) for tol in (TOL, 1e-12)]
        request.getfixturevalue("old_stop")
        want = [solver.solve(b, tol=tol, maxiter=300) for tol in (TOL, 1e-12)]
        for (x, st), (x_old, st_old) in zip(got, want, strict=True):
            assert st.cycle_lengths == st_old.cycle_lengths
            assert st.implicit_history == st_old.implicit_history
            assert np.array_equal(x, x_old)


class TestPanel:
    def test_columns_end_cycle_one_apart_and_match_solo(self, problem16):
        """Columns scaled apart under one absolute target: the large
        ones stop at their floor, the small ones at the target, so the
        first cycles end at different k; each column is its solo solve,
        bitwise."""
        n = problem16.nlocal
        B = np.empty((n, 4), order="F")
        for j, scale in enumerate((1.0, 2.0**-10, 2.0**-20, 2.0**10)):
            B[:, j] = scale * rhs(problem16, j)
        target = TOL * np.linalg.norm(B[:, 0])

        def make():
            return GMRESIRSolver(
                problem16, SerialComm(), policy=MIXED_DS_POLICY, restart=RESTART
            )

        X, sts = make().solve_panel(B, target_residual=target, maxiter=300)
        firsts = [st.cycle_lengths[0] for st in sts]
        assert len(set(firsts)) >= 3, firsts
        # Columns 0 and 3 left cycle 1 at the floor, above the target.
        for j in (0, 3):
            st = sts[j]
            assert st.implicit_history[firsts[j] - 1] * st.rho0 > target
        for j in range(4):
            x, st = make().solve(B[:, j], target_residual=target, maxiter=300)
            assert sts[j].converged and st.converged
            assert np.array_equal(X[:, j], x), f"column {j}"
            assert sts[j].cycle_lengths == st.cycle_lengths
            assert sts[j].implicit_history == st.implicit_history


class TestFixedBudget:
    def test_tol_zero_keeps_full_cycles(self, problem16):
        """``tol=0`` (the timed phase, every warm-up) runs restart-long
        cycles; only the last is cut, by ``maxiter``."""
        b = rhs(problem16, 0)
        B = np.asfortranarray(np.stack([b, 0.5 * rhs(problem16, 1)], axis=1))
        solver = GMRESIRSolver(problem16, SerialComm(), policy=MIXED_DS_POLICY)
        maxiter = 2 * RESTART + 17
        _, st = solver.solve(b, tol=0.0, maxiter=maxiter)
        _, sts = solver.solve_panel(B, tol=0.0, maxiter=maxiter)
        for s in (st, *sts):
            assert s.cycle_lengths == [RESTART, RESTART, 17]
            assert s.iterations == maxiter


class TestControlPlane:
    @pytest.mark.parametrize("nx", [16, 32])
    def test_short_cycle_is_not_a_stall(self, nx, problem16, request):
        """The default stall detector (``stall_ratio`` 0.5) reads no
        stall in a cycle ended at its floor: no precision event, and the
        same iterations and iterate as with escalation off."""
        prob = problem16 if nx == 16 else request.getfixturevalue("problem32")
        for seed in range(2):
            b = rhs(prob, seed)
            x, st = solve(prob, b, escalation=EscalationConfig())
            x_off, st_off = solve(prob, b)
            assert st.converged and not st.promotions
            assert st.iterations == st_off.iterations
            assert st.cycle_lengths[0] < RESTART
            assert np.array_equal(x, x_off)

    def test_stall_fixture_promotes_once_and_raises_eps_low(self, problem16):
        """The measured stall still promotes once, at iteration 8; the
        promoted solver's floor is fp64's."""
        b = np.random.default_rng(7).standard_normal(problem16.nlocal)
        solver = GMRESIRSolver(
            problem16,
            SerialComm(),
            policy=PrecisionPolicy.from_ladder("fp32:fp64"),
            restart=STALL_RESTART,
            escalation=STALL_ESCALATION,
        )
        assert solver.eps_low == EPS32
        _, st = solver.solve(b, tol=1e-11, maxiter=300)
        assert st.converged
        assert [(p.iteration, p.from_low, p.to_low) for p in st.promotions] == [
            (8, Precision.SINGLE, Precision.DOUBLE)
        ]
        assert solver.eps_low == EPS64

    def test_mg_only_fp32_reads_the_mg_rung(self, problem16, request):
        """Per-ingredient control, only the MG levels in fp32: the floor
        is fp32's, so cycle 1 still ends early."""
        policy = PrecisionPolicy(mg_levels=("fp32",))
        b = rhs(problem16, 0)

        def run():
            solver = GMRESIRSolver(
                problem16,
                SerialComm(),
                policy=policy,
                restart=RESTART,
                control="per-ingredient",
            )
            assert solver.policy.matrix is Precision.DOUBLE
            assert solver.policy.krylov_basis is Precision.DOUBLE
            assert solver.eps_low == EPS32
            return solver.solve(b, tol=TOL, maxiter=300)

        x, st = run()
        assert st.converged and outside_check(problem16, b, x)
        request.getfixturevalue("old_stop")
        _, st_old = run()
        assert st.cycle_lengths[0] < st_old.cycle_lengths[0]
        assert st.iterations < st_old.iterations

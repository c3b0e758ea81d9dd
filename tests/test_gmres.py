"""Tests for GMRES / GMRES-IR solvers (serial and distributed)."""

import numpy as np
import pytest
from helpers_distributed import index_free_where, scaled_rhs_panel

from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY, EscalationConfig, PrecisionPolicy
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.parallel import SerialComm, run_spmd
from repro.resilience import ResilienceConfig
from repro.solvers import GMRESIRSolver, gmres_solve
from repro.stencil import ProblemSpec, generate_problem
from repro.util.timers import MotifTimers


class TestDoubleGMRES:
    def test_converges_to_exact_solution(self, problem16, comm):
        x, stats = gmres_solve(problem16, comm, tol=1e-9, maxiter=500)
        assert stats.converged
        assert np.abs(x - 1.0).max() < 1e-6

    def test_final_relres_below_tol(self, problem16, comm):
        _, stats = gmres_solve(problem16, comm, tol=1e-9, maxiter=500)
        assert stats.final_relres < 1e-9

    def test_implicit_history_decreases(self, problem16, comm):
        _, stats = gmres_solve(problem16, comm, tol=1e-9, maxiter=500)
        h = np.array(stats.implicit_history)
        assert h[-1] < h[0]
        assert np.all(np.diff(np.minimum.accumulate(h)) <= 0)

    def test_iteration_cap(self, problem16, comm):
        _, stats = gmres_solve(problem16, comm, tol=1e-30, maxiter=7)
        assert stats.iterations == 7
        assert not stats.converged

    def test_restart_respected(self, problem16, comm):
        _, stats = gmres_solve(problem16, comm, restart=5, tol=1e-9, maxiter=200)
        assert stats.converged
        assert max(stats.cycle_lengths) <= 5
        assert stats.restarts == len(stats.cycle_lengths)

    def test_nonsymmetric_problem(self, problem_nonsym16, comm):
        x, stats = gmres_solve(problem_nonsym16, comm, tol=1e-9, maxiter=500)
        assert stats.converged
        assert np.abs(x - 1.0).max() < 1e-6

    def test_x0_nonzero(self, problem16, comm):
        solver = GMRESIRSolver(problem16, comm)
        x0 = np.full(problem16.nlocal, 0.5)
        x, stats = solver.solve(problem16.b, x0=x0, tol=1e-9, maxiter=500)
        assert stats.converged
        assert np.abs(x - 1.0).max() < 1e-6

    def test_zero_rhs(self, problem16, comm):
        solver = GMRESIRSolver(problem16, comm)
        x, stats = solver.solve(np.zeros(problem16.nlocal))
        assert stats.converged
        np.testing.assert_array_equal(x, 0.0)

    def test_solver_reusable(self, problem16, comm):
        solver = GMRESIRSolver(problem16, comm)
        _, s1 = solver.solve(problem16.b, tol=1e-9, maxiter=500)
        _, s2 = solver.solve(problem16.b, tol=1e-9, maxiter=500)
        assert s1.iterations == s2.iterations  # deterministic repeats

    def test_mgs_and_cgs_variants_converge(self, problem16, comm):
        for ortho in ("mgs", "cgs"):
            _, stats = gmres_solve(problem16, comm, tol=1e-9, maxiter=500, ortho=ortho)
            assert stats.converged, ortho

    def test_unknown_ortho_rejected(self, problem16, comm):
        with pytest.raises(ValueError):
            GMRESIRSolver(problem16, comm, ortho="householder")

    @pytest.mark.parametrize("fmt", ["coo", "sell" + "cs"])
    def test_unknown_format_rejected(self, problem16, comm, fmt):
        with pytest.raises(ValueError, match=r"formats: \['csr', 'ell'\]"):
            GMRESIRSolver(problem16, comm, matrix_format=fmt)

    def test_csr_format_same_iterations(self, problem16, comm):
        _, s_ell = gmres_solve(problem16, comm, tol=1e-9, maxiter=500)
        solver = GMRESIRSolver(problem16, comm, matrix_format="csr")
        _, s_csr = solver.solve(problem16.b, tol=1e-9, maxiter=500)
        assert s_ell.iterations == s_csr.iterations

    def test_levelsched_mg_comparable_iterations(self, problem16, comm):
        """Multicolor vs lexicographic GS smoothing (§3.2.1).

        The paper notes multicolor ordering "sometimes suffers" relative
        to lexicographic GS but that this matters little inside a
        multigrid preconditioner — on this model problem the two must
        land within a small factor of each other (8-color GS actually
        has the *better* smoothing factor for the Poisson stencil).
        """
        _, s_mc = gmres_solve(problem16, comm, tol=1e-9, maxiter=500)
        _, s_ls = gmres_solve(
            problem16,
            comm,
            tol=1e-9,
            maxiter=500,
            mg_config=MGConfig(smoother="levelsched"),
        )
        assert s_mc.converged and s_ls.converged
        ratio = s_ls.iterations / s_mc.iterations
        assert 0.5 <= ratio <= 2.0


class TestMixedGMRESIR:
    def test_reaches_double_accuracy(self, problem16, comm):
        """The IR structure recovers fp64-level solutions (the point of
        the benchmark's 'somewhat close' requirement)."""
        x, stats = gmres_solve(
            problem16, comm, policy=MIXED_DS_POLICY, tol=1e-9, maxiter=500
        )
        assert stats.converged
        assert stats.final_relres < 1e-9
        assert np.abs(x - 1.0).max() < 1e-5

    def test_keeps_low_precision_copy(self, problem16, comm):
        solver = GMRESIRSolver(problem16, comm, policy=MIXED_DS_POLICY)
        assert solver.A_low.vals.dtype == np.float32
        assert solver.op64.A.vals.dtype == np.float64
        assert solver.Q.dtype == np.float32

    def test_double_policy_shares_matrix(self, problem16, comm):
        solver = GMRESIRSolver(problem16, comm, policy=DOUBLE_POLICY)
        assert solver.op_inner is solver.op64

    def test_iteration_penalty_is_small(self, problem16, comm):
        _, s_d = gmres_solve(problem16, comm, tol=1e-9, maxiter=500)
        _, s_m = gmres_solve(
            problem16, comm, policy=MIXED_DS_POLICY, tol=1e-9, maxiter=500
        )
        assert s_m.iterations >= s_d.iterations  # fp32 never helps here
        assert s_m.iterations <= 2.5 * s_d.iterations  # but penalty bounded

    def test_mixed_beats_pure_fp32_accuracy(self, problem16, comm):
        """Without the fp64 outer updates, fp32 GMRES stalls well above
        1e-9; GMRES-IR must not."""
        _, s_m = gmres_solve(
            problem16, comm, policy=MIXED_DS_POLICY, tol=1e-9, maxiter=500
        )
        assert s_m.final_relres < 1e-9

    def test_target_residual_mode(self, problem16, comm):
        """Full-scale validation converges to an absolute residual."""
        solver = GMRESIRSolver(problem16, comm, policy=MIXED_DS_POLICY)
        _, ref = solver.solve(problem16.b, tol=1e-6, maxiter=500)
        achieved = ref.final_relres * ref.rho0
        _, stats = solver.solve(
            problem16.b, tol=0.0, maxiter=500, target_residual=achieved * 1.5
        )
        assert stats.converged
        assert stats.final_relres * stats.rho0 <= achieved * 1.5

    def test_timers_populated(self, problem16, comm):
        timers = MotifTimers()
        solver = GMRESIRSolver(
            problem16, comm, policy=MIXED_DS_POLICY, timers=timers
        )
        solver.solve(problem16.b, tol=1e-9, maxiter=100)
        assert timers.seconds["gs"] > 0
        assert timers.seconds["ortho"] > 0
        assert timers.seconds["spmv"] > 0
        assert timers.seconds["restrict"] > 0


class TestDistributedGMRES:
    def test_distributed_matches_serial_iterations(self):
        """Same global 16^3 problem on 1 and 8 ranks: identical math up
        to reduction order, so iteration counts must match."""
        serial_prob = generate_problem(Subdomain.serial(16, 16, 16))
        _, s_serial = gmres_solve(
            serial_prob, SerialComm(), tol=1e-9, maxiter=500,
            mg_config=MGConfig(nlevels=2),
        )

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            _, stats = gmres_solve(
                prob, comm, tol=1e-9, maxiter=500, mg_config=MGConfig(nlevels=2)
            )
            return stats.iterations, stats.converged

        results = run_spmd(8, fn)
        iters = {r[0] for r in results}
        assert all(r[1] for r in results)
        assert len(iters) == 1
        # Distributed GS is block-Jacobi across ranks: a slightly weaker
        # preconditioner, so allow a modest iteration increase.
        assert s_serial.iterations <= iters.pop() <= int(s_serial.iterations * 1.8) + 5

    def test_distributed_mixed_converges(self):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            x, stats = gmres_solve(
                prob, comm, policy=MIXED_DS_POLICY, tol=1e-9, maxiter=500,
                mg_config=MGConfig(nlevels=2),
            )
            return stats.converged, float(np.abs(x - 1.0).max())

        for converged, err in run_spmd(8, fn):
            assert converged
            assert err < 1e-5


LADDER = PrecisionPolicy.from_ladder("fp32:fp64")
#: A stall threshold every 5-iteration fp32 cycle below crosses, so the
#: escalation cases change rungs mid-solve.
STALL = EscalationConfig(stall_ratio=1e-6)


def csr_vs_ell(nranks, box=(16, 16, 16), width=1, spec=None, maxiter=8, **solver_kw):
    """Solve once per format on ``box`` (the global grid, split along x
    across the ranks).  Per rank: whether the two solves agree bitwise
    (answer, iterations, residual, precision events), and how many
    precision events the ELL solve took."""
    solver_kw.setdefault("mg_config", MGConfig(nlevels=2))

    def fn(comm):
        nx, ny, nz = box
        sub = Subdomain(
            BoxGrid(nx // comm.size, ny, nz), ProcessGrid(comm.size, 1, 1), comm.rank
        )
        prob = generate_problem(sub, spec=spec)
        out = []
        for fmt in ("ell", "csr"):
            solver = GMRESIRSolver(
                prob, comm, restart=5, matrix_format=fmt, **solver_kw
            )
            if width == 1:
                x, stats = solver.solve(prob.b, tol=0.0, maxiter=maxiter)
                stats = [stats]
            else:
                x, stats = solver.solve_panel(
                    scaled_rhs_panel(prob.b, width), tol=0.0, maxiter=maxiter
                )
            out.append(
                (x, [(s.iterations, s.final_relres, s.promotions) for s in stats])
            )
        (x_ell, s_ell), (x_csr, s_csr) = out
        same = bool(np.array_equal(x_ell, x_csr)) and s_ell == s_csr
        return same, sum(len(events) for _, _, events in s_ell)

    return [fn(SerialComm())] if nranks == 1 else run_spmd(nranks, fn)


#: TestFormatParity's mixed and ladder legs (the only tests here with a
#: ``policy`` parameter) force the diagonal plan on at every size.
index_free = index_free_where(
    lambda params: params.get("policy") not in (None, DOUBLE_POLICY)
)


@pytest.mark.parametrize("parity_class", ["scipy"], indirect=True)
class TestFormatParity:
    """In the SciPy class CSR and ELL run the same compiled row product
    (ELL's padding only adds ``+0``), so the storage format changes no
    bit of any solve.  The NumPy class sums CSR and ELL rows in
    different orders and makes no such promise.  The mixed and ladder
    legs run ELL's fp32 products through the diagonal plan wherever a
    matrix fits it, and still match CSR bit for bit."""

    @pytest.mark.parametrize("nranks", [1, 2])
    @pytest.mark.parametrize("box", [(16, 16, 16), (12, 8, 4)], ids=["16^3", "12x8x4"])
    @pytest.mark.parametrize("width", [1, 8], ids=["solve", "panel8"])
    @pytest.mark.parametrize(
        "policy",
        [DOUBLE_POLICY, MIXED_DS_POLICY, LADDER],
        ids=["double", "mixed", "ladder"],
    )
    def test_csr_bitwise_equals_ell(self, parity_class, policy, width, box, nranks):
        results = csr_vs_ell(nranks, box=box, width=width, policy=policy)
        assert all(same for same, _ in results)

    @pytest.mark.parametrize(
        "nranks,policy,spec,knobs",
        [
            # Each knob reaches the operator through a path of its own.
            pytest.param(2, MIXED_DS_POLICY, None, dict(fusion=False), id="unfused"),
            pytest.param(
                2,
                MIXED_DS_POLICY,
                None,
                dict(mg_config=MGConfig(nlevels=2, fused_restrict=False)),
                id="whole-level-restriction",
            ),
            pytest.param(
                2,
                MIXED_DS_POLICY,
                None,
                dict(mg_config=MGConfig(nlevels=2, sweep="symmetric")),
                id="symmetric-sweep",
            ),
            pytest.param(
                1,
                MIXED_DS_POLICY,
                None,
                dict(mg_config=MGConfig(nlevels=2, smoother="levelsched")),
                id="levelsched",
            ),
            pytest.param(
                2,
                MIXED_DS_POLICY,
                None,
                dict(mg_config=MGConfig(nlevels=4)),
                id="4-levels",
            ),
            pytest.param(
                2, MIXED_DS_POLICY, None, dict(resilience=ResilienceConfig()), id="abft"
            ),
            pytest.param(2, LADDER, None, dict(escalation=STALL), id="escalation"),
            pytest.param(
                2, LADDER, None, dict(budget=1e-5, escalation=STALL), id="budget"
            ),
            pytest.param(
                2,
                MIXED_DS_POLICY,
                ProblemSpec(kind="nonsymmetric"),
                {},
                id="nonsymmetric",
            ),
            pytest.param(
                2,
                LADDER,
                ProblemSpec(kind="nonsymmetric"),
                dict(escalation=STALL),
                id="nonsymmetric-escalation",
            ),
        ],
    )
    def test_csr_bitwise_equals_ell_under_each_knob(
        self, parity_class, nranks, policy, spec, knobs
    ):
        """The contract is the operator's, not one configuration's."""
        results = csr_vs_ell(nranks, spec=spec, maxiter=15, policy=policy, **knobs)
        assert all(same for same, _ in results)
        if "escalation" in knobs:
            assert all(events > 0 for _, events in results), "no rung change ran"

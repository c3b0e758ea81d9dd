"""Tests for the matrix-free operator and the memory model (§5)."""

import numpy as np
import pytest

from repro.core.memory import (
    equalized_double_mesh,
    memory_overhead_ratio,
    solver_footprint,
)
from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.parallel import SerialComm, run_spmd
from repro.stencil import MatrixFreeStencilOperator, ProblemSpec, generate_problem


class TestMatrixFreeOperator:
    def test_matches_assembled_spmv(self, problem16, rng):
        comm = SerialComm()
        op = MatrixFreeStencilOperator(problem16, comm)
        x = rng.standard_normal(problem16.nlocal)
        np.testing.assert_allclose(
            op.matvec(x), problem16.A.spmv(x), rtol=1e-13, atol=1e-13
        )

    def test_fp32_application(self, problem16, rng):
        comm = SerialComm()
        op = MatrixFreeStencilOperator(problem16, comm, precision="fp32")
        x = rng.standard_normal(problem16.nlocal).astype(np.float32)
        y = op.matvec(x)
        assert y.dtype == np.float32
        ref = problem16.A.spmv(x.astype(np.float64))
        np.testing.assert_allclose(y, ref, rtol=1e-4, atol=1e-3)

    def test_nonsymmetric_variant(self, problem_nonsym16, rng):
        comm = SerialComm()
        op = MatrixFreeStencilOperator(problem_nonsym16, comm)
        x = rng.standard_normal(problem_nonsym16.nlocal)
        np.testing.assert_allclose(
            op.matvec(x), problem_nonsym16.A.spmv(x), rtol=1e-13, atol=1e-13
        )

    def test_residual(self, problem16):
        op = MatrixFreeStencilOperator(problem16, SerialComm())
        r = op.residual(problem16.b, np.ones(problem16.nlocal))
        np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_memory_far_below_assembled(self, problem16):
        op = MatrixFreeStencilOperator(problem16, SerialComm())
        assembled = problem16.A.memory_bytes()
        assert op.memory_bytes() < 0.7 * assembled

    def test_distributed_matches(self):
        serial = generate_problem(Subdomain.serial(8, 8, 8))
        x_serial = np.arange(512, dtype=np.float64)
        y_serial = serial.A.spmv(x_serial)

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            op = MatrixFreeStencilOperator(prob, comm)
            gx, gy, gz = sub.global_coords()
            gids = sub.global_grid.linear_index(gx, gy, gz)
            y = op.matvec(x_serial[gids].astype(np.float64))
            return np.allclose(y, y_serial[gids], rtol=1e-13)

        assert all(run_spmd(8, fn))

    def test_usable_in_gmres(self, problem16):
        """Drop-in for the inner operator: solve with a matrix-free A."""
        from repro.fp import MIXED_DS_POLICY
        from repro.solvers import GMRESIRSolver

        comm = SerialComm()
        solver = GMRESIRSolver(problem16, comm, policy=MIXED_DS_POLICY)
        solver.op_inner = MatrixFreeStencilOperator(
            problem16, comm, precision="fp32"
        )
        x, stats = solver.solve(problem16.b, tol=1e-9, maxiter=500)
        assert stats.converged
        assert np.abs(x - 1.0).max() < 1e-5


class TestMemoryModel:
    DIMS = (32, 32, 32)

    def test_mixed_uses_more_memory(self):
        """§5: GMRES-IR's memory exceeds double GMRES's."""
        ratio = memory_overhead_ratio(self.DIMS, MIXED_DS_POLICY, DOUBLE_POLICY)
        assert ratio > 1.0

    def test_low_matrix_copy_is_the_overhead(self):
        mxp = solver_footprint(self.DIMS, MIXED_DS_POLICY)
        dbl = solver_footprint(self.DIMS, DOUBLE_POLICY)
        assert mxp.matrix_low > 0
        assert dbl.matrix_low == 0
        # The matrix copy outweighs the basis/hierarchy savings.
        savings = (dbl.krylov_basis - mxp.krylov_basis) + (
            dbl.mg_hierarchy - mxp.mg_hierarchy
        )
        assert mxp.matrix_low > savings

    def test_matrix_free_removes_overhead(self):
        """§5: with the matrix-free variant the ratio drops below 1."""
        ratio = memory_overhead_ratio(
            self.DIMS, MIXED_DS_POLICY, DOUBLE_POLICY, matrix_free_inner=True
        )
        assert ratio < 1.0

    def test_breakdown_sums(self):
        fp = solver_footprint(self.DIMS, MIXED_DS_POLICY)
        assert sum(fp.breakdown().values()) == fp.total

    def test_basis_scales_with_restart(self):
        small = solver_footprint(self.DIMS, DOUBLE_POLICY, restart=10)
        big = solver_footprint(self.DIMS, DOUBLE_POLICY, restart=50)
        assert big.krylov_basis > 4 * small.krylov_basis

    def test_equalized_mesh_at_paper_scale(self):
        """At 320^3 the double solver can afford a slightly larger box
        (the paper's proposed modification); at 32^3 the divisibility
        step is too coarse to grow."""
        eq_small = equalized_double_mesh(self.DIMS, MIXED_DS_POLICY, DOUBLE_POLICY)
        assert eq_small == self.DIMS
        eq_paper = equalized_double_mesh(
            (320, 320, 320), MIXED_DS_POLICY, DOUBLE_POLICY
        )
        assert eq_paper > (320, 320, 320)
        # And it must still satisfy the 4-level divisibility.
        assert all(d % 8 == 0 for d in eq_paper)

    def test_solver_shares_fine_matrix_with_mg(self, problem16):
        """The implementation matches the accounting: one fp32 copy."""
        from repro.solvers import GMRESIRSolver

        solver = GMRESIRSolver(problem16, SerialComm(), policy=MIXED_DS_POLICY)
        assert solver.M.levels[0].A is solver.A_low

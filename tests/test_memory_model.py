"""The §5 memory model: GMRES-IR's low-precision matrix copy, the
matrix-free escape hatch, and the equalized double mesh."""

from repro.core.memory import (
    equalized_double_mesh,
    memory_overhead_ratio,
    solver_footprint,
)
from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
from repro.parallel import SerialComm


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

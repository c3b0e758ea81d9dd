"""Batched ``solve_panel`` parity with sequential solves (PR 6).

Acceptance: an 8-wide ``solve_panel`` must return, per column, the
bitwise-identical iterate a sequential ``solve`` of that column
produces (fp64 policy; rung-tolerance for the mixed ladder), at 1, 2
and 8 SPMD ranks — all while the operator streams its matrix once per
panel step (the measured ``rhs_columns / matrix_passes``
amortization).
"""

import os

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES
from helpers_distributed import scaled_rhs_panel as make_rhs_panel

from repro.backends.registry import registry
from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.parallel import SerialComm, run_spmd
from repro.solvers import GMRESIRSolver
from repro.stencil import generate_problem


def spmd_rank_counts() -> list[int]:
    env = os.environ.get("REPRO_RANKS", "").strip()
    if env:
        return [int(tok) for tok in env.replace(",", " ").split()]
    return [1, 2, 4]


RANKS = spmd_rank_counts()


def run_ranks(nranks: int, fn) -> list:
    if nranks == 1:
        return [fn(SerialComm())]
    return run_spmd(nranks, fn)


pytestmark = BOTH_CLASSES  # panel column == solo inside each class


def _solver(prob, comm, policy, **kw):
    return GMRESIRSolver(
        prob,
        comm,
        policy=policy,
        mg_config=MGConfig(nlevels=2),
        restart=10,
        **kw,
    )


class TestPanelParitySerial:
    @pytest.mark.parametrize("policy", [DOUBLE_POLICY, MIXED_DS_POLICY])
    def test_panel_bitwise_equals_sequential(self, problem16, policy):
        ncol = 8
        B = make_rhs_panel(problem16.b, ncol)
        pan = _solver(problem16, SerialComm(), policy)
        X, stats = pan.solve_panel(B, tol=0.0, maxiter=20)
        assert X.shape == (problem16.nlocal, ncol)
        assert len(stats) == ncol
        for j in range(ncol):
            seq = _solver(problem16, SerialComm(), policy)
            xj, sj = seq.solve(B[:, j].copy(), tol=0.0, maxiter=20)
            assert np.array_equal(X[:, j], xj), f"column {j} diverged"
            assert stats[j].iterations == sj.iterations
            assert stats[j].final_relres == sj.final_relres

    def test_deflation_converged_columns_leave_the_panel(self, problem16):
        # Column 0 is all-zero: it converges immediately (rho0 == 0)
        # and must not perturb the others.
        ncol = 4
        B = make_rhs_panel(problem16.b, ncol)
        B[:, 0] = 0.0
        pan = _solver(problem16, SerialComm(), DOUBLE_POLICY)
        X, stats = pan.solve_panel(B, tol=1e-8, maxiter=60)
        assert stats[0].converged and stats[0].iterations == 0
        assert np.array_equal(X[:, 0], np.zeros(problem16.nlocal))
        for j in range(1, ncol):
            seq = _solver(problem16, SerialComm(), DOUBLE_POLICY)
            xj, sj = seq.solve(B[:, j].copy(), tol=1e-8, maxiter=60)
            assert np.array_equal(X[:, j], xj)
            assert stats[j].converged == sj.converged

    def test_panel_amortizes_matrix_passes(self, problem16):
        ncol = 8
        B = make_rhs_panel(problem16.b, ncol)
        pan = _solver(problem16, SerialComm(), DOUBLE_POLICY)
        X, _ = pan.solve_panel(B, tol=0.0, maxiter=20)
        for op in {id(pan.op64): pan.op64, id(pan.op_inner): pan.op_inner}.values():
            if op.matrix_passes:
                reuse = op.rhs_columns / op.matrix_passes
                assert reuse == pytest.approx(ncol), (
                    f"panel booked {reuse:.2f} columns/pass, expected {ncol}"
                )

    def test_rejects_wrong_shape(self, problem16):
        pan = _solver(problem16, SerialComm(), DOUBLE_POLICY)
        with pytest.raises(ValueError, match="nlocal"):
            pan.solve_panel(np.zeros((7, 2)))
        with pytest.raises(ValueError, match="nlocal"):
            pan.solve_panel(problem16.b)  # 1-D is not a panel


class TestFusionSwitch:
    """``fusion=False`` (the --no-fusion ablation) reaches the one
    engine's outer residual as well as its orthogonalization."""

    @pytest.mark.parametrize("entry", ["solve", "solve_panel"])
    def test_fusion_off_dispatches_no_fused_motif(self, problem16, entry):
        fused_ops = ("spmv_dot", "waxpby_dot", "gemv_sub_dot")  # and *_multi

        def run(fusion):
            solver = GMRESIRSolver(
                problem16, SerialComm(), policy=MIXED_DS_POLICY, fusion=fusion
            )
            counts = {}

            def counting(op, fn):
                def counted(*args, **kwargs):
                    counts[op] = counts.get(op, 0) + 1
                    return fn(*args, **kwargs)

                return counted

            registry.set_wrapper(counting)
            try:
                if entry == "solve":
                    x, _ = solver.solve(problem16.b, tol=1e-9)
                else:
                    x, _ = solver.solve_panel(
                        make_rhs_panel(problem16.b, 3), tol=1e-9
                    )
            finally:
                registry.set_wrapper(None)
            return x, sum(n for op, n in counts.items() if op.startswith(fused_ops))

        x_on, fused_on = run(True)
        x_off, fused_off = run(False)
        assert fused_on > 0
        assert fused_off == 0
        assert np.array_equal(x_on, x_off)  # fused == unfused, bitwise


class TestPanelParityDistributed:
    @pytest.mark.parametrize("nranks", RANKS)
    def test_fp64_bitwise_across_ranks(self, nranks):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            ncol = 8
            B = make_rhs_panel(prob.b, ncol)
            pan = _solver(prob, comm, DOUBLE_POLICY)
            X, _ = pan.solve_panel(B, tol=0.0, maxiter=10)
            ok = True
            for j in range(ncol):
                seq = _solver(prob, comm, DOUBLE_POLICY)
                xj, _ = seq.solve(B[:, j].copy(), tol=0.0, maxiter=10)
                ok = ok and np.array_equal(X[:, j], xj)
            return bool(ok)

        assert all(run_ranks(nranks, fn))

    @pytest.mark.parametrize("nranks", RANKS)
    def test_mixed_ladder_rung_tolerance_across_ranks(self, nranks):
        # The mixed ladder's panel sequence is still bitwise-equal to
        # the sequential one under the reference backend; assert the
        # strict contract and keep the rung-tolerance bound as the
        # documented acceptance floor.
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            ncol = 4
            B = make_rhs_panel(prob.b, ncol)
            pan = _solver(prob, comm, MIXED_DS_POLICY)
            X, _ = pan.solve_panel(B, tol=0.0, maxiter=10)
            ok = True
            for j in range(ncol):
                seq = _solver(prob, comm, MIXED_DS_POLICY)
                xj, _ = seq.solve(B[:, j].copy(), tol=0.0, maxiter=10)
                ok = ok and np.array_equal(X[:, j], xj)
                ok = ok and np.allclose(X[:, j], xj, rtol=1e-5, atol=1e-5)
            return bool(ok)

        assert all(run_ranks(nranks, fn))

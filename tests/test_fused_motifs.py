"""Fused motifs: one vector pass where the unfused sequence makes two.

GMRES-IR's residual check (``waxpby_dot`` behind the operator's
matvec), PCG's residual update and CGS2's second projection fuse
kernels that compose operation for operation, so a fused run is
bitwise-identical to the unfused call sequence — kernel by kernel, per
rung, and end to end at 1 and 2 ranks — while the byte model charges
the fused pass once.
"""

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES, RANKS, run_ranks, smooth_vector

from repro.backends.dispatch import dot, spmv, waxpby, waxpby_dot
from repro.backends.workspace import Workspace
from repro.fp import MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.parallel import SerialComm
from repro.solvers import GMRESIRSolver
from repro.solvers.operator import DistributedOperator
from repro.sparse import to_format, to_precision
from repro.stencil import generate_problem


@BOTH_CLASSES
class TestFusedMotifs:
    @staticmethod
    def residual_case(fmt):
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        A = to_format(prob.A, fmt)
        op = DistributedOperator(A, prob.halo, SerialComm())
        rng = np.random.default_rng(0)
        return A, op, rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_fused_residual_matches_unfused_bitwise(self, fmt):
        """GMRES-IR's residual check: the matvec keeps its schedule and
        the subtraction + local dot fuse at the vector pass."""
        A, op, x, b = self.residual_case(fmt)
        r_f = np.empty(A.nrows)
        local = op.residual_norm2_local(b, x, out=r_f)
        r_u = b - spmv(A, x)
        assert np.array_equal(r_f, r_u)
        assert local == dot(r_u, r_u)
        assert np.array_equal(op.residual(b, x), r_u)  # fusion=False path

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_fp32_fused_residual_matches_unfused_bitwise(self, fmt):
        """The same fusion on the low rung's operator: an fp32 matrix
        and fp32 vectors give an fp32 residual, bitwise the unfused
        ``b - A x`` and its fp32 dot."""
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        A = to_precision(to_format(prob.A, fmt), "fp32")
        op = DistributedOperator(A, prob.halo, SerialComm())
        rng = np.random.default_rng(0)
        x, b = rng.standard_normal((2, A.nrows)).astype(np.float32)
        r_f = np.empty(A.nrows, dtype=np.float32)
        local = op.residual_norm2_local(b, x, out=r_f)
        r_u = b - spmv(A, x)
        assert r_u.dtype == np.float32
        assert np.array_equal(r_f, r_u)
        assert local == dot(r_u, r_u)
        assert np.array_equal(op.residual(b, x), r_u)

    def test_fused_residual_pools_its_scratch(self):
        _, op, x, b = self.residual_case("ell")
        out = np.empty(op.nlocal)
        op.residual_norm2_local(b, x, out=out)  # warmup
        misses0 = op.ws.misses
        for _ in range(3):
            op.residual_norm2_local(b, x, out=out)
        assert op.ws.misses == misses0

    def test_waxpby_dot_matches_unfused_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(512)
        y = rng.standard_normal(512)
        ws = Workspace()
        out = np.empty(512)
        _, local = waxpby_dot(-0.37, x, 1.0, y, out=out, ws=ws)
        ref = waxpby(-0.37, x, 1.0, y.copy(), out=y.copy(), ws=Workspace())
        assert np.array_equal(out, ref)
        assert local == dot(ref, ref)

    def test_fp32_waxpby_dot_stays_on_its_rung(self):
        """The wildcard fused kernel re-dispatches per precision: fp32
        vectors get an fp32 result, bitwise the fp32 ``waxpby`` then
        the fp32 ``dot``."""
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        x = (100 * smooth_vector(prob.sub)).astype(np.float32)
        y = (50 * smooth_vector(prob.sub)).astype(np.float32)
        w, local = waxpby_dot(1.0, x, -0.5, y)
        assert w.dtype == np.float32
        ref = waxpby(1.0, x, -0.5, y)
        assert ref.dtype == np.float32
        assert np.array_equal(w, ref)
        assert local == dot(ref, ref)

    def test_waxpby_dot_aliasing_safe(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(128)
        y = rng.standard_normal(128)
        ref = waxpby(2.0, x, 1.0, y.copy(), out=y.copy())
        w, local = waxpby_dot(2.0, x, 1.0, y, out=y)
        assert w is y
        assert np.array_equal(w, ref)
        assert local == dot(ref, ref)

    def test_cg_uses_fused_update(self):
        """PCG converges identically through the fused residual-update
        + norm (bitwise vs the historical two-call sequence is covered
        by construction; here: it still converges)."""
        from repro.solvers.cg import pcg_solve

        prob = generate_problem(Subdomain.serial(16, 16, 16))
        x, stats = pcg_solve(prob, SerialComm(), tol=1e-8, maxiter=100)
        assert stats.converged


class TestFusedSolver:
    @pytest.mark.parametrize("nranks", RANKS[:2])
    def test_solver_bitwise_with_and_without_fusion(self, nranks):
        """The fused residual check composes the registry's kernels
        operation-for-operation: bitwise-identical solves."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            kwargs = dict(policy=MIXED_DS_POLICY, mg_config=MGConfig(nlevels=2))
            s_f = GMRESIRSolver(prob, comm, fusion=True, **kwargs)
            x_f, st_f = s_f.solve(prob.b, tol=1e-9, maxiter=300)
            s_u = GMRESIRSolver(prob, comm, fusion=False, **kwargs)
            x_u, st_u = s_u.solve(prob.b, tol=1e-9, maxiter=300)
            return (
                st_f.converged,
                st_f.iterations == st_u.iterations,
                bool(np.array_equal(x_f, x_u)),
            )

        for rec in run_ranks(nranks, fn):
            assert rec == (True, True, True)

    def test_fused_residual_models_fewer_outer_bytes(self):
        from repro.fp.precision import Precision
        from repro.perf.kernels import KernelModel

        km = KernelModel()
        n = 32**3
        fused = km.spmv_dot(n, Precision.DOUBLE).nbytes
        unfused = (
            km.spmv(n, Precision.DOUBLE).nbytes
            + km.waxpby(n, Precision.DOUBLE).nbytes
            + km.dot(n, Precision.DOUBLE).nbytes
        )
        assert fused < unfused
        assert km.waxpby_dot(n, Precision.DOUBLE).nbytes < (
            km.waxpby(n, Precision.DOUBLE).nbytes
            + km.dot(n, Precision.DOUBLE).nbytes
        )

    def test_fusion_flag_parses(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(["run", "--no-fusion"]).no_fusion

"""Unit tests for grid transfers and the multigrid preconditioner."""

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES

from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import (
    MGConfig,
    MultigridPreconditioner,
    coarse_to_fine_map,
    fused_residual_restrict,
    prolong_correct,
    unfused_residual_restrict,
)
from repro.backends import Workspace, spmv_rows
from repro.mg.restriction import restrict_vector
from repro.parallel import run_spmd
from repro.sparse import to_format, to_precision
from repro.sparse.partitioned import extract_rows
from repro.stencil import generate_problem

RUNGS = ("fp64", "fp32")


class TestCoarseFineMap:
    def test_map_targets_even_coords(self, problem16):
        coarse = problem16.sub.coarsen()
        f_c = coarse_to_fine_map(problem16.sub, coarse)
        ix, iy, iz = problem16.sub.local.coords(f_c)
        assert np.all(ix % 2 == 0)
        assert np.all(iy % 2 == 0)
        assert np.all(iz % 2 == 0)

    def test_map_is_injective(self, problem16):
        coarse = problem16.sub.coarsen()
        f_c = coarse_to_fine_map(problem16.sub, coarse)
        assert len(np.unique(f_c)) == coarse.nlocal

    def test_rank_mismatch_rejected(self):
        pg = ProcessGrid(2, 1, 1)
        a = Subdomain(BoxGrid(8, 8, 8), pg, 0)
        b = Subdomain(BoxGrid(4, 4, 4), pg, 1)
        with pytest.raises(ValueError):
            coarse_to_fine_map(a, b)


class TestRestriction:
    @staticmethod
    def operands(problem, fmt, rung, ncol):
        A = to_precision(to_format(problem.A, fmt), rung)
        f_c = coarse_to_fine_map(problem.sub, problem.sub.coarsen())
        rng = np.random.default_rng(5)
        R = rng.standard_normal((A.nrows, ncol)).astype(A.dtype)
        X = rng.standard_normal((A.ncols, ncol)).astype(A.dtype)
        return A, f_c, np.asfortranarray(R), np.asfortranarray(X)

    @BOTH_CLASSES
    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize("rung", RUNGS)
    @pytest.mark.parametrize("ncol", [1, 4])
    @pytest.mark.parametrize("pooled", [True, False], ids=["ws", "no-ws"])
    def test_block_restriction_equals_row_subset_reference(
        self, problem16, fmt, rung, ncol, pooled
    ):
        """The fused op on the packed block is, bitwise, the defect the
        row-copying kernel it replaced computed per column:
        ``r[f_c] - (A x)[f_c]`` with the row sums in the matrix
        precision."""
        A, f_c, R, X = self.operands(problem16, fmt, rung, ncol)
        A_c = extract_rows(A, f_c)
        ws = Workspace() if pooled else None
        got = fused_residual_restrict(A_c, R, X, f_c, ws=ws)
        assert got.shape == (len(f_c), ncol) and got.dtype == A.dtype
        for j in range(ncol):
            ax = spmv_rows(A, f_c, X[:, j], out=np.empty(len(f_c), dtype=A.dtype))
            expect = R[f_c, j] - ax
            assert np.array_equal(got[:, j], expect)
            # ... and the single-vector entry is the width-1 panel.
            solo = fused_residual_restrict(A_c, R[:, j], X[:, j], f_c, ws=ws)
            assert solo.shape == (len(f_c),)
            assert np.array_equal(solo, expect)

    @BOTH_CLASSES
    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize("rung", RUNGS)
    @pytest.mark.parametrize("ncol", [1, 4])
    def test_fused_equals_unfused_bitwise(self, problem16, fmt, rung, ncol):
        """The paper's optimization must be numerically identical, at
        every rung and into every ladder store."""
        A, f_c, R, X = self.operands(problem16, fmt, rung, ncol)
        for out_dtype in (A.dtype, np.float32, np.float64):  # ladder stores
            fused = np.empty((len(f_c), ncol), dtype=out_dtype, order="F")
            unfused = np.empty_like(fused)
            ws = Workspace()
            fused_residual_restrict(extract_rows(A, f_c), R, X, f_c, out=fused, ws=ws)
            unfused_residual_restrict(A, R, X, f_c, out=unfused, ws=ws)
            assert np.array_equal(fused, unfused)
        plain = unfused_residual_restrict(A, R[:, 0], X[:, 0], f_c)
        assert np.array_equal(plain, fused[:, 0].astype(A.dtype))

    def test_restrict_vector_is_injection(self, problem16, rng):
        coarse = problem16.sub.coarsen()
        f_c = coarse_to_fine_map(problem16.sub, coarse)
        v = rng.standard_normal(problem16.nlocal)
        np.testing.assert_array_equal(restrict_vector(v, f_c), v[f_c])

    def test_prolong_is_restriction_transpose(self, problem16, rng):
        """<R v, w>_coarse == <v, P w>_fine (P = R^T)."""
        coarse = problem16.sub.coarsen()
        f_c = coarse_to_fine_map(problem16.sub, coarse)
        v = rng.standard_normal(problem16.nlocal)
        w = rng.standard_normal(len(f_c))
        lhs = restrict_vector(v, f_c) @ w
        pv = np.zeros(problem16.nlocal)
        prolong_correct(pv, w, f_c)
        rhs = v @ pv
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13)

    def test_prolong_adds_in_place(self, problem16):
        coarse = problem16.sub.coarsen()
        f_c = coarse_to_fine_map(problem16.sub, coarse)
        x = np.ones(problem16.nlocal)
        prolong_correct(x, np.ones(len(f_c)), f_c)
        assert x[f_c[0]] == 2.0
        assert x.sum() == problem16.nlocal + len(f_c)


class TestMGConfig:
    def test_defaults_match_spec(self):
        cfg = MGConfig()
        assert cfg.nlevels == 4
        assert cfg.sweep == "forward"
        assert cfg.fused_restrict

    def test_rejects_bad_smoother(self):
        with pytest.raises(ValueError):
            MGConfig(smoother="ilu")

    def test_rejects_bad_sweep(self):
        with pytest.raises(ValueError):
            MGConfig(sweep="diagonal")

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            MGConfig(nlevels=0)


class TestMultigridPreconditioner:
    def test_level_sizes(self, problem16, comm):
        mg = MultigridPreconditioner.build(problem16, comm)
        assert [lv.nlocal for lv in mg.levels] == [4096, 512, 64, 8]

    def test_apply_reduces_residual(self, problem16, comm):
        mg = MultigridPreconditioner.build(problem16, comm)
        b = problem16.b
        z = mg.apply(b)
        r_after = b - problem16.A.spmv(z)
        assert np.linalg.norm(r_after) < np.linalg.norm(b)

    def test_richardson_converges(self, problem16, comm):
        mg = MultigridPreconditioner.build(problem16, comm)
        A, b = problem16.A, problem16.b
        x = np.zeros(problem16.nlocal)
        norms = []
        for _ in range(10):
            r = b - A.spmv(x)
            norms.append(np.linalg.norm(r))
            x += mg.apply(r)
        assert norms[-1] < 0.35 * norms[0]

    def test_apply_is_linear(self, problem16, comm, rng):
        mg = MultigridPreconditioner.build(problem16, comm)
        u = rng.standard_normal(problem16.nlocal)
        v = rng.standard_normal(problem16.nlocal)
        lhs = mg.apply(2.0 * u + 3.0 * v)
        rhs = 2.0 * mg.apply(u) + 3.0 * mg.apply(v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_symmetric_sweep_gives_symmetric_preconditioner(self, problem8, comm):
        """HPCG needs M symmetric: <M r, s> == <r, M s>."""
        mg = MultigridPreconditioner.build(
            problem8, comm, MGConfig(nlevels=2, sweep="symmetric")
        )
        rng = np.random.default_rng(0)
        r = rng.standard_normal(problem8.nlocal)
        s = rng.standard_normal(problem8.nlocal)
        np.testing.assert_allclose(mg.apply(r) @ s, r @ mg.apply(s), rtol=1e-9)

    def test_fp32_build(self, problem16, comm):
        mg = MultigridPreconditioner.build(problem16, comm, precision="fp32")
        z = mg.apply(problem16.b)
        assert z.dtype == np.float32
        assert np.isfinite(z).all()

    def test_fp32_close_to_fp64(self, problem16, comm):
        mg64 = MultigridPreconditioner.build(problem16, comm)
        mg32 = MultigridPreconditioner.build(problem16, comm, precision="fp32")
        z64 = mg64.apply(problem16.b)
        z32 = mg32.apply(problem16.b).astype(np.float64)
        rel = np.linalg.norm(z64 - z32) / np.linalg.norm(z64)
        assert rel < 1e-5

    def test_levelsched_smoother_config(self, problem16, comm):
        mg = MultigridPreconditioner.build(
            problem16, comm, MGConfig(smoother="levelsched", fused_restrict=False)
        )
        z = mg.apply(problem16.b)
        assert np.isfinite(z).all()

    def test_fused_vs_unfused_identical_cycle(self, problem16, comm):
        """Fused restriction must not change the preconditioner."""
        mg_f = MultigridPreconditioner.build(
            problem16, comm, MGConfig(fused_restrict=True)
        )
        mg_u = MultigridPreconditioner.build(
            problem16, comm, MGConfig(fused_restrict=False)
        )
        z_f = mg_f.apply(problem16.b)
        z_u = mg_u.apply(problem16.b)
        assert np.array_equal(z_f, z_u)
        # The unfused reference multiplies the whole level, in its order.
        assert mg_u.levels[0].A_c.nrows == problem16.nlocal
        assert mg_f.levels[0].A_c.nrows == problem16.nlocal // 8

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize(
        "ladder", ["fp32", "fp32:fp64", "fp64:fp32"]
    )
    def test_unfused_cycle_is_bitwise_the_fused_one(
        self, problem16, comm, fmt, ladder
    ):
        """``MGConfig(fused_restrict=False)`` is the fused V-cycle bit
        for bit at every rung and across precision boundaries."""
        R = np.asfortranarray(
            np.random.default_rng(2).standard_normal((problem16.nlocal, 3))
        )
        Z = [
            MultigridPreconditioner.build(
                problem16,
                comm,
                MGConfig(fused_restrict=fused),
                precision=ladder,
                matrix_format=fmt,
            ).apply_panel(R).copy()
            for fused in (True, False)
        ]
        assert np.array_equal(*Z)

    def test_build_requires_divisible_dims(self, comm):
        prob = generate_problem(Subdomain.serial(12, 12, 12))  # 12 % 8 != 0
        with pytest.raises(ValueError):
            MultigridPreconditioner.build(prob, comm, MGConfig(nlevels=4))

    def test_level_dims_introspection(self, problem16, comm):
        mg = MultigridPreconditioner.build(problem16, comm)
        dims = mg.level_dims()
        assert dims[0]["nlocal"] == 4096
        assert dims[0]["num_colors"] == 8
        assert dims[-1]["nlocal"] == 8

    def test_distributed_matches_replicated_subdomains(self):
        """Each rank's V-cycle on identical data gives identical results.

        With a 2x2x2 processor grid and a symmetric global problem, the
        preconditioner output must be deterministic and consistent with
        the operator's distribution (checked via a Richardson step that
        must reduce the global residual).
        """

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            mg = MultigridPreconditioner.build(prob, comm, MGConfig(nlevels=2))
            from repro.parallel.distributed import dnorm2
            from repro.solvers import DistributedOperator

            op = DistributedOperator(prob.A, prob.halo, comm)
            x = np.zeros(prob.nlocal)
            r = prob.b - op.matvec(x)
            n0 = dnorm2(comm, r)
            for _ in range(5):
                x += mg.apply(r).astype(np.float64)
                r = prob.b - op.matvec(x)
            return dnorm2(comm, r) / n0

        ratios = run_spmd(8, fn)
        assert all(r < 0.5 for r in ratios)
        assert len(set(ratios)) == 1  # bitwise identical on all ranks

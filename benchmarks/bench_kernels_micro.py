"""Kernel microbenchmarks (real wall time, pytest-benchmark).

The motifs the paper's roofline (Fig. 8) plots, measured on this host
under the active kernel backend: SpMV in both formats and precisions,
the multicolor GS sweep, CGS2 orthogonalization, dot, and the fused
restriction.  These are the timings the real-run figures (5/7
cross-checks) are built on.
"""

import numpy as np
import pytest

from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
from repro.geometry import Subdomain
from repro.mg.restriction import coarse_to_fine_map, fused_residual_restrict
from repro.mg.smoothers import MulticolorGS
from repro.parallel import SerialComm
from repro.solvers import GMRESIRSolver
from repro.solvers.ortho import cgs2
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.stencil import generate_problem

N = 48  # 110,592 rows — big enough to be bandwidth-limited in NumPy


@pytest.fixture(scope="module")
def prob():
    return generate_problem(Subdomain.serial(N, N, N))


@pytest.fixture(scope="module")
def vectors(prob):
    rng = np.random.default_rng(0)
    x64 = rng.standard_normal(prob.A.ncols)
    return {
        "x64": x64,
        "x32": x64.astype(np.float32),
    }


@pytest.fixture(scope="module")
def mats(prob):
    return {
        "ell64": prob.A,
        "ell32": prob.A.astype("fp32"),
        "csr64": prob.A.to_csr(),
        "csr32": prob.A.to_csr().astype("fp32"),
    }


class TestSpMV:
    """Format comparison: the same SpMV through every registered layout,
    both via the allocating method API and the zero-alloc workspace
    path the solvers use."""

    def test_spmv_ell_fp64(self, benchmark, mats, vectors):
        benchmark(lambda: mats["ell64"].spmv(vectors["x64"]))

    def test_spmv_ell_fp32(self, benchmark, mats, vectors):
        benchmark(lambda: mats["ell32"].spmv(vectors["x32"]))

    def test_spmv_csr_fp64(self, benchmark, mats, vectors):
        benchmark(lambda: mats["csr64"].spmv(vectors["x64"]))

    def test_spmv_csr_fp32(self, benchmark, mats, vectors):
        benchmark(lambda: mats["csr32"].spmv(vectors["x32"]))

    @pytest.mark.parametrize("fmt", ["ell", "csr"])
    def test_spmv_workspace_fp64(self, benchmark, mats, vectors, fmt):
        from repro.backends import Workspace, spmv

        A = mats[f"{fmt}64"]
        ws = Workspace()
        out = np.empty(A.nrows)
        spmv(A, vectors["x64"], out=out, ws=ws)  # warmup the arena
        benchmark(lambda: spmv(A, vectors["x64"], out=out, ws=ws))

    def test_spmv_multi_ell_fp32(self, benchmark, mats, vectors):
        """Panel of 8 through the chunked single-pass ELL kernel — 14
        chunks at this size, which tier-1 operators never reach — with
        every column checked against its solo product."""
        from repro.backends import Workspace, spmv, spmv_multi

        A = mats["ell32"]
        rng = np.random.default_rng(5)
        X = np.asfortranarray(
            rng.standard_normal((A.ncols, 8)).astype(np.float32)
        )
        Y = np.empty((A.nrows, 8), dtype=np.float32, order="F")
        ws = Workspace()
        spmv_multi(A, X, out=Y, ws=ws)  # warmup the arena
        benchmark(lambda: spmv_multi(A, X, out=Y, ws=ws))
        for j in range(8):
            assert np.array_equal(Y[:, j], spmv(A, X[:, j]))

    @pytest.mark.parametrize("rung", ["fp64", "fp32"])
    def test_spmv_classes_agree_48(self, benchmark, mats, vectors, rung):
        """The two kernel parity classes at a bandwidth-bound size: the
        compiled sequential row sum against NumPy's pairwise one, to the
        rung's tolerance (the references in every other case here are
        dispatched, i.e. they are the active class's own)."""
        from repro.backends import Workspace
        from repro.backends.registry import registry

        bits = rung[2:]
        A, x = mats[f"ell{bits}"], vectors[f"x{bits}"]
        ws = Workspace()

        def product(backend=None):
            kernel = registry.lookup("spmv", "ell", rung, backend=backend)
            return kernel(A, x, out=np.empty(A.nrows, A.dtype), ws=ws)

        ref = product("numpy")
        benchmark(product)  # the active class
        tol = {"fp64": 1e-13, "fp32": 1e-5}[rung]
        for backend in registry.backends():
            np.testing.assert_allclose(
                product(backend), ref, rtol=tol, atol=tol * np.abs(ref).max()
            )


class TestGaussSeidel:
    @pytest.fixture(scope="class")
    def smoothers(self, prob, mats):
        sets = color_sets(structured_coloring8(prob.sub))
        return {
            "fp64": MulticolorGS(mats["ell64"], mats["ell64"].diagonal(), sets),
            "fp32": MulticolorGS(mats["ell32"], mats["ell32"].diagonal(), sets),
        }

    def test_gs_sweep_fp64(self, benchmark, smoothers, prob):
        r = prob.b
        x = np.zeros(prob.nlocal)
        benchmark(lambda: smoothers["fp64"].forward(r, x))

    def test_gs_sweep_fp32(self, benchmark, smoothers, prob):
        r = prob.b.astype(np.float32)
        x = np.zeros(prob.nlocal, dtype=np.float32)
        benchmark(lambda: smoothers["fp32"].forward(r, x))

    def test_gs_sweep_fp64_workspace(self, benchmark, prob, mats):
        from repro.backends import Workspace

        sets = color_sets(structured_coloring8(prob.sub))
        ws = Workspace()
        gs = MulticolorGS(mats["ell64"], mats["ell64"].diagonal(), sets, ws=ws)
        r = prob.b
        x = np.zeros(prob.nlocal)
        gs.forward(r, x)  # warmup the arena
        benchmark(lambda: gs.forward(r, x))

    @staticmethod
    def level0_smoother(prob, mats):
        from repro.mg import MGConfig, MultigridPreconditioner

        mg = MultigridPreconditioner.build(
            prob,
            SerialComm(),
            MGConfig(),
            precision="fp32",
            fine_matrix=mats["ell32"],
        )
        return mg.levels[0].smoother

    @staticmethod
    def check_against_index_set(gs, A, R, X, direction="forward"):
        """``X`` — swept once from zero by ``gs``, in its color order —
        un-permuted, against the index-set reference on the natural-
        order columns of ``R``, bitwise."""
        from repro.backends import symgs_sweep

        diag = A.diagonal()
        diag_sets = [diag[rows] for rows in gs.sets]
        rank = gs.partition.rank
        for j in range(R.shape[1]):
            ref = np.zeros(A.ncols, dtype=A.dtype)
            symgs_sweep(A, R[:, j], ref, gs.sets, diag_sets, direction)
            assert np.array_equal(X[: A.nrows, j][rank], ref[: A.nrows])

    def test_gs_sweep_fp32_blocks(self, benchmark, prob, mats):
        """The sweep a solve runs: the level-0 smoother of a built
        hierarchy, color blocks of 13 824 rows (several chunks each),
        on a panel of 8 — checked bitwise against the index-set
        reference kernel."""
        gs = self.level0_smoother(prob, mats)
        rng = np.random.default_rng(6)
        R = np.asfortranarray(
            rng.standard_normal((prob.nlocal, 8)).astype(np.float32)
        )
        R_level = np.asfortranarray(R[gs.order])
        X = np.zeros((prob.A.ncols, 8), dtype=np.float32, order="F")
        gs.forward_panel(R_level, X)  # warmup the arena
        benchmark(lambda: gs.forward_panel(R_level, X))

        X[:] = 0.0
        gs.forward_panel(R_level, X)
        self.check_against_index_set(gs, mats["ell32"], R, X)

    def test_gs_sweep_fp32_slices(self, benchmark, prob, mats):
        """The slice form at 48^3: every color relaxes one contiguous
        range of the color-ordered panel, behind a block product of
        several row chunks — forward, backward, and the zero-guess
        sweep that skips the first color's product, each bitwise the
        index-set reference after un-permuting."""
        from repro.backends.numpy_backend import CHUNK_ROWS

        gs = self.level0_smoother(prob, mats)
        P = gs.partition
        cursor = 0
        for interior, boundary in P.passes:
            assert interior.lo == cursor and boundary.lo == boundary.hi == interior.hi
            assert interior.hi - interior.lo == 13824 > 2 * CHUNK_ROWS
            cursor = interior.hi
        assert cursor == prob.nlocal
        rng = np.random.default_rng(8)
        R = np.asfortranarray(
            rng.standard_normal((prob.nlocal, 8)).astype(np.float32)
        )
        R_level = np.asfortranarray(R[gs.order])
        X = np.zeros((prob.A.ncols, 8), dtype=np.float32, order="F")

        def zero_guess_sweep():
            X[:] = 0.0
            gs.sweep_panel(R_level, X, "forward", zero_guess=True)

        zero_guess_sweep()  # warmup the arena
        benchmark(zero_guess_sweep)
        self.check_against_index_set(gs, mats["ell32"], R, X)
        for direction in ("forward", "backward"):
            X[:] = 0.0
            gs.sweep_panel(R_level, X, direction)
            self.check_against_index_set(gs, mats["ell32"], R, X, direction)


class TestOrtho:
    """One CGS2 step at k = 15 on the engine's own basis: each rung's
    ``(n, restart+1)`` basis is the one ``GMRESIRSolver`` leases (so
    both rungs time the layout the solver runs), its leading K + 1
    columns orthonormal."""

    K = 15

    @pytest.fixture(scope="class")
    def basis(self, prob):
        rng = np.random.default_rng(1)
        orth = np.linalg.qr(rng.standard_normal((prob.nlocal, self.K + 1)))[0]
        out = {}
        for name, policy in (("fp64", DOUBLE_POLICY), ("fp32", MIXED_DS_POLICY)):
            Q = GMRESIRSolver(prob, SerialComm(), policy=policy).Q
            Q[:, : self.K + 1] = orth
            out[name] = Q
        return out

    def test_cgs2_fp64(self, benchmark, basis, prob):
        rng = np.random.default_rng(2)
        comm = SerialComm()
        w0 = rng.standard_normal(prob.nlocal)

        def step():
            w = w0.copy()
            return cgs2(comm, basis["fp64"], self.K, w)

        benchmark(step)

    def test_cgs2_fp32(self, benchmark, basis, prob):
        rng = np.random.default_rng(2)
        comm = SerialComm()
        w0 = rng.standard_normal(prob.nlocal).astype(np.float32)

        def step():
            w = w0.copy()
            return cgs2(comm, basis["fp32"], self.K, w)

        benchmark(step)


class TestVectorOps:
    def test_dot_fp64(self, benchmark, vectors, prob):
        a = vectors["x64"][: prob.nlocal]
        benchmark(lambda: float(a @ a))

    def test_dot_fp32(self, benchmark, vectors, prob):
        a = vectors["x32"][: prob.nlocal]
        benchmark(lambda: float(a @ a))


class TestRestriction:
    def test_fused_restrict_fp64(self, benchmark, prob, vectors):
        from repro.sparse.partitioned import extract_rows

        coarse = prob.sub.coarsen()
        f_c = coarse_to_fine_map(prob.sub, coarse)
        A_c = extract_rows(prob.A, f_c)  # packed once, as MG setup does
        r = np.random.default_rng(3).standard_normal(prob.nlocal)
        benchmark(lambda: fused_residual_restrict(A_c, r, vectors["x64"], f_c))

    def test_restrict_fp32_block(self, benchmark, prob, mats):
        """The restriction a solve runs: the level-0 block of a built
        hierarchy, 13 824 coarse-mapped rows (several chunks), on a
        panel of 8 in the fine level's order — checked bitwise against
        the natural-order full product's coarse rows."""
        from repro.backends import Workspace, spmv
        from repro.mg import MGConfig, MultigridPreconditioner

        ws = Workspace()
        mg = MultigridPreconditioner.build(
            prob,
            SerialComm(),
            MGConfig(),
            precision="fp32",
            fine_matrix=mats["ell32"],
            workspace=ws,
        )
        lv = mg.levels[0]
        assert lv.A_c.nrows == len(lv.f_c) == 13824
        rng = np.random.default_rng(7)
        R = np.asfortranarray(
            rng.standard_normal((prob.nlocal, 8)).astype(np.float32)
        )
        X = np.asfortranarray(
            rng.standard_normal((prob.A.ncols, 8)).astype(np.float32)
        )
        out = np.empty((len(lv.f_c), 8), dtype=np.float32, order="F")

        def restrict():
            return fused_residual_restrict(lv.A_c, R, X, lv.f_c, out=out, ws=ws)

        restrict()  # warmup the arena
        benchmark(restrict)
        # lv.A is in natural order; R, X and f_c are in the level's, and
        # row i of the result is the fine position f_c[i].
        order, rank = lv.smoother.order, lv.smoother.rank
        for j in range(8):
            ax = spmv(lv.A, X[rank, j])
            assert np.array_equal(out[:, j], R[lv.f_c, j] - ax[order[lv.f_c]])


class TestEndToEnd:
    def test_mg_vcycle_fp32(self, benchmark, prob):
        from repro.mg import MGConfig, MultigridPreconditioner

        mg = MultigridPreconditioner.build(
            prob, SerialComm(), MGConfig(), precision="fp32"
        )
        r = prob.b.astype(np.float32)
        benchmark(lambda: mg.apply(r))

    def test_mg_vcycle_ladder(self, benchmark, prob):
        """Per-level ladder hierarchy (fp32 fine level, fp64 coarse
        levels) vs the uniform fp32 V-cycle above — what the wider
        coarse levels cost."""
        from repro.mg import MGConfig, MultigridPreconditioner

        mg = MultigridPreconditioner.build(
            prob, SerialComm(), MGConfig(), precision="fp32:fp64"
        )
        r = prob.b.astype(np.float32)
        benchmark(lambda: mg.apply(r))

    def test_gmres_iteration_mxp(self, benchmark, prob):
        from repro.fp import MIXED_DS_POLICY
        from repro.solvers import GMRESIRSolver

        solver = GMRESIRSolver(prob, SerialComm(), policy=MIXED_DS_POLICY)
        benchmark.pedantic(
            lambda: solver.solve(prob.b, tol=0.0, maxiter=5),
            rounds=2,
            iterations=1,
        )


"""Allocation regression tests (issue satellite).

The GMRES-IR inner loop (Arnoldi step + V-cycle) must perform zero
per-iteration array allocations after warmup: every O(n) temporary
lives in the solver's workspace arena.  Two independent checks:

1. the arena's miss counter must not move after the warmup solve (no
   new pooled buffers are ever created), and
2. ``tracemalloc`` must see no allocation site that grows by a
   vector-sized amount across a 32-iteration solve.

The thresholds: at 16³ (n = 4096) one fp32 vector is 16 KB and one
fp64 vector 32 KB.  A single per-*iteration* vector leak would show up
as ≥ 32 × 16 KB = 512 KB of growth at one site; the test allows at
most one vector's worth (per-*solve* setup like the fp64 iterate) and
flags anything above.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES

from repro.fp import MIXED_DS_POLICY
from repro.parallel import SerialComm
from repro.solvers import GMRESIRSolver

#: One fp64 vector at 16^3.
VECTOR_BYTES = 4096 * 8


pytestmark = BOTH_CLASSES  # the contracts hold inside each kernel class


@pytest.fixture
def warm_solver(problem16, parity_class):
    solver = GMRESIRSolver(problem16, SerialComm(), policy=MIXED_DS_POLICY)
    # Warmup: populate every workspace buffer the hot path touches.
    solver.solve(problem16.b, tol=0.0, maxiter=10)
    return solver


class TestInnerLoopAllocations:
    def test_workspace_arena_is_stable_after_warmup(self, warm_solver, problem16):
        misses0 = warm_solver.ws.misses
        hits0 = warm_solver.ws.hits
        warm_solver.solve(problem16.b, tol=0.0, maxiter=32)
        assert warm_solver.ws.misses == misses0, (
            "hot path allocated new arena buffers after warmup"
        )
        assert warm_solver.ws.hits > hits0  # and it actually used the arena

    def test_no_vector_sized_allocation_sites(self, warm_solver, problem16):
        gc.collect()
        tracemalloc.start(15)
        try:
            snap1 = tracemalloc.take_snapshot()
            warm_solver.solve(problem16.b, tol=0.0, maxiter=32)
            snap2 = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        diff = snap2.compare_to(snap1, "traceback")
        offenders = [d for d in diff if d.size_diff > VECTOR_BYTES]
        msg = "\n".join(
            f"{d.size_diff / 1024:.1f} KB (count +{d.count_diff}) at "
            + " <- ".join(d.traceback.format()[-2:])
            for d in offenders
        )
        assert not offenders, (
            f"inner loop grew vector-sized allocation sites:\n{msg}"
        )

    def test_no_double_warmup_across_solves(self, warm_solver, problem16):
        """PR 6 satellite: per-solve state (Givens QR, Hessenberg
        column, precision-cast scratch) outlives the solve, so a
        *second* solve re-warms nothing — same slot-0 QR object and
        basis arena (each lease is a fresh F-order view of it), zero new
        arena buffers, and the buffer count is flat."""
        Q0, qr0 = warm_solver._slot(0)
        nbuf0 = warm_solver.ws.nbuffers
        misses0 = warm_solver.ws.misses
        warm_solver.solve(problem16.b, tol=0.0, maxiter=10)
        warm_solver.solve(problem16.b, tol=0.0, maxiter=10)
        assert warm_solver._slot(0)[1] is qr0
        Q = warm_solver.Q
        assert Q.base is Q0.base
        assert Q.flags.f_contiguous
        assert warm_solver.ws.nbuffers == nbuf0
        assert warm_solver.ws.misses == misses0

    def test_solve_panel_arena_stable_after_warmup(self, problem16):
        """Repeated batched solves at one panel width re-warm nothing:
        the arena is flat, and no allocation site grows by more than
        one vector — the per-column Krylov bases and Givens QRs are
        leased per column slot, not rebuilt per call."""
        solver = GMRESIRSolver(
            problem16, SerialComm(), policy=MIXED_DS_POLICY, restart=5
        )
        B = np.empty((problem16.nlocal, 4), order="F")
        for j in range(4):
            np.multiply(problem16.b, 1.0 + 0.5 * j, out=B[:, j])
        solver.solve_panel(B, tol=0.0, maxiter=10)  # warmup
        misses0 = solver.ws.misses
        nbuf0 = solver.ws.nbuffers
        hits0 = solver.ws.hits
        # Per-call state is freed again by the time the call returns,
        # so the second snapshot is taken *inside* the solve, from the
        # cancel poll at its second restart boundary.
        snaps = []

        def snapshot_at_boundary(j):
            if j == 0:
                snaps.append(tracemalloc.take_snapshot())
            return False

        gc.collect()
        tracemalloc.start(5)
        try:
            snap1 = tracemalloc.take_snapshot()
            solver.solve_panel(B, tol=0.0, maxiter=10, cancel=snapshot_at_boundary)
        finally:
            tracemalloc.stop()
        assert solver.ws.misses == misses0, (
            "batched hot path allocated new arena buffers after warmup"
        )
        assert solver.ws.nbuffers == nbuf0
        assert solver.ws.hits > hits0
        # Mid-solve the (n, 4) solution panel is live — one vector per
        # column, the panel's per-solve iterate; nothing may exceed it
        # by more than one vector.
        offenders = [
            d
            for d in snaps[1].compare_to(snap1, "traceback")
            if d.size_diff > (4 + 1) * VECTOR_BYTES
        ]
        assert not offenders, "panel solve grew vector-sized sites:\n" + "\n".join(
            f"{d.size_diff / 1024:.1f} KB at " + " <- ".join(d.traceback.format()[-2:])
            for d in offenders
        )

    def test_vcycle_is_allocation_free_with_out(self, problem16):
        """The preconditioner alone: apply(out=...) reuses its arena."""
        from repro.mg import MGConfig, MultigridPreconditioner

        mg = MultigridPreconditioner.build(
            problem16, SerialComm(), MGConfig(), precision="fp32"
        )
        r = problem16.b.astype(np.float32)
        out = np.empty(problem16.nlocal, dtype=np.float32)
        mg.apply(r, out=out)  # warmup
        misses0 = mg.ws.misses
        for _ in range(5):
            mg.apply(r, out=out)
        assert mg.ws.misses == misses0
        # The defect's copy in the fine level's (color) order is one of
        # the pooled panels: asking for it again is an arena hit.
        assert mg.levels[0].smoother.order is not None
        mg.ws.get_panel("mg.panel.rlevel", problem16.nlocal, 1, np.float32)
        assert mg.ws.misses == misses0

    def test_distributed_operator_matvec_out(self, problem16):
        from repro.solvers.operator import DistributedOperator

        op = DistributedOperator(problem16.A, problem16.halo, SerialComm())
        x = problem16.b
        out = np.empty(problem16.nlocal)
        op.matvec(x, out=out)  # warmup
        op.residual(problem16.b, x, out=out)
        misses0 = op.ws.misses
        for _ in range(3):
            op.matvec(x, out=out)
            op.residual(problem16.b, x, out=out)
        assert op.ws.misses == misses0


def transient_peak(call) -> int:
    """Bytes ``call`` allocates *while it runs* (peak over the call
    minus what was live before it), warmed first.  The snapshot diffs
    above are taken after a call returns, so a temporary NumPy
    allocates and frees inside one kernel is invisible to them."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        call()  # once traced, so one-time tracing state is not counted
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestTransientAllocations:
    """PR 16: no hidden per-call temporaries in the warmed ELL hot path.

    ``np.take(x, A.cols)`` with int32 columns silently allocates an
    intp copy of the whole index block on every call (885 832 B for one
    16^3 SpMV before the chunk helper widened indices into pooled
    scratch).  64 KiB admits NumPy's fixed-size ufunc cast buffers and
    nothing that scales with the operand.
    """

    LIMIT = 64 * 1024

    @pytest.fixture(scope="class", params=["fp64", "fp32"])
    def operands(self, request, problem16):
        from repro.backends import Workspace
        from repro.mg import MGConfig, MultigridPreconditioner

        A = problem16.A.astype(request.param)
        rng = np.random.default_rng(0)
        ws = Workspace()
        mg = MultigridPreconditioner.build(
            problem16,
            SerialComm(),
            MGConfig(),
            precision=request.param,
            workspace=ws,
        )
        X = np.asfortranarray(rng.standard_normal((A.ncols, 4)).astype(A.dtype))
        return A, ws, mg, X

    def test_spmv(self, operands):
        from repro.backends import spmv

        A, ws, _, X = operands
        y = np.empty(A.nrows, dtype=A.dtype)
        assert transient_peak(lambda: spmv(A, X[:, 0], out=y, ws=ws)) < self.LIMIT

    def test_spmv_multi(self, operands):
        from repro.backends import spmv_multi

        A, ws, _, X = operands
        Y = np.empty((A.nrows, 4), dtype=A.dtype, order="F")
        assert transient_peak(lambda: spmv_multi(A, X, out=Y, ws=ws)) < self.LIMIT

    def test_smoother_sweep(self, operands):
        A, _, mg, X = operands
        r = X[: A.nrows, 1].copy()
        xfull = np.zeros(A.ncols, dtype=A.dtype)
        gs = mg.levels[0].smoother
        assert transient_peak(lambda: gs.forward(r, xfull)) < self.LIMIT

    def test_vcycle(self, operands):
        A, _, mg, X = operands
        r = X[: A.nrows, 2].copy()
        out = np.empty(A.nrows, dtype=A.dtype)
        assert transient_peak(lambda: mg.apply(r, out=out)) < self.LIMIT


#: One fp64 vector at 8^3 (the per-rank size of the distributed test).
VECTOR_BYTES_8 = 512 * 8


class TestDistributedLoopAllocations:
    """PR 3: the PR 1 zero-allocation property extended to the
    distributed loop — halo packing, transport and receives included.

    A per-iteration transport leak (e.g. a message buffer that stops
    recycling) would grow by hundreds of KB over the measured solve;
    the threshold admits only a few vectors' worth of noise.
    """

    def test_distributed_halo_loop_no_vector_growth(self):
        """tracemalloc across a 2-rank solve: no allocation
        site grows beyond a few vectors after warmup (all rank threads
        are inside the measurement window)."""
        from repro.fp import MIXED_DS_POLICY
        from repro.geometry import BoxGrid, ProcessGrid, Subdomain
        from repro.mg import MGConfig
        from repro.parallel import run_spmd
        from repro.solvers import GMRESIRSolver
        from repro.stencil import generate_problem

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            solver = GMRESIRSolver(
                prob,
                comm,
                policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2),
            )
            solver.solve(prob.b, tol=0.0, maxiter=10)  # warmup
            comm.barrier()
            snap1 = None
            if comm.rank == 0:
                gc.collect()
                tracemalloc.start(10)
                snap1 = tracemalloc.take_snapshot()
            comm.barrier()
            solver.solve(prob.b, tol=0.0, maxiter=32)
            comm.barrier()
            if comm.rank != 0:
                return []
            snap2 = tracemalloc.take_snapshot()
            tracemalloc.stop()
            diff = snap2.compare_to(snap1, "traceback")
            return [
                f"{d.size_diff / 1024:.1f} KB (+{d.count_diff}) at "
                + " <- ".join(d.traceback.format()[-2:])
                for d in diff
                if d.size_diff > 4 * VECTOR_BYTES_8
            ]

        offenders = run_spmd(2, fn)[0]
        assert not offenders, (
            "distributed loop grew vector-sized allocation sites:\n"
            + "\n".join(offenders)
        )

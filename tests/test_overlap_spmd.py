"""Overlap correctness on the thread-SPMD runtime.

Acceptance (ISSUE 3): the overlapped interior/boundary SpMV is
bitwise-equal (fp64) / tolerance-equal (fp32) to the
non-overlapped path at 1, 2, and 8 SPMD ranks, and the distributed
halo loop is allocation-free after warmup.

Rank counts come from the ``REPRO_RANKS`` environment variable (a
single count or a comma-separated list; the CI distributed matrix legs
set 1, 2 and 8), defaulting to ``1,2,4`` for local runs.
"""

import os

import numpy as np
import pytest
from helpers_distributed import RUNG_TOLS as TOLS
from helpers_distributed import smooth_vector as smooth_local_vector

from repro.fp import MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.parallel import SerialComm, run_spmd
from repro.solvers import GMRESIRSolver
from repro.solvers.operator import DistributedOperator
from repro.sparse import to_format, to_precision
from repro.stencil import generate_problem


def spmd_rank_counts() -> list[int]:
    """Rank counts under test (``REPRO_RANKS`` env override)."""
    env = os.environ.get("REPRO_RANKS", "").strip()
    if env:
        return [int(tok) for tok in env.replace(",", " ").split()]
    return [1, 2, 4]


RANKS = spmd_rank_counts()


def run_ranks(nranks: int, fn) -> list:
    """Run ``fn(comm)`` on the SPMD runtime (serial comm at p=1)."""
    if nranks == 1:
        return [fn(SerialComm())]
    return run_spmd(nranks, fn)


class TestOverlappedSpMV:
    @pytest.mark.parametrize("nranks", RANKS)
    def test_fp64_bitwise_equal_to_sequential(self, nranks):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            op = DistributedOperator(prob.A, prob.halo, comm, overlap=True)
            x = smooth_local_vector(sub)
            return bool(
                np.array_equal(op.matvec_overlapped(x), op.matvec_sequential(x))
            )

        assert all(run_ranks(nranks, fn))

    @pytest.mark.parametrize("nranks", RANKS)
    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize("prec", ["fp64", "fp32"])
    def test_cross_rank_parity_vs_serial_reference(self, nranks, fmt, prec):
        """Partitioned overlapped SpMV at p ranks == serial fp64 SpMV
        on the assembled global problem, to rung tolerance — for every
        format and every ladder rung."""
        pg = ProcessGrid.from_size(nranks)
        local = (4, 4, 4)

        def fn(comm):
            sub = Subdomain(BoxGrid(*local), pg, comm.rank)
            prob = generate_problem(sub)
            A = to_precision(to_format(prob.A, fmt), prec)
            op = DistributedOperator(A, prob.halo, comm, overlap=True)
            x = smooth_local_vector(sub).astype(A.dtype)
            y = op.matvec(x)  # overlapped schedule
            gx, gy, gz = sub.global_coords()
            gids = sub.global_grid.linear_index(gx, gy, gz)
            return np.asarray(y, dtype=np.float64), gids

        results = run_ranks(nranks, fn)

        serial = generate_problem(
            Subdomain.serial(
                local[0] * pg.px, local[1] * pg.py, local[2] * pg.pz
            )
        )
        ys = serial.A.spmv(smooth_local_vector(serial.sub))
        rtol, atol = TOLS[prec]
        for y, gids in results:
            np.testing.assert_allclose(y, ys[gids], rtol=rtol, atol=atol)

    @pytest.mark.parametrize("nranks", RANKS)
    def test_overlap_matches_row_subset_split(self, nranks):
        """The partitioned overlap agrees with the independent
        ``spmv_rows``-based split implementation."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            op = DistributedOperator(prob.A, prob.halo, comm, overlap=True)
            x = smooth_local_vector(sub)
            a = op.matvec_overlapped(x)
            b = op.matvec_split(x)
            return bool(np.allclose(a, b, rtol=1e-14))

        assert all(run_ranks(nranks, fn))


class TestOverlappedSolver:
    @pytest.mark.parametrize("nranks", RANKS)
    def test_solver_bitwise_equal_with_and_without_overlap(self, nranks):
        """End-to-end GMRES-IR: the overlap changes communication
        scheduling only, so the mxp solve is bitwise-reproducible."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            x_ov, st_ov = GMRESIRSolver(
                prob,
                comm,
                policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2),
                overlap=True,
            ).solve(prob.b, tol=1e-9, maxiter=300)
            x_no, st_no = GMRESIRSolver(
                prob,
                comm,
                policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2),
                overlap=False,
            ).solve(prob.b, tol=1e-9, maxiter=300)
            return (
                st_ov.converged,
                st_no.converged,
                st_ov.iterations == st_no.iterations,
                bool(np.array_equal(x_ov, x_no)),
            )

        for rec in run_ranks(nranks, fn):
            assert rec == (True, True, True, True)


class TestDistributedHaloAllocations:
    @pytest.mark.parametrize("nranks", RANKS)
    def test_workspace_arena_stable_after_warmup(self, nranks):
        """The overlapped distributed loop allocates no new arena
        buffers after the warmup solve — at every rank count."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            solver = GMRESIRSolver(
                prob,
                comm,
                policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2),
                overlap=True,
            )
            solver.solve(prob.b, tol=0.0, maxiter=10)  # warmup
            misses0 = solver.ws.misses
            hits0 = solver.ws.hits
            solver.solve(prob.b, tol=0.0, maxiter=32)
            return solver.ws.misses - misses0, solver.ws.hits - hits0

        for dmiss, dhits in run_ranks(nranks, fn):
            assert dmiss == 0
            assert dhits > 0

    def test_transport_buffers_recycle(self):
        """recv_into returns message buffers to the channel free-list,
        so a steady exchange loop stops allocating transport buffers."""

        def fn(comm):
            if comm.rank == 0:
                payload = np.arange(64.0)
                for _ in range(5):
                    comm.send(payload, 1, tag=7)
                    comm.recv_into(1, tag=8, out=payload[:8])
                return True
            out = np.empty(64)
            seen = set()
            for _ in range(5):
                comm.recv_into(0, tag=7, out=out)
                comm.send(out[:8], 0, tag=8)
                seen.add(out[0])
            return len(seen)

        assert run_spmd(2, fn)[1] == 1  # same data every round

    def test_freelists_keyed_per_message_species(self):
        """fp64 and fp32 messages interleaved on the same tag (the
        outer and inner operators share halo tags) each recycle their
        own buffer instead of evicting each other's, and the payloads
        stay intact."""

        def fn(comm):
            peer = 1 - comm.rank
            a64 = np.full(32, float(comm.rank))
            a32 = np.full(8, comm.rank, dtype=np.float32)
            o64 = np.empty(32)
            o32 = np.empty(8, dtype=np.float32)
            ok = True
            for _ in range(4):
                comm.send(a64, peer, tag=5)
                comm.send(a32, peer, tag=5)
                comm.recv_into(peer, 5, o64)
                comm.recv_into(peer, 5, o32)
                ok &= o64[0] == peer and o32[0] == peer
                ok &= o64.dtype == np.float64 and o32.dtype == np.float32
            return ok

        assert all(run_spmd(2, fn))

    def test_recv_into_size_mismatch_raises(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.ones(4), 1, tag=3)
                return True
            out = np.empty(8)
            try:
                comm.recv_into(0, tag=3, out=out)
            except RuntimeError as exc:
                return "mismatch" in str(exc)
            return False

        assert all(run_spmd(2, fn))

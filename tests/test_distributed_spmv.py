"""Distributed SpMV on the thread-SPMD runtime.

Every distributed product is one blocking halo exchange followed by the
whole-matrix kernel.  At 1, 2 and 8 SPMD ranks (``REPRO_RANKS``;
``1,2,4`` locally) it matches the serial product on the assembled
global problem — bitwise-close at fp64, to rung tolerance at fp32, for
every format — the solver takes no option that would schedule it
otherwise, and the distributed loop allocates nothing after warmup.
"""

import numpy as np
import pytest
from helpers_distributed import RANKS, run_ranks
from helpers_distributed import RUNG_TOLS as TOLS
from helpers_distributed import smooth_vector as smooth_local_vector

from repro.fp import MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig, MultigridPreconditioner
from repro.parallel import SerialComm, run_spmd
from repro.solvers import GMRESIRSolver
from repro.solvers.operator import DistributedOperator
from repro.sparse import to_format, to_precision
from repro.stencil import generate_problem


class TestDistributedSpMV:
    @pytest.mark.parametrize("nranks", RANKS)
    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize("prec", ["fp64", "fp32"])
    def test_cross_rank_parity_vs_serial_reference(self, nranks, fmt, prec):
        """Distributed SpMV at p ranks == serial fp64 SpMV on the
        assembled global problem, to rung tolerance — for every format
        and every ladder rung."""
        pg = ProcessGrid.from_size(nranks)
        local = (4, 4, 4)

        def fn(comm):
            sub = Subdomain(BoxGrid(*local), pg, comm.rank)
            prob = generate_problem(sub)
            A = to_precision(to_format(prob.A, fmt), prec)
            op = DistributedOperator(A, prob.halo, comm)
            x = smooth_local_vector(sub).astype(A.dtype)
            y = op.matvec(x)
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

class TestNoScheduleKnob:
    @pytest.mark.parametrize("knob", ["overlap", "overlap_symgs"])
    def test_solver_and_operator_take_no_overlap_option(self, knob):
        """Serial and SPMD solves run the one blocking schedule; nothing
        selects another."""
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        with pytest.raises(TypeError, match=knob):
            GMRESIRSolver(prob, SerialComm(), **{knob: True})
        with pytest.raises(TypeError, match=knob):
            DistributedOperator(prob.A, prob.halo, SerialComm(), **{knob: True})
        with pytest.raises(TypeError, match=knob):
            MultigridPreconditioner.build(prob, SerialComm(), **{knob: True})


class TestDistributedHaloAllocations:
    @pytest.mark.parametrize("nranks", RANKS)
    def test_workspace_arena_stable_after_warmup(self, nranks):
        """The distributed loop allocates no new arena buffers after
        the warmup solve — at every rank count."""

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

"""Integration tests: halo exchange and the distributed operator."""

import numpy as np
import pytest
from helpers_distributed import RANKS, run_ranks

from repro.fp import MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.parallel import HaloExchange, SerialComm, run_spmd
from repro.solvers import DistributedOperator, GMRESIRSolver
from repro.stencil import generate_problem


def global_test_vector(sub):
    """A vector whose value encodes the global coordinate."""
    gx, gy, gz = sub.global_coords()
    return (gx + 100.0 * gy + 10000.0 * gz).astype(np.float64)


class TestHaloExchange:
    def test_ghosts_receive_global_values(self):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            halo = HaloExchange(prob.halo, comm)
            xfull = halo.full_vector(global_test_vector(sub))
            halo.exchange(xfull)
            # Check each ghost block holds the neighbor's boundary data.
            ok = True
            n = sub.nlocal
            for d in prob.halo.directions:
                off = prob.halo.ghost_offsets[d]
                cnt = prob.halo.ghost_counts[d]
                got = xfull[n + off : n + off + cnt]
                from repro.geometry.halo import opposite_direction

                nb = prob.halo.neighbor_ranks[d]
                nb_sub = Subdomain(BoxGrid(4, 4, 4), pg, nb)
                nb_x = global_test_vector(nb_sub)
                nb_halo = generate_problem(nb_sub).halo
                expected = nb_x[nb_halo.send_indices[opposite_direction(d)]]
                ok &= np.array_equal(got, expected)
            return ok

        assert all(run_spmd(8, fn))

    def test_renumbered_plan_ships_the_same_ghosts(self):
        """Owned rows stored in a permuted order (each rank its own)
        behind a re-indexed send plan: every ghost tail is the one the
        natural-order exchange fills."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            n = sub.nlocal
            natural = HaloExchange(prob.halo, comm)
            x = natural.full_vector(global_test_vector(sub))
            natural.exchange(x)
            order = np.random.default_rng(comm.rank).permutation(n)
            rank = np.empty_like(order)
            rank[order] = np.arange(n)
            permuted = HaloExchange(prob.halo, comm)
            permuted.renumber(rank)
            y = permuted.full_vector(x[:n][order])
            permuted.exchange(y)
            return bool(np.array_equal(y[n:], x[n:])) and bool(y[n:].any())

        assert all(run_spmd(8, fn))

    def test_exchange_counts_messages(self):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            halo = HaloExchange(prob.halo, comm)
            xfull = halo.full_vector(np.ones(sub.nlocal))
            halo.exchange(xfull)
            return (comm.stats.sends, comm.stats.recvs, halo.num_neighbors)

        for sends, recvs, nbrs in run_spmd(8, fn):
            assert sends == recvs == nbrs == 7  # 2x2x2 corner ranks

    def test_serial_exchange_is_noop(self):
        prob = generate_problem(Subdomain.serial(4))
        halo = HaloExchange(prob.halo, SerialComm())
        xfull = halo.full_vector(np.ones(64))
        halo.exchange(xfull)  # must not raise
        assert halo.num_neighbors == 0

    def test_exchange_bytes_accounting(self):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            halo = HaloExchange(prob.halo, comm)
            xfull = halo.full_vector(np.ones(sub.nlocal))
            halo.exchange(xfull)
            return comm.stats.send_bytes == halo.exchange_bytes(8)

        assert all(run_spmd(8, fn))

    def test_fp32_exchange(self):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            halo = HaloExchange(prob.halo, comm)
            x32 = global_test_vector(sub).astype(np.float32)
            xfull = halo.full_vector(x32)
            halo.exchange(xfull)
            return xfull.dtype == np.float32 and np.isfinite(xfull).all()

        assert all(run_spmd(8, fn))


class TestDistributedOperator:
    def test_matches_serial_spmv(self):
        serial = generate_problem(Subdomain.serial(8, 8, 8))
        x_serial = global_test_vector(serial.sub)
        y_serial = serial.A.spmv(x_serial)

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            op = DistributedOperator(prob.A, prob.halo, comm)
            y = op.matvec(global_test_vector(sub))
            gx, gy, gz = sub.global_coords()
            gids = sub.global_grid.linear_index(gx, gy, gz)
            return np.allclose(y, y_serial[gids], rtol=1e-13)

        assert all(run_spmd(8, fn))

    def test_csr_operator_matches_ell(self):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            op_ell = DistributedOperator(prob.A, prob.halo, comm)
            op_csr = DistributedOperator(prob.A.to_csr(), prob.halo, comm)
            x = global_test_vector(sub)
            return np.allclose(op_ell.matvec(x), op_csr.matvec(x), rtol=1e-13)

        assert all(run_spmd(2, fn))

    def test_residual(self, problem16, comm):
        op = DistributedOperator(problem16.A, problem16.halo, comm)
        r = op.residual(problem16.b, np.ones(problem16.nlocal))
        np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_nonuniform_process_grid(self):
        """1D strip decomposition exercises face-only halos."""
        serial = generate_problem(Subdomain.serial(12, 4, 4))
        x_serial = global_test_vector(serial.sub)
        y_serial = serial.A.spmv(x_serial)

        def fn(comm):
            pg = ProcessGrid(3, 1, 1)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            op = DistributedOperator(prob.A, prob.halo, comm)
            y = op.matvec(global_test_vector(sub))
            gx, gy, gz = sub.global_coords()
            gids = sub.global_grid.linear_index(gx, gy, gz)
            return np.allclose(y, y_serial[gids], rtol=1e-13)

        assert all(run_spmd(3, fn))


class TestHaloCounters:
    def test_blocking_exchange_counts_one_round(self):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            ex = HaloExchange(prob.halo, comm)
            xf = np.zeros(prob.A.ncols)
            ex.exchange(xf)
            return ex.seconds, ex.exchanges, ex.messages, ex.sent_bytes

        for secs, n, msgs, nbytes in run_spmd(2, fn):
            assert n == 1
            assert secs > 0
            assert msgs == 1  # one neighbor on a 2x1x1 grid
            assert nbytes == 16 * 8  # one 4x4 face of float64

    def test_counters_reset(self):
        prob = generate_problem(Subdomain.serial(4, 4, 4))
        ex = HaloExchange(prob.halo, SerialComm())
        ex.seconds, ex.exchanges, ex.messages, ex.sent_bytes = 1.0, 2, 3, 4
        ex.reset_counters()
        assert ex.seconds == 0.0
        assert ex.exchanges == ex.messages == ex.sent_bytes == 0

    @pytest.mark.parametrize("nranks", RANKS[:2])
    def test_solver_exposed_seconds_are_its_halo_seconds(self, nranks):
        """Every exchange blocks, so no halo second is hidden."""

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
            solver.solve(prob.b, tol=0.0, maxiter=5)
            return solver.halo_exposed_seconds(), solver.halo_seconds()

        for exposed, total in run_ranks(nranks, fn):
            assert exposed == total
            assert (total > 0) == (nranks > 1)

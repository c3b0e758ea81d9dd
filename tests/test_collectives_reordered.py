"""Tests: software collectives and surface-to-volume scaling."""

import numpy as np
import pytest

from repro.parallel import run_spmd
from repro.parallel.collectives import (
    ALLREDUCE_ALGORITHMS,
    allreduce_recursive_doubling,
    allreduce_ring,
    message_counts,
    software_allreduce,
)


class TestSoftwareAllreduce:
    @pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_matches_rendezvous(self, algorithm, p):
        fn = ALLREDUCE_ALGORITHMS[algorithm]

        def worker(comm):
            rng = np.random.default_rng(comm.rank)
            local = rng.standard_normal(40)
            soft = fn(comm, local)
            hard = comm.allreduce(local)
            return float(np.abs(soft - hard).max())

        errs = run_spmd(p, worker)
        assert max(errs) < 1e-12

    @pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
    def test_single_rank_identity(self, algorithm):
        fn = ALLREDUCE_ALGORITHMS[algorithm]

        def worker(comm):
            x = np.arange(5.0)
            return np.array_equal(fn(comm, x), x)

        assert run_spmd(1, worker) == [True]

    def test_ring_handles_uneven_chunks(self):
        """n not divisible by p (linspace chunking)."""

        def worker(comm):
            local = np.full(10, float(comm.rank + 1))  # 10 % 4 != 0
            out = allreduce_ring(comm, local)
            return np.allclose(out, 1 + 2 + 3 + 4)

        assert all(run_spmd(4, worker))

    def test_recursive_doubling_rejects_nonpower(self):
        def worker(comm):
            allreduce_recursive_doubling(comm, np.ones(4))

        with pytest.raises(RuntimeError, match="power-of-two"):
            run_spmd(3, worker)

    @pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
    def test_dispatcher_falls_back_at_p3(self, algorithm):
        """The dispatcher serves non-power-of-two rank counts via the
        rendezvous all-reduce instead of erroring (a real MPI switches
        algorithms; it never fails the collective)."""

        def worker(comm):
            rng = np.random.default_rng(comm.rank)
            local = rng.standard_normal(24)
            soft = software_allreduce(comm, local, algorithm=algorithm)
            hard = comm.allreduce(local)
            return float(np.abs(soft - hard).max())

        errs = run_spmd(3, worker)
        assert max(errs) < 1e-12

    @pytest.mark.parametrize("p", [2, 4])
    def test_dispatcher_uses_algorithm_at_powers_of_two(self, p):
        """At power-of-two counts the dispatcher runs the requested
        algorithm (same pairing order => identical result)."""

        def worker(comm):
            rng = np.random.default_rng(comm.rank)
            local = rng.standard_normal(16)
            via_dispatch = software_allreduce(
                comm, local, algorithm="recursive_doubling"
            )
            direct = allreduce_recursive_doubling(comm, local)
            return bool(np.array_equal(via_dispatch, direct))

        assert all(run_spmd(p, worker))

    def test_dispatcher_unknown_algorithm(self):
        from repro.parallel import SerialComm

        with pytest.raises(ValueError, match="unknown algorithm"):
            software_allreduce(SerialComm(), np.ones(4), algorithm="nope")

    def test_all_ranks_identical_result(self):
        def worker(comm):
            rng = np.random.default_rng(comm.rank + 100)
            return allreduce_recursive_doubling(comm, rng.standard_normal(16))

        results = run_spmd(8, worker)
        for r in results[1:]:
            assert np.array_equal(r, results[0])


class TestCollectiveCostModel:
    def test_recursive_doubling_latency_optimal(self):
        rd = message_counts("recursive_doubling", 64)
        ring = message_counts("ring", 64)
        assert rd["messages"] < ring["messages"]

    def test_ring_bandwidth_optimal(self):
        rd = message_counts("recursive_doubling", 64)
        ring = message_counts("ring", 64)
        assert ring["volume"] < rd["volume"]

    def test_rabenseifner_best_of_both(self):
        """log messages AND (p-1)/p-scaled volume — why the network
        model's large-message formula uses it."""
        rab = message_counts("rabenseifner", 64)
        rd = message_counts("recursive_doubling", 64)
        ring = message_counts("ring", 64)
        assert rab["messages"] <= 2 * rd["messages"]
        assert rab["volume"] == pytest.approx(ring["volume"])

    def test_serial_free(self):
        for alg in ALLREDUCE_ALGORITHMS:
            c = message_counts(alg, 1)
            assert c["messages"] == 0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            message_counts("butterfly", 8)


class TestSurfaceToVolumeScaling:
    def test_comm_scales_as_two_thirds_power(self):
        """§2: local compute is O(nu), communication O(nu^(2/3)).

        Measured with real comm.stats over growing local boxes on a
        fixed 8-rank grid: bytes per exchange must scale like n^2 while
        rows scale like n^3.
        """
        from repro.geometry import BoxGrid, ProcessGrid, Subdomain
        from repro.parallel import HaloExchange
        from repro.stencil import generate_problem

        def measure(n):
            def worker(comm):
                pg = ProcessGrid.from_size(comm.size)
                sub = Subdomain(BoxGrid(n, n, n), pg, comm.rank)
                prob = generate_problem(sub)
                halo = HaloExchange(prob.halo, comm)
                xfull = halo.full_vector(np.ones(sub.nlocal))
                halo.exchange(xfull)
                return comm.stats.send_bytes

            return max(run_spmd(8, worker))

        b4, b8 = measure(4), measure(8)
        ratio = b8 / b4
        # Surface scaling: doubling n should ~quadruple bytes (x4),
        # far below the x8 volume scaling.
        assert 3.0 < ratio < 5.5

"""Message-layer faults: deadlines, typed timeouts, FaultyComm.

Acceptance contracts under test:

- a receive that misses its deadline raises a typed, diagnosable
  :class:`~repro.parallel.comm.CommTimeoutError` (rank, source, tag,
  seconds) on every API that waits (``recv``, ``recv_into``,
  ``RecvRequest.wait``) — never a silent multi-rank hang;
- a dropped halo message surfaces as a ``CommTimeoutError`` on the
  waiting rank within the exchange deadline while the unaffected
  ranks complete normally;
- ``corrupt``/``delay``/``straggle`` faults perturb the transport
  without deadlocking it;
- the halo sequence tags rotate through their window so a delayed
  round-``k`` message can never satisfy a round-``k+1`` receive.

Rank counts come from ``REPRO_RANKS`` (the CI resilience matrix legs
set 1, 2 and 8), defaulting to ``1,2,4`` for local runs.
"""

import os
import time

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES

from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.parallel import CommTimeoutError, HaloExchange, run_spmd
from repro.parallel.halo_exchange import HALO_SEQ_STRIDE, HALO_SEQ_WINDOW
from repro.resilience import FaultyComm, parse_fault_spec
from repro.resilience.faults import FAULT_DELAY_SECONDS
from repro.stencil import generate_problem


def spmd_rank_counts() -> list[int]:
    """Rank counts under test (``REPRO_RANKS`` env override)."""
    env = os.environ.get("REPRO_RANKS", "").strip()
    if env:
        return [int(tok) for tok in env.replace(",", " ").split()]
    return [1, 2, 4]


RANKS = spmd_rank_counts()
MULTI_RANKS = [n for n in RANKS if n > 1] or [2]

pytestmark = BOTH_CLASSES  # the transport must not care which kernels run

#: Generous bound on how late past its deadline a timeout may surface
#: (thread scheduling on loaded CI runners).
SLACK = 2.0


def make_exchange(comm, deadline=None, injector=None):
    """One rank's 4^3 problem + halo exchange, optionally faulty."""
    pg = ProcessGrid.from_size(comm.size)
    sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
    prob = generate_problem(sub)
    use = comm if injector is None else FaultyComm(comm, injector)
    halo = HaloExchange(prob.halo, use, deadline=deadline)
    xfull = halo.full_vector(np.arange(sub.nlocal, dtype=np.float64))
    return halo, xfull


class TestCommTimeoutError:
    def test_attributes_and_message(self):
        exc = CommTimeoutError(3, 1, 42, 0.5)
        assert (exc.rank, exc.source, exc.tag, exc.seconds) == (3, 1, 42, 0.5)
        msg = str(exc)
        assert "rank 3" in msg and "src=1" in msg and "tag=42" in msg
        assert isinstance(exc, RuntimeError)

    def test_recv_times_out(self):
        def fn(comm):
            if comm.rank != 1:
                return None
            t0 = time.perf_counter()
            try:
                comm.recv(0, 99, timeout=0.05)
            except CommTimeoutError as exc:
                return (time.perf_counter() - t0, exc.rank, exc.source)
            return "no timeout"

        _, got = run_spmd(2, fn)
        elapsed, rank, source = got
        assert (rank, source) == (1, 0)
        assert 0.05 <= elapsed < 0.05 + SLACK

    def test_recv_into_times_out(self):
        def fn(comm):
            if comm.rank != 1:
                return True
            out = np.zeros(4)
            try:
                comm.recv_into(0, 99, out, timeout=0.05)
            except CommTimeoutError:
                return True
            return False

        assert all(run_spmd(2, fn))

    def test_irecv_wait_times_out(self):
        def fn(comm):
            if comm.rank != 1:
                return True
            req = comm.irecv(0, 99, timeout=0.05)
            try:
                req.wait()
            except CommTimeoutError:
                return True
            return False

        assert all(run_spmd(2, fn))

    def test_late_message_still_arrives_within_deadline(self):
        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.05)
                comm.send(np.full(3, 7.0), dest=1, tag=5)
                return True
            got = comm.recv(0, 5, timeout=5.0)
            return bool(np.all(got == 7.0))

        assert all(run_spmd(2, fn))


class TestDroppedHalo:
    @pytest.mark.parametrize("nranks", MULTI_RANKS)
    def test_drop_raises_typed_timeout_within_deadline(self, nranks):
        """One dropped message -> exactly one rank times out, typed,
        within the deadline; everyone else completes."""
        plan = parse_fault_spec("halo:drop;seed=3")
        deadline = 0.25

        def fn(comm):
            halo, xfull = make_exchange(
                comm, deadline=deadline, injector=plan.injector(comm.rank)
            )
            t0 = time.perf_counter()
            try:
                halo.exchange(xfull)
            except CommTimeoutError as exc:
                return ("timeout", time.perf_counter() - t0, exc.seconds)
            return ("ok", time.perf_counter() - t0, None)

        results = run_spmd(nranks, fn)
        outcomes = [r[0] for r in results]
        assert outcomes.count("timeout") == 1
        for outcome, elapsed, seconds in results:
            if outcome == "timeout":
                assert seconds == deadline
                assert elapsed < deadline + SLACK

    @pytest.mark.parametrize("nranks", MULTI_RANKS)
    def test_corrupt_and_delay_complete_without_deadlock(self, nranks):
        plan = parse_fault_spec("halo:corrupt;halo:delay;seed=5")

        def fn(comm):
            injector = plan.injector(comm.rank)
            halo, xfull = make_exchange(
                comm, deadline=5.0, injector=injector
            )
            # Two rounds: at p=2 the victim posts only one message per
            # exchange, so the second clause drains on round two.
            halo.exchange(xfull)  # must not raise
            halo.exchange(xfull)
            return injector.stats.injected_total

        results = run_spmd(nranks, fn)
        # Both faults fire on the victim rank (rank 0) only.
        assert results[0] == 2
        assert all(r == 0 for r in results[1:])

    @pytest.mark.parametrize("nranks", MULTI_RANKS)
    def test_corrupted_payload_differs_from_clean_exchange(self, nranks):
        plan = parse_fault_spec("halo:corrupt;seed=5")

        def fn(comm):
            halo, xfull = make_exchange(comm, deadline=5.0)
            halo.exchange(xfull)
            bad_halo, bad_xfull = make_exchange(
                comm, deadline=5.0, injector=plan.injector(comm.rank)
            )
            bad_halo.exchange(bad_xfull)
            return bool(np.array_equal(xfull, bad_xfull))

        results = run_spmd(nranks, fn)
        # Exactly one receiver of rank 0's corrupted message sees a
        # perturbed ghost block; owned values never change.
        assert results.count(False) == 1

    @pytest.mark.parametrize("nranks", MULTI_RANKS)
    def test_straggler_delays_collective(self, nranks):
        plan = parse_fault_spec("halo:straggle;seed=1")

        def fn(comm):
            injector = plan.injector(comm.rank)
            fcomm = FaultyComm(comm, injector)
            # Start every rank's clock together (on the undecorated
            # communicator: a barrier is itself a straggle site) — a
            # rank thread scheduled late would otherwise wait out less
            # than the full sleep.
            comm.barrier()
            t0 = time.perf_counter()
            total = fcomm.allreduce(1.0)
            return total, time.perf_counter() - t0

        results = run_spmd(nranks, fn)
        assert all(total == nranks for total, _ in results)
        # The straggle sleep happens before the collective, so every
        # rank waits out the slow one.
        assert all(
            elapsed >= FAULT_DELAY_SECONDS for _, elapsed in results
        )


class TestSequenceTags:
    def test_seq_offsets_rotate_through_window(self, problem16):
        from repro.parallel import SerialComm

        halo = HaloExchange(problem16.halo, SerialComm())
        offs = [halo._seq_offset() for _ in range(HALO_SEQ_WINDOW + 1)]
        assert offs[:HALO_SEQ_WINDOW] == [
            HALO_SEQ_STRIDE * k for k in range(HALO_SEQ_WINDOW)
        ]
        assert offs[HALO_SEQ_WINDOW] == offs[0]

    @pytest.mark.parametrize("nranks", MULTI_RANKS)
    def test_repeated_exchanges_stay_correct(self, nranks):
        """Several rounds over one exchange object: the rotating tags
        must keep every round's ghosts consistent with a fresh
        single-round exchange."""

        def fn(comm):
            halo, xfull = make_exchange(comm)
            reference = xfull.copy()
            ref_halo, _ = make_exchange(comm)
            ref_halo.exchange(reference)
            ok = True
            for _ in range(HALO_SEQ_WINDOW + 2):
                xfull[halo.nlocal :] = -1.0  # poison ghosts
                halo.exchange(xfull)
                ok &= np.array_equal(xfull, reference)
            return ok

        assert all(run_spmd(nranks, fn))

"""Asyncio load smoke for the solver service (PR 8, CI `service` leg).

The service under adversarial concurrency rather than the happy path:
one burst mixing per-request precision knobs (splits into per-ladder
panels, both bitwise-faithful), forced workspace-pool exhaustion
(deterministic rejection of the second batch, then a successful
retry), and cancellation racing a live panel (no arena lease may
leak).  Every scenario closes with the conservation law
``accepted == completed + cancelled + timed_out + pool_rejections``
and an idle pool.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys

import numpy as np
import pytest
from helpers_distributed import use_backend

from repro.backends import scipy_backend
from repro.backends.workspace import WorkspacePool
from repro.fp.policy import DOUBLE_POLICY, PrecisionPolicy
from repro.mg import MGConfig
from repro.parallel import SerialComm
from repro.service import (
    ServiceOverloadedError,
    SolveRequest,
    SolverService,
)
from repro.solvers import GMRESIRSolver

LADDER = "fp32:fp64"


def make_service(**kw) -> SolverService:
    kw.setdefault("batch_window", 0.05)
    kw.setdefault("max_panel", 8)
    kw.setdefault("mg_config", MGConfig(nlevels=2))
    kw.setdefault("restart", 10)
    return SolverService(**kw)


def solo_solve(problem, b, ladder=None, tol=0.0, maxiter=20):
    policy = PrecisionPolicy.from_ladder(ladder) if ladder else DOUBLE_POLICY
    solver = GMRESIRSolver(
        problem,
        SerialComm(),
        policy=policy,
        mg_config=MGConfig(nlevels=2),
        restart=10,
        ortho="cgs2",
        matrix_format="ell",
    )
    return solver.solve(b, tol=tol, maxiter=maxiter)


def rhs(b: np.ndarray, j: int) -> np.ndarray:
    return b * (1.0 + 0.5 * j)


def assert_conserved(svc: SolverService, pool_rejections: int = 0) -> None:
    """Every accepted request resolved exactly one way; pool is idle."""
    m = svc.metrics
    assert m.accepted == m.completed + m.cancelled + m.timed_out + pool_rejections
    assert svc.pool.leased == 0


def test_mixed_precision_burst_splits_and_stays_bitwise(problem16):
    """4 double + 4 mixed-ladder clients in one burst: two panels,
    each client bitwise-equal to its solo solve."""
    ladders = [None, LADDER] * 4  # interleaved arrival order

    async def drive():
        async with make_service() as svc:
            fp = svc.register_operator(problem16)
            resps = await asyncio.gather(
                *(
                    svc.solve(
                        SolveRequest(
                            operator=fp,
                            b=rhs(problem16.b, j),
                            ladder=ladders[j],
                            tol=0.0,
                            maxiter=15,
                        )
                    )
                    for j in range(8)
                )
            )
            return resps, svc

    resps, svc = asyncio.run(drive())
    assert svc.metrics.batches == 2
    assert sorted(svc.metrics.widths) == [4, 4]
    for j, resp in enumerate(resps):
        assert resp.coalesce_width == 4
        x_solo, _ = solo_solve(
            problem16, rhs(problem16.b, j), ladder=ladders[j], maxiter=15
        )
        assert np.array_equal(resp.x, x_solo), f"client {j} diverged"
    assert_conserved(svc)
    assert svc.metrics.completed == 8


def test_forced_pool_exhaustion_then_retry(problem8, problem16):
    """Two operators' batches race one arena: the second is rejected
    with retry-after (never buffered), and its clients succeed on
    retry once the arena frees up.  (A second batch of the *same*
    operator queues behind the first instead:
    ``test_queued_batch_holds_no_arena``.)"""
    pool = WorkspacePool("load-test", max_arenas=1)
    problems = [problem16] * 4 + [problem8] * 4

    async def drive():
        async with make_service(pool=pool, retry_after=0.02) as svc:
            fps = {id(p): svc.register_operator(p) for p in (problem16, problem8)}
            reqs = [
                SolveRequest(operator=fps[id(p)], b=rhs(p.b, j), tol=0.0, maxiter=10)
                for j, p in enumerate(problems)
            ]
            # One burst, two operators: the batcher launches two
            # batches back-to-back; the first leases the only arena
            # before it suspends into its solve thread, so the second's
            # try_acquire deterministically fails.
            results = await asyncio.gather(
                *(svc.solve(q) for q in reqs), return_exceptions=True
            )
            rejected = [
                j
                for j, r in enumerate(results)
                if isinstance(r, ServiceOverloadedError)
            ]
            # Exactly one whole key-group bounced; no partial batches.
            assert len(rejected) == 4
            assert len({reqs[j].operator for j in rejected}) == 1
            assert all(results[j].retry_after == 0.02 for j in rejected)
            await asyncio.sleep(results[rejected[0]].retry_after)
            retried = await asyncio.gather(*(svc.solve(reqs[j]) for j in rejected))
            return results, rejected, retried, svc

    results, rejected, retried, svc = asyncio.run(drive())
    assert pool.exhaustions == 1
    assert pool.leased == 0
    # Retried clients and first-round survivors are all bitwise-faithful.
    for j, resp in zip(rejected, retried):
        x_solo, _ = solo_solve(problems[j], rhs(problems[j].b, j), maxiter=10)
        assert np.array_equal(resp.x, x_solo)
    survivors = [j for j in range(8) if j not in rejected]
    for j in survivors[:1]:
        x_solo, _ = solo_solve(problems[j], rhs(problems[j].b, j), maxiter=10)
        assert np.array_equal(results[j].x, x_solo)
    assert_conserved(svc, pool_rejections=4)
    assert svc.metrics.completed == 8  # 4 survivors + 4 retries


@pytest.mark.parametrize("order", ["aab", "aba"])
def test_queued_batch_holds_no_arena(problem8, problem16, order):
    """Two batches of one operator (two compatibility keys) and one of
    another, two arenas, in either arrival order: the second
    same-operator batch queues behind the first without a lease, so
    the other operator's batch is admitted ("aab"), and it is not
    refused while the two others hold both arenas ("aba").  Leasing
    before queueing refused the other operator in the first order, the
    queued batch in the second, and a client whose retries all met
    such a state gave up (``retry_giveups``)."""

    async def drive():
        async with make_service(max_arenas=2, batch_window=0.01) as svc:
            ops = {"a": problem8, "b": problem16}
            fps = {k: svc.register_operator(p) for k, p in ops.items()}
            reqs = [
                SolveRequest(operator=fps[k], b=ops[k].b, tol=0.0, maxiter=8 + j)
                for j, k in enumerate(order)
            ]
            results = await asyncio.wait_for(
                asyncio.gather(*(svc.solve(q) for q in reqs), return_exceptions=True),
                timeout=60,
            )
            return svc, results

    svc, results = asyncio.run(drive())
    assert not [r for r in results if isinstance(r, Exception)], results
    assert svc.metrics.rejected == 0 and svc.pool.exhaustions == 0
    assert svc.metrics.batches == 3
    assert_conserved(svc)


def test_cancellation_under_load_leaks_no_lease(problem16):
    """Two of four in-flight columns cancelled mid-solve: survivors
    stay bitwise, the batch's arena comes back, nothing dangles."""

    async def drive():
        async with make_service() as svc:
            fp = svc.register_operator(problem16)
            futs = [
                svc.submit(
                    SolveRequest(
                        operator=fp,
                        b=rhs(problem16.b, j),
                        tol=0.0,
                        maxiter=200,
                    )
                )
                for j in range(4)
            ]
            await asyncio.sleep(0.2)  # batch launched, panel in flight
            futs[0].cancel()
            futs[2].cancel()
            resps = await asyncio.gather(*futs, return_exceptions=True)
            return resps, svc

    resps, svc = asyncio.run(drive())
    assert isinstance(resps[0], asyncio.CancelledError)
    assert isinstance(resps[2], asyncio.CancelledError)
    assert svc.metrics.cancelled == 2
    assert svc.metrics.completed == 2
    assert svc.pool.leased == 0
    assert svc.pool.peak_leased == 1
    x_solo, _ = solo_solve(problem16, rhs(problem16.b, 1), maxiter=200)
    assert np.array_equal(resps[1].x, x_solo)
    assert_conserved(svc)


def test_sustained_rounds_reuse_warm_arena(problem16):
    """Round after round of coalesced traffic: one warm arena serves
    every batch (no pool growth) and the setup cache converges to an
    all-hit regime after the first round."""
    rounds, clients = 4, 6

    async def drive():
        async with make_service() as svc:
            fp = svc.register_operator(problem16)
            for _ in range(rounds):
                resps = await asyncio.gather(
                    *(
                        svc.solve(
                            SolveRequest(
                                operator=fp,
                                b=rhs(problem16.b, j),
                                tol=0.0,
                                maxiter=5,
                            )
                        )
                        for j in range(clients)
                    )
                )
                assert len(resps) == clients
            return svc

    svc = asyncio.run(drive())
    m = svc.metrics
    assert m.batches == rounds
    assert m.coalesce_width == clients
    assert m.completed == rounds * clients
    # One arena, leased and released once per round, warm after round 1.
    assert svc.pool.peak_leased == 1
    assert svc.pool.acquires == rounds
    assert svc.pool.reuses == rounds - 1
    assert m.setup_cache_hit_rate == pytest.approx((rounds - 1) / rounds)
    assert_conserved(svc)


@pytest.mark.parametrize(
    "ladder,index_free", [(None, False), (LADDER, True)], ids=["double", "index-free"]
)
def test_two_operators_overlapping_on_workers_stay_bitwise(
    problem8, problem16, monkeypatch, ladder, index_free
):
    """An 8^3 and a 16^3 operator solved concurrently on the service's
    worker threads, arrival order alternating so each batch leases the
    arena the other operator's batch held last: every response stays
    bitwise-equal to its solo solve.  The small operator's SpMV and the
    large one's color-block / restriction kernels request the same
    ``(512, 27)`` ELL chunk scratch, so a cached hierarchy that kept
    the pool arena of the batch that built it would share those
    buffers with whichever batch leases the arena next — on another
    thread (first seen as non-converged ``service16`` answers under
    1024-row chunks).

    The ``index-free`` leg solves on the fp32 ladder in the SciPy class
    with the diagonal plan forced on at every size: both operators'
    fp32 matrices and colour blocks then build their plans lazily, on
    the two workers at once, and no exception may escape a batch."""
    calls = []
    if index_free:
        if scipy_backend.dia_matvec is None:
            pytest.skip("this SciPy has no dia_matvec")
        real = scipy_backend.dia_matvec

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(scipy_backend, "DIA_MIN_ROWS", 0)
        monkeypatch.setattr(scipy_backend, "dia_matvec", counting)
    problems = (problem8, problem16)
    widths = (6, 1)  # the small operator's panel lasts as long as the big solve
    rounds = 6

    async def drive():
        async with make_service(max_arenas=2, batch_window=0.01) as svc:
            fps = [svc.register_operator(p) for p in problems]
            out = []
            for r in range(rounds):
                order = (0, 1) if r % 2 == 0 else (1, 0)
                requests = [
                    (k, j)
                    for k in order
                    for j in range(r, r + widths[k])
                ]
                resps = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            svc.solve(
                                SolveRequest(
                                    operator=fps[k],
                                    b=rhs(problems[k].b, j),
                                    tol=0.0,
                                    maxiter=20,
                                    ladder=ladder,
                                )
                            )
                            for k, j in requests
                        )
                    ),
                    timeout=60,
                )
                out.extend(zip(requests, resps))
            return svc, out

    with use_backend("scipy") if index_free else contextlib.nullcontext():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over inside every kernel
        try:
            svc, out = asyncio.run(drive())
        finally:
            sys.setswitchinterval(interval)
        assert not index_free or calls, "no product took the diagonal plan"
        assert svc.pool.peak_leased == 2  # the two operators did overlap
        solo = {}
        for (k, j), resp in out:
            if (k, j) not in solo:
                b = rhs(problems[k].b, j)
                solo[k, j], _ = solo_solve(problems[k], b, ladder)
            assert np.array_equal(resp.x, solo[k, j]), (k, j)
    assert_conserved(svc)

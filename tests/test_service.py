"""Solver service (PR 8): coalescing, admission control, lifecycle.

Acceptance: ≥ 8 concurrent clients through the asyncio front end, each
coalesced request's solution **bitwise-equal** to the same solve run
solo (double and mixed-ladder); a compatible burst executes as one
panel solve whose every matrix pass serves the whole panel
(``rhs_columns == N × matrix_passes``); full queues and exhausted
arena pools reject with retry-after instead of buffering; timeouts and
cancellation deflate the in-flight column without perturbing its
companions or leaking the batch's arena lease.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES

from repro.backends.workspace import WorkspacePool
from repro.fp.policy import DOUBLE_POLICY, PrecisionPolicy
from repro.mg import MGConfig
from repro.parallel import SerialComm
from repro.service import (
    ServiceClosedError,
    ServiceOverloadedError,
    SolveRequest,
    SolveTimeoutError,
    SolverService,
)
from repro.solvers import GMRESIRSolver

LADDER = "fp32:fp64"


def make_service(**kw) -> SolverService:
    """Service with test-sized solver knobs (2-level MG, restart 10)."""
    kw.setdefault("batch_window", 0.05)
    kw.setdefault("max_panel", 8)
    kw.setdefault("mg_config", MGConfig(nlevels=2))
    kw.setdefault("restart", 10)
    return SolverService(**kw)


def solo_solve(problem, b, ladder=None, tol=0.0, maxiter=20, fmt="ell"):
    """The reference solo solve a coalesced request must match bitwise
    (identical construction knobs; cache/arena/coalescing must all be
    arithmetic-invisible per the PR 6 panel contract)."""
    policy = PrecisionPolicy.from_ladder(ladder) if ladder else DOUBLE_POLICY
    solver = GMRESIRSolver(
        problem,
        SerialComm(),
        policy=policy,
        mg_config=MGConfig(nlevels=2),
        restart=10,
        ortho="cgs2",
        matrix_format=fmt,
    )
    return solver.solve(b, tol=tol, maxiter=maxiter)


def rhs(b: np.ndarray, j: int) -> np.ndarray:
    return b * (1.0 + 0.5 * j)


@BOTH_CLASSES
class TestCoalescedParity:
    """The tentpole contract: coalescing is arithmetic-invisible, in
    either storage format the service is built with."""

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize("ladder", [None, LADDER])
    def test_eight_clients_bitwise_equal_solo(self, problem16, ladder, fmt):
        nclients = 8

        async def drive():
            async with make_service(matrix_format=fmt) as svc:
                fp = svc.register_operator(problem16)
                return await asyncio.gather(
                    *(
                        svc.solve(
                            SolveRequest(
                                operator=fp,
                                b=rhs(problem16.b, j),
                                ladder=ladder,
                                tol=0.0,
                                maxiter=20,
                            )
                        )
                        for j in range(nclients)
                    )
                ), svc

        responses, svc = asyncio.run(drive())
        assert len(responses) == nclients
        for j, resp in enumerate(responses):
            x_solo, s_solo = solo_solve(
                problem16, rhs(problem16.b, j), ladder=ladder, fmt=fmt
            )
            assert np.array_equal(resp.x, x_solo), f"client {j} diverged"
            assert resp.stats.iterations == s_solo.iterations
            assert resp.stats.final_relres == s_solo.final_relres
        # The burst coalesced into one panel solve...
        assert svc.metrics.batches == 1
        assert svc.metrics.coalesce_width == nclients
        assert all(r.coalesce_width == nclients for r in responses)
        # ...and every matrix pass served the whole panel: N columns
        # per pass, i.e. per single panel-wide pass the operators
        # booked matrix_passes == 1 and rhs_columns == N.
        assert svc.metrics.matrix_passes > 0
        assert svc.metrics.rhs_columns == nclients * svc.metrics.matrix_passes
        assert svc.metrics.panel_matrix_reuse == nclients

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_incompatible_knobs_split_into_separate_batches(self, problem16, fmt):
        async def drive():
            async with make_service(matrix_format=fmt) as svc:
                fp = svc.register_operator(problem16)
                reqs = [
                    SolveRequest(
                        operator=fp,
                        b=rhs(problem16.b, j),
                        # Two compatibility classes: uniform double and
                        # the mixed ladder.  They must not share a panel
                        # (different arithmetic), but both still batch
                        # within their own class.
                        ladder=None if j % 2 == 0 else LADDER,
                        tol=0.0,
                        maxiter=10,
                    )
                    for j in range(6)
                ]
                resps = await asyncio.gather(*(svc.solve(q) for q in reqs))
                return resps, svc

        resps, svc = asyncio.run(drive())
        assert svc.metrics.batches == 2
        assert sorted(svc.metrics.widths) == [3, 3]
        for j, resp in enumerate(resps):
            ladder = None if j % 2 == 0 else LADDER
            x_solo, _ = solo_solve(
                problem16, rhs(problem16.b, j), ladder=ladder, maxiter=10, fmt=fmt
            )
            assert np.array_equal(resp.x, x_solo)

    def test_wide_burst_chunks_to_max_panel(self, problem16):
        async def drive():
            async with make_service(max_panel=4) as svc:
                fp = svc.register_operator(problem16)
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
                        for j in range(8)
                    )
                )
                return resps, svc

        resps, svc = asyncio.run(drive())
        assert svc.metrics.batches == 2
        assert all(w <= 4 for w in svc.metrics.widths)
        assert len(resps) == 8


class TestAdmissionControl:
    def test_full_queue_rejects_with_retry_after(self, problem16):
        async def drive():
            async with make_service(max_pending=1, retry_after=0.125) as svc:
                fp = svc.register_operator(problem16)
                req = SolveRequest(operator=fp, b=problem16.b, tol=0.0, maxiter=2)
                # Two synchronous submits with no intervening await:
                # the batcher cannot drain between them, so the second
                # must bounce off the bounded queue.
                fut = svc.submit(req)
                with pytest.raises(ServiceOverloadedError) as ei:
                    svc.submit(req)
                assert ei.value.retry_after == 0.125
                assert "max_pending" in str(ei.value)
                await fut
                return svc

        svc = asyncio.run(drive())
        assert svc.metrics.rejected == 1
        assert svc.metrics.completed == 1

    def test_pool_exhaustion_rejects_and_recovers(self, problem16):
        pool = WorkspacePool("service-test", max_arenas=1)

        async def drive():
            async with make_service(pool=pool, retry_after=0.25) as svc:
                fp = svc.register_operator(problem16)
                req = SolveRequest(operator=fp, b=problem16.b, tol=0.0, maxiter=2)
                hog = pool.acquire()  # every arena leased out
                with pytest.raises(ServiceOverloadedError) as ei:
                    await svc.solve(req)
                assert ei.value.retry_after == 0.25
                assert "arenas leased" in str(ei.value)
                pool.release(hog)
                resp = await svc.solve(req)  # recovered
                return resp, svc

        resp, svc = asyncio.run(drive())
        assert svc.metrics.rejected == 1
        assert svc.metrics.completed == 1
        assert pool.exhaustions == 1
        assert pool.leased == 0  # no lease leaked by the rejected batch
        x_solo, _ = solo_solve(problem16, problem16.b, maxiter=2)
        assert np.array_equal(resp.x, x_solo)

    def test_submit_validates_operator_and_shape(self, problem16):
        async def drive():
            async with make_service() as svc:
                fp = svc.register_operator(problem16)
                with pytest.raises(KeyError, match="unknown operator"):
                    svc.submit(SolveRequest(operator="nope", b=problem16.b))
                with pytest.raises(ValueError, match="rhs shape"):
                    svc.submit(SolveRequest(operator=fp, b=problem16.b[:-1]))

        asyncio.run(drive())

    def test_closed_service_rejects_submit(self, problem16):
        async def drive():
            svc = make_service()
            fp = None
            async with svc:
                fp = svc.register_operator(problem16)
            with pytest.raises(ServiceClosedError):
                svc.submit(SolveRequest(operator=fp, b=problem16.b))

        asyncio.run(drive())

    def test_stop_fails_queued_requests(self, problem16):
        async def drive():
            svc = make_service(batch_window=5.0)
            await svc.start()
            fp = svc.register_operator(problem16)
            fut = svc.submit(
                SolveRequest(operator=fp, b=problem16.b, tol=0.0, maxiter=2)
            )
            # One tick: the batcher pops the request and sits in its
            # (long) window; stop() must still resolve the future.
            await asyncio.sleep(0)
            await svc.stop()
            with pytest.raises(ServiceClosedError):
                await fut

        asyncio.run(drive())


class TestTimeoutsAndCancellation:
    def test_timeout_fails_request_and_releases_lease(self, problem16):
        async def drive():
            async with make_service() as svc:
                fp = svc.register_operator(problem16)
                with pytest.raises(SolveTimeoutError) as ei:
                    await svc.solve(
                        SolveRequest(
                            operator=fp,
                            b=problem16.b,
                            tol=0.0,
                            maxiter=300,  # far beyond the deadline
                            timeout=0.05,
                        )
                    )
                assert ei.value.timeout == 0.05
                return svc

        svc = asyncio.run(drive())
        assert svc.metrics.timed_out == 1
        assert svc.metrics.completed == 0
        assert svc.pool.leased == 0  # the batch's arena came back

    def test_cancel_mid_solve_spares_companions(self, problem16):
        """A cancelled column deflates at a restart boundary; its
        companion's arithmetic and the pool's lease are untouched."""

        async def drive():
            async with make_service() as svc:
                fp = svc.register_operator(problem16)
                make = lambda j: SolveRequest(  # noqa: E731
                    operator=fp,
                    b=rhs(problem16.b, j),
                    tol=0.0,
                    maxiter=300,  # long enough to be cancelled mid-run
                )
                fut0 = svc.submit(make(0))
                fut1 = svc.submit(make(1))
                await asyncio.sleep(0.2)  # batch launched, solve running
                fut0.cancel()
                resp1 = await fut1
                with pytest.raises(asyncio.CancelledError):
                    await fut0
                return resp1, svc

        resp1, svc = asyncio.run(drive())
        assert svc.metrics.cancelled == 1
        assert svc.metrics.completed == 1
        assert svc.pool.leased == 0  # cancelled request leaked no lease
        x_solo, _ = solo_solve(problem16, rhs(problem16.b, 1), maxiter=300)
        assert np.array_equal(resp1.x, x_solo)

    def test_cancel_queued_request_never_launches(self, problem16):
        async def drive():
            async with make_service(batch_window=0.25) as svc:
                fp = svc.register_operator(problem16)
                fut = svc.submit(
                    SolveRequest(operator=fp, b=problem16.b, tol=0.0, maxiter=5)
                )
                fut.cancel()  # before the window closes
                await asyncio.sleep(0.4)
                return svc

        svc = asyncio.run(drive())
        assert svc.metrics.cancelled == 1
        assert svc.metrics.batches == 0  # the lone request never solved
        assert svc.pool.acquires == 0


class TestServicePhase:
    """The CI-gated benchmark phase built on the service."""

    def test_deterministic_phase_metrics(self):
        from repro.core import BenchmarkConfig, run_service_phase

        cfg = BenchmarkConfig(
            local_nx=16,
            max_iters_per_solve=5,
            service_clients=4,
            service_rounds=3,
        )
        m = run_service_phase(cfg)
        assert m.completed == 12
        assert m.batches == 3
        assert m.coalesce_width == 4.0
        assert m.max_coalesce_width == 4
        # Round 1 builds the setup products, rounds 2..R hit the cache.
        assert m.setup_cache_hit_rate == pytest.approx(2 / 3)
        assert m.panel_matrix_reuse == 4.0
        assert m.bitwise_parity is True
        d = m.to_dict()
        for key in (
            "coalesce_width",
            "setup_cache_hit_rate",
            "panel_matrix_reuse",
            "bitwise_parity",
        ):
            assert key in d

    def test_config_validation(self):
        from repro.core import BenchmarkConfig

        with pytest.raises(ValueError, match="service_clients"):
            BenchmarkConfig(service_clients=-1)
        with pytest.raises(ValueError, match="service_rounds"):
            BenchmarkConfig(service_clients=2, service_rounds=0)
        with pytest.raises(ValueError, match="service_batch_window"):
            BenchmarkConfig(service_clients=2, service_batch_window=0.0)
        with pytest.raises(ValueError, match="service_max_arenas"):
            BenchmarkConfig(service_clients=2, service_max_arenas=0)


class TestServiceGate:
    """check_regression.py's service block (nested, higher-is-better)."""

    @pytest.fixture()
    def gate(self):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            import check_regression
        finally:
            sys.path.pop(0)
        return check_regression

    def test_service_drop_fails(self, gate):
        base = {
            "service": {
                "coalesce_width": 8.0,
                "setup_cache_hit_rate": 0.5,
                "panel_matrix_reuse": 8.0,
                "bitwise_parity": True,
            }
        }
        cur = {
            "service": {
                "coalesce_width": 1.0,  # batcher stopped coalescing
                "setup_cache_hit_rate": 0.5,
                "panel_matrix_reuse": 8.0,
                "bitwise_parity": True,
            }
        }
        failures, _ = gate.compare(cur, base, 0.2)
        assert any("service.coalesce_width" in f for f in failures)

    def test_service_equal_passes(self, gate):
        block = {
            "coalesce_width": 8.0,
            "setup_cache_hit_rate": 0.5,
            "panel_matrix_reuse": 8.0,
            "bitwise_parity": True,
        }
        failures, _ = gate.compare(
            {"service": dict(block)}, {"service": dict(block)}, 0.2
        )
        assert failures == []

    def test_parity_break_fails(self, gate):
        block = {
            "coalesce_width": 8.0,
            "setup_cache_hit_rate": 0.5,
            "panel_matrix_reuse": 8.0,
        }
        cur = {"service": {**block, "bitwise_parity": False}}
        base = {"service": {**block, "bitwise_parity": True}}
        failures, _ = gate.compare(cur, base, 0.2)
        assert any("bitwise_parity" in f for f in failures)

    def test_missing_service_key_in_current_fails(self, gate):
        base = {"service": {"coalesce_width": 8.0}}
        failures, _ = gate.compare({"service": {}}, base, 0.2)
        assert any("coalesce_width" in f for f in failures)

    def test_pre_service_baseline_skips(self, gate):
        failures, _ = gate.compare({"service": {"coalesce_width": 8.0}}, {}, 0.2)
        assert failures == []

"""Resilience subsystem: injection, detection, recovery (PR 10).

Acceptance contracts under test:

- every ABFT-covered SpMV corruption is detected and the replayed
  solve still converges (detection rate exactly 1.0 on covered sites);
- resilience enabled with zero injected faults is bitwise-identical to
  a resilience-off solve, serially and on the SPMD runtime;
- non-finite residual state raises a typed
  ``NumericalBreakdownError`` instead of burning to ``maxiter``;
- all of the above hold at panel width: ``solve`` is the width-1
  ``solve_panel``, so the service's batched path carries the same
  detection, checkpoint replay and budget;
- the service absorbs injected transient faults by retrying the batch
  (the answer bitwise a clean solve's), and ``solve_with_retry`` backs
  off on admission-control rejections.

Rank counts come from ``REPRO_RANKS`` (the CI resilience matrix legs
set 1, 2 and 8), defaulting to ``1,2,4`` for local runs.
"""

import asyncio
import os
import random

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES, scaled_rhs_panel

from repro.backends.registry import registry
from repro.backends.workspace import WorkspacePool
from repro.core import BenchmarkConfig, run_fault_inject_phase
from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.parallel import SerialComm, run_spmd
from repro.resilience import (
    ABFTCheck,
    FaultDetectedError,
    NumericalBreakdownError,
    ResilienceConfig,
    abft_checksums,
    parse_fault_spec,
)
from repro.resilience.abft import abft_rel_tol
from repro.service import ServiceOverloadedError, SolveRequest, SolverService
from repro.solvers import GMRESIRSolver
from repro.solvers.operator import DistributedOperator
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


class TestSpecParsing:
    def test_basic_spec(self):
        plan = parse_fault_spec("spmv:bitflip:2;halo:drop;seed=9")
        assert plan.seed == 9
        assert plan.sites == (("spmv", "bitflip", 2), ("halo", "drop", 1))
        assert not plan.empty

    def test_empty_spec(self):
        assert parse_fault_spec("").empty
        assert parse_fault_spec("seed=3").empty

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus:drop",  # unknown site
            "spmv:drop",  # mode belongs to another site
            "spmv:bitflip:x",  # non-integer count
            "spmv:bitflip:0",  # count below 1
            "spmv",  # missing mode
            "seed=abc",  # malformed seed
            "spmv:bitflip:1:extra",  # too many fields
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_benchmark_config_fails_fast(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(fault_inject="spmv:bogus")
        with pytest.raises(ValueError):
            BenchmarkConfig(fault_inject="seed=3")  # no fault clauses
        cfg = BenchmarkConfig(fault_inject="spmv:nan:1")
        assert cfg.fault_inject == "spmv:nan:1"


class TestInjectorSchedule:
    def test_fire_consumes_clauses_in_spec_order(self):
        inj = parse_fault_spec("spmv:bitflip:2;spmv:nan").injector()
        assert inj.remaining() == 3
        assert [inj.fire("spmv") for _ in range(4)] == [
            "bitflip",
            "bitflip",
            "nan",
            None,
        ]
        assert inj.exhausted
        assert inj.stats.injected == {"spmv:bitflip": 2, "spmv:nan": 1}

    def test_mode_filter_preserves_other_budgets(self):
        inj = parse_fault_spec("halo:drop;halo:straggle").injector()
        # A collective is a straggle site but never a drop site.
        assert inj.fire("halo", modes=("straggle",)) == "straggle"
        assert inj.remaining("halo") == 1
        assert inj.fire("halo", modes=("drop", "corrupt", "delay")) == "drop"

    def test_halo_faults_fire_on_victim_rank_only(self):
        plan = parse_fault_spec("halo:drop")
        assert plan.injector(rank=1).fire("halo") is None
        assert plan.injector(rank=0).fire("halo") == "drop"

    def test_corruption_is_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(64)
        outs = []
        for _ in range(2):
            inj = parse_fault_spec("spmv:nan;seed=11").injector()
            arr = base.copy()
            inj.corrupt_value(arr, "nan")
            outs.append(arr)
        assert np.array_equal(outs[0], outs[1], equal_nan=True)
        assert np.isnan(outs[0]).sum() == 1

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitflip_always_detectable(self, dtype):
        inj = parse_fault_spec("spmv:bitflip;seed=2").injector()
        arr = np.linspace(0.1, 1.0, 16).astype(dtype)
        before = arr.copy()
        inj.corrupt_value(arr, "bitflip")
        (idx,) = np.flatnonzero(arr != before)
        # The exponent-bit model at least doubles the magnitude (or
        # saturates), so the corruption can never hide under a
        # 128*eps checksum tolerance.
        assert (
            not np.isfinite(arr[idx])
            or abs(float(arr[idx])) >= 2 * abs(float(before[idx]))
        )


class TestABFTCheck:
    def test_clean_matvec_passes(self, problem16):
        c, cabs = abft_checksums(problem16.A)
        check = ABFTCheck(c, cabs, abft_rel_tol(np.float64))
        op = DistributedOperator(problem16.A, problem16.halo, SerialComm())
        op.attach_abft(check)
        x = np.linspace(0.0, 1.0, problem16.nlocal)
        y = op.matvec(x)  # raises on a false positive
        assert check.checks > 0
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("mode", ["bitflip", "nan"])
    def test_corrupted_output_is_detected(self, problem16, mode):
        c, cabs = abft_checksums(problem16.A)
        check = ABFTCheck(c, cabs, abft_rel_tol(np.float64))
        op = DistributedOperator(problem16.A, problem16.halo, SerialComm())
        x = np.linspace(0.0, 1.0, problem16.nlocal)
        y = op.matvec(x)
        parse_fault_spec(f"spmv:{mode};seed=4").injector().corrupt_value(
            y, mode
        )
        with pytest.raises(FaultDetectedError):
            check.verify(x, y)


def _campaign(problem, policy, spec, tol=1e-8, maxiter=400):
    """Drive one kernel fault campaign; every scheduled spmv fault
    fires inside an ABFT-covered dispatch and must be detected."""
    injector = parse_fault_spec(spec).injector()
    injector.cover()
    budget = injector.remaining("spmv")
    solver = GMRESIRSolver(
        problem, SerialComm(), policy, resilience=ResilienceConfig()
    )
    detected = replays = faulted = recovered = 0
    registry.set_wrapper(injector.kernel_wrapper())
    try:
        for _ in range(budget + 4):
            before = injector.remaining("spmv")
            if before == 0:
                break
            _, st = solver.solve(problem.b, tol=tol, maxiter=maxiter)
            assert st.converged
            rs = st.resilience
            detected += rs.detected
            replays += rs.replays
            if injector.remaining("spmv") < before:
                faulted += 1
                if st.converged:
                    recovered += 1
                    assert rs.recovered == 1
    finally:
        registry.set_wrapper(None)
    injected = budget - injector.remaining("spmv")
    return injected, detected, replays, faulted, recovered


@BOTH_CLASSES
class TestKernelCampaign:
    """Acceptance: every covered SpMV corruption is detected and the
    replayed solve converges."""

    @pytest.mark.parametrize(
        "policy", [DOUBLE_POLICY, MIXED_DS_POLICY], ids=["double", "mixed"]
    )
    def test_bitflips_all_detected_and_recovered(self, problem16, policy):
        injected, detected, replays, faulted, recovered = _campaign(
            problem16, policy, "spmv:bitflip:3;seed=7"
        )
        assert injected == 3
        assert detected == 3  # detection rate exactly 1.0
        assert replays >= detected
        assert recovered == faulted >= 1

    def test_nan_faults_detected_at_low_precision(self, problem16):
        injected, detected, _, faulted, recovered = _campaign(
            problem16, MIXED_DS_POLICY, "spmv:nan:2;seed=13"
        )
        assert injected == 2
        assert detected == 2
        assert recovered == faulted

    def test_replay_budget_escape_hatch(self, problem16):
        # With a zero replay budget the typed detection error must
        # propagate instead of silently replaying.
        injector = parse_fault_spec("spmv:bitflip;seed=1").injector()
        injector.cover()
        solver = GMRESIRSolver(
            problem16,
            SerialComm(),
            MIXED_DS_POLICY,
            resilience=ResilienceConfig(max_replays=0),
        )
        registry.set_wrapper(injector.kernel_wrapper())
        try:
            with pytest.raises(FaultDetectedError):
                solver.solve(problem16.b, tol=1e-8, maxiter=400)
        finally:
            registry.set_wrapper(None)


@BOTH_CLASSES
class TestZeroOverheadParity:
    """Acceptance: resilience on + zero faults == resilience off,
    bitwise, serially and across SPMD rank counts."""

    @pytest.mark.parametrize(
        "policy", [DOUBLE_POLICY, MIXED_DS_POLICY], ids=["double", "mixed"]
    )
    def test_serial_bitwise_parity(self, problem16, policy):
        x_off, s_off = GMRESIRSolver(
            problem16, SerialComm(), policy
        ).solve(problem16.b, tol=1e-8, maxiter=400)
        x_on, s_on = GMRESIRSolver(
            problem16, SerialComm(), policy, resilience=ResilienceConfig()
        ).solve(problem16.b, tol=1e-8, maxiter=400)
        assert np.array_equal(x_off, x_on)
        assert s_on.iterations == s_off.iterations
        assert s_on.final_relres == s_off.final_relres
        rs = s_on.resilience
        assert rs is not None
        assert (rs.detected, rs.replays, rs.breakdowns) == (0, 0, 0)

    @pytest.mark.parametrize("nranks", RANKS)
    def test_spmd_bitwise_parity(self, nranks):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            mg = MGConfig(nlevels=2)
            x_off, _ = GMRESIRSolver(
                prob, comm, MIXED_DS_POLICY, mg_config=mg
            ).solve(prob.b, tol=1e-8, maxiter=300)
            x_on, st = GMRESIRSolver(
                prob,
                comm,
                MIXED_DS_POLICY,
                mg_config=mg,
                resilience=ResilienceConfig(),
            ).solve(prob.b, tol=1e-8, maxiter=300)
            rs = st.resilience
            return bool(np.array_equal(x_off, x_on)) and (
                rs.detected == 0 and rs.replays == 0
            )

        assert all(run_ranks(nranks, fn))


@BOTH_CLASSES
class TestFiniteGuards:
    def _poisoned(self, problem16):
        b = problem16.b.copy()
        b[0] = np.nan
        return b

    def test_typed_breakdown_without_resilience(self, problem16):
        # The guard is unconditional: even a resilience-off solve gets
        # the typed error instead of burning to maxiter on NaNs.
        solver = GMRESIRSolver(problem16, SerialComm(), MIXED_DS_POLICY)
        with pytest.raises(NumericalBreakdownError) as exc_info:
            solver.solve(self._poisoned(problem16), tol=1e-8, maxiter=50)
        assert "residual" in str(exc_info.value)

    def test_persistent_breakdown_exhausts_replay_budget(self, problem16):
        # The NaN source survives checkpoint replay (it is in b), so
        # the replay budget drains and the typed error escapes.
        solver = GMRESIRSolver(
            problem16,
            SerialComm(),
            MIXED_DS_POLICY,
            resilience=ResilienceConfig(max_replays=2),
        )
        with pytest.raises(NumericalBreakdownError):
            solver.solve(self._poisoned(problem16), tol=1e-8, maxiter=50)

    def test_finite_guards_off_raises_immediately(self, problem16):
        solver = GMRESIRSolver(
            problem16,
            SerialComm(),
            MIXED_DS_POLICY,
            resilience=ResilienceConfig(finite_guards=False),
        )
        with pytest.raises(NumericalBreakdownError):
            solver.solve(self._poisoned(problem16), tol=1e-8, maxiter=50)


@BOTH_CLASSES
class TestPanelResilience:
    """The restart loop is one engine, so everything the width-1
    ``solve`` detects and replays, a wider ``solve_panel`` must too."""

    @pytest.mark.parametrize(
        "policy", [DOUBLE_POLICY, MIXED_DS_POLICY], ids=["double", "mixed"]
    )
    def test_campaign_detects_and_replays_on_a_panel(self, problem16, policy):
        injector = parse_fault_spec("spmv:bitflip:2;seed=7").injector()
        injector.cover()
        solver = GMRESIRSolver(
            problem16, SerialComm(), policy, resilience=ResilienceConfig()
        )
        registry.set_wrapper(injector.kernel_wrapper())
        try:
            _, stats = solver.solve_panel(
                scaled_rhs_panel(problem16.b, 2), tol=1e-8, maxiter=400
            )
        finally:
            registry.set_wrapper(None)
        assert injector.exhausted  # both faults fired in this one call
        for st in stats:
            assert st.converged
            rs = st.resilience
            # The lockstep cycle is shared: each column saw both faults.
            assert rs.detected == 2  # detection rate exactly 1.0
            assert rs.replays >= 2
            assert rs.recovered == 1

    def test_replay_budget_escape_hatch_on_a_panel(self, problem16):
        injector = parse_fault_spec("spmv:bitflip;seed=1").injector()
        injector.cover()
        solver = GMRESIRSolver(
            problem16,
            SerialComm(),
            MIXED_DS_POLICY,
            resilience=ResilienceConfig(max_replays=0),
        )
        registry.set_wrapper(injector.kernel_wrapper())
        try:
            with pytest.raises(FaultDetectedError):
                solver.solve_panel(
                    scaled_rhs_panel(problem16.b, 2), tol=1e-8, maxiter=400
                )
        finally:
            registry.set_wrapper(None)

    @pytest.mark.parametrize("resilient", [True, False], ids=["on", "off"])
    def test_transient_nonfinite_residual_replays_or_raises(
        self, problem16, resilient
    ):
        # ABFT off, so the NaN an (uncovered) injector plants in the
        # first outer-residual matvec reaches the finite guard: with
        # resilience on the boundary replays clean; with it off the
        # typed error still escapes.
        injector = parse_fault_spec("spmv:nan;seed=3").injector()
        solver = GMRESIRSolver(
            problem16,
            SerialComm(),
            MIXED_DS_POLICY,
            resilience=ResilienceConfig(abft=False) if resilient else None,
        )
        B = scaled_rhs_panel(problem16.b, 2)
        registry.set_wrapper(injector.kernel_wrapper())
        try:
            if not resilient:
                with pytest.raises(NumericalBreakdownError):
                    solver.solve_panel(B, tol=1e-8, maxiter=400)
                return
            _, stats = solver.solve_panel(B, tol=1e-8, maxiter=400)
        finally:
            registry.set_wrapper(None)
        assert injector.exhausted
        for st in stats:
            assert st.converged
            rs = st.resilience
            assert (rs.breakdowns, rs.replays, rs.detected) == (1, 1, 0)

    @pytest.mark.parametrize("nranks", sorted({1, *RANKS}))
    def test_clean_panel_bitwise_parity(self, nranks):
        """Resilience on + zero faults == off, bitwise, at width 4."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            mg = MGConfig(nlevels=2)
            B = scaled_rhs_panel(prob.b, 4)
            X_off, _ = GMRESIRSolver(
                prob, comm, MIXED_DS_POLICY, mg_config=mg
            ).solve_panel(B, tol=1e-8, maxiter=300)
            X_on, stats = GMRESIRSolver(
                prob,
                comm,
                MIXED_DS_POLICY,
                mg_config=mg,
                resilience=ResilienceConfig(),
            ).solve_panel(B, tol=1e-8, maxiter=300)
            return bool(np.array_equal(X_off, X_on)) and all(
                st.converged
                and (st.resilience.detected, st.resilience.replays) == (0, 0)
                for st in stats
            )

        assert all(run_ranks(nranks, fn))


@BOTH_CLASSES
class TestServiceResilience:
    def test_transient_faults_retry_then_degrade(self, problem16):
        injector = parse_fault_spec("service:transient:2;seed=1").injector()

        async def drive():
            svc = SolverService(
                resilience=ResilienceConfig(), injector=injector
            )
            async with svc:
                fp = svc.register_operator(problem16)
                resp = await svc.solve(
                    SolveRequest(operator=fp, b=problem16.b, tol=1e-9, maxiter=200)
                )
            return resp, svc

        resp, svc = asyncio.run(drive())
        assert resp.stats.converged
        assert injector.exhausted
        # Transient 1 -> retry; transient 2 -> the third and last
        # attempt, which completes the batch.
        assert svc.metrics.transient_faults == 2
        assert svc.metrics.fault_retries == 1
        assert svc.metrics.degradations == 1
        # Every attempt builds the same solver: the answer is a clean
        # solo solve's, bitwise.
        x_clean, _ = GMRESIRSolver(
            problem16, SerialComm(), resilience=ResilienceConfig()
        ).solve(problem16.b, tol=1e-9, maxiter=200)
        assert np.array_equal(resp.x, x_clean)

    def test_solve_with_retry_backs_off_on_overload(self, problem16):
        pool = WorkspacePool("retry-test", max_arenas=1)

        async def drive():
            svc = SolverService(pool=pool, retry_after=0.01)
            async with svc:
                fp = svc.register_operator(problem16)
                # Every arena is leased out, so the first attempt must
                # bounce; the lease is released mid-backoff and the
                # resubmission lands.
                hog = pool.acquire()
                asyncio.get_running_loop().call_later(
                    0.03, pool.release, hog
                )
                resp = await svc.solve_with_retry(
                    SolveRequest(operator=fp, b=problem16.b, maxiter=60),
                    base_delay=0.02,
                    rng=random.Random(0),
                )
            return resp, svc

        resp, svc = asyncio.run(drive())
        assert resp.stats.converged
        assert svc.metrics.retries >= 1
        assert svc.metrics.retry_giveups == 0

    def test_retry_gives_up_after_max_attempts(self, problem16):
        pool = WorkspacePool("giveup-test", max_arenas=1)

        async def drive():
            svc = SolverService(pool=pool, retry_after=0.001)
            async with svc:
                fp = svc.register_operator(problem16)
                hog = pool.acquire()  # never released: a hard wall
                with pytest.raises(ServiceOverloadedError):
                    await svc.solve_with_retry(
                        SolveRequest(operator=fp, b=problem16.b, maxiter=60),
                        max_attempts=2,
                        base_delay=0.0005,
                        max_delay=0.001,
                        rng=random.Random(0),
                    )
                pool.release(hog)
            return svc

        svc = asyncio.run(drive())
        assert svc.metrics.retries == 1
        assert svc.metrics.retry_giveups == 1


class TestResiliencePhase:
    SPEC = "spmv:bitflip:2;spmv:nan:1;service:transient:1;seed=7"

    def _run(self):
        cfg = BenchmarkConfig(
            local_nx=16,
            max_iters_per_solve=10,
            validation_max_iters=200,
            fault_inject=self.SPEC,
        )
        return run_fault_inject_phase(cfg)

    def test_phase_invariants(self):
        m = self._run()
        assert m.clean_parity
        assert m.detection_rate == 1.0
        assert m.unfired == 0
        assert m.recovered_converged
        assert m.injected_total == 4
        assert m.service_transients == 1

    def test_phase_is_deterministic(self):
        a, b = self._run().to_dict(), self._run().to_dict()
        a.pop("wall_seconds"), b.pop("wall_seconds")
        assert a == b

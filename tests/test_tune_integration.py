"""End-to-end autotuner integration: probe -> plan -> dispatch -> solve.

The contract under test is the tentpole invariant: a tuned dispatch
plan changes *which* registered kernel runs, never the bits it
produces.  A solver adopting a plan through the shared setup cache must
therefore solve bitwise-identically to the untuned default, and the
benchmark's recorded ``autotune_speedup`` can never drop below 1.0
because the untuned baseline always competes in the probe.
"""

import numpy as np
import pytest
from helpers_distributed import use_backend

from repro.backends.registry import KernelRegistry, registry
from repro.fp import MIXED_DS_POLICY
from repro.mg.multigrid import MGConfig
from repro.parallel.comm import SerialComm
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.solvers.setup_cache import SetupCache, operator_fingerprint
from repro.tune import (
    DispatchPlan,
    OperatorProber,
    PlanCache,
    PlanChoice,
    apply_plan_to_config,
    autotune_operator,
    config_rungs,
    representative_slice,
    tune_for_config,
)
from repro.tune.plan import FUSED_OPS


@pytest.fixture(scope="module")
def plan8(problem8):
    """One real probe session over the 8^3 operator (fp64 only,
    single repeat — the suite tests plumbing, not timing quality)."""
    plan, hit = autotune_operator(
        problem8.A, baseline_format="ell", rungs=("fp64",), repeats=1
    )
    assert not hit  # no cache passed
    return plan


class TestProbe:
    def test_representative_slice_is_principal_square(self, problem8):
        s = representative_slice(problem8.A, max_rows=100)
        assert (s.nrows, s.ncols) == (100, 100)

    def test_slice_of_small_operator_is_whole(self, problem8):
        s = representative_slice(problem8.A, max_rows=10**6)
        assert s.nrows == problem8.A.to_csr().nrows

    def test_prober_baseline_always_has_parity(self, problem8):
        prober = OperatorProber(
            problem8.A, baseline_format="ell", rungs=("fp64",), repeats=1
        )
        entries, records = prober.probe_all()
        assert entries  # something was tuned
        for rec in records:
            if rec.selected:
                assert rec.parity
        # Every probed (op, rung) has at least one parity-true record
        # (the untuned default itself).
        for op, rung in {(r.op, r.rung) for r in records}:
            assert any(
                r.parity for r in records if (r.op, r.rung) == (op, rung)
            )

    def test_probed_kernels_run_in_the_probers_arena(self, problem8):
        """Solves always hand kernels a workspace, and a kernel's
        pooled branch is different code from its allocating one — so
        the prober must time the pooled branch: every probed motif
        requests scratch from the prober's own arena."""
        from repro.backends.workspace import Workspace

        class Recording(Workspace):
            def __init__(self):
                super().__init__("recording")
                self.tags = []

            def get(self, tag, shape, dtype):
                self.tags.append(tag[0] if isinstance(tag, tuple) else tag)
                return super().get(tag, shape, dtype)

        prober = OperatorProber(
            problem8.A, baseline_format="ell", rungs=("fp64",), repeats=1
        )
        assert isinstance(prober.ws, Workspace)
        prober.ws = rec = Recording()
        prober.probe_all()
        tags = set(rec.tags)
        # ELL chunk scratch, the CSR gather, the block sweep's panel —
        # and nothing of the index-set sweep.
        for tag in ("ell.chunk.idx", "csr.spmv.gather", "cgs.ax"):
            assert tag in tags, tag
        assert "gs.ax" not in tags

    def test_probes_only_what_the_engine_dispatches(self, problem8):
        """The sweep probe runs the smoother's op on the color-packed
        layout at width 1 and the probe panel; no retired op is timed."""
        from repro.tune.probe import (
            MATRIX_PROBE_OPS,
            PROBE_PANEL,
            VECTOR_PROBE_OPS,
        )

        prober = OperatorProber(
            problem8.A, baseline_format="ell", rungs=("fp64",), repeats=1
        )
        entries, records = prober.probe_all()
        assert {op for op, _ in entries} == set(
            MATRIX_PROBE_OPS + VECTOR_PROBE_OPS
        )
        assert {r.op for r in records} == {op for op, _ in entries}
        assert "symgs_sweep_multi" in MATRIX_PROBE_OPS
        for retired in ("spmv_dot", "spmv_dot_multi", "symgs_sweep"):
            assert retired not in MATRIX_PROBE_OPS
        P = prober._packed[("ell", (), prober.rungs[0])]
        assert P.format_name == "color_partitioned"
        solo, panel = prober._runner(
            "symgs_sweep_multi", P, prober.rungs[0], True
        )()
        assert solo.ndim == 1 and panel.shape == (solo.shape[0], PROBE_PANEL)

    @pytest.mark.parametrize("fusion", [True, False])
    def test_composed_fused_motifs_cast_no_fusion_vote(self, problem8, fusion):
        """NumPy's ``waxpby_dot`` / ``waxpby_dot_multi`` compose the
        unfused kernels call for call: timing both settings would let
        dispatch noise flip the solver-wide fusion switch (which also
        gates ``gemv_sub_dot``, never probed).  Only the baseline
        setting is timed, so the plan keeps the baseline fusion."""
        plan, _ = autotune_operator(
            problem8.A,
            baseline_format="ell",
            fusion=fusion,
            rungs=("fp64", "fp32"),
            repeats=1,
        )
        fused_recs = [r for r in plan.probes if r.op in FUSED_OPS]
        assert {r.op for r in fused_recs} == set(FUSED_OPS)
        assert {r.fused for r in fused_recs} == {fusion}
        assert plan.solver_fusion() is fusion

    def test_backend_with_a_fused_kernel_votes_on_fusion(
        self, problem8, monkeypatch
    ):
        """A backend that registers a single-pass kernel of its own
        competes fused AND unfused, at the rungs it registered and no
        others (the baseline is the active backend; the others resolve
        to the same NumPy composition and are deduped away)."""
        import repro.tune.probe as probe_mod

        priv = KernelRegistry(
            _kernels=dict(registry._kernels),
            _backends=dict(registry._backends),
            _active=registry.active_backend,
        )
        priv.register_backend("jit", priority=-1)
        numpy_fused = registry.lookup("waxpby_dot", None, "fp64", backend="numpy")

        @priv.register("waxpby_dot", precision="fp64", backend="jit")
        def waxpby_dot_jit(alpha, x, beta, y, out=None, ws=None):
            return numpy_fused(alpha, x, beta, y, out=out, ws=ws)

        monkeypatch.setattr(probe_mod, "registry", priv)
        prober = OperatorProber(
            problem8.A, baseline_format="ell", rungs=("fp64", "fp32"), repeats=1
        )
        seen = {}
        for rung in prober.rungs:
            _, recs = prober.probe_op("waxpby_dot", rung)
            seen[rung.short_name] = {(r.backend, r.fused) for r in recs}
        active = registry.active_backend
        assert seen["fp64"] == {(active, True), ("jit", True), ("jit", False)}
        assert seen["fp32"] == {(active, True)}


class TestPlanFromProbe:
    def test_entries_cover_fp64(self, plan8):
        assert plan8.entries
        assert all(rung == "fp64" for _, rung in plan8.entries)

    def test_parity_asserted(self, plan8):
        plan8.assert_parity()

    def test_speedup_floor(self, plan8):
        assert plan8.speedup() >= 1.0

    def test_fingerprints_bound_to_operator_and_machine(
        self, plan8, problem8
    ):
        from repro.perf.machine import machine_fingerprint

        assert plan8.operator_fingerprint == operator_fingerprint(problem8.A)
        assert plan8.machine_fingerprint == machine_fingerprint()

    def test_cache_round_trip_hits(self, problem8, tmp_path):
        cache = PlanCache(str(tmp_path / "cache.json"))
        plan, hit = autotune_operator(
            problem8.A, rungs=("fp64",), repeats=1, cache=cache
        )
        assert not hit
        again, hit = autotune_operator(
            problem8.A, rungs=("fp64",), repeats=1, cache=cache
        )
        assert hit
        assert again.entries == plan.entries


    def test_plan_from_another_parity_class_is_a_miss(self, problem16, tmp_path):
        """The cache key hashes no backend, and a plan routes each tuned
        (op, rung) to the backend it recorded — so a plan written under
        one class and loaded under the other would steer the matrix ops
        across classes.  It is re-probed and overwritten instead, and
        tuned == untuned bitwise under each class in turn."""
        cache = PlanCache(str(tmp_path / "cache.json"))
        probe = dict(rungs=("fp64", "fp32"), repeats=1, max_rows=512, cache=cache)
        kw = dict(policy=MIXED_DS_POLICY, restart=10, matrix_format="ell")
        classes = registry.backends()
        for backend in classes + classes[:1]:  # ... and back again
            with use_backend(backend):
                plan, hit = autotune_operator(problem16.A, **probe)
                assert not hit
                assert plan.baseline_backend == backend
                assert autotune_operator(problem16.A, **probe)[1]  # overwrote

                plain = GMRESIRSolver(problem16, SerialComm(), **kw)
                x_plain, _ = plain.solve(problem16.b, tol=0.0, maxiter=10)
                setup = SetupCache()
                setup.store_plan(operator_fingerprint(problem16.A), plan)
                tuned = GMRESIRSolver(
                    problem16, SerialComm(), setup_cache=setup, **kw
                )
                assert tuned.dispatch_plan is plan
                try:
                    registry.set_plan(plan)
                    x_tuned, _ = tuned.solve(problem16.b, tol=0.0, maxiter=10)
                finally:
                    registry.set_plan(None)
                assert np.array_equal(x_tuned, x_plain)


class TestRegistryPlanDispatch:
    def test_plan_backend_preference_wins_dispatch(self):
        reg = KernelRegistry()

        @reg.register("spmv", backend="numpy")
        def spmv_ref():
            return "ref"

        @reg.register("spmv", backend="alt")
        def spmv_alt():
            return "alt"

        class StubPlan:
            def backend_for(self, op, prec, fmt=None, fmt_params=None):
                return "alt" if op == "spmv" else None

        assert reg.lookup("spmv", "ell", "fp64")() == "ref"
        reg.set_plan(StubPlan())
        assert reg.lookup("spmv", "ell", "fp64")() == "alt"
        # An explicit backend request still overrides the plan.
        assert reg.lookup("spmv", "ell", "fp64", backend="numpy")() == "ref"
        reg.set_plan(None)
        assert reg.lookup("spmv", "ell", "fp64")() == "ref"

    def test_plan_does_not_steer_mismatched_format_lookups(self):
        """The reviewed invariant hole: a plan that chose (csr, alt)
        must not route an ELL lookup (e.g. from the level-scheduled
        smoother, which forces ELL) to the alt backend — that
        combination's parity was never verified."""
        reg = KernelRegistry()

        @reg.register("spmv", backend="numpy")
        def spmv_ref():
            return "ref"

        @reg.register("spmv", backend="alt")
        def spmv_alt():
            return "alt"

        entry = PlanChoice(
            fmt="csr",
            fmt_params=(),
            backend="alt",
            fused=True,
            seconds=1.0,
            baseline_seconds=2.0,
        )
        plan = DispatchPlan(
            operator_fingerprint="op",
            machine_fingerprint="mach",
            baseline_format="ell",
            baseline_params=(),
            baseline_fusion=True,
            baseline_backend="numpy",
            entries={("spmv", "fp64"): entry},
        )
        reg.set_plan(plan)
        try:
            assert reg.lookup("spmv", "csr", "fp64")() == "alt"
            assert reg.lookup("spmv", "ell", "fp64")() == "ref"
        finally:
            reg.set_plan(None)

    def test_global_registry_set_plan_round_trip(self, plan8):
        try:
            registry.set_plan(plan8)
            assert registry.plan is plan8
            registry.lookup("spmv", "ell", "fp64")  # resolves under plan
        finally:
            registry.set_plan(None)
        assert registry.plan is None

    def test_available_variants_lists_registrations(self):
        variants = registry.available_variants("spmv")
        assert ("ell", None, "numpy") in variants
        assert ("csr", None, "numpy") in variants


class TestSolverAdoption:
    def test_solver_adopts_plan_from_setup_cache(self, problem8, plan8):
        cache = SetupCache()
        cache.store_plan(operator_fingerprint(problem8.A), plan8)
        solver = GMRESIRSolver(
            problem8,
            SerialComm(),
            policy=MIXED_DS_POLICY,
            mg_config=MGConfig(nlevels=2),
            matrix_format="ell",
            setup_cache=cache,
        )
        assert solver.dispatch_plan is plan8

    def test_mismatched_baseline_is_not_adopted(self, problem8, plan8):
        # Neither the ell baseline the plan was tuned from nor its
        # consensus (inside the SciPy class CSR is bitwise ELL without
        # the padding, so the consensus may be csr).
        other = "sellcs" if plan8.solver_format() == "csr" else "csr"
        cache = SetupCache()
        cache.store_plan(operator_fingerprint(problem8.A), plan8)
        solver = GMRESIRSolver(
            problem8,
            SerialComm(),
            policy=MIXED_DS_POLICY,
            mg_config=MGConfig(nlevels=2),
            matrix_format=other,
            setup_cache=cache,
        )
        assert solver.dispatch_plan is None

    def test_tuned_solve_is_bitwise_equal_to_untuned(self, problem8, plan8):
        kw = dict(
            policy=MIXED_DS_POLICY,
            mg_config=MGConfig(nlevels=2),
            restart=10,
            matrix_format="ell",
        )
        plain = GMRESIRSolver(problem8, SerialComm(), **kw)
        x_plain, _ = plain.solve(problem8.b, tol=0.0, maxiter=10)

        cache = SetupCache()
        cache.store_plan(operator_fingerprint(problem8.A), plan8)
        tuned = GMRESIRSolver(
            problem8, SerialComm(), setup_cache=cache, **kw
        )
        assert tuned.dispatch_plan is plan8
        try:
            registry.set_plan(plan8)  # the benchmark driver's install
            x_tuned, _ = tuned.solve(problem8.b, tol=0.0, maxiter=10)
        finally:
            registry.set_plan(None)
        assert np.array_equal(x_tuned, x_plain)


class TestConfigPlumbing:
    def test_config_rungs_follow_the_ladder(self):
        from repro.core.config import BenchmarkConfig

        assert config_rungs(BenchmarkConfig(impl="reference")) == ("fp64",)
        assert config_rungs(BenchmarkConfig(impl="optimized")) == (
            "fp64",
            "fp32",
        )
        cfg = BenchmarkConfig(precision_ladder="fp16:fp32:fp64")
        assert config_rungs(cfg) == ("fp64", "fp32")  # fp16 not probed

    def test_apply_plan_noop_when_consensus_is_baseline(self):
        from repro.core.config import BenchmarkConfig

        cfg = BenchmarkConfig()
        plan = DispatchPlan(
            operator_fingerprint="op",
            machine_fingerprint="mach",
            baseline_format=cfg.matrix_format,
            baseline_params=(),
            baseline_fusion=True,
            baseline_backend="numpy",
        )
        assert apply_plan_to_config(cfg, plan) is cfg

    def test_apply_plan_folds_unanimous_fusion(self):
        from repro.core.config import BenchmarkConfig

        cfg = BenchmarkConfig()
        entries = {
            (op, "fp64"): PlanChoice(
                fmt="ell",
                fmt_params=(),
                backend="numpy",
                fused=False,
                seconds=1.0,
                baseline_seconds=2.0,
            )
            for op in sorted(FUSED_OPS)
        }
        plan = DispatchPlan(
            operator_fingerprint="op",
            machine_fingerprint="mach",
            baseline_format=cfg.matrix_format,
            baseline_params=(),
            baseline_fusion=True,
            baseline_backend="numpy",
            entries=entries,
        )
        assert apply_plan_to_config(cfg, plan).fusion is False

    def test_tune_for_config_uses_the_cache(self, tmp_path):
        from repro.core.config import BenchmarkConfig

        cfg = BenchmarkConfig(local_nx=8, nlevels=2, impl="reference")
        cache = PlanCache(str(tmp_path / "cache.json"))
        _, hit = tune_for_config(cfg, cache=cache)
        assert not hit
        _, hit = tune_for_config(cfg, cache=cache)
        assert hit


class TestBenchmarkAutotune:
    def test_distributed_phase_records_the_plan(self, tmp_path):
        from repro.core.benchmark import run_distributed_phase
        from repro.core.config import BenchmarkConfig

        cfg = BenchmarkConfig(
            local_nx=8,
            nlevels=2,
            impl="reference",
            max_iters_per_solve=2,
            distributed_grid="1x1x1",
            distributed_budget_seconds=0.05,
            rhs_panel=2,
            autotune="on",
            tune_cache=str(tmp_path / "cache.json"),
        )
        metrics = run_distributed_phase(cfg)
        assert metrics.autotune_speedup >= 1.0
        assert metrics.autotune["enabled"]
        assert metrics.autotune["plan"]["entries"]
        assert registry.plan is None  # uninstalled after the phase
        # The record the CI gate consumes is JSON-clean.
        import json

        json.dumps(metrics.to_dict())

    def test_autotune_off_records_nothing(self):
        from repro.core.benchmark import run_distributed_phase
        from repro.core.config import BenchmarkConfig

        cfg = BenchmarkConfig(
            local_nx=8,
            nlevels=2,
            impl="reference",
            max_iters_per_solve=2,
            distributed_grid="1x1x1",
            distributed_budget_seconds=0.05,
        )
        metrics = run_distributed_phase(cfg)
        assert metrics.autotune_speedup == 1.0
        assert metrics.autotune == {}

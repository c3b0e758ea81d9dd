"""End-to-end autotuner integration: probe -> plan -> adoption -> solve.

The contract under test is the tentpole invariant: a tuned plan changes
*which* storage format the solver builds, never the bits it produces.
A solver adopting a plan through the shared setup cache must therefore
solve bitwise-identically to the untuned default, and the benchmark's
recorded ``autotune_speedup`` can never drop below 1.0 because the
baseline format always competes in the probe.
"""

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES, NUMPY_CLASS, use_backend

from repro.backends.registry import registry
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
from repro.tune.probe import FORMATS, MATRIX_PROBE_OPS, PROBE_PANEL


@pytest.fixture(scope="module")
def plan8(problem8):
    """One real probe session over the 8^3 operator (fp64 only,
    single repeat — the suite tests plumbing, not timing quality)."""
    plan, hit = autotune_operator(
        problem8.A, baseline_format="ell", rungs=("fp64",), repeats=1
    )
    assert not hit  # no cache passed
    return plan


def unanimous_plan(A, fmt, backend="scipy"):
    """A hand-built plan whose every entry chose ``fmt`` over an ELL
    baseline (a timed probe flips on noise where the two formats run
    equally fast)."""
    return DispatchPlan(
        operator_fingerprint=operator_fingerprint(A),
        machine_fingerprint="mach",
        baseline_format="ell",
        baseline_backend=backend,
        entries={
            (op, rung): PlanChoice(fmt=fmt, seconds=1.0, baseline_seconds=2.0)
            for op in MATRIX_PROBE_OPS
            for rung in ("fp64", "fp32")
        },
    )


class TestProbe:
    def test_representative_slice_is_principal_square(self, problem8):
        s = representative_slice(problem8.A, max_rows=100)
        assert (s.nrows, s.ncols) == (100, 100)

    def test_slice_of_small_operator_is_whole(self, problem8):
        s = representative_slice(problem8.A, max_rows=10**6)
        assert s.nrows == problem8.A.to_csr().nrows

    def test_prober_times_both_formats_and_selects_with_parity(self, problem8):
        prober = OperatorProber(
            problem8.A, baseline_format="ell", rungs=("fp64",), repeats=1
        )
        entries, records = prober.probe_all()
        assert set(entries) == {(op, "fp64") for op in MATRIX_PROBE_OPS}
        for op in MATRIX_PROBE_OPS:
            recs = [r for r in records if r.op == op]
            assert sorted(r.fmt for r in recs) == sorted(FORMATS)
            assert [r.fmt for r in recs if r.selected] == [entries[op, "fp64"].fmt]
            assert all(r.parity for r in recs if r.fmt == "ell" or r.selected)

    @NUMPY_CLASS
    def test_probed_kernels_run_in_the_probers_arena(self, problem8, parity_class):
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

    def test_sweep_probe_runs_the_packed_block_sweep(self, problem8):
        """The sweep probe runs the smoother's op on the color-packed
        layout at width 1 and the probe panel; no retired op is timed."""
        prober = OperatorProber(
            problem8.A, baseline_format="ell", rungs=("fp64",), repeats=1
        )
        for retired in ("spmv_dot", "spmv_dot_multi", "symgs_sweep"):
            assert retired not in MATRIX_PROBE_OPS
        P = prober._packed[("ell", prober.rungs[0])]
        assert P.format_name == "color_partitioned"
        solo, panel = prober._runner("symgs_sweep_multi", P, prober.rungs[0])()
        assert solo.ndim == 1 and panel.shape == (solo.shape[0], PROBE_PANEL)


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
        """The cache key hashes no backend, and CSR is bitwise ELL in one
        class only — so a plan written under one class and loaded under
        the other could switch a format whose parity was never checked
        there.  It is re-probed and overwritten instead, and tuned ==
        untuned bitwise under each class in turn."""
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
                x_tuned, _ = tuned.solve(problem16.b, tol=0.0, maxiter=10)
                assert np.array_equal(x_tuned, x_plain)


@BOTH_CLASSES
class TestSolverAdoption:
    KW = dict(
        policy=MIXED_DS_POLICY,
        mg_config=MGConfig(nlevels=2),
        restart=10,
        matrix_format="ell",
    )

    def test_tuned_solve_is_bitwise_equal_to_untuned(self, problem8, parity_class):
        """Where a plan really switches format — CSR over an ELL
        baseline, bitwise ELL without the padding in the SciPy class —
        the tuned solver builds CSR and ``solve`` and an 8-wide
        ``solve_panel`` are bitwise the untuned ELL solver's.  In the
        reference class CSR's sequential row sums are not ELL's pairwise
        ones, so a probe never switches."""
        if parity_class == "numpy":
            plan, _ = autotune_operator(problem8.A, repeats=1)
            assert plan.solver_format() == plan.baseline_format == "ell"
            assert not any(r.parity for r in plan.probes if r.fmt == "csr")
        else:
            plan = unanimous_plan(problem8.A, "csr", backend=parity_class)
        cache = SetupCache()
        cache.store_plan(operator_fingerprint(problem8.A), plan)
        tuned = GMRESIRSolver(problem8, SerialComm(), setup_cache=cache, **self.KW)
        plain = GMRESIRSolver(problem8, SerialComm(), **self.KW)
        assert tuned.dispatch_plan is plan
        assert tuned.matrix_format == tuned.A64.format_name == plan.solver_format()

        x_tuned, _ = tuned.solve(problem8.b, tol=0.0, maxiter=10)
        x_plain, _ = plain.solve(problem8.b, tol=0.0, maxiter=10)
        assert np.array_equal(x_tuned, x_plain)
        B = np.asfortranarray(np.outer(problem8.b, 1.0 + 0.25 * np.arange(8)))
        X_tuned, _ = tuned.solve_panel(B, tol=0.0, maxiter=10)
        X_plain, _ = plain.solve_panel(B, tol=0.0, maxiter=10)
        assert np.array_equal(X_tuned, X_plain)

    def test_mismatched_baseline_is_not_adopted(self, problem8, parity_class):
        """A solver configured with neither the plan's baseline nor its
        consensus keeps its own format."""
        cache = SetupCache()
        cache.store_plan(
            operator_fingerprint(problem8.A), unanimous_plan(problem8.A, "ell")
        )
        solver = GMRESIRSolver(
            problem8,
            SerialComm(),
            setup_cache=cache,
            **{**self.KW, "matrix_format": "csr"},
        )
        assert solver.dispatch_plan is None
        assert solver.matrix_format == "csr"


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

    def test_apply_plan_folds_only_a_unanimous_switch(self, problem8):
        from repro.core.config import BenchmarkConfig

        cfg = BenchmarkConfig()
        assert apply_plan_to_config(cfg, unanimous_plan(problem8.A, "ell")) is cfg
        tuned = apply_plan_to_config(cfg, unanimous_plan(problem8.A, "csr"))
        assert tuned.matrix_format == "csr"
        assert tuned.with_updates(matrix_format="ell") == cfg

    def test_tune_for_config_uses_the_cache(self, tmp_path):
        from repro.core.config import BenchmarkConfig

        cfg = BenchmarkConfig(local_nx=8, nlevels=2, impl="reference")
        cache = PlanCache(str(tmp_path / "cache.json"))
        _, hit = tune_for_config(cfg, cache=cache)
        assert not hit
        _, hit = tune_for_config(cfg, cache=cache)
        assert hit

    def test_tune_report_prints_one_format_per_entry(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cache.json")
        assert main(["tune", "--local-nx", "16", "--report", "--cache", path]) == 0
        out = capsys.readouterr().out
        assert "solver-wide consensus: format=" in out
        for op in MATRIX_PROBE_OPS:
            for rung in ("fp64", "fp32"):
                (line,) = [
                    ln for ln in out.splitlines() if ln.split()[:1] == [f"{op}@{rung}"]
                ]
                assert line.split()[2] in FORMATS
        assert "probe report (every measured format)" in out


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

"""Integration tests for the HPG-MxP and HPCG benchmark drivers."""

import pytest

from repro.core import (
    BenchmarkConfig,
    HPCGConfig,
    format_report,
    result_to_dict,
    run_benchmark,
    run_hpcg,
    run_validation,
)
from repro.core.config import OFFICIAL_TABLE1


@pytest.fixture(scope="module")
def small_config():
    return BenchmarkConfig(
        local_nx=16, nranks=1, max_iters_per_solve=25, validation_max_iters=300
    )


@pytest.fixture(scope="module")
def small_result(small_config):
    return run_benchmark(small_config)


class TestBenchmarkConfig:
    def test_defaults_validate(self):
        BenchmarkConfig()

    def test_rejects_bad_impl(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(impl="fast")

    def test_rejects_nondivisible_dims(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(local_nx=20)  # 20 % 8 != 0

    def test_rejects_too_small_dims(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(local_nx=8)  # needs >= 16 for 4 levels

    def test_validation_ranks_clamped(self):
        cfg = BenchmarkConfig(local_nx=16, nranks=2)
        assert cfg.effective_validation_ranks == 2

    def test_validation_ranks_default_is_one_node(self):
        cfg = BenchmarkConfig(local_nx=16, nranks=16)
        assert cfg.effective_validation_ranks == 8

    def test_impl_maps_to_mg_and_format(self):
        opt = BenchmarkConfig(local_nx=16)
        ref = BenchmarkConfig(local_nx=16, impl="reference")
        assert opt.mg_config().smoother == "multicolor"
        assert opt.matrix_format == "ell"
        assert ref.mg_config().smoother == "levelsched"
        assert not ref.mg_config().fused_restrict
        assert ref.matrix_format == "csr"

    def test_with_updates_impl_rederives_format(self):
        cfg = BenchmarkConfig(local_nx=16)  # resolves to ell
        assert cfg.with_updates(impl="reference").matrix_format == "csr"
        # An explicitly pinned format survives an impl change.
        pinned = BenchmarkConfig(local_nx=16, matrix_format="csr")
        assert pinned.with_updates(impl="reference").matrix_format == "csr"
        # Auto-derivation survives chains of unrelated updates.
        chained = cfg.with_updates(nranks=8).with_updates(impl="reference")
        assert chained.matrix_format == "csr"
        # ... and pinning survives chains too.
        chained_pin = pinned.with_updates(nranks=8).with_updates(impl="reference")
        assert chained_pin.matrix_format == "csr"

    def test_explicit_format_overrides_impl(self):
        cfg = BenchmarkConfig(local_nx=16, impl="reference", matrix_format="ell")
        assert cfg.matrix_format == "ell"

    @pytest.mark.parametrize("fmt", ["coo", "sell" + "cs"])
    def test_unknown_format_lists_registered(self, fmt):
        with pytest.raises(ValueError, match=r"registered formats: \['csr', 'ell'\]"):
            BenchmarkConfig(local_nx=16, matrix_format=fmt)

    def test_policies(self):
        cfg = BenchmarkConfig(local_nx=16)
        assert cfg.mixed_policy().low.short_name == "fp32"
        assert cfg.double_policy().is_uniform_double

    def test_table1_official_values(self):
        cfg = BenchmarkConfig(local_nx=16)
        t = cfg.table1()
        assert t["Restart length"][0] == 30
        assert t["Local mesh size"][0] == "320^3"
        assert t["Max. GMRES iterations per solve"][0] == 300
        assert t["No. GCDs used for validation"][0] == 8
        assert len(t) == len(OFFICIAL_TABLE1)

    def test_nodes(self):
        assert BenchmarkConfig(local_nx=16, nranks=16).nodes == 2.0

    def test_with_updates(self):
        cfg = BenchmarkConfig(local_nx=16).with_updates(nranks=4)
        assert cfg.nranks == 4
        assert cfg.local_nx == 16


class TestValidation:
    def test_standard_mode(self):
        cfg = BenchmarkConfig(
            local_nx=16, nranks=1, validation_max_iters=300
        )
        val = run_validation(cfg)
        assert val.mode == "standard"
        assert val.double_converged and val.ir_converged
        assert val.n_ir >= val.n_d  # fp32 never converges faster here
        assert 0.0 < val.penalty <= 1.0
        assert val.penalty == min(1.0, val.ratio)

    def test_fullscale_mode_small_scale_hits_tolerance(self):
        """At small scale fullscale behaves like standard (§3.3)."""
        cfg = BenchmarkConfig(
            local_nx=16,
            nranks=1,
            validation_mode="fullscale",
            validation_max_iters=300,
        )
        val = run_validation(cfg)
        assert val.mode == "fullscale"
        assert val.double_relres < 1e-9  # tolerance reached, not the cap
        assert val.target_residual is not None
        assert val.ir_converged

    def test_fullscale_mode_cap_binds(self):
        """With a tight iteration cap the achieved residual stalls above
        the tolerance — the paper's large-scale regime."""
        cfg = BenchmarkConfig(
            local_nx=16, nranks=1, validation_mode="fullscale",
            validation_max_iters=8,
        )
        val = run_validation(cfg)
        assert val.n_d == 8
        assert val.double_relres > 1e-9  # cap bound first
        # mxp converges to (or stalls within a hair of) the achieved
        # residual — Table 2's full-scale ratios straddle 1.0 for
        # exactly this reason.
        assert val.ir_relres <= val.double_relres * 1.05
        assert val.ratio == pytest.approx(8 / val.n_ir)


class TestBenchmarkDriver:
    def test_phases_present(self, small_result):
        assert small_result.mxp.label == "mxp"
        assert small_result.double.label == "double"
        assert small_result.validation.n_d > 0

    def test_flops_identical_across_phases(self, small_result):
        """Both phases run the same fixed iteration budget, so the flop
        model must charge them identically."""
        assert small_result.mxp.total_flops == small_result.double.total_flops

    def test_penalty_only_on_mxp(self, small_result):
        assert small_result.mxp.penalty == small_result.validation.penalty
        assert small_result.double.penalty == 1.0

    def test_speedups_contains_total(self, small_result):
        assert "total" in small_result.speedups
        assert small_result.speedup == small_result.speedups["total"]

    def test_motif_seconds_positive(self, small_result):
        for phase in (small_result.mxp, small_result.double):
            for motif in ("gs", "ortho", "spmv", "restrict"):
                assert phase.seconds_by_motif.get(motif, 0) > 0, (phase.label, motif)

    def test_report_renders(self, small_result):
        text = format_report(small_result)
        assert "HPG-MxP" in text
        assert "Validation" in text
        assert "GFLOP/s" in text
        assert "Speedups" in text

    def test_result_to_dict_roundtrips_keys(self, small_result):
        d = result_to_dict(small_result)
        assert d["validation"]["n_d"] == small_result.validation.n_d
        assert d["mxp"]["gflops"] == small_result.mxp.gflops
        assert d["config"]["impl"] == "optimized"

    def test_distributed_run(self):
        cfg = BenchmarkConfig(
            local_nx=16, nranks=2, max_iters_per_solve=10, validation_max_iters=150
        )
        res = run_benchmark(cfg)
        assert res.mxp.iterations == 10
        assert res.validation.ranks == 2

    def test_reference_impl_runs(self):
        cfg = BenchmarkConfig(
            local_nx=16,
            nranks=1,
            impl="reference",
            max_iters_per_solve=10,
            validation_max_iters=150,
        )
        res = run_benchmark(cfg)
        assert res.mxp.total_flops > 0
        # Unfused restriction charges more restrict flops than fused.
        opt = run_benchmark(
            BenchmarkConfig(
                local_nx=16, nranks=1, max_iters_per_solve=10,
                validation_max_iters=150,
            )
        )
        assert (
            res.mxp.flops_by_motif["restrict"] > opt.mxp.flops_by_motif["restrict"]
        )


class TestHPCG:
    def test_runs_and_reports(self):
        res = run_hpcg(HPCGConfig(local_nx=16, maxiter=8))
        assert res.iterations == 8
        assert res.gflops > 0
        assert res.metrics.flops_by_motif["gs"] > 0

    def test_residual_decreases(self):
        res = run_hpcg(HPCGConfig(local_nx=16, maxiter=8))
        assert res.final_relres < 1.0

    def test_distributed(self):
        res = run_hpcg(HPCGConfig(local_nx=16, nranks=2, maxiter=5))
        assert res.iterations == 5

    def test_symgs_flops_double_gmres_gs(self):
        """HPCG's symmetric sweeps charge 2x the GS flops of HPG-MxP's
        forward sweeps at the same size/iterations."""
        from repro.core.flops import flops_mg_vcycle, hierarchy_dims
        from repro.mg.multigrid import MGConfig

        dims = hierarchy_dims(16, 16, 16, 4)
        f = flops_mg_vcycle(dims, MGConfig())["gs"]
        s = flops_mg_vcycle(dims, MGConfig(sweep="symmetric"))["gs"]
        assert s == 2 * f

"""The --distributed benchmark phase and its CI regression gate."""

import json
import sys

import numpy as np
import pytest

from repro.core import (
    BenchmarkConfig,
    parse_process_grid,
    run_distributed_phase,
)


class TestProcessGridParsing:
    @pytest.mark.parametrize(
        "spec,expected",
        [("2x1x1", (2, 1, 1)), ("2x2x1", (2, 2, 1)), ("1X1X1", (1, 1, 1))],
    )
    def test_valid(self, spec, expected):
        assert parse_process_grid(spec) == expected

    @pytest.mark.parametrize("spec", ["2x2", "2x2x2x2", "ax1x1", "0x1x1", ""])
    def test_invalid(self, spec):
        with pytest.raises(ValueError):
            parse_process_grid(spec)

    def test_config_validates_grid(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(distributed_grid="3x")
        cfg = BenchmarkConfig(distributed_grid="2x1x1")
        assert cfg.distributed_shape == (2, 1, 1)
        assert cfg.distributed_ranks == 2

    def test_config_validates_budget(self):
        with pytest.raises(ValueError, match="budget"):
            BenchmarkConfig(distributed_grid="2x1x1", distributed_budget_seconds=0)

    def test_config_validates_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            BenchmarkConfig(overlap="sometimes")

    def test_config_validates_rhs_panel(self):
        with pytest.raises(ValueError, match="rhs_panel"):
            BenchmarkConfig(rhs_panel=0)
        assert BenchmarkConfig(rhs_panel=8).rhs_panel == 8


class TestDistributedPhase:
    @pytest.fixture(scope="class")
    def phase(self):
        cfg = BenchmarkConfig(
            local_nx=16,
            distributed_grid="2x1x1",
            distributed_budget_seconds=0.2,
            max_iters_per_solve=10,
        )
        return run_distributed_phase(cfg)

    def test_runs_to_budget(self, phase):
        assert phase.nranks == 2
        assert phase.grid == (2, 1, 1)
        assert phase.solves >= 1
        assert phase.iterations == phase.solves * 10
        assert phase.wall_seconds >= 0.2

    def test_comm_traffic_recorded(self, phase):
        # 2x1x1: one face neighbor per rank, fp32 inner + fp64 outer
        # exchanges every iteration — traffic must be visible.
        assert phase.send_bytes > 0
        assert phase.comm_bytes_per_iteration > 0
        assert phase.model_bytes_per_cycle > 0

    def test_motif_seconds_present(self, phase):
        assert phase.seconds_by_motif.get("spmv", 0) > 0
        assert phase.seconds_per_solve > 0

    def test_to_dict_round_trips_json(self, phase):
        rec = json.loads(json.dumps(phase.to_dict()))
        assert rec["nranks"] == 2
        assert rec["comm_bytes_per_iteration"] == pytest.approx(
            phase.comm_bytes_per_iteration
        )

    def test_requires_grid(self):
        with pytest.raises(ValueError, match="not set"):
            run_distributed_phase(BenchmarkConfig())

    def test_single_rank_grid_runs_serial(self):
        cfg = BenchmarkConfig(
            local_nx=16,
            distributed_grid="1x1x1",
            distributed_budget_seconds=0.05,
            max_iters_per_solve=5,
        )
        phase = run_distributed_phase(cfg)
        assert phase.nranks == 1
        assert phase.send_bytes == 0  # no neighbors


class TestCLIDistributed:
    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--distributed", "2x1x1", "--distributed-budget", "0.3",
             "--bench-out", "x.json", "--no-overlap", "--rhs-panel", "8"]
        )
        assert args.distributed == "2x1x1"
        assert args.distributed_budget == 0.3
        assert args.bench_out == "x.json"
        assert args.no_overlap
        assert args.rhs_panel == 8

    def test_run_with_distributed_and_bench_out(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "BENCH_ci.json"
        rc = main(
            [
                "run",
                "--local-nx", "16",
                "--max-iters", "5",
                "--validation-max-iters", "100",
                "--distributed", "2x1x1",
                "--distributed-budget", "0.1",
                "--bench-out", str(out),
            ]
        )
        assert rc == 0
        report = capsys.readouterr().out
        assert "[Phase: distributed]" in report
        rec = json.loads(out.read_text())
        assert rec["nranks"] == 2
        assert rec["comm_bytes_per_iteration"] > 0
        assert rec["config"]["grid"] == "2x1x1"


class TestCheckRegression:
    @pytest.fixture()
    def gate(self):
        sys.path.insert(0, "benchmarks")
        try:
            import check_regression
        finally:
            sys.path.pop(0)
        return check_regression

    def test_pass_within_threshold(self, gate):
        # Byte metrics are deterministic and gate at a tight 2%
        # regardless of the CLI threshold; wall clock rides the CLI's.
        base = {"comm_bytes_per_iteration": 100.0, "seconds_per_solve": 1.0}
        cur = {"comm_bytes_per_iteration": 101.0, "seconds_per_solve": 1.1}
        failures, _ = gate.compare(cur, base, threshold=0.2)
        assert failures == []

    def test_deterministic_bytes_gate_tightly(self, gate):
        base = {"comm_bytes_per_iteration": 100.0}
        cur = {"comm_bytes_per_iteration": 110.0}  # +10%: under the CLI
        failures, _ = gate.compare(cur, base, threshold=0.2)
        assert len(failures) == 1  # ... but over the 2% byte gate

    def test_fail_beyond_threshold(self, gate):
        base = {"comm_bytes_per_iteration": 100.0}
        cur = {"comm_bytes_per_iteration": 130.0}
        failures, _ = gate.compare(cur, base, threshold=0.2)
        assert len(failures) == 1
        assert "comm_bytes_per_iteration" in failures[0]

    def test_improvement_never_fails(self, gate):
        base = {"seconds_per_solve": 1.0}
        cur = {"seconds_per_solve": 0.2}
        failures, notes = gate.compare(cur, base, threshold=0.2)
        assert failures == []
        assert any("refreshing" in n for n in notes)

    def test_missing_metric_in_current_fails(self, gate):
        failures, _ = gate.compare({}, {"seconds_per_solve": 1.0}, 0.2)
        assert failures

    def test_bytes_per_rhs_gates_tightly(self, gate):
        base = {"bytes_per_rhs": 100.0}
        cur = {"bytes_per_rhs": 105.0}  # +5%: under the CLI threshold
        failures, _ = gate.compare(cur, base, threshold=0.2)
        assert len(failures) == 1  # ... but over the 2% byte gate
        assert "bytes_per_rhs" in failures[0]

    def test_panel_reuse_drop_fails(self, gate):
        # Higher-is-better: a reuse *drop* beyond 2% fails ...
        base = {"panel_matrix_reuse": 8.0}
        failures, _ = gate.compare({"panel_matrix_reuse": 7.0}, base, threshold=0.2)
        assert len(failures) == 1
        assert "higher is better" in failures[0]
        # ... while an increase only suggests a baseline refresh.
        failures, notes = gate.compare(
            {"panel_matrix_reuse": 16.0}, base, threshold=0.2
        )
        assert failures == []
        assert any("refreshing" in n for n in notes)

    def test_panel_metrics_absent_from_baseline_skip(self, gate):
        cur = {"bytes_per_rhs": 100.0, "panel_matrix_reuse": 8.0}
        failures, notes = gate.compare(cur, {}, threshold=0.2)
        assert failures == []
        assert any("skipped" in n for n in notes)

    def test_main_against_committed_baseline(self, gate, tmp_path):
        """The committed baseline gates a record identical to itself."""
        with open("benchmarks/BENCH_baseline.json") as f:
            baseline = json.load(f)
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(baseline))
        rc = gate.main(
            [str(cur), "--baseline", "benchmarks/BENCH_baseline.json"]
        )
        assert rc == 0


class TestBatchedPhase:
    """PR 6: the batched multi-RHS segment of the distributed phase."""

    @pytest.fixture(scope="class")
    def phase(self):
        cfg = BenchmarkConfig(
            local_nx=16,
            distributed_grid="2x1x1",
            distributed_budget_seconds=0.1,
            max_iters_per_solve=5,
            rhs_panel=8,
        )
        return run_distributed_phase(cfg)

    def test_panel_metrics_recorded(self, phase):
        assert phase.rhs_panel == 8
        assert phase.panel_wall_seconds > 0
        # Lockstep panel steps stream the matrix once for all 8
        # columns: the measured reuse is exactly the panel width.
        assert phase.panel_matrix_reuse == pytest.approx(8.0)

    def test_modeled_bytes_per_rhs_amortizes(self, phase):
        assert phase.bytes_per_rhs > 0
        # Acceptance: matrix traffic amortized >= 2x by a panel of 8.
        assert phase.model_bytes_per_cycle / phase.bytes_per_rhs >= 2.0

    def test_setup_cache_counters_exported(self, phase):
        # The batched segment builds one solver cold (misses) and one
        # from the cache (hits): both counters must be visible.
        assert phase.panel_setup_cache_misses > 0
        assert phase.panel_setup_cache_hits == phase.panel_setup_cache_misses

    def test_panel_segment_does_not_pollute_timed_window(self, phase):
        # The timed window's comm counters are snapshotted before the
        # batched segment runs; per-iteration traffic must match the
        # unbatched phase (the committed baseline's value, ~5985 at
        # this config -- a panel leak would roughly double it).
        cfg = BenchmarkConfig(
            local_nx=16,
            distributed_grid="2x1x1",
            distributed_budget_seconds=0.1,
            max_iters_per_solve=5,
        )
        unbatched = run_distributed_phase(cfg)
        assert phase.comm_bytes_per_iteration == pytest.approx(
            unbatched.comm_bytes_per_iteration
        )

    def test_to_dict_round_trips_panel_fields(self, phase):
        rec = json.loads(json.dumps(phase.to_dict()))
        assert rec["rhs_panel"] == 8
        assert rec["panel_matrix_reuse"] == pytest.approx(8.0)
        assert rec["bytes_per_rhs"] == pytest.approx(phase.bytes_per_rhs)
        assert rec["panel_setup_cache_hits"] > 0

    def test_default_panel_of_one_skips_segment(self):
        cfg = BenchmarkConfig(
            local_nx=16,
            distributed_grid="2x1x1",
            distributed_budget_seconds=0.05,
            max_iters_per_solve=5,
        )
        phase = run_distributed_phase(cfg)
        assert phase.rhs_panel == 1
        assert phase.panel_wall_seconds == 0.0
        assert phase.panel_matrix_reuse == 0.0
        # bytes_per_rhs at panel 1 is the whole cycle's bytes.
        assert phase.bytes_per_rhs == pytest.approx(phase.model_bytes_per_cycle)


class TestHaloByteModel:
    def test_halo_entry_scales_with_rung(self):
        """cycle_traffic_bytes charges halo bytes at each level's rung:
        all-fp32 ships fewer wire bytes than the fp32:fp64 ladder (fp64
        coarse levels) than all-fp64."""
        from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
        from repro.fp.policy import PrecisionPolicy
        from repro.perf.scaling import ScalingModel

        model = ScalingModel()
        ladder = model.cycle_traffic_bytes(
            PrecisionPolicy.from_ladder("fp32:fp64")
        )
        fp32 = model.cycle_traffic_bytes(MIXED_DS_POLICY)
        fp64 = model.cycle_traffic_bytes(DOUBLE_POLICY)
        assert fp32["halo"] < ladder["halo"] < fp64["halo"]
        for rec in (ladder, fp32, fp64):
            assert rec["halo"] > 0
            assert rec["total"] == pytest.approx(
                sum(v for k, v in rec.items() if k != "total")
            )

    def test_halo_is_surface_not_volume(self):
        """Halo bytes grow ~quadratically with the box edge while HBM
        motifs grow cubically (the §2 surface-to-volume argument)."""
        from repro.fp import MIXED_DS_POLICY
        from repro.perf.scaling import ScalingModel

        small = ScalingModel(local_dims=(32, 32, 32)).cycle_traffic_bytes(
            MIXED_DS_POLICY
        )
        big = ScalingModel(local_dims=(64, 64, 64)).cycle_traffic_bytes(
            MIXED_DS_POLICY
        )
        halo_ratio = big["halo"] / small["halo"]
        hbm_ratio = big["mg"] / small["mg"]
        assert 3.0 < halo_ratio < 5.0  # ~x4 surface scaling
        assert 6.0 < hbm_ratio < 10.0  # ~x8 volume scaling

    def test_measured_comm_consistent_with_surface(self):
        """The measured per-iteration comm bytes of a 2x1x1 run match
        the hand-counted face exchange volume."""
        cfg = BenchmarkConfig(
            local_nx=16,
            distributed_grid="2x1x1",
            distributed_budget_seconds=0.1,
            max_iters_per_solve=5,
        )
        phase = run_distributed_phase(cfg)
        # Lower bound: each iteration exchanges at least the fine-level
        # face (16x16 points) once in fp32 and once in fp64.
        face = 16 * 16
        assert phase.comm_bytes_per_iteration > face * 4
        # Upper bound sanity: well below shipping the whole local box.
        assert phase.comm_bytes_per_iteration < 16**3 * 8 * np.float64(4)


class TestHaloMeasurement:
    """PR 4: measured halo counters and modeled-vs-measured reporting."""

    @pytest.fixture(scope="class")
    def phase(self):
        cfg = BenchmarkConfig(
            local_nx=16,
            distributed_grid="2x1x1",
            distributed_budget_seconds=0.2,
            max_iters_per_solve=10,
        )
        return run_distributed_phase(cfg)

    def test_halo_counters_recorded(self, phase):
        assert phase.halo_seconds > 0
        assert phase.halo_exchanges > 0
        assert phase.send_messages > 0

    def test_modeled_vs_measured_halo_bytes(self, phase):
        assert phase.halo_bytes_measured_per_iteration > 0
        assert phase.halo_bytes_modeled_per_iteration > 0
        # The model assumes a 26-neighbor middle rank; a 2x1x1 face
        # exchange ships a fraction of that, never more.
        assert 0 < phase.halo_model_ratio < 1.5

    def test_motif_breakdown_in_record(self, phase):
        rec = phase.to_dict()
        motifs = rec["motif_seconds_per_solve"]
        assert set(motifs) == {"spmv", "symgs", "ortho", "halo"}
        assert motifs["spmv"] > 0
        assert motifs["halo"] > 0
        assert rec["halo_bytes_modeled_per_iteration"] == pytest.approx(
            phase.halo_bytes_modeled_per_iteration
        )

    def test_serial_grid_has_no_halo(self):
        cfg = BenchmarkConfig(
            local_nx=16,
            distributed_grid="1x1x1",
            distributed_budget_seconds=0.05,
            max_iters_per_solve=5,
        )
        phase = run_distributed_phase(cfg)
        assert phase.halo_bytes_measured_per_iteration == 0
        assert phase.halo_bytes_modeled_per_iteration == 0
        assert phase.halo_model_ratio == 0


class TestMotifGate:
    @pytest.fixture()
    def gate(self):
        sys.path.insert(0, "benchmarks")
        try:
            import check_regression
        finally:
            sys.path.pop(0)
        return check_regression

    def test_motif_within_threshold_passes(self, gate):
        base = {"motif_seconds_per_solve": {"spmv": 0.1, "symgs": 0.2}}
        cur = {"motif_seconds_per_solve": {"spmv": 0.3, "symgs": 0.2}}
        failures, notes = gate.compare(cur, base, 0.2, motif_threshold=4.0)
        assert failures == []  # 3x is under the 5x motif gate

    def test_motif_catastrophe_fails(self, gate):
        base = {"motif_seconds_per_solve": {"halo": 0.01}}
        cur = {"motif_seconds_per_solve": {"halo": 0.2}}
        failures, _ = gate.compare(cur, base, 0.2, motif_threshold=4.0)
        assert len(failures) == 1
        assert "halo" in failures[0]

    def test_missing_motif_in_current_fails(self, gate):
        base = {"motif_seconds_per_solve": {"spmv": 0.1}}
        failures, _ = gate.compare({}, base, 0.2)
        assert any("spmv" in f for f in failures)

    def test_baseline_without_motifs_skips(self, gate):
        cur = {"motif_seconds_per_solve": {"spmv": 0.1}}
        failures, notes = gate.compare(cur, {}, 0.2)
        assert failures == []
        assert any("skipped" in n for n in notes)

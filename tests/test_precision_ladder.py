"""The precision-ladder subsystem: schedules, escalation, byte model.

Covers the ladder end-to-end: spec parsing and promotion algebra in
``repro.fp.ladder``, the per-MG-level schedule through the policy and
the multigrid hierarchy, the adaptive escalation controller inside
GMRES-IR (the acceptance case: an fp16 fine-level inner stage converges
to the fp64 baseline's outer tolerance, promoting at least once on an
ill-conditioned solve), and the per-level byte-traffic model.
"""

import numpy as np
import pytest
from helpers_distributed import defect_panel_pooled

from repro.fp import (
    DOUBLE_POLICY,
    EscalationConfig,
    HALF_LADDER_POLICY,
    MIXED_DS_POLICY,
    NO_ESCALATION,
    Precision,
    PrecisionPolicy,
    format_ladder,
    next_rung,
    parse_ladder,
    schedule_for_levels,
)
from repro.geometry import Subdomain
from repro.parallel import SerialComm
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.stencil import generate_problem


class TestLadder:
    def test_next_rung(self):
        assert next_rung("fp16") is Precision.SINGLE
        assert next_rung(Precision.SINGLE) is Precision.DOUBLE
        assert next_rung("fp64") is Precision.DOUBLE  # top is a fixpoint

    def test_parse_and_format_roundtrip(self):
        sched = parse_ladder("fp16:fp32:fp64")
        assert sched == (Precision.HALF, Precision.SINGLE, Precision.DOUBLE)
        assert format_ladder(sched) == "fp16:fp32:fp64"

    def test_parse_accepts_aliases_and_sequences(self):
        assert parse_ladder("half:single") == (
            Precision.HALF,
            Precision.SINGLE,
        )
        assert parse_ladder([Precision.HALF, "fp64"]) == (
            Precision.HALF,
            Precision.DOUBLE,
        )
        assert parse_ladder(Precision.DOUBLE) == (Precision.DOUBLE,)

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="empty"):
            parse_ladder("")
        with pytest.raises(ValueError, match="fp16"):
            parse_ladder("fp16:bf16")  # error names the valid rungs

    def test_schedule_extends_last_rung(self):
        assert schedule_for_levels("fp16:fp32", 4) == (
            Precision.HALF,
            Precision.SINGLE,
            Precision.SINGLE,
            Precision.SINGLE,
        )
        assert schedule_for_levels("fp32", 2) == (
            Precision.SINGLE,
            Precision.SINGLE,
        )
        # Longer than the hierarchy: truncated.
        assert schedule_for_levels("fp16:fp32:fp64", 2) == (
            Precision.HALF,
            Precision.SINGLE,
        )

    def test_escalation_config_validation(self):
        with pytest.raises(ValueError):
            EscalationConfig(stall_ratio=0.0)
        with pytest.raises(ValueError):
            EscalationConfig(min_cycles=0)
        assert not NO_ESCALATION.enabled


class TestPolicySchedule:
    def test_mg_levels_normalized_from_spec(self):
        p = PrecisionPolicy(mg_levels="fp16:fp32")
        assert p.mg_levels == (Precision.HALF, Precision.SINGLE)
        assert p.preconditioner is Precision.HALF  # fine level
        assert p.mg_level(0) is Precision.HALF
        assert p.mg_level(5) is Precision.SINGLE  # last entry extends
        assert p.mg_schedule(4) == (
            Precision.HALF,
            Precision.SINGLE,
            Precision.SINGLE,
            Precision.SINGLE,
        )

    def test_from_ladder_sets_fine_rung_everywhere(self):
        p = PrecisionPolicy.from_ladder("fp16:fp32:fp64")
        assert p.matrix is Precision.HALF
        assert p.krylov_basis is Precision.HALF
        assert p.orthogonalization is Precision.HALF
        assert p.mg_levels == (
            Precision.HALF,
            Precision.SINGLE,
            Precision.DOUBLE,
        )
        assert p.least_squares is Precision.DOUBLE
        assert p.residual_update is Precision.DOUBLE
        assert p.low is Precision.HALF

    def test_promote_climbs_one_rung(self):
        p = HALF_LADDER_POLICY.promote()
        assert p.matrix is Precision.SINGLE
        assert p.mg_levels == (
            Precision.SINGLE,
            Precision.DOUBLE,
            Precision.DOUBLE,
        )
        assert p.residual_update is Precision.DOUBLE
        p2 = p.promote()
        assert p2.is_uniform_double
        assert p2.promote() is p2  # top of the ladder

    def test_can_promote(self):
        assert HALF_LADDER_POLICY.can_promote
        assert MIXED_DS_POLICY.can_promote
        assert not DOUBLE_POLICY.can_promote

    def test_describe_shows_schedule(self):
        assert "mg=fp16:fp32:fp64" in HALF_LADDER_POLICY.describe()

    def test_low_spans_schedule(self):
        p = PrecisionPolicy(mg_levels=("fp64", "fp16"))
        assert p.low is Precision.HALF


class TestLadderHierarchy:
    def test_per_level_dtypes(self, problem16, comm):
        from repro.mg import MGConfig, MultigridPreconditioner

        mg = MultigridPreconditioner.build(
            problem16, comm, MGConfig(), precision="fp16:fp32:fp64"
        )
        assert [lv.A.dtype for lv in mg.levels] == [
            np.float16,
            np.float32,
            np.float64,
            np.float64,
        ]
        assert mg.describe_schedule() == "fp16:fp32:fp64:fp64"
        assert mg.precision is Precision.HALF
        # The defect of each level crosses to the *coarser* rung: the
        # V-cycle pools its coarse-defect panels at exactly those dtypes.
        mg.apply(problem16.b)
        assert defect_panel_pooled(mg, 0, np.float32)
        assert defect_panel_pooled(mg, 1, np.float64)
        dims = mg.level_dims()
        assert [d["value_bytes"] for d in dims] == [2, 4, 8, 8]

    def test_ladder_vcycle_tracks_fp64(self, problem16, comm):
        from repro.mg import MGConfig, MultigridPreconditioner

        mg = MultigridPreconditioner.build(
            problem16, comm, MGConfig(), precision="fp16:fp32:fp64"
        )
        mg64 = MultigridPreconditioner.build(
            problem16, comm, MGConfig(), precision="fp64"
        )
        z = mg.apply(problem16.b.astype(np.float16)).astype(np.float64)
        z64 = mg64.apply(problem16.b)
        rel = np.linalg.norm(z - z64) / np.linalg.norm(z64)
        assert rel < 5e-3  # fp16-roundoff-level agreement

    def test_levelsched_rejects_fp16_schedule(self, problem16, comm):
        from repro.mg import MGConfig, MultigridPreconditioner

        with pytest.raises(ValueError, match="multicolor"):
            MultigridPreconditioner.build(
                problem16,
                comm,
                MGConfig(smoother="levelsched"),
                precision="fp16:fp32",
            )


class TestEscalation:
    @pytest.fixture(scope="class")
    def hard_problem(self):
        """Ill-conditioned case: the near-singular stencil (interior row
        sums are exactly zero) with a generic rhs whose solution is not
        fp16-representable — the fp16 stage must hit its floor."""
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(7).standard_normal(prob.nlocal)
        return prob, b

    def test_fp16_ladder_reaches_fp64_tolerance(self, hard_problem):
        """Acceptance: fp16 fine-level inner stage converges to the
        fp64 baseline's outer tolerance via escalation, recording at
        least one promotion."""
        prob, b = hard_problem
        comm = SerialComm()
        tol = 1e-11

        baseline = GMRESIRSolver(prob, comm, policy=DOUBLE_POLICY)
        _, st64 = baseline.solve(b, tol=tol, maxiter=300)
        assert st64.converged

        solver = GMRESIRSolver(prob, comm, policy=HALF_LADDER_POLICY)
        assert solver.escalation.enabled  # default for fp16 rungs
        x, st = solver.solve(b, tol=tol, maxiter=300)
        assert st.converged
        assert st.final_relres <= tol
        assert len(st.promotions) >= 1
        promo = st.promotions[0]
        assert promo.from_low is Precision.HALF
        assert promo.to_low.bytes > Precision.HALF.bytes
        assert promo.reason in ("stall", "floor", "breakdown")
        # The promoted solver carries the higher rung.
        assert solver.policy.low.bytes > Precision.HALF.bytes

    def test_pinned_fp16_stalls(self, hard_problem):
        """Without escalation the same configuration cannot get there —
        the stall the controller exists to break."""
        prob, b = hard_problem
        solver = GMRESIRSolver(
            prob, SerialComm(), policy=HALF_LADDER_POLICY, escalation=False
        )
        _, st = solver.solve(b, tol=1e-11, maxiter=120)
        assert not st.converged
        assert not st.promotions

    def test_fixed_policies_never_promote(self, problem16, comm):
        """The paper's fp32 configuration keeps its fixed policy."""
        solver = GMRESIRSolver(problem16, comm, policy=MIXED_DS_POLICY)
        assert not solver.escalation.enabled  # default: fp32 stays fixed
        _, st = solver.solve(problem16.b, tol=1e-9, maxiter=300)
        assert st.converged and not st.promotions

    def test_promotions_in_timeline(self, hard_problem):
        from repro.trace import promotions_to_timeline

        prob, b = hard_problem
        solver = GMRESIRSolver(prob, SerialComm(), policy=HALF_LADDER_POLICY)
        _, st = solver.solve(b, tol=1e-11, maxiter=300)
        tl = promotions_to_timeline(st.promotions)
        assert len(tl.events) == len(st.promotions) >= 1
        ev = tl.events[0]
        assert ev.stream == "precision"
        assert "fp16" in ev.name and ev.start == st.promotions[0].iteration
        assert "promotion" in st.summary()


class TestByteTrafficModel:
    def test_ladder_strictly_below_fp32(self):
        """Acceptance: modeled bytes of the fp16 ladder < all-fp32."""
        from repro.perf.scaling import ScalingModel

        model = ScalingModel()
        ladder = model.cycle_traffic_bytes(HALF_LADDER_POLICY)
        fp32 = model.cycle_traffic_bytes(MIXED_DS_POLICY)
        fp64 = model.cycle_traffic_bytes(DOUBLE_POLICY)
        assert ladder["total"] < fp32["total"] < fp64["total"]
        # The win comes from the fine-level widths specifically.
        assert ladder["mg"] < fp32["mg"]
        assert ladder["spmv"] < fp32["spmv"]

    def test_per_level_widths_matter(self):
        """A coarse-only fp16 schedule saves less than a fine-level one
        (the fine level dominates the traffic)."""
        from repro.perf.scaling import ScalingModel

        model = ScalingModel()
        fine_low = model.mg_vcycle_bytes(
            PrecisionPolicy(mg_levels="fp16:fp32")
        )
        coarse_low = model.mg_vcycle_bytes(
            PrecisionPolicy(mg_levels="fp32:fp16")
        )
        uniform32 = model.mg_vcycle_bytes(PrecisionPolicy(mg_levels="fp32"))
        assert fine_low < coarse_low < uniform32

    def test_time_model_accepts_schedule(self):
        from repro.perf.scaling import ScalingModel

        base = ScalingModel()
        laddered = ScalingModel(mg_schedule="fp16:fp32:fp64")
        t_base = base.mg_vcycle_times(Precision.SINGLE, 8, 1.0)
        t_ladder = laddered.mg_vcycle_times(Precision.SINGLE, 8, 1.0)
        assert t_ladder["gs"] < t_base["gs"]

    def test_memory_model_per_level(self):
        from repro.core.memory import solver_footprint

        dims = (32, 32, 32)
        ladder = solver_footprint(dims, HALF_LADDER_POLICY)
        fp32 = solver_footprint(dims, MIXED_DS_POLICY)
        # The fine level (matrix copy, basis) dominates: fp16 there wins
        # overall even though the upward ladder's *coarse* levels sit
        # above fp32 (they are 64x smaller).
        assert ladder.matrix_low < fp32.matrix_low
        assert ladder.krylov_basis < fp32.krylov_basis
        assert ladder.mg_hierarchy > fp32.mg_hierarchy
        assert ladder.total < fp32.total
        # A coarse-down schedule shrinks the hierarchy itself.
        down = solver_footprint(
            dims, PrecisionPolicy(matrix=Precision.SINGLE, mg_levels="fp32:fp16")
        )
        assert down.mg_hierarchy < fp32.mg_hierarchy


class TestConfigAndCLI:
    def test_config_builds_ladder_policy(self):
        from repro.core import BenchmarkConfig

        cfg = BenchmarkConfig(precision_ladder="fp16:fp32:fp64")
        pol = cfg.mixed_policy()
        assert pol.matrix is Precision.HALF
        assert pol.mg_levels == (
            Precision.HALF,
            Precision.SINGLE,
            Precision.DOUBLE,
        )
        assert cfg.escalation_config().enabled

    def test_config_without_ladder_keeps_classic_policy(self):
        from repro.core import BenchmarkConfig

        cfg = BenchmarkConfig()
        assert cfg.mixed_policy() == MIXED_DS_POLICY
        assert not cfg.escalation_config().enabled

    def test_config_escalation_off(self):
        from repro.core import BenchmarkConfig

        cfg = BenchmarkConfig(
            precision_ladder="fp16:fp32", escalation=False
        )
        assert not cfg.escalation_config().enabled

    def test_config_fp16_free_ladder_stays_fixed(self):
        """An fp32:fp64 ladder is a fixed configuration (no fp16 rung),
        matching the solver's own escalation default."""
        from repro.core import BenchmarkConfig

        cfg = BenchmarkConfig(precision_ladder="fp32:fp64")
        assert not cfg.escalation_config().enabled

    def test_shared_precond_replaced_on_promotion(self, comm):
        """A caller-supplied preconditioner on the old rung must not
        survive a promotion (it is the stalling component)."""
        from repro.mg import MGConfig, MultigridPreconditioner

        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(11).standard_normal(prob.nlocal)
        shared = MultigridPreconditioner.build(
            prob, comm, MGConfig(), precision="fp16:fp32:fp64"
        )
        solver = GMRESIRSolver(
            prob, comm, policy=HALF_LADDER_POLICY, precond=shared
        )
        _, st = solver.solve(b, tol=1e-11, maxiter=300)
        assert st.converged and st.promotions
        assert solver.M is not shared
        assert solver.M.precision is solver.policy.preconditioner

    def test_config_rejects_bad_ladder(self):
        from repro.core import BenchmarkConfig

        with pytest.raises(ValueError, match="fp16"):
            BenchmarkConfig(precision_ladder="fp16:bf16")

    def test_cli_accepts_ladder_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--precision-ladder", "fp16:fp32:fp64", "--no-escalation"]
        )
        assert args.precision_ladder == "fp16:fp32:fp64"
        assert args.no_escalation

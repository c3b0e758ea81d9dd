"""The precision-ladder subsystem: schedules, escalation, byte model.

Covers the ladder end-to-end: spec parsing and promotion algebra in
``repro.fp.ladder``, the refusal of every rung off the ladder (fp16)
before anything is built, the per-MG-level schedule through the policy
and the multigrid hierarchy, the adaptive escalation controller inside
GMRES-IR (the acceptance case: an opted-in ``fp32:fp64`` ladder stalls
on the measured fixture, promotes, and converges to the fp64
baseline's outer tolerance), and the per-level byte-traffic model.
"""

import tracemalloc

import numpy as np
import pytest
from helpers_distributed import STALL_ESCALATION, STALL_RESTART, defect_panel_pooled

import repro.cli
import repro.core
from repro.fp import (
    DOUBLE_POLICY,
    EscalationConfig,
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
from repro.mg import MGConfig, MultigridPreconditioner
from repro.parallel import SerialComm
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.stencil import generate_problem

LADDER_POLICY = PrecisionPolicy.from_ladder("fp32:fp64")


class TestLadder:
    def test_next_rung(self):
        assert next_rung("fp32") is Precision.DOUBLE
        assert next_rung(Precision.SINGLE) is Precision.DOUBLE
        assert next_rung("fp64") is Precision.DOUBLE  # top is a fixpoint

    def test_parse_and_format_roundtrip(self):
        sched = parse_ladder("fp32:fp64")
        assert sched == (Precision.SINGLE, Precision.DOUBLE)
        assert format_ladder(sched) == "fp32:fp64"

    def test_parse_accepts_aliases_and_sequences(self):
        assert parse_ladder("single:double") == (
            Precision.SINGLE,
            Precision.DOUBLE,
        )
        assert parse_ladder([Precision.SINGLE, "fp64"]) == (
            Precision.SINGLE,
            Precision.DOUBLE,
        )
        assert parse_ladder(Precision.DOUBLE) == (Precision.DOUBLE,)

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="empty"):
            parse_ladder("")
        with pytest.raises(ValueError, match="fp32"):
            parse_ladder("fp32:bf16")  # error names the valid rungs

    def test_schedule_extends_last_rung(self):
        assert schedule_for_levels("fp32:fp64", 4) == (
            Precision.SINGLE,
            Precision.DOUBLE,
            Precision.DOUBLE,
            Precision.DOUBLE,
        )
        assert schedule_for_levels("fp32", 2) == (
            Precision.SINGLE,
            Precision.SINGLE,
        )
        # Longer than the hierarchy: truncated.
        assert schedule_for_levels("fp32:fp64:fp32", 2) == (
            Precision.SINGLE,
            Precision.DOUBLE,
        )

    def test_escalation_config_validation(self):
        with pytest.raises(ValueError):
            EscalationConfig(stall_ratio=0.0)
        with pytest.raises(ValueError):
            EscalationConfig(min_cycles=0)
        assert not NO_ESCALATION.enabled


#: Every way a solver-facing fp16 request can arrive.  Each must raise
#: the one error naming the rung before any storage is built.
FP16_REQUESTS = {
    "from_ladder": lambda prob: PrecisionPolicy.from_ladder("fp16:fp32:fp64"),
    "with_low": lambda prob: DOUBLE_POLICY.with_low("fp16"),
    "mg_levels": lambda prob: PrecisionPolicy(mg_levels="fp16"),
    "mg_hierarchy": lambda prob: MultigridPreconditioner.build(
        prob, SerialComm(), MGConfig(), precision="fp16:fp32"
    ),
    "cli": lambda prob: repro.cli.main(
        ["run", "--precision-ladder", "fp16:fp32:fp64"]
    ),
}


class TestSolverRungs:
    @pytest.mark.parametrize("request_kind", list(FP16_REQUESTS))
    def test_fp16_is_refused_before_anything_is_built(
        self, request_kind, problem16
    ):
        tracemalloc.start()
        try:
            with pytest.raises(
                ValueError,
                match="^rung 'fp16' is not a solver precision; "
                "the ladder is 'fp32:fp64'$",
            ):
                FP16_REQUESTS[request_kind](problem16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A 16^3 hierarchy's first level matrix alone is ~1.3 MB.
        assert peak < 256 * 1024


class TestPolicySchedule:
    def test_mg_levels_normalized_from_spec(self):
        p = PrecisionPolicy(mg_levels="fp32:fp64")
        assert p.mg_levels == (Precision.SINGLE, Precision.DOUBLE)
        assert p.preconditioner is Precision.SINGLE  # fine level
        assert p.mg_level(0) is Precision.SINGLE
        assert p.mg_level(5) is Precision.DOUBLE  # last entry extends
        assert p.mg_schedule(4) == (
            Precision.SINGLE,
            Precision.DOUBLE,
            Precision.DOUBLE,
            Precision.DOUBLE,
        )

    def test_from_ladder_sets_fine_rung_everywhere(self):
        p = PrecisionPolicy.from_ladder("fp32:fp64")
        assert p.matrix is Precision.SINGLE
        assert p.krylov_basis is Precision.SINGLE
        assert p.orthogonalization is Precision.SINGLE
        assert p.mg_levels == (Precision.SINGLE, Precision.DOUBLE)
        assert p.least_squares is Precision.DOUBLE
        assert p.residual_update is Precision.DOUBLE
        assert p.low is Precision.SINGLE

    def test_promote_climbs_one_rung(self):
        p = LADDER_POLICY.promote()
        assert p.matrix is Precision.DOUBLE
        assert p.mg_levels == (Precision.DOUBLE, Precision.DOUBLE)
        assert p.residual_update is Precision.DOUBLE
        assert p.is_uniform_double
        assert p.promote() is p  # top of the ladder

    def test_can_promote(self):
        assert LADDER_POLICY.can_promote
        assert MIXED_DS_POLICY.can_promote
        assert not DOUBLE_POLICY.can_promote

    def test_describe_shows_schedule(self):
        assert "mg=fp32:fp64" in LADDER_POLICY.describe()

    def test_low_spans_schedule(self):
        p = PrecisionPolicy(mg_levels=("fp64", "fp32"))
        assert p.low is Precision.SINGLE


class TestLadderHierarchy:
    def test_per_level_dtypes(self, problem16, comm):
        mg = MultigridPreconditioner.build(
            problem16, comm, MGConfig(), precision="fp32:fp32:fp64"
        )
        assert [lv.A.dtype for lv in mg.levels] == [
            np.float32,
            np.float32,
            np.float64,
            np.float64,
        ]
        assert mg.describe_schedule() == "fp32:fp32:fp64:fp64"
        assert mg.precision is Precision.SINGLE
        # The defect of each level crosses to the *coarser* rung: the
        # V-cycle pools its coarse-defect panels at exactly those dtypes.
        mg.apply(problem16.b)
        assert defect_panel_pooled(mg, 0, np.float32)
        assert defect_panel_pooled(mg, 1, np.float64)
        dims = mg.level_dims()
        assert [d["value_bytes"] for d in dims] == [4, 4, 8, 8]

    def test_ladder_vcycle_tracks_fp64(self, problem16, comm):
        mg = MultigridPreconditioner.build(
            problem16, comm, MGConfig(), precision="fp32:fp64"
        )
        mg64 = MultigridPreconditioner.build(
            problem16, comm, MGConfig(), precision="fp64"
        )
        z = mg.apply(problem16.b.astype(np.float32)).astype(np.float64)
        z64 = mg64.apply(problem16.b)
        rel = np.linalg.norm(z - z64) / np.linalg.norm(z64)
        assert rel < 1e-5  # fp32-roundoff-level agreement


class TestEscalation:
    @pytest.fixture(scope="class")
    def hard_problem(self):
        """The measured fp32 stall (``helpers_distributed.STALL_*``):
        the near-singular stencil (interior row sums are exactly zero)
        with a generic seed-7 rhs."""
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(7).standard_normal(prob.nlocal)
        return prob, b

    def test_ladder_escalation_reaches_fp64_tolerance(self, hard_problem):
        """Acceptance: an opted-in fp32:fp64 ladder converges to the
        fp64 baseline's outer tolerance, promoting once on the stall."""
        prob, b = hard_problem
        comm = SerialComm()
        tol = 1e-11

        baseline = GMRESIRSolver(prob, comm, policy=DOUBLE_POLICY)
        _, st64 = baseline.solve(b, tol=tol, maxiter=300)
        assert st64.converged

        assert not GMRESIRSolver(prob, comm, policy=LADDER_POLICY).escalation.enabled
        solver = GMRESIRSolver(
            prob,
            comm,
            policy=LADDER_POLICY,
            restart=STALL_RESTART,
            escalation=STALL_ESCALATION,
        )
        x, st = solver.solve(b, tol=tol, maxiter=300)
        assert st.converged
        assert st.final_relres <= tol
        assert [
            (p.iteration, p.reason, p.from_low, p.to_low) for p in st.promotions
        ] == [(8, "stall", Precision.SINGLE, Precision.DOUBLE)]
        # The promoted solver carries the higher rung.
        assert solver.policy.is_uniform_double

    def test_pinned_ladder_never_promotes(self, hard_problem):
        """Pinned, the same configuration records no event: the stall
        the detector breaks is left to the outer refinement."""
        prob, b = hard_problem
        solver = GMRESIRSolver(
            prob,
            SerialComm(),
            policy=LADDER_POLICY,
            restart=STALL_RESTART,
            escalation=False,
        )
        _, st = solver.solve(b, tol=1e-11, maxiter=300)
        assert st.converged
        assert not st.promotions
        assert solver.policy is LADDER_POLICY

    def test_fixed_policies_never_promote(self, problem16, comm):
        """The paper's fp32 configuration keeps its fixed policy."""
        solver = GMRESIRSolver(problem16, comm, policy=MIXED_DS_POLICY)
        assert not solver.escalation.enabled  # default: fp32 stays fixed
        _, st = solver.solve(problem16.b, tol=1e-9, maxiter=300)
        assert st.converged and not st.promotions

    def test_promotions_in_timeline(self, hard_problem):
        from repro.trace import promotions_to_timeline

        prob, b = hard_problem
        solver = GMRESIRSolver(
            prob,
            SerialComm(),
            policy=LADDER_POLICY,
            restart=STALL_RESTART,
            escalation=STALL_ESCALATION,
        )
        _, st = solver.solve(b, tol=1e-11, maxiter=300)
        tl = promotions_to_timeline(st.promotions)
        assert len(tl.events) == len(st.promotions) >= 1
        ev = tl.events[0]
        assert ev.stream == "precision"
        assert "fp32->fp64" in ev.name and ev.start == st.promotions[0].iteration
        assert "promotion" in st.summary()


class TestByteTrafficModel:
    def test_ladder_between_fp32_and_fp64(self):
        """Modeled bytes of the fp32:fp64 ladder sit between all-fp32
        and all-fp64: only its coarse MG levels are wider than fp32."""
        from repro.perf.scaling import ScalingModel

        model = ScalingModel()
        ladder = model.cycle_traffic_bytes(LADDER_POLICY)
        fp32 = model.cycle_traffic_bytes(MIXED_DS_POLICY)
        fp64 = model.cycle_traffic_bytes(DOUBLE_POLICY)
        assert fp32["total"] < ladder["total"] < fp64["total"]
        assert ladder["mg"] > fp32["mg"]
        assert ladder["spmv"] == fp32["spmv"]

    def test_per_level_widths_matter(self):
        """A coarse-only fp32 schedule saves less than a fine-level one
        (the fine level dominates the traffic)."""
        from repro.perf.scaling import ScalingModel

        model = ScalingModel()
        fine_low = model.mg_vcycle_bytes(
            PrecisionPolicy(mg_levels="fp32:fp64")
        )
        coarse_low = model.mg_vcycle_bytes(
            PrecisionPolicy(mg_levels="fp64:fp32")
        )
        uniform64 = model.mg_vcycle_bytes(PrecisionPolicy(mg_levels="fp64"))
        assert fine_low < coarse_low < uniform64

    def test_time_model_accepts_schedule(self):
        from repro.perf.scaling import ScalingModel

        base = ScalingModel()
        laddered = ScalingModel(mg_schedule="fp32:fp64")
        t_base = base.mg_vcycle_times(Precision.DOUBLE, 8, 1.0)
        t_ladder = laddered.mg_vcycle_times(Precision.DOUBLE, 8, 1.0)
        assert t_ladder["gs"] < t_base["gs"]

    def test_memory_model_per_level(self):
        from repro.core.memory import solver_footprint

        dims = (32, 32, 32)
        ladder = solver_footprint(dims, LADDER_POLICY)
        fp32 = solver_footprint(dims, MIXED_DS_POLICY)
        # Same fine level (matrix copy, basis); the ladder's coarse
        # levels sit above fp32.
        assert ladder.matrix_low == fp32.matrix_low
        assert ladder.krylov_basis == fp32.krylov_basis
        assert ladder.mg_hierarchy > fp32.mg_hierarchy
        assert ladder.total > fp32.total
        # A coarse-down schedule shrinks the hierarchy itself.
        down = solver_footprint(dims, PrecisionPolicy(mg_levels="fp64:fp32"))
        assert down.mg_hierarchy < solver_footprint(dims, DOUBLE_POLICY).mg_hierarchy


class TestConfigAndCLI:
    def test_config_builds_ladder_policy(self):
        """A ladder is a fixed configuration: the detector stays off,
        as the solver's own default has it."""
        cfg = repro.core.BenchmarkConfig(precision_ladder="fp32:fp64")
        pol = cfg.mixed_policy()
        assert pol.matrix is Precision.SINGLE
        assert pol.mg_levels == (Precision.SINGLE, Precision.DOUBLE)
        assert not cfg.control_config().active

    def test_config_without_ladder_keeps_classic_policy(self):
        cfg = repro.core.BenchmarkConfig()
        assert cfg.mixed_policy() == MIXED_DS_POLICY
        assert not cfg.control_config().active

    def test_config_escalation_off(self):
        """``escalation=False`` pins what a budget would seed."""
        cfg = repro.core.BenchmarkConfig(
            precision_ladder="fp32:fp64",
            precision_control="per-ingredient",
            precision_budget=1e-4,
            escalation=False,
        )
        assert not cfg.control_config().active

    def test_shared_precond_replaced_on_promotion(self, comm):
        """A caller-supplied preconditioner on the old rung must not
        survive a promotion (it is the stalling component)."""
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(7).standard_normal(prob.nlocal)
        shared = MultigridPreconditioner.build(
            prob, comm, MGConfig(), precision="fp32:fp64"
        )
        solver = GMRESIRSolver(
            prob,
            comm,
            policy=LADDER_POLICY,
            precond=shared,
            restart=STALL_RESTART,
            escalation=STALL_ESCALATION,
        )
        _, st = solver.solve(b, tol=1e-11, maxiter=300)
        assert st.converged and st.promotions
        assert solver.M is not shared
        assert solver.M.precision is solver.policy.preconditioner

    def test_config_rejects_bad_ladder(self):
        with pytest.raises(ValueError, match="fp32"):
            repro.core.BenchmarkConfig(precision_ladder="fp32:bf16")

    def test_cli_accepts_ladder_flag(self):
        args = repro.cli.build_parser().parse_args(
            ["run", "--precision-ladder", "fp32:fp64", "--no-escalation"]
        )
        assert args.precision_ladder == "fp32:fp64"
        assert args.no_escalation

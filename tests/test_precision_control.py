"""Precision control: the escalator, the roundoff budget, the transfers.

Covers the whole-policy :class:`~repro.fp.ladder.Escalator` (its rule
driven synthetically, then inside the solver in both kernel parity
classes: stall, floor, breakdown and fault each promote, and a promoted
solver stays promoted), the Carson-style roundoff-budget chooser that
seeds the initial rungs, the transfer-scheduled multigrid hierarchy
those rungs reach, the byte model's transfer charge, and the
config/CLI wiring.  That a bare ``escalation=`` solve is bitwise the
whole-policy escalator it replaced is pinned by the engine golden's
``ladder-policy-*`` records.
"""

import numpy as np
import pytest
from helpers_distributed import (
    BOTH_CLASSES,
    STALL_ESCALATION,
    STALL_RESTART,
    defect_panel_pooled,
)

from repro.backends.registry import registry
from repro.fp import (
    MIXED_DS_POLICY,
    NO_ESCALATION,
    EscalationConfig,
    Escalator,
    Precision,
    PrecisionEvent,
    PrecisionPolicy,
    format_ladder,
)
from repro.fp.budget import (
    choose_plane,
    choose_rung,
    estimate_condition,
    ingredient_weight,
)
from repro.geometry import Subdomain
from repro.parallel import SerialComm
from repro.resilience import ResilienceConfig, parse_fault_spec
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.stencil import generate_problem

#: A policy whose only fp32 ingredient is the fine-level smoother.
SMOOTHER_LOW_POLICY = PrecisionPolicy(mg_levels=("fp32", "fp64"))

#: The solver-facing ladder; with ``STALL_ESCALATION`` and
#: ``STALL_RESTART`` it stalls on the seed-7 fixture below.
LADDER_POLICY = PrecisionPolicy.from_ladder("fp32:fp64")

FP32, FP64 = Precision.SINGLE, Precision.DOUBLE


def stall_solver(prob, escalation=STALL_ESCALATION, **kwargs) -> GMRESIRSolver:
    """The measured fp32 stall (``helpers_distributed.STALL_*``)."""
    return GMRESIRSolver(
        prob,
        SerialComm(),
        policy=LADDER_POLICY,
        restart=STALL_RESTART,
        escalation=escalation,
        **kwargs,
    )


@pytest.fixture(scope="module")
def stall_rhs(problem16):
    return np.random.default_rng(7).standard_normal(problem16.nlocal)


class TestEscalator:
    """The rule, driven synthetically: one boundary per ``drive``."""

    def drive(self, esc, rho, relres=None, it=0, rs=0):
        events = esc.observe_restart(rho, relres if relres is not None else rho, it, rs)
        esc.cycle_completed()
        return events

    def test_stall_promotes_every_fp32_ingredient_at_once(self):
        esc = Escalator(EscalationConfig(), SMOOTHER_LOW_POLICY, (FP32, FP64, FP32))
        assert esc.low is FP32
        assert self.drive(esc, 1.0) == []  # no history yet
        assert self.drive(esc, 0.4) == []  # progress: 0.4 <= 0.5 * 1.0
        # Stagnation: 0.3 > stall_ratio * 0.4.
        events = self.drive(esc, 0.3, it=30, rs=2)
        assert events == [PrecisionEvent(30, 2, 0.3, "stall", FP32, FP64)]
        assert events[0].ingredient == "policy"
        assert esc.policy.is_uniform_double
        assert esc.transfers == (FP64, FP64, FP64)
        assert esc.low is FP64

    def test_coupled_transfers_stay_coupled(self):
        """``transfers=None`` couples each boundary to the coarser
        level's rung: only the policy binds, and a promotion leaves the
        coupling as it was."""
        esc = Escalator(EscalationConfig(), LADDER_POLICY)
        assert esc.low is FP32
        (ev,) = esc.promote("stall", 0.5, 8, 1)
        assert (ev.from_low, ev.to_low) == (FP32, FP64)
        assert esc.policy.is_uniform_double and esc.transfers is None

    def test_stall_ratio_bounds(self):
        """Any ratio in (0, 1] constructs, the aggressive 1e-4 of the
        stall fixture included; above 1 a shrinking residual would
        read as a stall."""
        assert EscalationConfig(stall_ratio=1e-4).stall_ratio == 1e-4
        assert EscalationConfig(stall_ratio=1.0).stall_ratio == 1.0
        with pytest.raises(ValueError, match="stall_ratio"):
            EscalationConfig(stall_ratio=1.5)

    def test_floor_reason_at_the_rung_roundoff(self):
        esc = Escalator(EscalationConfig(), SMOOTHER_LOW_POLICY)
        self.drive(esc, 1.0)
        events = self.drive(esc, 0.9, relres=1e-7)  # <= 4 * eps(fp32)
        assert [e.reason for e in events] == ["floor"]

    def test_a_transfer_rung_binds(self):
        """An fp32 transfer under an all-fp64 policy still promotes,
        and its roundoff classifies the floor."""
        esc = Escalator(EscalationConfig(), PrecisionPolicy(), (FP64, FP32))
        assert esc.low is FP32
        self.drive(esc, 1.0)
        (ev,) = self.drive(esc, 0.9, relres=1e-7)
        assert (ev.reason, ev.from_low, ev.to_low) == ("floor", FP32, FP64)
        assert esc.transfers == (FP64, FP64)

    @pytest.mark.parametrize("reason", ["breakdown", "fault"])
    def test_breakdown_and_fault_promote_without_a_stall_window(self, reason):
        esc = Escalator(EscalationConfig(), LADDER_POLICY)
        (ev,) = esc.promote(reason, 0.5, 10, 1)
        assert (ev.reason, ev.from_low, ev.to_low) == (reason, FP32, FP64)
        assert esc.promote(reason, 0.5, 11, 1) == []  # top of the ladder

    def test_min_cycles_gives_a_free_pass(self):
        esc = Escalator(EscalationConfig(min_cycles=2), LADDER_POLICY)
        self.drive(esc, 1.0)
        assert self.drive(esc, 0.9) == []  # one cycle: not judged yet
        assert self.drive(esc, 0.9)

    def test_disabled_never_moves(self):
        esc = Escalator(NO_ESCALATION, LADDER_POLICY, (FP32,))
        self.drive(esc, 1.0)
        assert self.drive(esc, 1.0) == []
        assert esc.promote("breakdown", 1.0, 30, 1) == []
        assert esc.policy is LADDER_POLICY and esc.transfers == (FP32,)

    def test_reset_forgets_history_keeps_rungs(self):
        esc = Escalator(EscalationConfig(), SMOOTHER_LOW_POLICY)
        self.drive(esc, 1.0)
        self.drive(esc, 0.9)  # promote
        esc.reset()
        assert esc.policy.is_uniform_double  # kept
        # No history: the first post-reset stall check gets a free pass.
        assert self.drive(esc, 0.9) == []


@BOTH_CLASSES
class TestEscalationInSolver:
    """Each promotion path through :class:`GMRESIRSolver`, per class."""

    def test_stall_promotes_once_and_stays_promoted(self, problem16, stall_rhs):
        solver = stall_solver(problem16)
        _, st = solver.solve(stall_rhs, tol=1e-11, maxiter=300)
        assert st.converged
        assert st.promotions == [
            PrecisionEvent(8, 1, st.promotions[0].relres, "stall", FP32, FP64)
        ]
        promoted = solver.policy
        assert promoted.is_uniform_double
        # A rung stays up across solves: nothing left to promote.
        _, st2 = solver.solve(stall_rhs, tol=1e-11, maxiter=300)
        assert st2.converged and st2.promotions == []
        assert solver.policy is promoted

    def test_floor_reason(self, problem16, stall_rhs):
        """The same stall, classified against a floor factor the
        residual sits under: the event reads ``"floor"``."""
        solver = stall_solver(
            problem16, EscalationConfig(stall_ratio=1e-4, floor_factor=1e7)
        )
        _, st = solver.solve(stall_rhs, tol=1e-11, maxiter=300)
        assert st.converged
        assert [(e.iteration, e.reason) for e in st.promotions] == [(8, "floor")]

    @pytest.mark.parametrize("escalation", [True, False])
    def test_breakdown_promotes_and_retries(self, problem16, stall_rhs, escalation):
        """The first Arnoldi step is forced to break down (zero norm):
        the empty cycle promotes and the column goes on at fp64; with
        escalation off it halts there instead."""
        solver = stall_solver(problem16, escalation)
        fused, calls = solver._ortho_fused, []

        def breaks_once(*args, **kwargs):
            h, local = fused(*args, **kwargs)
            calls.append(1)
            return (h, 0.0) if len(calls) == 1 else (h, local)

        solver._ortho_fused = breaks_once
        _, st = solver.solve(stall_rhs, tol=1e-11, maxiter=300)
        if not escalation:
            assert not st.converged and st.breakdown and st.cycle_lengths == [0]
            return
        assert st.converged and not st.breakdown
        assert st.cycle_lengths[0] == 0
        assert [(e.reason, e.from_low, e.to_low) for e in st.promotions] == [
            ("breakdown", FP32, FP64)
        ]

    def test_fault_replay_promotes(self, problem16):
        """A detected SpMV corruption replays the cycle one rung up."""
        injector = parse_fault_spec("spmv:bitflip;seed=1").injector()
        injector.cover()
        solver = GMRESIRSolver(
            problem16,
            SerialComm(),
            MIXED_DS_POLICY,
            escalation=True,
            resilience=ResilienceConfig(),
        )
        registry.set_wrapper(injector.kernel_wrapper())
        try:
            _, st = solver.solve(problem16.b, tol=1e-8, maxiter=400)
        finally:
            registry.set_wrapper(None)
        assert st.converged
        assert st.resilience.detected == st.resilience.replays == 1
        assert [(e.reason, e.from_low, e.to_low) for e in st.promotions] == [
            ("fault", FP32, FP64)
        ]
        assert solver.policy.is_uniform_double

    def test_escalation_off_keeps_the_seeded_rungs(self, problem16, stall_rhs):
        """A budget seeds the rungs whether or not they may climb: with
        escalation off the seeded schedule holds for the whole solve."""
        solver = stall_solver(problem16, False, budget=1e-5)
        seeded = solver.policy
        assert seeded.mg_level(0) is FP64 and seeded.mg_level(3) is FP32
        assert format_ladder(solver.M.transfer_schedule) == "fp64:fp64:fp32"
        _, st = solver.solve(stall_rhs, tol=1e-11, maxiter=300)
        assert st.converged and st.promotions == []
        assert solver.policy is seeded
        assert format_ladder(solver.M.transfer_schedule) == "fp64:fp64:fp32"

    def test_budget_transfers_reach_the_hierarchy_and_promote(
        self, problem16, stall_rhs
    ):
        solver = stall_solver(problem16, budget=1e-5)
        assert solver.M.transfer_schedule == solver.escalator.transfers
        assert format_ladder(solver.escalator.transfers) == "fp64:fp64:fp32"
        _, st = solver.solve(stall_rhs, tol=1e-11, maxiter=300)
        assert st.converged
        assert [(e.iteration, e.reason, e.ingredient) for e in st.promotions] == [
            (8, "stall", "policy")
        ]
        assert solver.M.transfer_schedule == (FP64,) * 3


class TestEvents:
    def test_promotion_alias_still_importable(self):
        from repro.solvers.gmres_ir import Promotion

        assert Promotion is PrecisionEvent

    def test_summary_counts_promotions(self):
        from repro.solvers.gmres_ir import SolverStats

        st = SolverStats()
        st.promotions.append(PrecisionEvent(1, 1, 0.5, "stall", FP32, FP64))
        assert "1 promotion(s)" in st.summary()



class TestTimelineMarkers:
    def test_whole_policy_markers_keep_historical_form(self):
        from repro.trace import promotions_to_timeline

        ev = PrecisionEvent(5, 1, 0.3, "floor", FP32, FP64)
        tl = promotions_to_timeline([ev])
        assert tl.events[0].name == "promote[floor] fp32->fp64"

    def test_describe_attributes_the_move(self):
        ev = PrecisionEvent(5, 1, 0.3, "stall", FP32, FP64)
        assert ev.describe() == (
            "iter 5: promote policy fp32->fp64 (stall, relres=3.00e-01)"
        )


class TestBudgetChooser:
    @pytest.fixture(scope="class")
    def A(self, request):
        return generate_problem(Subdomain.serial(16, 16, 16)).A

    def test_condition_estimate_is_sane(self, A):
        cond = estimate_condition(A)
        assert cond.norm_inf == pytest.approx(52.0)  # 26 + 26 x |-1|
        assert cond.diag_min == pytest.approx(26.0)
        assert cond.kappa > 1.0
        assert "kappa" in cond.describe()

    def test_condition_estimate_format_generic(self, A):
        from repro.sparse.formats import to_format

        ell = estimate_condition(A)
        csr = estimate_condition(to_format(A, "csr"))
        assert csr.norm_inf == pytest.approx(ell.norm_inf)

    def test_weights_decay_with_level(self):
        assert ingredient_weight("smoother", 0) > ingredient_weight(
            "smoother", 2
        )
        assert ingredient_weight("ortho", 0, restart=60) == 60.0
        with pytest.raises(ValueError, match="ingredient"):
            ingredient_weight("qr", 0)

    def test_choose_rung_monotone_in_budget(self):
        kappa = 100.0
        loose = choose_rung(1.0, kappa, budget=1.0)
        tight = choose_rung(1.0, kappa, budget=1e-8)
        assert loose is Precision.SINGLE
        assert tight is Precision.DOUBLE  # nothing fits: top of ladder

    def test_tighter_budget_never_lowers_a_rung(self, A):
        loose = choose_plane(A, 4, budget=1e-1)
        tight = choose_plane(A, 4, budget=1e-5)
        for key in loose.assignments:
            assert (
                tight.assignments[key].bytes >= loose.assignments[key].bytes
            )

    def test_coarse_smoother_levels_sit_lower(self, A):
        rep = choose_plane(A, 4, budget=1e-5)
        sched = rep.ladder_for("smoother", 4)
        assert sched[-1].bytes < sched[0].bytes
        assert rep.contributions[("smoother", 3)] <= rep.budget
        assert "smoother@L3" in rep.describe()

    def test_budget_validation(self, A):
        with pytest.raises(ValueError, match="budget"):
            choose_plane(A, 4, budget=0.0)

    @pytest.mark.parametrize("budget", [0.0, -1e-5])
    def test_solver_rejects_a_non_positive_budget(self, problem16, budget):
        with pytest.raises(ValueError, match="budget must be positive"):
            GMRESIRSolver(
                problem16, SerialComm(), policy=LADDER_POLICY, budget=budget
            )

    def test_budget_seeded_solver_converges(self):
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(11).standard_normal(prob.nlocal)
        solver = GMRESIRSolver(
            prob, SerialComm(), policy=LADDER_POLICY, budget=1e-5
        )
        # The chooser overrode the flat ladder: fine smoother above
        # fp32 (kappa forbids it), coarse levels allowed down to fp32.
        assert solver.policy.mg_level(0) is Precision.DOUBLE
        assert solver.policy.mg_level(3) is Precision.SINGLE
        x, st = solver.solve(b, tol=1e-11, maxiter=300)
        assert st.converged

    def test_seed_replaces_every_ingredient_rung(self, A):
        """16^3, budget 1e-5: the seeded policy and the transfer rungs,
        which differ from the next level's smoother rung at L1."""
        policy, transfers = choose_plane(A, 4, budget=1e-5).seed(LADDER_POLICY)
        assert policy.describe() == (
            "matrix=fp64 mg=fp64:fp32:fp32:fp32 basis=fp64 ortho=fp64 "
            "lsq=fp64 outer=fp64"
        )
        assert format_ladder(transfers) == "fp64:fp64:fp32"
        # A one-level hierarchy has no transfer to seed.
        assert choose_plane(A, 1, budget=1e-5).seed(LADDER_POLICY)[1] is None

    def test_budget_rungs_below_the_ladder_can_still_escalate(self):
        """A budget may seed fp32 rungs under an fp64 ladder; the
        escalator must then be enabled (unless escalation=False) or a
        solve stalling at the fp32 floor could never climb out."""
        from repro.core import BenchmarkConfig

        cfg = BenchmarkConfig(
            precision_ladder="fp64",
            precision_budget=1.0,  # loose: everything drops to fp32
        )
        assert cfg.escalation_config().enabled
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(7).standard_normal(prob.nlocal)
        solver = GMRESIRSolver(
            prob,
            SerialComm(),
            policy=cfg.mixed_policy(),
            escalation=cfg.escalation_config(),
            budget=cfg.precision_budget,
        )
        assert cfg.mixed_policy().is_uniform_double
        assert solver.policy.mg_level(0) is Precision.SINGLE
        _, st = solver.solve(b, tol=1e-11, maxiter=200)
        assert st.converged
        # escalation=False still pins everything.
        assert not cfg.with_updates(escalation=False).escalation_config().enabled


class TestTransferScheduledHierarchy:
    def test_default_transfer_matches_coarse_rung(self, problem16, comm):
        from repro.mg import MGConfig, MultigridPreconditioner

        mg = MultigridPreconditioner.build(
            problem16, comm, MGConfig(), precision="fp32:fp32:fp64"
        )
        # Historical behaviour: each boundary at the coarser level's
        # rung — bitwise compatibility for policy mode.
        assert mg.transfer_schedule == (
            Precision.SINGLE,
            Precision.DOUBLE,
            Precision.DOUBLE,
        )
        mg.apply(problem16.b)
        assert defect_panel_pooled(mg, 0, np.float32)
        assert defect_panel_pooled(mg, 1, np.float64)
        assert mg.levels[-1].transfer_precision is None

    def test_explicit_transfer_schedule_sets_buffer_dtypes(
        self, problem16, comm
    ):
        from repro.mg import MGConfig, MultigridPreconditioner

        mg = MultigridPreconditioner.build(
            problem16,
            comm,
            MGConfig(),
            precision="fp32",
            transfer_precision="fp64",
        )
        assert mg.transfer_schedule == (Precision.DOUBLE,) * 3
        mg.apply(problem16.b)
        # Every transfer a V-cycle runs — down to the coarse map's level
        # — stores its defect at fp64; the map casts it to its fp32 once.
        cut = mg.coarse_level
        assert all(defect_panel_pooled(mg, lvl, np.float64) for lvl in range(cut))
        misses = mg.ws.misses
        mg.ws.get_panel(("mg.panel.rmap", cut), mg.levels[cut].nlocal, 1, np.float32)
        assert mg.ws.misses == misses
        dims = mg.level_dims()
        assert dims[0]["transfer_precision"] == "fp64"
        assert dims[-1]["transfer_precision"] is None

    def test_transfer_scheduled_vcycle_tracks_default(self, problem16, comm):
        from repro.mg import MGConfig, MultigridPreconditioner

        base = MultigridPreconditioner.build(
            problem16, comm, MGConfig(), precision="fp32"
        )
        wide = MultigridPreconditioner.build(
            problem16,
            comm,
            MGConfig(),
            precision="fp32",
            transfer_precision="fp64",
        )
        z0 = base.apply(problem16.b.astype(np.float32)).astype(np.float64)
        z1 = wide.apply(problem16.b.astype(np.float32)).astype(np.float64)
        rel = np.linalg.norm(z1 - z0) / np.linalg.norm(z0)
        assert rel < 1e-5  # fp32-roundoff-level agreement


class TestLiveScheduleByteModel:
    def test_transfer_rung_charged_separately(self):
        from repro.perf.scaling import ScalingModel

        model = ScalingModel()
        base = model.mg_vcycle_bytes(MIXED_DS_POLICY, transfers=(FP32,) * 3)
        wide = model.mg_vcycle_bytes(MIXED_DS_POLICY, transfers=(FP64,) * 3)
        assert wide > base == model.mg_vcycle_bytes(MIXED_DS_POLICY)

    def test_plain_policy_charging_unchanged(self):
        """A PrecisionPolicy has no transfer axis: charged as before
        (the byte-model regression anchor for policy mode).

        The anchor pins the *unfused* configuration to the PR 3
        number less what PR 19's zero-guess sweeps no longer move: per
        V-cycle and level one halo round (2432 surface points over the
        four levels) and one color's matrix block (an eighth of
        ``27 * (4 + 4)`` bytes per row over 4680 rows), fp32, 31
        V-cycles.  The PR 5 fused-motif pipeline (default) must charge
        the residual check's passes once and come in strictly below.
        """
        from repro.fp import MIXED_DS_POLICY
        from repro.perf.scaling import ScalingModel

        model = ScalingModel(local_dims=(16, 16, 16), restart=30, fusion=False)
        total = model.cycle_traffic_bytes(MIXED_DS_POLICY)["total"]
        skipped = 31 * (2432 * 4 + 4680 * 27 * (4 + 4) // 8)
        assert total == pytest.approx(140338880.0 - skipped)  # PR 3 baseline
        fused = ScalingModel(local_dims=(16, 16, 16), restart=30)
        assert fused.cycle_traffic_bytes(MIXED_DS_POLICY)["total"] < total

    def test_budget_seed_models_fewer_bytes_than_double(self, problem16):
        """The 16^3, 1e-5 seed (fp32 coarse levels and coarsest
        transfer, the rest fp64) streams less than uniform double but
        more than the flat ladder it overrides."""
        from repro.fp import DOUBLE_POLICY
        from repro.perf.scaling import ScalingModel

        seeded, transfers = choose_plane(problem16.A, 4, budget=1e-5).seed(
            LADDER_POLICY
        )
        model = ScalingModel()
        total = model.cycle_traffic_bytes(seeded, transfers=transfers)["total"]
        assert total < model.cycle_traffic_bytes(DOUBLE_POLICY)["total"]
        assert total > model.cycle_traffic_bytes(LADDER_POLICY)["total"]

    def test_budget_transfers_move_only_the_mg_charge(self):
        """A seeded transfer is charged at its own rung: the V-cycle's
        bytes move, every other motif is the policy's."""
        from repro.perf.scaling import ScalingModel

        model = ScalingModel()
        coupled = model.cycle_traffic_bytes(LADDER_POLICY)
        wide = model.cycle_traffic_bytes(LADDER_POLICY, transfers=(FP64,) * 3)
        for motif in ("spmv", "ortho", "halo"):
            assert wide[motif] == coupled[motif]
        assert wide["mg"] > coupled["mg"]


class TestLadderStrictness:
    def test_from_ladder_rejects_descending_naming_rung(self):
        with pytest.raises(ValueError, match="fp32.*ascend"):
            PrecisionPolicy.from_ladder("fp64:fp32")

    def test_from_ladder_rejects_duplicates_naming_rung(self):
        with pytest.raises(ValueError, match="duplicate rung 'fp32'"):
            PrecisionPolicy.from_ladder("fp32:fp32:fp64")

    def test_config_rejects_non_ascending_ladder(self):
        from repro.core import BenchmarkConfig

        with pytest.raises(ValueError, match="ascend"):
            BenchmarkConfig(precision_ladder="fp64:fp32")

    def test_constructor_schedules_stay_free_form(self):
        # Per-level MG schedules may legitimately descend.
        p = PrecisionPolicy(mg_levels=("fp64", "fp32"))
        assert p.mg_levels == (Precision.DOUBLE, Precision.SINGLE)


class TestConfigAndCLI:
    def test_config_validates_budget(self):
        from repro.core import BenchmarkConfig

        with pytest.raises(ValueError, match="precision_budget"):
            BenchmarkConfig(precision_budget=0.0)

    def test_escalation_config_follows_the_budget(self):
        from repro.core import BenchmarkConfig

        assert not BenchmarkConfig().escalation_config().enabled
        cfg = BenchmarkConfig(precision_ladder="fp32:fp64", precision_budget=1e-3)
        assert cfg.escalation_config().enabled  # a budget's rungs may climb

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "--precision-budget", "1e-4"])
        assert args.precision_budget == 1e-4

    def test_report_records_the_budget(self):
        from repro.core import BenchmarkConfig, run_benchmark
        from repro.core.report import result_to_dict

        cfg = BenchmarkConfig(
            local_nx=16,
            max_iters_per_solve=2,
            validation_max_iters=20,
            precision_budget=1e-5,
        )
        record = result_to_dict(run_benchmark(cfg))["config"]
        assert record["precision_budget"] == 1e-5

    def test_budget_seeds_the_mxp_phases_only(self, monkeypatch):
        """A ``precision_budget`` (``run --precision-budget``) seeds the
        mixed solvers' rungs, grid transfers included, in validation
        and the timed phase, and never the double reference's."""
        from repro.core import BenchmarkConfig, run_benchmark
        from repro.mg import MultigridPreconditioner

        built = []
        real = MultigridPreconditioner.build.__func__

        def spy(cls, *args, **kwargs):
            transfers = kwargs.get("transfer_precision")
            built.append(
                (
                    format_ladder(kwargs["precision"]),
                    format_ladder(transfers) if transfers else None,
                )
            )
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(MultigridPreconditioner, "build", classmethod(spy))
        cfg = BenchmarkConfig(
            local_nx=16,
            max_iters_per_solve=2,
            validation_max_iters=20,
            precision_budget=1e-5,
        )
        run_benchmark(cfg)
        seeded = ("fp64:fp32:fp32:fp32", "fp64:fp64:fp32")
        double = ("fp64:fp64:fp64:fp64", None)
        assert sorted(built) == sorted([double, double, seeded, seeded])

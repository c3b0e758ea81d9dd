"""The per-ingredient precision control plane (PR 4).

Covers the controller algebra, the plane's observation protocol (the
forced-stall fixture: smoother-only promotion, hysteresis-guarded
de-escalation, the SpMV controller never moving), the whole-policy
compatibility mode (bitwise-identical to the explicit escalator, on
the measured fp32 stall), the Carson-style roundoff-budget chooser, the
transfer-scheduled multigrid hierarchy, the live-schedule byte model,
and the config/CLI wiring.
"""

import numpy as np
import pytest
from helpers_distributed import STALL_ESCALATION, STALL_RESTART, defect_panel_pooled

from repro.fp import (
    ControlConfig,
    EscalationConfig,
    IngredientController,
    IngredientSchedule,
    NO_CONTROL,
    Precision,
    PrecisionControlPlane,
    PrecisionEvent,
    PrecisionPolicy,
    prev_rung,
)
from repro.fp.budget import (
    choose_plane,
    choose_rung,
    estimate_condition,
    ingredient_weight,
)
from repro.geometry import Subdomain
from repro.parallel import SerialComm
from repro.solvers.gmres_ir import GMRESIRSolver
from repro.stencil import generate_problem

#: A policy whose only fp32 ingredient is the fine-level smoother —
#: the forced-stall fixture: the smoother is the binding rung, the
#: SpMV/ortho controllers sit one rung up and must never move.
SMOOTHER_LOW_POLICY = PrecisionPolicy(mg_levels=("fp32", "fp64"))

#: The solver-facing ladder; with ``STALL_ESCALATION`` and
#: ``STALL_RESTART`` it stalls on the seed-7 fixture below.
LADDER_POLICY = PrecisionPolicy.from_ladder("fp32:fp64")


def stall_solver(prob, control, **kwargs) -> GMRESIRSolver:
    """The measured fp32 stall under ``control`` (a mode string)."""
    return GMRESIRSolver(
        prob,
        SerialComm(),
        policy=LADDER_POLICY,
        restart=STALL_RESTART,
        control=ControlConfig(mode=control, escalation=STALL_ESCALATION),
        **kwargs,
    )


def make_plane(
    policy=SMOOTHER_LOW_POLICY, nlevels=4, **kwargs
) -> PrecisionControlPlane:
    cfg = ControlConfig(
        mode="per-ingredient", escalation=EscalationConfig(), **kwargs
    )
    return PrecisionControlPlane(cfg, policy, nlevels)


class TestControlConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ControlConfig(mode="per-kernel")
        for mode in ("per-ingredient", "policy", "off"):
            assert ControlConfig(mode=mode).mode == mode

    def test_demote_ratio_validation(self):
        with pytest.raises(ValueError, match="demote_ratio"):
            ControlConfig(demote_ratio=0.0)
        with pytest.raises(ValueError, match="demote_ratio"):
            ControlConfig(demote_ratio=1.5)
        # A demote_ratio above stall_ratio is accepted (the effective
        # recovery threshold is min(demote_ratio, stall_ratio)).
        assert ControlConfig(demote_ratio=0.9).demote_ratio == 0.9

    def test_aggressive_stall_ratio_still_constructs(self):
        """EscalationConfig(stall_ratio < demote_ratio) was valid on
        the PR 2 escalator and must stay constructible through the
        plane wrap (the coupling is enforced at judgement time)."""
        cfg = ControlConfig(
            mode="policy", escalation=EscalationConfig(stall_ratio=0.2)
        )
        assert cfg.escalation.stall_ratio == 0.2

    def test_recovery_under_aggressive_stall_ratio(self):
        """With stall_ratio below demote_ratio the effective recovery
        threshold tightens to stall_ratio (min rule): any cycle strong
        enough to reach the recovery branch feeds the streak, and the
        plane still works end to end."""
        cfg = ControlConfig(
            mode="per-ingredient",
            escalation=EscalationConfig(stall_ratio=0.1),
            hysteresis=1,
        )
        plane = PrecisionControlPlane(cfg, SMOOTHER_LOW_POLICY, 4)
        plane.observe_restart(1.0, 1.0, 0, 0)
        plane.cycle_completed()
        plane.observe_restart(0.5, 0.5, 30, 1)  # stall: promote smoother
        assert plane.rung("smoother", 0) is Precision.DOUBLE
        plane.cycle_completed()
        # 0.04 <= 0.1 * 0.5: strong enough for the min() threshold.
        events = plane.observe_restart(0.04, 0.5, 60, 2)
        assert [e.direction for e in events] == ["demote"]
        assert plane.rung("smoother", 0) is Precision.SINGLE

    def test_hysteresis_and_budget_validation(self):
        with pytest.raises(ValueError, match="hysteresis"):
            ControlConfig(hysteresis=0)
        with pytest.raises(ValueError, match="budget"):
            ControlConfig(budget=-1e-4)

    def test_active(self):
        assert ControlConfig(mode="per-ingredient").active
        assert not NO_CONTROL.active
        assert not ControlConfig(
            mode="per-ingredient", escalation=EscalationConfig(enabled=False)
        ).active


class TestIngredientController:
    def test_promote_demote_are_explicit_noops_at_the_ends(self):
        ctl = IngredientController(
            "spmv", 0, Precision.DOUBLE, Precision.DOUBLE
        )
        assert not ctl.promote()  # top of the ladder
        assert ctl.rung is Precision.DOUBLE
        assert not ctl.demote()  # already at the floor
        assert ctl.moves == 0

    def test_demote_stops_at_floor(self):
        ctl = IngredientController(
            "smoother", 1, Precision.SINGLE, Precision.SINGLE
        )
        assert ctl.promote()
        assert ctl.rung is Precision.DOUBLE
        assert ctl.demote()
        assert ctl.rung is Precision.SINGLE
        assert not ctl.demote()  # floor reached

    def test_rejects_bad_ingredient_and_sub_floor_start(self):
        with pytest.raises(ValueError, match="ingredient"):
            IngredientController("qr", 0, Precision.SINGLE, Precision.SINGLE)
        with pytest.raises(ValueError, match="floor"):
            IngredientController(
                "spmv", 0, Precision.SINGLE, Precision.DOUBLE
            )

    def test_prev_rung_fixpoint(self):
        assert prev_rung(Precision.SINGLE) is Precision.SINGLE
        assert prev_rung("fp64") is Precision.SINGLE


class TestPlaneSeeding:
    def test_controllers_match_policy(self):
        plane = make_plane(LADDER_POLICY.with_mg_schedule("fp32:fp32:fp64"))
        assert plane.rung("spmv") is Precision.SINGLE
        assert plane.rung("ortho") is Precision.SINGLE
        assert plane.smoother_schedule() == (
            Precision.SINGLE,
            Precision.SINGLE,
            Precision.DOUBLE,
            Precision.DOUBLE,
        )
        # Transfers seed at the coarser side of each boundary — the
        # dtype the coarse-defect buffer has always had.
        assert plane.transfer_schedule() == (
            Precision.SINGLE,
            Precision.DOUBLE,
            Precision.DOUBLE,
        )

    def test_live_policy_round_trips_the_seed(self):
        plane = make_plane(LADDER_POLICY)
        live = plane.live_policy()
        assert live.matrix is LADDER_POLICY.matrix
        assert live.mg_levels == LADDER_POLICY.mg_schedule(4)
        assert live.krylov_basis is LADDER_POLICY.krylov_basis
        assert live.least_squares is Precision.DOUBLE  # pinned

    def test_policy_mode_has_no_controllers(self):
        cfg = ControlConfig(mode="policy")
        plane = PrecisionControlPlane(cfg, LADDER_POLICY, 4)
        assert not plane.controllers
        assert plane.rung("smoother", 0) is Precision.SINGLE
        assert plane.transfer_schedule() is None
        assert plane.snapshot() is LADDER_POLICY

    def test_explicit_rungs_require_per_ingredient(self):
        with pytest.raises(ValueError, match="per-ingredient"):
            PrecisionControlPlane(
                ControlConfig(mode="policy"),
                LADDER_POLICY,
                4,
                rungs={("spmv", 0): Precision.SINGLE},
            )

    def test_snapshot_duck_types_the_policy_interface(self):
        snap = make_plane(LADDER_POLICY).snapshot()
        assert isinstance(snap, IngredientSchedule)
        assert snap.matrix is Precision.SINGLE
        assert snap.krylov_basis is Precision.SINGLE
        assert snap.mg_level(0) is Precision.SINGLE
        assert snap.mg_level(9) is Precision.DOUBLE  # last entry extends
        assert snap.transfer_level(0) is Precision.DOUBLE
        assert "spmv=fp32" in snap.describe()


class TestForcedStallFixture:
    """The satellite acceptance fixture, driven synthetically.

    The smoother's fine level is the only fp32 ingredient.  A stall
    must promote it — and nothing else; sustained recovery must demote
    it after the hysteresis window; the SpMV controller must never
    move.
    """

    def drive(self, plane, rho, relres=None, it=0, rs=0):
        events = plane.observe_restart(
            rho, relres if relres is not None else rho, it, rs
        )
        plane.cycle_completed()
        return events

    def test_stall_promotes_smoother_only_then_demotes(self):
        plane = make_plane(hysteresis=2)
        spmv = plane.controllers[("spmv", 0)]
        assert self.drive(plane, 1.0) == []  # no history yet

        # Stagnation: 0.9 > stall_ratio * 1.0.
        events = self.drive(plane, 0.9, it=30, rs=1)
        assert [e.ingredient for e in events] == ["smoother"]
        (ev,) = events
        assert ev.level == 0 and ev.direction == "promote"
        assert ev.reason == "stall"
        assert ev.from_low is Precision.SINGLE
        assert ev.to_low is Precision.DOUBLE
        assert plane.rung("smoother", 0) is Precision.DOUBLE
        # Untouched: the rest of the plane.
        assert plane.rung("smoother", 1) is Precision.DOUBLE
        assert plane.rung("spmv") is Precision.DOUBLE
        assert spmv.moves == 0

        # Recovery: two consecutive strong-reduction cycles (the
        # hysteresis window), with plenty of residual headroom.
        assert self.drive(plane, 0.2, relres=0.2) == []  # streak 1
        events = self.drive(plane, 0.04, relres=0.2, it=90, rs=3)
        assert [e.direction for e in events] == ["demote"]
        (ev,) = events
        assert ev.ingredient == "smoother" and ev.level == 0
        assert ev.reason == "recovered"
        assert ev.from_low is Precision.DOUBLE
        assert ev.to_low is Precision.SINGLE
        assert plane.rung("smoother", 0) is Precision.SINGLE
        # The acceptance clause: the SpMV controller never moved.
        assert spmv.moves == 0
        assert spmv.rung is Precision.DOUBLE

    def test_weak_progress_resets_the_streak(self):
        plane = make_plane(hysteresis=2)
        self.drive(plane, 1.0)
        self.drive(plane, 0.9)  # promote smoother L0
        self.drive(plane, 0.2, relres=0.2)  # streak 1
        # Progress, but above demote_ratio: streak resets.
        self.drive(plane, 0.09, relres=0.2)
        assert plane.controllers[("smoother", 0)].good_cycles == 0
        assert plane.rung("smoother", 0) is Precision.DOUBLE

    def test_no_demotion_without_residual_headroom(self):
        """Near the fp32 floor, demoting back would re-stall: hold."""
        plane = make_plane(hysteresis=1)
        self.drive(plane, 1.0)
        self.drive(plane, 0.9)  # promote
        # 1e-6 <= demote_headroom * floor_factor * eps(fp32) ~ 4.8e-6.
        events = self.drive(plane, 0.2, relres=1e-6)
        assert events == []
        assert plane.rung("smoother", 0) is Precision.DOUBLE

    def test_floor_reason_when_at_roundoff_floor(self):
        plane = make_plane()
        self.drive(plane, 1.0)
        events = self.drive(plane, 0.9, relres=1e-7)  # <= 4 * eps(fp32)
        assert events and events[0].reason == "floor"

    def test_breakdown_promotes_binding_rung(self):
        plane = make_plane()
        events = plane.observe_breakdown(1.0, 0.5, 10, 1)
        assert [(e.ingredient, e.level) for e in events] == [("smoother", 0)]
        assert events[0].reason == "breakdown"

    def test_mixed_live_schedule_models_fewer_bytes(self):
        """Acceptance: after the smoother's round trip (stall
        promotion, then recovery demotion) the live schedule models
        strictly fewer bytes than the whole-policy promotion, which
        never demotes."""
        from repro.perf.scaling import ScalingModel

        plane = make_plane()
        self.drive(plane, 1.0)
        self.drive(plane, 0.9)  # smoother L0 promoted, rest untouched
        self.drive(plane, 0.2, relres=0.2)
        assert self.drive(plane, 0.04, relres=0.2)  # demoted again
        model = ScalingModel()
        mixed = model.cycle_traffic_bytes(plane.snapshot())["total"]
        whole = model.cycle_traffic_bytes(
            SMOOTHER_LOW_POLICY.promote()
        )["total"]
        assert mixed < whole

    def test_off_mode_never_moves(self):
        plane = PrecisionControlPlane(NO_CONTROL, LADDER_POLICY, 4)
        assert plane.observe_restart(1.0, 1.0, 0, 0) == []
        plane.cycle_completed()
        assert plane.observe_restart(1.0, 1.0, 30, 1) == []
        assert plane.observe_breakdown(1.0, 1.0, 30, 1) == []

    def test_reset_observation_forgets_history_keeps_rungs(self):
        plane = make_plane()
        self.drive(plane, 1.0)
        self.drive(plane, 0.9)  # promote
        plane.reset_observation()
        assert plane.rung("smoother", 0) is Precision.DOUBLE  # kept
        # No history: the first post-reset stall check gets a free pass.
        assert self.drive(plane, 0.9) == []


class TestPolicyModeBitwise:
    """`--precision-control policy` must reproduce the whole-policy
    escalator driven by a bare ``escalation=`` bit for bit."""

    @pytest.fixture(scope="class")
    def hard_problem(self):
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(7).standard_normal(prob.nlocal)
        return prob, b

    def test_policy_mode_matches_legacy_escalation_bitwise(
        self, hard_problem
    ):
        prob, b = hard_problem
        legacy = GMRESIRSolver(
            prob,
            SerialComm(),
            policy=LADDER_POLICY,
            restart=STALL_RESTART,
            escalation=STALL_ESCALATION,
        )
        x_legacy, st_legacy = legacy.solve(b, tol=1e-11, maxiter=300)
        explicit = stall_solver(prob, "policy")
        x_policy, st_policy = explicit.solve(b, tol=1e-11, maxiter=300)
        assert np.array_equal(x_legacy, x_policy)  # bitwise
        assert st_legacy.final_relres == st_policy.final_relres
        events = [
            (p.iteration, p.restart, p.reason, p.from_low, p.to_low)
            for p in st_policy.promotions
        ]
        assert events == [
            (p.iteration, p.restart, p.reason, p.from_low, p.to_low)
            for p in st_legacy.promotions
        ]
        assert events == [(8, 1, "stall", Precision.SINGLE, Precision.DOUBLE)]
        assert st_policy.promotions[0].ingredient == "policy"

    def test_promotion_alias_still_importable(self):
        from repro.solvers.gmres_ir import Promotion

        assert Promotion is PrecisionEvent


class TestPerIngredientSolver:
    @pytest.fixture(scope="class")
    def hard_problem(self):
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(7).standard_normal(prob.nlocal)
        return prob, b

    def test_converges_with_attributed_events(self, hard_problem):
        prob, b = hard_problem
        solver = stall_solver(prob, "per-ingredient")
        x, st = solver.solve(b, tol=1e-11, maxiter=300)
        assert st.converged and st.final_relres <= 1e-11
        # Every event is attributed to a real ingredient.
        for ev in st.promotions:
            assert ev.ingredient in ("smoother", "transfer", "spmv", "ortho")
            assert ev.level is not None
        # Only the binding fp32 rung promoted: the fp64 coarse smoother
        # levels and transfers never moved.
        touched = [(e.ingredient, e.level) for e in st.promotions]
        assert touched == [("ortho", 0), ("smoother", 0), ("spmv", 0)]
        assert {(e.iteration, e.reason) for e in st.promotions} == {(8, "stall")}
        # The solver's bound policy tracks the live plane.
        assert solver.policy == solver.plane.live_policy()

    def test_transfer_schedule_reaches_the_hierarchy(self, hard_problem):
        prob, _ = hard_problem
        solver = stall_solver(prob, "per-ingredient")
        assert solver.M.transfer_schedule == solver.plane.transfer_schedule()

    def test_control_rejects_bad_types(self, hard_problem):
        prob, _ = hard_problem
        with pytest.raises(TypeError, match="control"):
            GMRESIRSolver(prob, SerialComm(), control=42)

    def test_summary_counts_demotions(self):
        from repro.solvers.gmres_ir import SolverStats

        st = SolverStats()
        st.promotions.append(
            PrecisionEvent(
                1, 1, 0.5, "stall", Precision.SINGLE, Precision.DOUBLE,
                ingredient="smoother", level=0,
            )
        )
        st.promotions.append(
            PrecisionEvent(
                9, 3, 0.1, "recovered", Precision.DOUBLE, Precision.SINGLE,
                ingredient="smoother", level=0, direction="demote",
            )
        )
        assert len(st.demotions) == 1
        assert "1 promotion(s)" in st.summary()
        assert "1 demotion(s)" in st.summary()


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

    def test_budget_seeded_solver_converges(self):
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(11).standard_normal(prob.nlocal)
        solver = GMRESIRSolver(
            prob,
            SerialComm(),
            policy=LADDER_POLICY,
            control=ControlConfig(mode="per-ingredient", budget=1e-5),
        )
        # The chooser overrode the flat ladder: fine smoother above
        # fp32 (kappa forbids it), coarse levels allowed down to fp32.
        assert solver.plane.rung("smoother", 0) is Precision.DOUBLE
        assert solver.plane.rung("smoother", 3) is Precision.SINGLE
        x, st = solver.solve(b, tol=1e-11, maxiter=300)
        assert st.converged

    def test_budget_rungs_below_the_ladder_can_still_escalate(
        self, monkeypatch
    ):
        """A budget may seed fp32 rungs under an fp64 ladder; the
        detector must then be enabled (unless escalation=False) or a
        solve stalling at the fp32 floor could never climb out."""
        from repro.core import BenchmarkConfig
        from repro.core.config import PRECISION_CONTROL_ENV

        monkeypatch.delenv(PRECISION_CONTROL_ENV, raising=False)
        cfg = BenchmarkConfig(
            precision_ladder="fp64",
            precision_control="per-ingredient",
            precision_budget=1.0,  # loose: everything drops to fp32
        )
        cc = cfg.control_config()
        assert cc.escalation.enabled and cc.active
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        b = np.random.default_rng(7).standard_normal(prob.nlocal)
        solver = GMRESIRSolver(
            prob, SerialComm(), policy=cfg.mixed_policy(), control=cc
        )
        assert cfg.mixed_policy().is_uniform_double
        assert solver.plane.rung("smoother", 0) is Precision.SINGLE
        _, st = solver.solve(b, tol=1e-11, maxiter=200)
        assert st.converged
        # escalation=False still pins everything.
        pinned = cfg.with_updates(escalation=False).control_config()
        assert not pinned.active

    def test_from_budget_requires_budget(self):
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        with pytest.raises(ValueError, match="budget"):
            PrecisionControlPlane.from_budget(
                ControlConfig(mode="per-ingredient"),
                LADDER_POLICY,
                4,
                prob.A,
            )


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
        base = IngredientSchedule(
            matrix=Precision.SINGLE,
            ortho=Precision.SINGLE,
            smoother_levels=(Precision.SINGLE,) * 4,
            transfer_levels=(Precision.SINGLE,) * 3,
        )
        wide_transfer = IngredientSchedule(
            matrix=Precision.SINGLE,
            ortho=Precision.SINGLE,
            smoother_levels=(Precision.SINGLE,) * 4,
            transfer_levels=(Precision.DOUBLE,) * 3,
        )
        assert model.mg_vcycle_bytes(wide_transfer) > model.mg_vcycle_bytes(
            base
        )

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

    def test_snapshot_matches_equivalent_policy(self):
        """A seeded (unmoved) plane's snapshot models, per motif, at
        most the whole-policy charge (transfers ride the coarse rung,
        everything else identically)."""
        from repro.perf.scaling import ScalingModel

        model = ScalingModel()
        plane = make_plane(LADDER_POLICY)
        snap_bytes = model.cycle_traffic_bytes(plane.snapshot())
        pol_bytes = model.cycle_traffic_bytes(
            PrecisionPolicy.from_ladder("fp32:fp64")
        )
        assert snap_bytes["spmv"] == pol_bytes["spmv"]
        assert snap_bytes["ortho"] == pol_bytes["ortho"]
        assert snap_bytes["halo"] == pol_bytes["halo"]


class TestTimelineMarkers:
    def test_markers_carry_ingredient_and_level(self):
        from repro.trace import promotions_to_timeline

        events = [
            PrecisionEvent(
                5, 1, 0.3, "stall", Precision.SINGLE, Precision.DOUBLE,
                ingredient="smoother", level=2,
            ),
            PrecisionEvent(
                9, 3, 0.1, "recovered", Precision.DOUBLE, Precision.SINGLE,
                ingredient="smoother", level=2, direction="demote",
            ),
        ]
        tl = promotions_to_timeline(events)
        names = [e.name for e in tl.events]
        assert names[0] == "promote[stall] smoother@L2 fp32->fp64"
        assert names[1] == "demote[recovered] smoother@L2 fp64->fp32"

    def test_whole_policy_markers_keep_historical_form(self):
        from repro.trace import promotions_to_timeline

        ev = PrecisionEvent(
            5, 1, 0.3, "floor", Precision.SINGLE, Precision.DOUBLE
        )
        tl = promotions_to_timeline([ev])
        assert tl.events[0].name == "promote[floor] fp32->fp64"

    def test_describe_attributes_the_move(self):
        ev = PrecisionEvent(
            5, 1, 0.3, "stall", Precision.SINGLE, Precision.DOUBLE,
            ingredient="transfer", level=1,
        )
        assert "transfer@L1" in ev.describe()


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
    def test_config_validates_mode_and_budget(self):
        from repro.core import BenchmarkConfig

        with pytest.raises(ValueError, match="precision control"):
            BenchmarkConfig(precision_control="per-kernel")
        with pytest.raises(ValueError, match="precision_budget"):
            BenchmarkConfig(precision_budget=0.0)

    def test_auto_mode_follows_environment(self, monkeypatch):
        from repro.core import BenchmarkConfig
        from repro.core.config import PRECISION_CONTROL_ENV

        cfg = BenchmarkConfig()
        monkeypatch.delenv(PRECISION_CONTROL_ENV, raising=False)
        assert cfg.effective_precision_control == "policy"
        monkeypatch.setenv(PRECISION_CONTROL_ENV, "per-ingredient")
        assert cfg.effective_precision_control == "per-ingredient"
        monkeypatch.setenv(PRECISION_CONTROL_ENV, "bogus")
        with pytest.raises(ValueError, match="bogus"):
            cfg.effective_precision_control

    def test_explicit_mode_wins_over_environment(self, monkeypatch):
        from repro.core import BenchmarkConfig
        from repro.core.config import PRECISION_CONTROL_ENV

        monkeypatch.setenv(PRECISION_CONTROL_ENV, "per-ingredient")
        cfg = BenchmarkConfig(precision_control="off")
        assert cfg.effective_precision_control == "off"

    def test_control_config_carries_detector_and_budget(self, monkeypatch):
        from repro.core import BenchmarkConfig
        from repro.core.config import PRECISION_CONTROL_ENV

        monkeypatch.delenv(PRECISION_CONTROL_ENV, raising=False)
        cfg = BenchmarkConfig(
            precision_ladder="fp32:fp64",
            precision_control="per-ingredient",
            precision_budget=1e-3,
        )
        cc = cfg.control_config()
        assert cc.mode == "per-ingredient"
        assert cc.escalation.enabled  # a budget's rungs may climb
        assert cc.budget == 1e-3

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "run",
                "--precision-control", "per-ingredient",
                "--precision-budget", "1e-4",
            ]
        )
        assert args.precision_control == "per-ingredient"
        assert args.precision_budget == 1e-4

    def test_report_records_control_mode(self, monkeypatch):
        from repro.core import BenchmarkConfig
        from repro.core.config import PRECISION_CONTROL_ENV

        monkeypatch.delenv(PRECISION_CONTROL_ENV, raising=False)
        cfg = BenchmarkConfig(precision_control="per-ingredient")
        assert cfg.effective_precision_control == "per-ingredient"

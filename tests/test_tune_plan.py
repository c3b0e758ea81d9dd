"""DispatchPlan semantics: lookup, consensus, parity, serialization.

The plan is the autotuner's contract with the rest of the stack: the
registry consults ``backend_for`` at dispatch time, the solver adopts
the solver-wide consensus only when unanimous, ``assert_parity`` keeps
non-bitwise variants out, and the aggregate probe speedup is >= 1.0 by
construction because the untuned default always competes.
"""

import pytest

from repro.fp.precision import Precision
from repro.tune import DispatchPlan, PlanChoice, PlanParityError, ProbeRecord
from repro.tune.plan import FUSED_OPS, MATRIX_OPS, PLAN_VERSION


def choice(
    fmt="ell",
    params=(),
    backend="numpy",
    fused=True,
    seconds=1.0,
    baseline_seconds=2.0,
    parity=True,
):
    return PlanChoice(
        fmt=fmt,
        fmt_params=params,
        backend=backend,
        fused=fused,
        seconds=seconds,
        baseline_seconds=baseline_seconds,
        parity=parity,
    )


def plan(entries, **kw):
    defaults = dict(
        operator_fingerprint="op-fp",
        machine_fingerprint="mach-fp",
        baseline_format="ell",
        baseline_params=(),
        baseline_fusion=True,
        baseline_backend="numpy",
    )
    defaults.update(kw)
    return DispatchPlan(entries=entries, **defaults)


class TestLookup:
    def test_choice_by_rung_string_and_precision(self):
        p = plan({("spmv", "fp64"): choice(backend="scipy")})
        assert p.choice("spmv", "fp64").backend == "scipy"
        assert p.choice("spmv", Precision.DOUBLE).backend == "scipy"
        assert p.choice("spmv", "fp32") is None
        assert p.choice("spmv", None) is None

    def test_backend_for_untuned_op_is_none(self):
        p = plan({("spmv", "fp64"): choice(backend="scipy")})
        assert p.backend_for("spmv", "fp64", "ell") == "scipy"
        assert p.backend_for("spmv_multi", "fp64", "ell") is None

    def test_backend_for_requires_matching_format(self):
        """Parity was verified only for the chosen format — a lookup
        under any other format (e.g. levelsched MG forcing ELL while
        the plan chose CSR) must fall back to untuned dispatch."""
        p = plan({("spmv", "fp64"): choice(fmt="csr", backend="scipy")})
        assert p.backend_for("spmv", "fp64", "csr") == "scipy"
        assert p.backend_for("spmv", "fp64", "ell") is None
        assert p.backend_for("spmv", "fp64", None) is None

    def test_backend_for_requires_matching_sell_params(self):
        params = (("chunk", 32), ("sigma", 128))
        p = plan(
            {
                ("spmv", "fp64"): choice(
                    fmt="sellcs", params=params, backend="scipy"
                )
            }
        )
        assert p.backend_for("spmv", "fp64", "sellcs", params) == "scipy"
        other = (("chunk", 16), ("sigma", 64))
        assert p.backend_for("spmv", "fp64", "sellcs", other) is None
        assert p.backend_for("spmv", "fp64", "sellcs") is None

    def test_backend_for_vector_op_matches_format_free_lookup(self):
        """Format-agnostic ops are probed (and dispatched) at
        ``fmt=None``; the recorded fmt is just the baseline placeholder."""
        p = plan({("waxpby_dot", "fp64"): choice(backend="scipy")})
        assert p.backend_for("waxpby_dot", "fp64", None) == "scipy"
        assert p.backend_for("waxpby_dot", "fp64", "ell") is None

    def test_fused_for_falls_back_to_default(self):
        p = plan({("waxpby_dot_multi", "fp64"): choice(fused=False)})
        assert p.fused_for("waxpby_dot_multi", "fp64", default=True) is False
        assert p.fused_for("waxpby_dot", "fp64", default=True) is True


class TestConsensus:
    def test_unanimous_format_is_adopted(self):
        entries = {
            (op, "fp64"): choice(fmt="csr") for op in sorted(MATRIX_OPS)
        }
        p = plan(entries)
        assert p.solver_format() == "csr"

    def test_split_format_keeps_baseline(self):
        ops = sorted(MATRIX_OPS)
        entries = {(ops[0], "fp64"): choice(fmt="csr")}
        entries.update({(op, "fp64"): choice(fmt="ell") for op in ops[1:]})
        p = plan(entries)
        assert p.solver_format() == "ell"

    def test_format_params_ride_the_consensus(self):
        params = (("chunk", 16), ("sigma", 64))
        entries = {
            (op, "fp64"): choice(fmt="sellcs", params=params)
            for op in sorted(MATRIX_OPS)
        }
        p = plan(entries)
        assert p.solver_format() == "sellcs"
        assert p.solver_format_params() == params

    def test_unanimous_unfused_flips_fusion(self):
        entries = {
            (op, "fp64"): choice(fused=False) for op in sorted(FUSED_OPS)
        }
        p = plan(entries)
        assert p.solver_fusion() is False

    def test_split_fusion_keeps_baseline(self):
        ops = sorted(FUSED_OPS)
        entries = {(ops[0], "fp64"): choice(fused=False)}
        entries.update({(op, "fp64"): choice(fused=True) for op in ops[1:]})
        p = plan(entries)
        assert p.solver_fusion() is True

    def test_applies_to_baseline_and_tuned_triples_only(self):
        entries = {
            (op, "fp64"): choice(fmt="csr", fused=True)
            for op in sorted(MATRIX_OPS)
        }
        p = plan(entries)
        assert p.applies_to("ell", (), True)  # the tuned-from baseline
        assert p.applies_to("csr", (), True)  # the tuned consensus
        assert not p.applies_to("sellcs", (("chunk", 32),), True)
        assert not p.applies_to("ell", (), False)


class TestInvariants:
    def test_assert_parity_rejects_non_bitwise_choice(self):
        p = plan({("spmv", "fp64"): choice(parity=False)})
        with pytest.raises(PlanParityError):
            p.assert_parity()

    def test_assert_parity_passes_clean_plan(self):
        p = plan({("spmv", "fp64"): choice()})
        p.assert_parity()

    def test_speedup_is_summed_ratio(self):
        p = plan(
            {
                ("spmv", "fp64"): choice(seconds=1.0, baseline_seconds=2.0),
                ("symgs_sweep_multi", "fp64"): choice(
                    seconds=1.0, baseline_seconds=1.0
                ),
            }
        )
        assert p.speedup() == pytest.approx(3.0 / 2.0)
        assert plan({}).speedup() == 1.0

    def test_speedup_is_unclamped_so_the_ci_floor_can_fire(self):
        """A plan violating the selection invariant (chosen slower than
        baseline) must report < 1.0, not be masked by a clamp — the
        check_regression.py floor gate depends on it."""
        p = plan(
            {("spmv", "fp64"): choice(seconds=2.0, baseline_seconds=1.0)}
        )
        assert p.speedup() == pytest.approx(0.5)


class TestSerialization:
    def test_round_trip_preserves_entries_and_probes(self):
        rec = ProbeRecord(
            op="spmv",
            rung="fp64",
            fmt="sellcs",
            fmt_params=(("chunk", 16), ("sigma", 64)),
            backend="numpy",
            fused=True,
            seconds=1.5e-4,
            parity=True,
            selected=True,
        )
        p = plan(
            {("spmv", "fp64"): choice(fmt="sellcs", params=rec.fmt_params)},
            probes=(rec,),
            machine={"fingerprint": "mach-fp"},
        )
        back = DispatchPlan.from_dict(p.to_dict())
        assert back.operator_fingerprint == p.operator_fingerprint
        assert back.machine_fingerprint == p.machine_fingerprint
        assert back.entries == p.entries
        assert back.probes == p.probes
        assert back.machine == p.machine

    def test_probes_can_be_dropped_from_the_dict(self):
        p = plan({("spmv", "fp64"): choice()})
        assert "probes" not in p.to_dict(probes=False)
        assert p.to_dict()["version"] == PLAN_VERSION

    def test_version_mismatch_is_rejected(self):
        d = plan({("spmv", "fp64"): choice()}).to_dict()
        d["version"] = PLAN_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            DispatchPlan.from_dict(d)


class TestReport:
    def test_table_lists_variants_and_marks_selection(self):
        rec = ProbeRecord(
            op="spmv",
            rung="fp64",
            fmt="sellcs",
            fmt_params=(("chunk", 16),),
            backend="numpy",
            fused=False,
            seconds=1.0e-4,
            parity=True,
            selected=True,
        )
        p = plan({}, probes=(rec,))
        text = p.table()
        assert "sellcs[chunk=16]/numpy/unfused" in text
        assert "*" in text

    def test_variant_label(self):
        rec = ProbeRecord(
            op="spmv",
            rung="fp32",
            fmt="ell",
            fmt_params=(),
            backend="numpy",
            fused=True,
            seconds=1.0,
            parity=True,
        )
        assert rec.variant == "ell/numpy/fused"

"""DispatchPlan semantics: consensus, parity, serialization.

The plan is the autotuner's contract with the solvers: a solver adopts
the solver-wide format only when every entry agrees, ``assert_parity``
keeps non-bitwise formats out, and the aggregate probe speedup is
>= 1.0 by construction because the baseline format always competes.
"""

import pytest

from repro.tune import DispatchPlan, PlanChoice, PlanParityError, ProbeRecord
from repro.tune.plan import PLAN_VERSION
from repro.tune.probe import MATRIX_PROBE_OPS

HEADERS = ("op", "rung", "format", "seconds", "parity", "chosen")


def choice(fmt="ell", seconds=1.0, baseline_seconds=2.0, parity=True):
    return PlanChoice(
        fmt=fmt, seconds=seconds, baseline_seconds=baseline_seconds, parity=parity
    )


def plan(entries, **kw):
    defaults = dict(
        operator_fingerprint="op-fp",
        machine_fingerprint="mach-fp",
        baseline_format="ell",
        baseline_backend="numpy",
    )
    defaults.update(kw)
    return DispatchPlan(entries=entries, **defaults)


class TestConsensus:
    def test_unanimous_format_is_adopted(self):
        entries = {(op, "fp64"): choice(fmt="csr") for op in MATRIX_PROBE_OPS}
        assert plan(entries).solver_format() == "csr"

    def test_split_format_keeps_baseline(self):
        ops = MATRIX_PROBE_OPS
        entries = {(ops[0], "fp64"): choice(fmt="csr")}
        entries.update({(op, "fp64"): choice(fmt="ell") for op in ops[1:]})
        assert plan(entries).solver_format() == "ell"

    def test_applies_to_baseline_and_consensus_only(self):
        entries = {(op, "fp64"): choice(fmt="csr") for op in MATRIX_PROBE_OPS}
        p = plan(entries)
        assert p.applies_to("ell")  # the tuned-from baseline
        assert p.applies_to("csr")  # the tuned consensus
        untuned = plan({}, baseline_format="csr")
        assert untuned.applies_to("csr") and not untuned.applies_to("ell")


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
            fmt="csr",
            seconds=1.5e-4,
            parity=True,
            selected=True,
        )
        p = plan(
            {("spmv", "fp64"): choice(fmt="csr")},
            probes=(rec,),
            machine={"fingerprint": "mach-fp"},
        )
        back = DispatchPlan.from_dict(p.to_dict())
        assert back == p

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
    def test_table_lists_formats_and_marks_selection(self):
        recs = tuple(
            ProbeRecord(
                op="spmv",
                rung="fp64",
                fmt=fmt,
                seconds=seconds,
                parity=parity,
                selected=fmt == "ell",
            )
            for fmt, seconds, parity in (("ell", 2e-4, True), ("csr", 1e-4, False))
        )
        header, _, csr, ell = plan({}, probes=recs).table().splitlines()
        assert header.split() == list(HEADERS)
        assert csr.split() == ["spmv", "fp64", "csr", "1.000e-04", "no"]
        assert ell.split() == ["spmv", "fp64", "ell", "2.000e-04", "yes", "*"]

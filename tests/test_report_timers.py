"""Tests for report formatting and motif timers."""

import time

import pytest

from repro.core import BenchmarkConfig, format_report, run_benchmark
from repro.util.timers import MOTIFS, MotifTimers, NullTimers


class TestMotifTimers:
    def test_section_accumulates(self):
        t = MotifTimers()
        with t.section("gs"):
            time.sleep(0.01)
        with t.section("gs"):
            pass
        assert t.seconds["gs"] >= 0.01
        assert t.calls["gs"] == 2

    def test_total(self):
        t = MotifTimers()
        with t.section("gs"):
            pass
        with t.section("spmv"):
            pass
        assert t.total == pytest.approx(t.seconds["gs"] + t.seconds["spmv"])

    def test_breakdown_zero_filled(self):
        t = MotifTimers()
        with t.section("ortho"):
            pass
        b = t.breakdown()
        assert set(b) == set(MOTIFS)
        assert b["gs"] == 0.0

    def test_fractions_sum_to_one(self):
        t = MotifTimers()
        with t.section("gs"):
            time.sleep(0.002)
        with t.section("spmv"):
            time.sleep(0.002)
        assert sum(t.fractions().values()) == pytest.approx(1.0)

    def test_fractions_empty(self):
        assert sum(MotifTimers().fractions().values()) == 0.0

    def test_merge(self):
        a, b = MotifTimers(), MotifTimers()
        with a.section("gs"):
            pass
        with b.section("gs"):
            pass
        with b.section("dot"):
            pass
        a.merge(b)
        assert a.calls["gs"] == 2
        assert a.calls["dot"] == 1

    def test_reset(self):
        t = MotifTimers()
        with t.section("gs"):
            pass
        t.reset()
        assert t.total == 0.0

    def test_exception_still_recorded(self):
        t = MotifTimers()
        with pytest.raises(ValueError):
            with t.section("gs"):
                raise ValueError
        assert t.calls["gs"] == 1

    def test_null_timers_interface(self):
        t = NullTimers()
        with t.section("anything"):
            pass
        assert t.total == 0.0
        assert sum(t.breakdown().values()) == 0.0
        t.merge(MotifTimers())
        t.reset()

    def test_null_section_is_one_shared_context(self):
        """Untimed sections build nothing: every call, on every
        instance, returns the same do-nothing context, and an exception
        inside it propagates."""
        a, b = NullTimers(), NullTimers()
        assert a.section("gs") is b.section("spmv")
        with pytest.raises(ValueError):
            with a.section("gs"):
                raise ValueError


class TestReportVariants:
    @pytest.fixture(scope="class")
    def fullscale_result(self):
        return run_benchmark(
            BenchmarkConfig(
                local_nx=16,
                nranks=1,
                validation_mode="fullscale",
                validation_max_iters=20,
                max_iters_per_solve=8,
            )
        )

    def test_fullscale_report_mentions_target(self, fullscale_result):
        text = format_report(fullscale_result)
        assert "fullscale" in text
        assert "target residual" in text

    def test_reference_impl_report(self):
        res = run_benchmark(
            BenchmarkConfig(
                local_nx=16,
                nranks=1,
                impl="reference",
                validation_max_iters=60,
                max_iters_per_solve=5,
            )
        )
        text = format_report(res)
        assert "reference" in text
        assert "csr" in text

    def test_report_includes_all_motif_lines(self, fullscale_result):
        text = format_report(fullscale_result)
        for motif in ("gs", "ortho", "spmv", "restrict"):
            assert motif in text

    def test_penalty_appears_in_rating(self, fullscale_result):
        text = format_report(fullscale_result)
        assert "penalty" in text

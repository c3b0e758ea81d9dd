"""Every example script must run green (scaled-down where needed)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 600.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "double GMRES" in out
        assert "mixed GMRES-IR" in out
        assert "penalty" in out

    def test_distributed_solve(self):
        out = run_example("distributed_solve.py")
        assert "all runs converged" in out

    def test_full_benchmark(self):
        out = run_example("full_benchmark.py")
        assert "HPG-MxP Benchmark" in out
        assert "HPCG comparison" in out

    def test_exascale_projection(self):
        out = run_example("exascale_projection.py")
        assert "17.2" in out  # total PF at 9408 nodes
        assert "Roofline" in out
        assert "fully hidden" in out
        assert "EXPOSED" in out

    def test_mixed_precision_study(self):
        out = run_example("mixed_precision_study.py")
        assert "fp32 GMRES-IR" in out
        assert "fp32:fp64 ladder" in out
        assert "fp16" not in out
        assert "partial policies" in out

    def test_strategy_comparison(self):
        out = run_example("strategy_comparison.py")
        assert "uniform fp32" in out
        assert "NO" in out  # the uniform solver must fail
        assert "switched" in out
        assert "GMRES-IR" in out

"""Smoke test of the benchmark suite, collected by the tier-1 command.

Drives every workload function and every traced pass at 8^3 with one
repetition (the same functions ``run.py`` calls, with small sizes) and
checks the contract between them and ``BENCHMARK.json``: every declared
metric is emitted for every declared workload and nothing else is, the
span file loads as Chrome trace JSON with every span inside its parent,
and the registry's dispatch wrapper is cleared afterwards.
"""

from __future__ import annotations

import json
import math
import re
from argparse import Namespace

import compare
import layers
import noise
import pytest
import run
import workloads

from repro.backends.registry import registry

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in CONTRACT["workloads"]]
SMALL = {
    "solve48": {"nx": 8},
    "solve16": {"nx": 8},
    "panel32": {"nx": 8},
    "spmd2x32": {"nx": 8},
    "service16": {"nx": 8, "nx_b": 16, "quotas": (1, 1, 1)},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def small(monkeypatch):
    """Point both workload tables at 8^3; shrink the STREAM arrays and
    the calibration probe (its values are not looked at here)."""
    for name, sizes in SMALL.items():
        for table in (workloads.WORKLOADS, layers.TRACED):
            monkeypatch.setitem(table, name, (table[name][0], sizes))
    monkeypatch.setattr(layers, "PROBE_ARRAY_BYTES", 1 << 20)
    monkeypatch.setattr(noise, "LARGE_ROWS", 2048)
    monkeypatch.setattr(noise, "SPIN_ITERS", 10_000)


def test_contract_shape():
    assert set(CONTRACT) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert CONTRACT["paths"] == ["benchmarks/suite"]
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    groups = (
        ("workloads", {"name", "why"}, 2, 8),
        ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
        ("per_layer", {"name", "unit", "better"}, 1, 128),
    )
    seen = set()
    for key, fields, lo, hi in groups:
        assert lo <= len(CONTRACT[key]) <= hi
        for entry in CONTRACT[key]:
            assert set(entry) == fields
            assert NAME.fullmatch(entry["name"]), entry["name"]
            assert entry["name"] not in seen
            seen.add(entry["name"])
    for w in CONTRACT["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in CONTRACT["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert set(workloads.WORKLOADS) == set(layers.TRACED) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_pass(small, name):
    args = Namespace(seconds=0.05, seed=3, trace=0, out=None)
    record = run.run_workload(name, args, CONTRACT)
    assert sorted(record["metrics"]) == sorted(
        m["name"] for m in CONTRACT["end_to_end"]
    )
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    for metric, m in record["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass(small, name, tmp_path):
    args = Namespace(seconds=0.05, seed=3, trace=1, out=tmp_path / "set.json")
    try:
        record = run.run_workload(name, args, CONTRACT)
    finally:
        leaked = registry.wrapper
        registry.set_wrapper(None)
    assert leaked is None
    assert sorted(record["metrics"]) == sorted(m["name"] for m in CONTRACT["per_layer"])
    assert record["correct"] and record["attempted"] >= 1
    for metric, m in record["metrics"].items():
        assert math.isfinite(m["value"]), metric
        # Only the overhead is a difference of two noisy timings.
        assert m["value"] >= 0 or metric == "trace.overhead_frac", metric
    assert abs(record["detail"]["selftime_closure"] - 1.0) < 0.05

    doc = json.loads((tmp_path / record["detail"]["span_file"]).read_text())
    events = doc["traceEvents"]
    assert len(events) == record["detail"]["spans"] > 0
    by_id = {(e["pid"], e["args"]["shard"], e["args"]["id"]): e for e in events}
    assert len(by_id) == len(events)
    layers_seen = set()
    for (pid, shard, _), e in by_id.items():
        assert e["ph"] == "X" and e["dur"] >= 0
        layers_seen.add(e["tid"])
        parent = e["args"]["parent"]
        if parent >= 0:
            p = by_id[(pid, shard, parent)]
            assert p["ts"] <= e["ts"]
            assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3
    assert {"suite", "solvers", "mg", "backends"} <= layers_seen


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99]
    assert compare.verdict(steady, [1.04, 1.05, 1.03], "lower", 0.10) == "within-bound"
    assert compare.verdict(steady, [1.20, 1.22, 1.21], "lower", 0.10) == "regression"
    assert compare.verdict(steady, [0.80, 0.79, 0.81], "higher", 0.10) == "regression"
    assert compare.verdict(steady, [0.80, 0.79, 0.81], "lower", 0.10) == "within-bound"
    noisy = [0.8, 1.0, 1.3]
    assert compare.verdict(noisy, [0.9, 1.1, 1.2], "lower", 0.10) == "unresolved"
    # Wide spread, but every run of the set beats every run of the base.
    assert compare.verdict(noisy, [0.5, 0.6, 0.7], "lower", 0.10) == "within-bound"

"""Plan-cache persistence: round-trip, staleness, corruption fallback.

The cache's failure policy is the point under test: it must *never*
take the solver down.  Missing files miss, corrupted files warn and
miss (callers fall back to untuned dispatch), and entries recorded on
another machine are stale — all without raising.
"""

import json
import logging
import os

import pytest

from repro.tune import DispatchPlan, PlanCache, PlanChoice
from repro.tune.cache import CACHE_VERSION, PLAN_VERSION


def make_plan(op_fp="op-a", mach_fp="mach-a", seconds=1.0):
    return DispatchPlan(
        operator_fingerprint=op_fp,
        machine_fingerprint=mach_fp,
        baseline_format="ell",
        baseline_backend="numpy",
        entries={
            ("spmv", "fp64"): PlanChoice(
                fmt="ell", seconds=seconds, baseline_seconds=2.0
            )
        },
    )


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = PlanCache(str(tmp_path / "cache.json"))
        plan = make_plan()
        cache.store(plan)
        back = cache.load("op-a", "mach-a")
        assert back is not None
        assert back.entries == plan.entries
        assert back.machine_fingerprint == "mach-a"
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_file_is_a_miss(self, tmp_path):
        cache = PlanCache(str(tmp_path / "nope.json"))
        assert cache.load("op-a", "mach-a") is None
        assert cache.misses == 1 and cache.corrupt == 0

    def test_store_preserves_other_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        PlanCache(path).store(make_plan(op_fp="op-a"))
        PlanCache(path).store(make_plan(op_fp="op-b"))
        cache = PlanCache(path)
        assert cache.load("op-a", "mach-a") is not None
        assert cache.load("op-b", "mach-a") is not None
        assert len(cache.entries()) == 2

    def test_store_overwrites_same_key(self, tmp_path):
        cache = PlanCache(str(tmp_path / "cache.json"))
        cache.store(make_plan(seconds=1.0))
        cache.store(make_plan(seconds=0.5))
        back = cache.load("op-a", "mach-a")
        assert back.entries[("spmv", "fp64")].seconds == 0.5
        assert len(cache.entries()) == 1

    def test_concurrent_stores_keep_every_entry(self, tmp_path):
        """The flock around the read-merge-write: interleaved writers
        sharing one cache file must not discard each other's entries."""
        import threading

        path = str(tmp_path / "cache.json")
        fps = [f"op-{i}" for i in range(8)]

        def worker(op_fp):
            PlanCache(path).store(make_plan(op_fp=op_fp))

        threads = [threading.Thread(target=worker, args=(fp,)) for fp in fps]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cache = PlanCache(path)
        for fp in fps:
            assert cache.load(fp, "mach-a") is not None
        assert len(cache.entries()) == len(fps)


class TestStaleness:
    def test_other_machine_key_misses(self, tmp_path):
        cache = PlanCache(str(tmp_path / "cache.json"))
        cache.store(make_plan(mach_fp="mach-a"))
        assert cache.load("op-a", "mach-b") is None
        assert cache.misses == 1

    def test_fingerprint_mismatch_inside_entry_is_stale(
        self, tmp_path, caplog
    ):
        # Hand-edit the file so the key claims mach-b but the payload
        # still says mach-a — a cache copied between machines.
        path = str(tmp_path / "cache.json")
        PlanCache(path).store(make_plan(mach_fp="mach-a"))
        with open(path) as fh:
            data = json.load(fh)
        (key,) = data["plans"]
        data["plans"][key.replace("mach-a", "mach-b")] = data["plans"].pop(key)
        with open(path, "w") as fh:
            json.dump(data, fh)
        cache = PlanCache(path)
        with caplog.at_level(logging.WARNING, logger="repro.tune.cache"):
            assert cache.load("op-a", "mach-b") is None
        assert cache.stale == 1 and cache.misses == 1
        assert any("mismatch" in r.message for r in caplog.records)

    def test_store_self_heals_mismatched_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        PlanCache(path).store(make_plan(mach_fp="mach-a"))
        with open(path) as fh:
            data = json.load(fh)
        (key,) = data["plans"]
        data["plans"]["bogus:key"] = data["plans"][key]
        with open(path, "w") as fh:
            json.dump(data, fh)
        cache = PlanCache(path)
        cache.store(make_plan(op_fp="op-b"))
        assert "bogus:key" not in cache.entries()


class TestCorruption:
    def test_garbage_file_warns_and_misses(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        path.write_text("{not json at all")
        cache = PlanCache(str(path))
        with caplog.at_level(logging.WARNING, logger="repro.tune.cache"):
            assert cache.load("op-a", "mach-a") is None
        assert cache.corrupt == 1 and cache.misses == 1
        assert any("unreadable" in r.message for r in caplog.records)

    def test_wrong_layout_warns_and_misses(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 999, "plans": {}}))
        cache = PlanCache(str(path))
        with caplog.at_level(logging.WARNING, logger="repro.tune.cache"):
            assert cache.load("op-a", "mach-a") is None
        assert cache.corrupt == 1

    def test_malformed_entry_warns_and_misses(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps(
                {
                    "version": CACHE_VERSION,
                    "plans": {"op-a:mach-a": {"version": PLAN_VERSION}},
                }
            )
        )
        cache = PlanCache(str(path))
        with caplog.at_level(logging.WARNING, logger="repro.tune.cache"):
            assert cache.load("op-a", "mach-a") is None
        assert cache.corrupt == 1 and cache.misses == 1

    @pytest.mark.parametrize(
        "version, ops, fmt",
        [
            # Version 1 named ops that no longer exist.
            (1, ("spmv_dot", "symgs_sweep"), "ell"),
            # Version 2 could choose the retired sliced-ELL format with
            # its chunk / sigma.
            (2, ("spmv", "spmv_multi"), "sell" + "cs"),
        ],
    )
    def test_version1_plan_naming_retired_ops_misses(
        self, tmp_path, caplog, version, ops, fmt
    ):
        """A well-formed old-version file whose entries name ops or
        formats that no longer exist (``spmv_dot``, the index-set
        ``symgs_sweep``; the sliced-ELL format a version-2 consensus
        could build) is a miss with the usual warning — never an error,
        never a solver that fails to build its operator — and a fresh
        plan replaces it."""
        stale = make_plan().to_dict()
        choice = {
            "fmt": fmt,
            "fmt_params": [["chunk", 32], ["sigma", 128]],
            "backend": "numpy",
            "fused": True,
            "seconds": 1.0,
            "baseline_seconds": 2.0,
            "parity": True,
        }
        stale["version"] = version
        stale["baseline"].update(format=fmt, params=[], fusion=True)
        stale["entries"] = {f"{op}@fp64": choice for op in ops}
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps({"version": CACHE_VERSION, "plans": {"op-a:mach-a": stale}})
        )
        cache = PlanCache(str(path))
        with caplog.at_level(logging.WARNING, logger="repro.tune.cache"):
            assert cache.load("op-a", "mach-a") is None
        assert cache.misses == 1 and cache.hits == 0
        assert any("malformed" in r.message for r in caplog.records)
        cache.store(make_plan())
        loaded = cache.load("op-a", "mach-a")
        assert loaded is not None and set(loaded.entries) == {("spmv", "fp64")}

    def test_corrupt_file_survives_a_store(self, tmp_path):
        # Storing over a corrupted file replaces it with a clean one.
        path = tmp_path / "cache.json"
        path.write_text("{not json at all")
        cache = PlanCache(str(path))
        cache.store(make_plan())
        assert cache.load("op-a", "mach-a") is not None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = PlanCache(str(tmp_path / "cache.json"))
        cache.store(make_plan())
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_stats_shape(self, tmp_path):
        cache = PlanCache(str(tmp_path / "cache.json"))
        s = cache.stats()
        assert set(s) == {"path", "hits", "misses", "stale", "corrupt"}

"""Plan-cache corruption fuzzing: damaged files never raise.

The cache's failure policy — a corrupted file is a logged warning plus
a miss, and the caller falls back to untuned dispatch — is fuzzed here
beyond the targeted corruption cases in ``test_tune_cache.py``:
truncations at every prefix length, random byte mutations, torn
concurrent writes, wrong schema versions, and non-UTF-8 garbage.  The
invariant under test is blunt: ``load`` returns a plan or ``None`` and
``store`` heals the file; neither ever propagates an exception.
"""

import json
import logging
import os

import numpy as np
import pytest

from repro.tune import DispatchPlan, PlanCache, PlanChoice
from repro.tune.cache import CACHE_VERSION


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


def valid_cache_bytes(tmp_path) -> bytes:
    path = str(tmp_path / "seed_cache.json")
    PlanCache(path).store(make_plan())
    with open(path, "rb") as fh:
        return fh.read()


def load_never_raises(path: str):
    """The blunt invariant: a plan, or None — never an exception."""
    cache = PlanCache(path)
    result = cache.load("op-a", "mach-a")
    assert result is None or isinstance(result, DispatchPlan)
    return result, cache


class TestTruncation:
    def test_every_prefix_length_is_safe(self, tmp_path):
        """Cut the file at every byte offset (a crashed writer without
        the atomic rename, a partial copy, a full disk)."""
        raw = valid_cache_bytes(tmp_path)
        path = str(tmp_path / "cache.json")
        for cut in range(len(raw) + 1):
            with open(path, "wb") as fh:
                fh.write(raw[:cut])
            result, cache = load_never_raises(path)
            if cut == len(raw):
                assert result is not None  # intact file round-trips
            else:
                assert result is None
                assert cache.corrupt >= 1

    def test_truncated_file_heals_on_store(self, tmp_path):
        raw = valid_cache_bytes(tmp_path)
        path = str(tmp_path / "cache.json")
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        cache = PlanCache(path)
        cache.store(make_plan(op_fp="op-b"))  # must not raise
        assert PlanCache(path).load("op-b", "mach-a") is not None


class TestRandomMutation:
    def test_byte_flips_never_raise(self, tmp_path):
        raw = bytearray(valid_cache_bytes(tmp_path))
        path = str(tmp_path / "cache.json")
        rng = np.random.default_rng(20260808)
        for _ in range(64):
            bad = bytearray(raw)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(len(bad)))
                bad[pos] ^= 1 << int(rng.integers(8))
            with open(path, "wb") as fh:
                fh.write(bytes(bad))
            load_never_raises(path)

    def test_random_slice_deletions_never_raise(self, tmp_path):
        raw = valid_cache_bytes(tmp_path)
        path = str(tmp_path / "cache.json")
        rng = np.random.default_rng(7)
        for _ in range(32):
            a = int(rng.integers(len(raw)))
            b = int(rng.integers(a, len(raw) + 1))
            with open(path, "wb") as fh:
                fh.write(raw[:a] + raw[b:])
            load_never_raises(path)

    def test_non_utf8_garbage_warns_and_misses(self, tmp_path, caplog):
        path = str(tmp_path / "cache.json")
        with open(path, "wb") as fh:
            fh.write(bytes(range(256)) * 4)  # invalid UTF-8
        with caplog.at_level(logging.WARNING):
            result, cache = load_never_raises(path)
        assert result is None
        assert cache.corrupt == 1
        assert "falling back to untuned dispatch" in caplog.text


class TestTornWrites:
    def test_interleaved_writer_fragments(self, tmp_path):
        """Two writers' bytes interleaved mid-file (the failure the
        atomic rename + flock exist to prevent, simulated directly)."""
        raw_a = valid_cache_bytes(tmp_path)
        raw_b = valid_cache_bytes(tmp_path)  # identical layout
        path = str(tmp_path / "cache.json")
        torn = raw_a[: len(raw_a) // 2] + raw_b[len(raw_b) // 3 :]
        with open(path, "wb") as fh:
            fh.write(torn)
        result, cache = load_never_raises(path)
        assert result is None
        assert cache.corrupt == 1

    def test_valid_json_with_trailing_fragment(self, tmp_path):
        raw = valid_cache_bytes(tmp_path)
        path = str(tmp_path / "cache.json")
        with open(path, "wb") as fh:
            fh.write(raw + b'{"version":')
        result, _ = load_never_raises(path)
        assert result is None  # trailing garbage breaks the document


class TestSchemaDamage:
    @pytest.mark.parametrize(
        "payload",
        [
            {"version": CACHE_VERSION + 1, "plans": {}},  # future version
            {"version": "1", "plans": {}},  # stringly-typed version
            {"version": CACHE_VERSION, "plans": []},  # wrong container
            {"plans": {}},  # missing version
            [],  # not an object
            "just a string",
            42,
            None,
        ],
    )
    def test_unrecognized_layout_misses(self, tmp_path, payload):
        path = str(tmp_path / "cache.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        result, cache = load_never_raises(path)
        assert result is None
        assert cache.corrupt == 1

    def test_entry_value_garbage_misses(self, tmp_path):
        raw = valid_cache_bytes(tmp_path)
        doc = json.loads(raw)
        key = next(iter(doc["plans"]))
        for bad in (None, 7, "x", [], {"entries": "nope"}):
            doc["plans"][key] = bad
            path = str(tmp_path / "cache.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            result, cache = load_never_raises(path)
            assert result is None
            assert cache.misses == 1

    def test_stats_counters_survive_fuzz(self, tmp_path):
        path = str(tmp_path / "cache.json")
        with open(path, "w") as fh:
            fh.write("not json at all")
        cache = PlanCache(path)
        for _ in range(3):
            assert cache.load("op-a", "mach-a") is None
        stats = cache.stats()
        assert stats["corrupt"] == 3
        assert stats["misses"] == 3
        # A corrupted cache never leaves stray temp files behind.
        stray = [
            f
            for f in os.listdir(tmp_path)
            if f.startswith(".") or f.endswith(".tmp")
        ]
        assert stray == []

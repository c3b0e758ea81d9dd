"""Span recorder for the traced pass.

One object serves both public seams the program already has:

- ``GMRESIRSolver(timers=recorder)`` — the solver and its multigrid
  hierarchy bracket every motif with ``timers.section(name)``;
- ``registry.set_wrapper(recorder.wrap)`` — every kernel resolves
  through ``wrap(op, fn)``, so each dispatch becomes a span (kernels
  that dispatch other kernels nest: ``symgs_sweep`` issues one
  ``spmv_rows`` per colour).

A span is ``(name, rung, rows, start, end, parent)``; each thread (SPMD
rank, service worker) writes to its own preallocated shard, so no lock
sits on the hot path.  Spans stay in memory until :meth:`events`
exports them through ``repro.trace.TraceEvent``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from repro.trace import TraceEvent, to_chrome_json

#: Motif sections owned by the multigrid layer; every other section
#: name belongs to the solver layer and every wrapped op to backends.
MG_SECTIONS = frozenset({"gs", "restrict", "prolong"})

_CHUNK = 1 << 16


class _Shard:
    """One thread's spans: parallel preallocated columns plus a stack."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.count = 0
        self.stack: list[int] = []
        self.name: list = []
        self.kind: list = []
        self.rung: list = []
        self.rows: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self._grow()

    def _grow(self) -> None:
        for col, fill in (
            (self.name, ""),
            (self.kind, ""),
            (self.rung, ""),
            (self.rows, 0),
            (self.start, 0.0),
            (self.end, 0.0),
            (self.parent, -1),
        ):
            col.extend([fill] * _CHUNK)

    def open(self, name: str, kind: str, rung: str = "", rows: int = 0) -> int:
        i = self.count
        if i == len(self.name):
            self._grow()
        self.count = i + 1
        self.name[i] = name
        self.kind[i] = kind
        self.rung[i] = rung
        self.rows[i] = rows
        self.parent[i] = self.stack[-1] if self.stack else -1
        self.stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()


class _Section:
    """Context manager for one ``section``/``span`` (cheaper than a
    generator-based one on a path entered ~20 times per iteration)."""

    __slots__ = ("shard", "name", "kind", "index")

    def __init__(self, shard: _Shard | None, name: str, kind: str) -> None:
        self.shard = shard
        self.name = name
        self.kind = kind

    def __enter__(self) -> "_Section":
        if self.shard is not None:
            self.index = self.shard.open(self.name, self.kind)
        return self

    def __exit__(self, *exc) -> None:
        if self.shard is not None:
            self.shard.close(self.index)


def _operand_tags(args) -> tuple[str, int]:
    """``(rung, rows)`` of a kernel call, from its first array-like
    argument (a matrix or an ndarray; ``waxpby`` leads with a scalar)."""
    for a in args:
        dtype = getattr(a, "dtype", None)
        if dtype is None:
            continue
        rows = getattr(a, "nrows", None)  # storage formats
        if rows is None:
            rows = getattr(a, "nlocal", None)  # colour-partitioned layout
        if rows is None:
            rows = a.shape[0] if a.shape else 0  # ndarray
        return dtype.name, int(rows)
    return "", 0


class SpanRecorder:
    """Records spans while :attr:`enabled`; free-running otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._shards: list[_Shard] = []
        self._lock = threading.Lock()

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def bind_rank(self, rank: int) -> None:
        """Label the calling thread's spans with an SPMD rank."""
        self._shard().rank = rank

    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _Shard(rank=0)
            self._local.shard = shard
            with self._lock:
                self._shards.append(shard)
        return shard

    # -- the two seams -------------------------------------------------
    def section(self, name: str) -> _Section:
        """``timers.section(name)``: one motif span."""
        return _Section(self._shard() if self.enabled else None, name, "section")

    def span(self, name: str) -> _Section:
        """A harness-level span (workload, solve, request)."""
        return _Section(self._shard() if self.enabled else None, name, "root")

    def wrap(self, op: str, fn):
        """``registry.set_wrapper`` hook: one span per kernel dispatch."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            shard = self._shard()
            i = shard.open(op, "kernel", *_operand_tags(args))
            try:
                return fn(*args, **kwargs)
            finally:
                shard.close(i)

        return traced

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed harness span (one service request)."""
        shard = self._shard()
        i = shard.open(name, "root")
        shard.stack.pop()
        shard.start[i], shard.end[i] = start, end

    # -- queries -------------------------------------------------------
    def shard_of(self, rank: int) -> _Shard | None:
        for shard in self._shards:
            if shard.rank == rank and shard.count:
                return shard
        return None

    def total_spans(self) -> int:
        return sum(s.count for s in self._shards)

    def events(self) -> list[tuple[TraceEvent, dict]]:
        """Every span as ``(TraceEvent, args)``: pid = rank, tid = layer,
        the rung in the name; ``args`` carries the shard (thread), the
        span's index in it, its parent's index and the operand rows."""
        t0 = min((s.start[0] for s in self._shards if s.count), default=0.0)
        out = []
        for k, shard in enumerate(self._shards):
            for i in range(shard.count):
                name = shard.name[i]
                if shard.kind[i] == "kernel":
                    layer = "backends"
                    name = f"{name}[{shard.rung[i]}]"
                elif shard.kind[i] == "root":
                    layer = "suite"
                else:
                    layer = "mg" if name in MG_SECTIONS else "solvers"
                event = TraceEvent(
                    rank=shard.rank,
                    stream=layer,
                    name=name,
                    start=shard.start[i] - t0,
                    end=shard.end[i] - t0,
                )
                args = {
                    "shard": k,
                    "id": i,
                    "parent": shard.parent[i],
                    "rows": shard.rows[i],
                }
                out.append((event, args))
        return out


def self_times(shard: _Shard) -> list[float]:
    """Per-span self time: duration minus its direct children."""
    own = [shard.end[i] - shard.start[i] for i in range(shard.count)]
    for i in range(shard.count):
        p = shard.parent[i]
        if p >= 0:
            own[p] -= shard.end[i] - shard.start[i]
    return own


def descendants(shard: _Shard, roots: list[int]) -> list[int]:
    """Indices of ``roots`` and every span below them (spans are stored
    in start order, so a parent always precedes its children)."""
    inside = set(roots)
    out = []
    for i in range(shard.count):
        if i in inside or shard.parent[i] in inside:
            inside.add(i)
            out.append(i)
    return out


def write_spans(recorder: SpanRecorder, path: Path) -> None:
    """Write the spans as Chrome/Perfetto trace JSON.

    The records come from ``repro.trace.to_chrome_json``; each gains an
    ``args`` block (span id, parent id, operand rows) the exporter's
    event type has no field for.
    """
    pairs = recorder.events()
    doc = json.loads(to_chrome_json([event for event, _ in pairs]))
    for record, (_, args) in zip(doc["traceEvents"], pairs):
        record["args"] = args
    path.write_text(json.dumps(doc))

"""Noise control: the calibration probe and the run statistics.

The box this suite was sized on flips between core-speed states about
1.28x apart (dwell 5-30 s), at other hours sits in a slower, jittery
state, and shares its last-level cache with other tenants, so raw
medians of a 20 s window do not repeat within a tenth.  Timed operations
are therefore bracketed by a *calibration probe* — a fixed amount of
work that touches none of the repo's code — and reported in
**speed-normalised seconds**: ``t / slowdown``, where ``slowdown`` is
the median of the probes around the operation, each relative to
:data:`PROBE_REF_S`.

The probe has three parts because the workloads are slowed by three
different things (measured, see README "Noise"): a pure-Python loop
tracks interpreter speed, a loop of small in-cache gathers tracks the
NumPy call path the dispatch-bound sizes live on, and one large gather
tracks the cache/memory state the 48^3 solves live on.  The reference
is a constant, not the fastest probe of the invocation, because the
driver runs one workload per process and a 25 s process can sit
entirely in the slow state.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Probe-part times (spin, small gather loop, large gather) on the box
#: that recorded ``baseline.json``, in its fast state.  Only their
#: ratio to the live probe matters when two commits are compared on
#: one machine; on another machine normalised values shift by one
#: constant factor (raw values are always written beside them).
PROBE_REF_S = (3.40e-3, 2.33e-3, 7.00e-3)

#: One probe per this much timed work (and always one before the first
#: and after the last operation).
PROBE_EVERY_S = 1.0

#: Probes this close to an operation are pooled into its slowdown.
POOL_S = 2.5

#: A probe slower than this counts as "slow state" in ``perf.slow_frac``.
SLOW_STATE = 1.12

SPIN_ITERS = 100_000
_SMALL_ROWS, _SMALL_REPS = 2048, 30
LARGE_ROWS = 110_592
_WIDTH = 27


def _gather_operands(rows: int, rng: np.random.Generator):
    """Synthetic 27-wide ELL-like gather operands (fp32, local columns)."""
    reach = round(rows ** (2 / 3)) + 2
    cols = np.arange(rows)[:, None] + rng.integers(-reach, reach, (rows, _WIDTH))
    cols = np.clip(cols, 0, rows - 1).astype(np.int32)
    return (
        cols,
        rng.random(rows, dtype=np.float32),
        rng.random((rows, _WIDTH), dtype=np.float32),
        np.empty((rows, _WIDTH), dtype=np.float32),
        np.empty(rows, dtype=np.float32),
    )


def _gather(operands) -> None:
    cols, x, vals, tmp, y = operands
    np.take(x, cols, out=tmp, mode="clip")
    np.multiply(tmp, vals, out=tmp)
    np.add.reduce(tmp, axis=1, out=y)


class Calibrator:
    """Takes probes and turns recorded operations into normalised times.

    Operations are recorded as ``(side, start, end, weight)``; a probe
    timeline runs beside them.  :meth:`samples` normalises each
    operation by the mean of the last probe before it started and the
    first probe after it ended.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20250101)
        self._small = _gather_operands(_SMALL_ROWS, rng)
        self._large = _gather_operands(LARGE_ROWS, rng)
        self.probe_times: list[float] = []
        self.slowdowns: list[float] = []
        self._ops: dict[str, list[tuple[float, float, float]]] = {}
        self.probe()  # first call pages the operands in
        self.probe_times.clear()
        self.slowdowns.clear()

    # -- probe ---------------------------------------------------------
    def _spin(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(SPIN_ITERS):
            acc += i * i
        return time.perf_counter() - t0

    def _small_loop(self) -> float:
        t0 = time.perf_counter()
        for _ in range(_SMALL_REPS):
            _gather(self._small)
        return time.perf_counter() - t0

    def _large_once(self) -> float:
        t0 = time.perf_counter()
        _gather(self._large)
        return time.perf_counter() - t0

    def probe(self) -> float:
        """Run the probe (min of 3 per part); returns the slowdown."""
        parts = (self._spin, self._small_loop, self._large_once)
        slowdown = statistics.fmean(
            min(part() for _ in range(3)) / ref
            for part, ref in zip(parts, PROBE_REF_S)
        )
        self.probe_times.append(time.perf_counter())
        self.slowdowns.append(slowdown)
        return slowdown

    def maybe_probe(self) -> None:
        """Keep the probe density at one per :data:`PROBE_EVERY_S` of
        work: nothing if the last probe is recent, up to three in a row
        after a long operation (they can only be taken at its ends)."""
        due = 1
        if self.probe_times:
            gap = time.perf_counter() - self.probe_times[-1]
            due = min(int(gap / PROBE_EVERY_S), 3)
        for _ in range(due):
            self.probe()

    def finish(self) -> None:
        """Closing probes: the density rule, and at least one."""
        taken = len(self.probe_times)
        self.maybe_probe()
        if len(self.probe_times) == taken:
            self.probe()

    # -- operations ----------------------------------------------------
    def record(self, side: str, start: float, end: float, weight: float = 1.0):
        """Record one timed operation; ``weight`` scales it (1/8 turns a
        panel-of-8 wall into seconds per RHS)."""
        self._ops.setdefault(side, []).append((start, end, weight))

    def last(self, side: str) -> float:
        """Raw seconds of the most recent operation of ``side``."""
        start, end, weight = self._ops[side][-1]
        return (end - start) * weight

    def slowdown_over(self, start: float, end: float) -> float:
        """Median of the probes from :data:`POOL_S` before ``start`` to
        :data:`POOL_S` after ``end`` — always at least the last probe
        before the interval and the first one after it.

        One probe is a 50 ms sample of a host whose speed also jitters
        within a second; pooling the neighbours keeps that jitter out
        of the operation's normalised time.
        """
        times, slow = self.probe_times, self.slowdowns
        before = max(bisect.bisect_right(times, start) - 1, 0)
        after = min(bisect.bisect_left(times, end), len(times) - 1)
        lo = min(bisect.bisect_left(times, start - POOL_S), before)
        hi = max(bisect.bisect_right(times, end + POOL_S) - 1, after)
        return statistics.median(slow[lo : hi + 1])

    def samples(self, side: str) -> tuple[list[float], list[float]]:
        """``(normalised, raw)`` seconds of every operation of ``side``.

        Call after a closing :meth:`probe`.
        """
        norm, raw = [], []
        for start, end, weight in self._ops.get(side, ()):
            t = (end - start) * weight
            raw.append(t)
            norm.append(t / self.slowdown_over(start, end))
        return norm, raw

    def trace(self) -> dict:
        """The calibration record written into the result JSON."""
        t0 = self.probe_times[0] if self.probe_times else 0.0
        return {
            "probe_ref_s": list(PROBE_REF_S),
            "probe_at_s": [round(t - t0, 3) for t in self.probe_times],
            "slowdown": [round(s, 4) for s in self.slowdowns],
        }

    def speed_min(self) -> float:
        """Slowest relative core speed seen (1.0 = reference state)."""
        return 1.0 / max(self.slowdowns)

    def slow_frac(self) -> float:
        """Share of probes taken in the slow state."""
        slow = sum(s > SLOW_STATE for s in self.slowdowns)
        return slow / len(self.slowdowns)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def tail(values) -> float:
    """The highest percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile above the median has
    ten samples beyond it; the upper quartile stands in — the slowest
    of a handful of samples would gate on one outlier.
    """
    ordered = sorted(values)
    if len(ordered) >= 20:
        return ordered[-11]
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=4, method="inclusive")[2]


def summary(norm, raw) -> dict:
    """Median of the normalised values with the raw record beside it."""
    q1, med, q3 = quartiles(norm)
    rq1, rmed, rq3 = quartiles(raw)
    return {
        "value": med,
        "q1": q1,
        "q3": q3,
        "n": len(norm),
        "raw_median": rmed,
        "raw_q1": rq1,
        "raw_q3": rq3,
    }

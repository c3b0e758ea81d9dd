"""Trace event records.

A :class:`TraceEvent` is one bar on a rocprof-style timeline: a named
span on a stream ("gpu", "halo", "copy") of one rank.  A
:class:`Timeline` is an ordered collection with aggregate queries used
by tests and the exporters.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One span on a rank's stream."""

    rank: int
    stream: str
    name: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"event {self.name!r} ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TraceEvent") -> bool:
        """True when the two spans intersect in time."""
        return self.start < other.end and other.start < self.end


@dataclass
class Timeline:
    """A collection of trace events."""

    events: list[TraceEvent] = field(default_factory=list)

    def add(self, event: TraceEvent) -> None:
        self.events.append(event)

    def extend(self, events: list[TraceEvent]) -> None:
        self.events.extend(events)

    @property
    def makespan(self) -> float:
        if not self.events:
            return 0.0
        return max(e.end for e in self.events) - min(e.start for e in self.events)

    def streams(self) -> list[str]:
        """Stream names in first-appearance order."""
        seen: dict[str, None] = {}
        for e in self.events:
            seen.setdefault(e.stream, None)
        return list(seen)

    def by_stream(self, stream: str) -> list[TraceEvent]:
        return sorted(
            (e for e in self.events if e.stream == stream), key=lambda e: e.start
        )

    def busy_time(self, stream: str) -> float:
        """Union duration of a stream's spans (handles overlap)."""
        spans = sorted(
            ((e.start, e.end) for e in self.events if e.stream == stream)
        )
        total = 0.0
        cur_s = cur_e = None
        for s, e in spans:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        return total


def promotions_to_timeline(
    promotions, rank: int = 0, stream: str = "precision"
) -> Timeline:
    """Precision events as instant (zero-duration) timeline markers.

    ``promotions`` is any iterable of precision-event records exposing
    ``iteration``, ``reason``, ``from_low`` and ``to_low`` (what
    :class:`repro.solvers.gmres_ir.SolverStats` collects — duck-typed
    here so the trace layer keeps no solver import); each marker reads
    ``"promote[reason] fp32->fp64"``.  The time axis is the
    inner-iteration count, matching the convergence-history plots these
    markers annotate; the exporters render zero-width spans as instant
    events.
    """
    tl = Timeline()
    for p in promotions:
        t = float(p.iteration)
        tl.add(
            TraceEvent(
                rank=rank,
                stream=stream,
                name=(
                    f"promote[{p.reason}] "
                    f"{p.from_low.short_name}->{p.to_low.short_name}"
                ),
                start=t,
                end=t,
            )
        )
    return tl

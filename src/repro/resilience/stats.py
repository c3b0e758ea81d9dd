"""Resilience telemetry: one counter block, threaded everywhere.

A single :class:`ResilienceStats` instance travels with a solve (it
hangs off :class:`~repro.solvers.gmres_ir.SolverStats`) or a benchmark
phase; every layer that injects, detects, or recovers increments it.
The benchmark JSON embeds ``to_dict()`` and ``check_regression.py``
gates the deterministic invariants (detection rate 1.0 on ABFT-covered
sites, recovered solves converged).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ResilienceStats:
    """Counters for one solve (or one fault-injection campaign)."""

    #: Faults the injector actually fired, by site name.
    injected: dict = field(default_factory=dict)
    #: ABFT checksum mismatches caught.
    detected: int = 0
    #: Restart cycles discarded and replayed from the checkpoint.
    replays: int = 0
    #: Replays after which the solve went on to converge.
    recovered: int = 0
    #: Non-finite residual/Krylov guards that tripped.
    breakdowns: int = 0
    #: Service batches that needed their third and last attempt.
    degradations: int = 0
    #: Typed halo/message deadline misses observed.
    comm_timeouts: int = 0

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    def record_injection(self, site: str) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1

    def merge(self, other: "ResilienceStats") -> None:
        """Fold another block into this one (campaign aggregation)."""
        for site, n in other.injected.items():
            self.injected[site] = self.injected.get(site, 0) + n
        self.detected += other.detected
        self.replays += other.replays
        self.recovered += other.recovered
        self.breakdowns += other.breakdowns
        self.degradations += other.degradations
        self.comm_timeouts += other.comm_timeouts

    def to_dict(self) -> dict:
        return {
            "injected": dict(sorted(self.injected.items())),
            "injected_total": self.injected_total,
            "detected": self.detected,
            "replays": self.replays,
            "recovered": self.recovered,
            "breakdowns": self.breakdowns,
            "degradations": self.degradations,
            "comm_timeouts": self.comm_timeouts,
        }

"""Dispatch plans: the autotuner's output, the solver's format choice.

A :class:`DispatchPlan` records, per ``(op, rung)``, the storage
format — CSR or ELL — that ran the matrix motif fastest on a
representative slice of the *actual* operator under the active
backend, together with the probe evidence (each format's timing and
whether its output was bitwise-equal to the baseline format's).

The central invariant: **a plan never changes numerics**.  Only
formats whose probe output was bitwise-identical to the baseline's are
selectable (``parity=True``), the baseline itself is always in the
candidate set, and :meth:`DispatchPlan.assert_parity` re-checks the
invariant for every entry before a solver adopts a plan.  Because the
baseline always competes, the chosen time is never slower than the
baseline time measured in the same probe session, so
:meth:`DispatchPlan.speedup` is ``>= 1.0`` by construction — and it is
reported unclamped, so a plan that violates the selection invariant
shows up below 1.0 instead of being masked.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

#: Plan-dict schema version (bump on incompatible layout changes and
#: whenever a probed op or format is retired; the cache treats other
#: versions as misses).  Version 1 plans may name ``spmv_dot*`` /
#: ``symgs_sweep``; version 2 plans carry backend / fusion / format
#: parameters per entry and may choose the retired sliced-ELL format.
PLAN_VERSION = 3


class PlanParityError(AssertionError):
    """A plan entry selects a format that failed bitwise parity."""


@dataclass(frozen=True)
class ProbeRecord:
    """One measured format: the evidence behind a plan entry."""

    op: str
    rung: str  # precision short name ("fp64", ...)
    fmt: str
    seconds: float
    parity: bool  # bitwise-equal to the baseline format's output
    selected: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProbeRecord":
        return cls(
            op=d["op"],
            rung=d["rung"],
            fmt=d["fmt"],
            seconds=float(d["seconds"]),
            parity=bool(d["parity"]),
            selected=bool(d.get("selected", False)),
        )


@dataclass(frozen=True)
class PlanChoice:
    """The winning format for one ``(op, rung)``."""

    fmt: str
    seconds: float
    baseline_seconds: float
    parity: bool = True

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.seconds if self.seconds > 0 else 1.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PlanChoice":
        return cls(
            fmt=d["fmt"],
            seconds=float(d["seconds"]),
            baseline_seconds=float(d["baseline_seconds"]),
            parity=bool(d.get("parity", True)),
        )


@dataclass(frozen=True)
class DispatchPlan:
    """Per-(op, rung) tuned format choices for one operator on one
    machine, probed under one backend."""

    operator_fingerprint: str
    machine_fingerprint: str
    baseline_format: str
    baseline_backend: str
    entries: dict = field(default_factory=dict)  # (op, rung) -> PlanChoice
    probes: tuple = ()  # ProbeRecord evidence (report / debugging)
    machine: dict = field(default_factory=dict)  # probe_machine().to_dict()

    def solver_format(self) -> str:
        """The storage format the solver should build its operator in.

        The operator is one object shared by every matrix op, so a
        format switch must be unanimous: adopted only when every entry
        chose the same format, else the baseline wins.
        """
        fmts = {c.fmt for c in self.entries.values()}
        if len(fmts) == 1:
            return next(iter(fmts))
        return self.baseline_format

    def applies_to(self, fmt: str) -> bool:
        """Whether a solver configured with ``fmt`` may adopt this plan
        (it was tuned from that baseline, or already matches the tuned
        consensus)."""
        return fmt in (self.baseline_format, self.solver_format())

    # ------------------------------------------------------------------
    # Invariants / metrics
    # ------------------------------------------------------------------
    def assert_parity(self) -> None:
        """Re-assert the no-numerics-change invariant per op x rung."""
        for (op, rung), c in self.entries.items():
            if not c.parity:
                raise PlanParityError(
                    f"plan entry ({op}, {rung}) selects {c.fmt}, which "
                    f"failed bitwise parity against {self.baseline_format}"
                )

    def speedup(self) -> float:
        """Aggregate probe-time speedup of tuned vs baseline format.

        Ratio of summed baseline probe times to summed chosen probe
        times.  >= 1.0 for any honestly-constructed plan because the
        baseline competes in (and can win) every entry — but the ratio
        is returned *unclamped*, so a violated selection invariant (a
        chosen format slower than baseline, corrupted entries) surfaces
        as a value below 1.0 that the CI floor gate in
        ``check_regression.py`` can actually catch.
        """
        base = sum(c.baseline_seconds for c in self.entries.values())
        chosen = sum(c.seconds for c in self.entries.values())
        if chosen <= 0 or base <= 0:
            return 1.0
        return base / chosen

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self, *, probes: bool = True) -> dict:
        d = {
            "version": PLAN_VERSION,
            "operator_fingerprint": self.operator_fingerprint,
            "machine_fingerprint": self.machine_fingerprint,
            "baseline": {
                "format": self.baseline_format,
                "backend": self.baseline_backend,
            },
            "entries": {
                f"{op}@{rung}": c.to_dict()
                for (op, rung), c in sorted(self.entries.items())
            },
            "machine": dict(self.machine),
            "speedup": self.speedup(),
        }
        if probes:
            d["probes"] = [p.to_dict() for p in self.probes]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DispatchPlan":
        if d.get("version") != PLAN_VERSION:
            raise ValueError(
                f"unsupported plan version {d.get('version')!r}"
            )
        base = d["baseline"]
        entries = {}
        for key, cd in d.get("entries", {}).items():
            op, _, rung = key.rpartition("@")
            entries[(op, rung)] = PlanChoice.from_dict(cd)
        return cls(
            operator_fingerprint=d["operator_fingerprint"],
            machine_fingerprint=d["machine_fingerprint"],
            baseline_format=base["format"],
            baseline_backend=base["backend"],
            entries=entries,
            probes=tuple(
                ProbeRecord.from_dict(p) for p in d.get("probes", [])
            ),
            machine=dict(d.get("machine", {})),
        )

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def table(self) -> str:
        """Per-format probe timings as an aligned text table."""
        headers = ("op", "rung", "format", "seconds", "parity", "chosen")
        rows = [headers]
        for p in sorted(self.probes, key=lambda p: (p.op, p.rung, p.seconds)):
            rows.append(
                (
                    p.op,
                    p.rung,
                    p.fmt,
                    f"{p.seconds:.3e}",
                    "yes" if p.parity else "no",
                    "*" if p.selected else "",
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
        lines = []
        for i, row in enumerate(rows):
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            )
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

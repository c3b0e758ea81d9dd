"""Dispatch plans: the autotuner's output, the registry's input.

A :class:`DispatchPlan` records, per ``(op, rung)``, the winning
``(format, format-params, backend, fused)`` choice among the
registered kernel variants the prober measured on a representative
slice of the *actual* operator — together with the probe evidence
(every variant's timing and whether its output was bitwise-equal to
the untuned default).

The central invariant: **a plan never changes numerics**.  Only
variants whose probe output was bitwise-identical to the untuned
default are selectable (``parity=True``), the default itself is always
in the candidate set, and :meth:`DispatchPlan.assert_parity` re-checks
the invariant for every entry before a plan is installed.  Because the
default always competes, the chosen time is never slower than the
baseline time measured in the same probe session, so
:meth:`DispatchPlan.speedup` is ``>= 1.0`` by construction — and it
is reported unclamped, so a plan that violates the selection
invariant shows up below 1.0 instead of being masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fp.precision import Precision

#: Plan-dict schema version (bump on incompatible layout changes and
#: whenever a probed op is retired or changes meaning; the cache treats
#: other versions as misses).  Version 1 plans may name ``spmv_dot*`` /
#: ``symgs_sweep``, and their ``symgs_sweep_multi`` timed the index-set
#: kernel, not the block sweep.
PLAN_VERSION = 2


class PlanParityError(AssertionError):
    """A plan entry selects a variant that failed bitwise parity."""


@dataclass(frozen=True)
class ProbeRecord:
    """One measured variant: the evidence behind a plan entry."""

    op: str
    rung: str  # precision short name ("fp64", ...)
    fmt: str
    fmt_params: tuple  # sorted (key, value) pairs, e.g. (("chunk", 32),)
    backend: str
    fused: bool
    seconds: float
    parity: bool  # bitwise-equal to the untuned default's output
    selected: bool = False

    @property
    def variant(self) -> str:
        """Human-readable variant label for report tables."""
        params = ",".join(f"{k}={v}" for k, v in self.fmt_params)
        fmt = f"{self.fmt}[{params}]" if params else self.fmt
        fused = "fused" if self.fused else "unfused"
        return f"{fmt}/{self.backend}/{fused}"

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "rung": self.rung,
            "fmt": self.fmt,
            "fmt_params": [list(p) for p in self.fmt_params],
            "backend": self.backend,
            "fused": self.fused,
            "seconds": self.seconds,
            "parity": self.parity,
            "selected": self.selected,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProbeRecord":
        return cls(
            op=d["op"],
            rung=d["rung"],
            fmt=d["fmt"],
            fmt_params=tuple(
                (str(k), int(v)) for k, v in d.get("fmt_params", [])
            ),
            backend=d["backend"],
            fused=bool(d["fused"]),
            seconds=float(d["seconds"]),
            parity=bool(d["parity"]),
            selected=bool(d.get("selected", False)),
        )


@dataclass(frozen=True)
class PlanChoice:
    """The winning variant for one ``(op, rung)``."""

    fmt: str
    fmt_params: tuple
    backend: str
    fused: bool
    seconds: float
    baseline_seconds: float
    parity: bool = True

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.seconds if self.seconds > 0 else 1.0

    def to_dict(self) -> dict:
        return {
            "fmt": self.fmt,
            "fmt_params": [list(p) for p in self.fmt_params],
            "backend": self.backend,
            "fused": self.fused,
            "seconds": self.seconds,
            "baseline_seconds": self.baseline_seconds,
            "parity": self.parity,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlanChoice":
        return cls(
            fmt=d["fmt"],
            fmt_params=tuple(
                (str(k), int(v)) for k, v in d.get("fmt_params", [])
            ),
            backend=d["backend"],
            fused=bool(d["fused"]),
            seconds=float(d["seconds"]),
            baseline_seconds=float(d["baseline_seconds"]),
            parity=bool(d.get("parity", True)),
        )


#: Ops whose plan entries carry a fused/unfused axis (the solver's
#: fusion knob); format-only ops leave ``fused`` at the baseline value.
FUSED_OPS = frozenset({"waxpby_dot", "waxpby_dot_multi"})

#: Ops whose format choice follows the operator's storage format (the
#: solver-wide ``matrix_format`` consensus below).  The sweep's entry
#: votes on the format only: smoothers dispatch it on the
#: ``color_partitioned`` layout, which never matches a choice's block
#: format, so :meth:`DispatchPlan.backend_for` leaves it untuned (its
#: block products are steered through ``spmv_multi``).
MATRIX_OPS = frozenset({"spmv", "spmv_multi", "symgs_sweep_multi"})


@dataclass(frozen=True)
class DispatchPlan:
    """Per-(op, rung) tuned dispatch choices for one operator on one
    machine."""

    operator_fingerprint: str
    machine_fingerprint: str
    baseline_format: str
    baseline_params: tuple
    baseline_fusion: bool
    baseline_backend: str
    entries: dict = field(default_factory=dict)  # (op, rung) -> PlanChoice
    probes: tuple = ()  # ProbeRecord evidence (report / debugging)
    machine: dict = field(default_factory=dict)  # probe_machine().to_dict()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def choice(self, op: str, rung) -> "PlanChoice | None":
        """The tuned choice for ``(op, rung)``; None if not tuned."""
        if rung is None:
            return None
        short = rung.short_name if isinstance(rung, Precision) else str(rung)
        return self.entries.get((op, short))

    def backend_for(
        self,
        op: str,
        rung,
        fmt: str | None = None,
        fmt_params: tuple | None = None,
    ) -> str | None:
        """Backend preference the registry consults at dispatch time.

        Parity was probe-verified only for the chosen variant's own
        format context, so the preference applies only to lookups that
        match it: matrix ops must request the choice's format (and its
        SELL-C-σ parameters, when the choice has any), and ops probed
        format-agnostically must look up with ``fmt=None`` exactly as
        the probe did.  Any other combination — e.g. the
        level-scheduled smoother forcing ELL while the plan chose CSR —
        returns ``None`` so the registry falls back to the active
        backend, i.e. untuned dispatch, rather than routing a
        combination whose parity was never verified.
        """
        c = self.choice(op, rung)
        if c is None:
            return None
        if op in MATRIX_OPS:
            if fmt != c.fmt:
                return None
            if c.fmt_params and tuple(fmt_params or ()) != tuple(
                c.fmt_params
            ):
                return None
        elif fmt is not None:
            return None
        return c.backend

    def fused_for(self, op: str, rung, default: bool) -> bool:
        c = self.choice(op, rung)
        return c.fused if c is not None else default

    # ------------------------------------------------------------------
    # Solver-wide consensus
    # ------------------------------------------------------------------
    def solver_format(self) -> str:
        """The storage format the solver should build its operator in.

        The operator is one object shared by every matrix op, so a
        format switch must be unanimous: adopted only when every tuned
        matrix-op entry chose the same format, else the baseline wins.
        """
        fmts = {
            (c.fmt, c.fmt_params)
            for (op, _), c in self.entries.items()
            if op in MATRIX_OPS
        }
        if len(fmts) == 1:
            return next(iter(fmts))[0]
        return self.baseline_format

    def solver_format_params(self) -> tuple:
        fmts = {
            (c.fmt, c.fmt_params)
            for (op, _), c in self.entries.items()
            if op in MATRIX_OPS
        }
        if len(fmts) == 1:
            return next(iter(fmts))[1]
        return self.baseline_params

    def solver_fusion(self) -> bool:
        """Whether the solver should keep fused motifs enabled —
        unanimous across the fused-op entries, else the baseline.  The
        prober times the non-baseline setting only on a backend with a
        fused kernel of its own, so a NumPy-only plan never flips it."""
        fused = {
            c.fused for (op, _), c in self.entries.items() if op in FUSED_OPS
        }
        if len(fused) == 1:
            return next(iter(fused))
        return self.baseline_fusion

    def applies_to(self, fmt: str, fmt_params: tuple, fusion: bool) -> bool:
        """Whether a solver configured with ``(fmt, params, fusion)``
        may adopt this plan (it was tuned from that same baseline, or
        already matches the tuned consensus)."""
        requested = (fmt, tuple(fmt_params), bool(fusion))
        baseline = (
            self.baseline_format,
            tuple(self.baseline_params),
            bool(self.baseline_fusion),
        )
        tuned = (
            self.solver_format(),
            tuple(self.solver_format_params()),
            bool(self.solver_fusion()),
        )
        return requested in (baseline, tuned)

    # ------------------------------------------------------------------
    # Invariants / metrics
    # ------------------------------------------------------------------
    def assert_parity(self) -> None:
        """Re-assert the no-numerics-change invariant per op x rung."""
        for (op, rung), c in self.entries.items():
            if not c.parity:
                raise PlanParityError(
                    f"plan entry ({op}, {rung}) selects "
                    f"{c.fmt}/{c.backend} which failed bitwise parity "
                    f"against the untuned default"
                )

    def speedup(self) -> float:
        """Aggregate probe-time speedup of tuned vs untuned dispatch.

        Ratio of summed baseline probe times to summed chosen probe
        times.  >= 1.0 for any honestly-constructed plan because the
        untuned default competes in (and can win) every entry — but the
        ratio is returned *unclamped*, so a violated selection
        invariant (a chosen variant slower than baseline, corrupted
        entries) surfaces as a value below 1.0 that the CI floor gate
        in ``check_regression.py`` can actually catch.
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
                "params": [list(p) for p in self.baseline_params],
                "fusion": self.baseline_fusion,
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
            baseline_params=tuple(
                (str(k), int(v)) for k, v in base.get("params", [])
            ),
            baseline_fusion=bool(base["fusion"]),
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
        """Per-variant probe timings as an aligned text table."""
        headers = ("op", "rung", "variant", "seconds", "parity", "chosen")
        rows = [headers]
        for p in sorted(self.probes, key=lambda p: (p.op, p.rung, p.seconds)):
            rows.append(
                (
                    p.op,
                    p.rung,
                    p.variant,
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

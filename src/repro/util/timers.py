"""Per-motif wall-clock timers.

The paper's Figure 7 breaks benchmark time into the four dominant
motifs: multigrid smoother (GS), CGS2 orthogonalization (Ortho), SpMV,
and multigrid restriction (Restr).  Solvers and the preconditioner
accept a timers object and bracket each motif; the benchmark driver
aggregates the sections into the same breakdown for real runs.

``NullTimers`` is a zero-overhead stand-in used when timing is off.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

#: Canonical motif names (Figure 7's categories plus bookkeeping ones).
MOTIFS = (
    "gs",        # smoother sweeps, including their halo exchanges
    "ortho",     # CGS2 GEMV/GEMVT + norms + their all-reduces
    "spmv",      # Krylov-loop SpMV, including halo exchange
    "restrict",  # (fused) residual+restriction
    "prolong",   # prolongation + correction
    "waxpby",    # vector updates
    "dot",       # standalone dot products / norms
    "qr_host",   # host-side Givens / triangular solve
    "other",
)


class MotifTimers:
    """Accumulates wall-clock seconds and call counts per motif."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    @contextmanager
    def section(self, name: str):
        """Context manager accumulating into ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.seconds[name] += dt
            self.calls[name] += 1

    @property
    def total(self) -> float:
        """Total accounted seconds."""
        return sum(self.seconds.values())

    def breakdown(self) -> dict[str, float]:
        """Seconds per motif, canonical order, zero-filled."""
        return {m: self.seconds.get(m, 0.0) for m in MOTIFS}

    def fractions(self) -> dict[str, float]:
        """Fraction of accounted time per motif."""
        tot = self.total
        if tot <= 0:
            return {m: 0.0 for m in MOTIFS}
        return {m: self.seconds.get(m, 0.0) / tot for m in MOTIFS}

    def merge(self, other: "MotifTimers") -> None:
        """Accumulate another timer set into this one."""
        for k, v in other.seconds.items():
            self.seconds[k] += v
        for k, v in other.calls.items():
            self.calls[k] += v

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()


class _NullSection:
    """A context that does nothing, entered by every untimed section."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SECTION = _NullSection()


class NullTimers:
    """No-op timers with the same interface."""

    def section(self, name: str) -> _NullSection:  # noqa: ARG002
        """The one shared no-op context: no generator, no allocation."""
        return _NULL_SECTION

    @property
    def total(self) -> float:
        return 0.0

    def breakdown(self) -> dict[str, float]:
        return {m: 0.0 for m in MOTIFS}

    def fractions(self) -> dict[str, float]:
        return {m: 0.0 for m in MOTIFS}

    def merge(self, other) -> None:  # noqa: ARG002
        pass

    def reset(self) -> None:
        pass

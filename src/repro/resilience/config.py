"""Per-solver resilience configuration.

Passing a :class:`ResilienceConfig` to
:class:`~repro.solvers.gmres_ir.GMRESIRSolver` turns on detection
(ABFT checksum verification on the SpMV paths, finite guards on the
outer residual) and recovery (checkpoint the iterate at every restart
boundary; on a detected fault discard the cycle, replay from the
checkpoint, and promote the policy one rung through the solver's
escalator).  The default-constructed config enables everything;
``None`` (the solver default) costs nothing — no checkpoint copy, no
checksum, no extra branch on the hot path beyond one ``is None`` test
per restart.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResilienceConfig:
    """Detection/recovery knobs for one solver instance."""

    #: Verify the ABFT checksum after every covered SpMV.
    abft: bool = True
    #: Raise/replay on non-finite residual state at restart boundaries.
    finite_guards: bool = True
    #: Replay budget per solve; a fault detected after the budget is
    #: spent propagates as the typed error instead of replaying
    #: (persistent-fault escape hatch).
    max_replays: int = 8
    #: Override the ABFT relative tolerance (None: 128 x rung eps).
    abft_rel_tol: float | None = None

    def __post_init__(self) -> None:
        if self.max_replays < 0:
            raise ValueError("max_replays must be >= 0")
        if self.abft_rel_tol is not None and self.abft_rel_tol <= 0:
            raise ValueError("abft_rel_tol must be positive")

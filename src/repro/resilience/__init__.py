"""Resilience subsystem: fault injection, detection, recovery.

The paper's exascale runs operate at node counts where silent data
corruption, lost messages, and straggler ranks are routine.  This
package makes that failure surface testable offline:

- :mod:`repro.resilience.faults` — a deterministic, seeded fault
  injector with pluggable sites (kernel-output bit-flips/NaNs through
  the registry dispatch wrapper, halo-message faults through
  :class:`~repro.resilience.comm_faults.FaultyComm`, transient worker
  exceptions in the service), driven by a compact spec grammar.
- :mod:`repro.resilience.abft` — ABFT checksum verification for SpMV:
  the column-sum vector ``eᵀA`` is cached per operator in the
  :class:`~repro.solvers.setup_cache.SetupCache` and ``eᵀ(Ax)`` is
  compared against ``(eᵀA)·x`` at the active rung's tolerance.
- recovery lives where the state lives: GMRES-IR checkpoints the
  iterate at restart boundaries and replays a corrupted cycle
  (promoting the binding rung through the precision plane's breakdown
  path), the service retries a faulted batch up to twice before the
  error reaches its clients.

Everything is **off by default and zero-overhead when disabled**;
with resilience enabled but no faults injected, solves are bitwise
identical to a resilience-off run.
"""

from repro.parallel.comm import CommTimeoutError
from repro.resilience.abft import ABFTCheck, abft_checksums
from repro.resilience.comm_faults import FaultyComm
from repro.resilience.errors import (
    FaultDetectedError,
    NumericalBreakdownError,
    ResilienceError,
    TransientFaultError,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    abft_armed,
    abft_scope,
    maybe_raise_transient,
    parse_fault_spec,
)
from repro.resilience.stats import ResilienceStats
from repro.resilience.config import ResilienceConfig

__all__ = [
    "ABFTCheck",
    "CommTimeoutError",
    "FaultDetectedError",
    "FaultInjector",
    "FaultPlan",
    "FaultyComm",
    "NumericalBreakdownError",
    "ResilienceConfig",
    "ResilienceError",
    "ResilienceStats",
    "TransientFaultError",
    "abft_armed",
    "abft_checksums",
    "abft_scope",
    "maybe_raise_transient",
    "parse_fault_spec",
]

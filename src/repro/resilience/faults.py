"""Deterministic, seeded fault injection.

Spec grammar (the ``--fault-inject`` argument)::

    SPEC   := CLAUSE (';' CLAUSE)*
    CLAUSE := 'seed=' INT
            | SITE ':' MODE [':' COUNT]

    SITE = 'spmv'    MODE in {'bitflip', 'nan'}
         | 'halo'    MODE in {'drop', 'delay', 'corrupt', 'straggle'}
         | 'service' MODE in {'transient'}

``COUNT`` (default 1) is how many events fire; the injector hits the
*first* ``COUNT`` eligible events at its site, so a campaign's fault
schedule is a pure function of the spec — the seeded RNG only chooses
*what* to corrupt (which element, which bit), never *whether*.  Halo
faults fire on rank 0 only (every rank parses the same spec; a single
deterministic victim keeps multi-rank campaigns reproducible).

Fault models:

- ``bitflip`` sets the highest clear exponent bit of the
  largest-magnitude output element — the classic SDC model where an
  upset lands in the exponent field, inflating the value far beyond
  any roundoff tolerance (a mantissa-tail flip is below the ABFT
  noise floor by construction and is not a useful test signal).
- ``nan`` writes a quiet NaN (detected at every rung).
- ``drop`` suppresses one outgoing message; ``corrupt`` flips a bit in
  its payload; ``delay`` holds it briefly; ``straggle`` sleeps before
  a collective, emulating a slow rank.
- ``transient`` raises
  :class:`~repro.resilience.errors.TransientFaultError` in the service
  worker before the solve starts.

Everything is **off by default**: with no injector installed there is
no wrapper on the kernel registry, no decorator on the communicator,
and no branch on any hot path.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from repro.resilience.errors import TransientFaultError
from repro.resilience.stats import ResilienceStats

#: Registry ops the kernel fault site corrupts.  ``spmv`` is the
#: ABFT-covered SpMV output: a verified matvec runs column by column
#: through it, so the corruption always survives to the checksum
#: verification.  ``spmv_multi`` is the panel product an unverified
#: operator application dispatches: a backend may serve it in one
#: matrix pass without ever calling the single-vector kernel (NumPy's
#: ELL kernel does), so the panel op is a site of its own — uncovered
#: campaigns only, since verified applications run column by column
#: through ``spmv``.
KERNEL_FAULT_OPS = ("spmv", "spmv_multi")

_SITES = {
    "spmv": ("bitflip", "nan"),
    "halo": ("drop", "delay", "corrupt", "straggle"),
    "service": ("transient",),
}

#: Seconds a ``delay``/``straggle`` fault holds its victim.
FAULT_DELAY_SECONDS = 0.05

# Thread-local marker set while an ABFT-verified dispatch is running.
# The same matrix object is dispatched from both verified call sites
# (the operator's matvec, whose output a checksum watches) and
# unverified ones (the multigrid hierarchy sharing the fine-level
# matrix), so covered-site scoping must key on the *call site*, not
# the matrix: :class:`~repro.solvers.operator.DistributedOperator`
# arms the flag around its verified SpMV dispatches.
_SCOPE = threading.local()


def abft_armed() -> bool:
    """True while the calling thread is inside a verified dispatch."""
    return getattr(_SCOPE, "depth", 0) > 0


@contextlib.contextmanager
def abft_scope():
    """Mark the enclosed kernel dispatch as checksum-verified."""
    _SCOPE.depth = getattr(_SCOPE, "depth", 0) + 1
    try:
        yield
    finally:
        _SCOPE.depth -= 1


@dataclass(frozen=True)
class FaultPlan:
    """Parsed spec: the deterministic fault schedule."""

    seed: int = 0
    #: ``(site, mode, count)`` triples in spec order.
    sites: tuple = ()

    @property
    def empty(self) -> bool:
        return not self.sites

    def injector(self, rank: int = 0) -> "FaultInjector":
        """A fresh injector for one rank (counters start full)."""
        return FaultInjector(self, rank=rank)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the ``--fault-inject`` grammar; raise ``ValueError`` on
    malformed input (the config layer fails fast)."""
    seed = 0
    sites: list[tuple[str, str, int]] = []
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise ValueError(
                    f"bad fault-inject seed in {clause!r}"
                ) from None
            continue
        parts = clause.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad fault-inject clause {clause!r} "
                "(expected site:mode[:count] or seed=N)"
            )
        site, mode = parts[0].strip(), parts[1].strip()
        if site not in _SITES:
            raise ValueError(
                f"unknown fault site {site!r} "
                f"(known: {sorted(_SITES)})"
            )
        if mode not in _SITES[site]:
            raise ValueError(
                f"unknown mode {mode!r} for site {site!r} "
                f"(known: {_SITES[site]})"
            )
        count = 1
        if len(parts) == 3:
            try:
                count = int(parts[2])
            except ValueError:
                raise ValueError(
                    f"bad fault count in {clause!r}"
                ) from None
            if count < 1:
                raise ValueError(f"fault count must be >= 1 in {clause!r}")
        sites.append((site, mode, count))
    return FaultPlan(seed=seed, sites=tuple(sites))


class FaultInjector:
    """Stateful executor of one rank's share of a :class:`FaultPlan`.

    Thread-safe (one lock around the schedule counters) because the
    service worker and rank threads may consult one injector
    concurrently in tests; the hot path cost is only paid when an
    injector is actually installed.
    """

    #: Rank whose communicator fires halo faults.
    HALO_VICTIM_RANK = 0

    def __init__(self, plan: FaultPlan, rank: int = 0) -> None:
        self.plan = plan
        self.rank = rank
        self.stats = ResilienceStats()
        self._lock = threading.Lock()
        # Remaining budget per clause, consumed in spec order.
        self._remaining = [count for (_, _, count) in plan.sites]
        self._rng = np.random.default_rng([plan.seed, rank])
        # When True, kernel faults fire only inside ABFT-verified
        # dispatches (see ``cover``).
        self._covered = False

    def cover(self) -> None:
        """Restrict kernel faults to ABFT-verified dispatches.

        The fault campaign's detection-rate gate wants every injected
        SpMV corruption to land where a checksum watches the output.
        Without this restriction a scheduled fault may fire inside the
        multigrid hierarchy — a legitimate SDC target, but one the
        per-operator ABFT check does not cover (it often shares the
        very same matrix object, so the scoping is per call site, via
        the :func:`abft_scope` marker the verified operators arm).
        """
        self._covered = True

    # ------------------------------------------------------------------
    def fire(self, site: str, modes: tuple | None = None) -> str | None:
        """Consume one fault at ``site``; the mode that fired, or None.

        ``modes`` restricts which clauses this event is eligible for
        (a barrier is a straggle site but never a drop site).  Halo
        faults only fire on the victim rank so multi-rank campaigns
        stay deterministic.
        """
        if site == "halo" and self.rank != self.HALO_VICTIM_RANK:
            return None
        with self._lock:
            for i, (s, mode, _count) in enumerate(self.plan.sites):
                if s != site or self._remaining[i] <= 0:
                    continue
                if modes is not None and mode not in modes:
                    continue
                self._remaining[i] -= 1
                self.stats.record_injection(f"{site}:{mode}")
                return mode
        return None

    @property
    def exhausted(self) -> bool:
        """True once every scheduled fault has fired."""
        with self._lock:
            return not any(self._remaining)

    def remaining(self, site: str | None = None) -> int:
        """Scheduled faults not yet fired (optionally at one site)."""
        with self._lock:
            return sum(
                r
                for (s, _, _), r in zip(self.plan.sites, self._remaining)
                if site is None or s == site
            )

    # ------------------------------------------------------------------
    # Kernel-output corruption (registry dispatch wrapper)
    # ------------------------------------------------------------------
    def kernel_wrapper(self):
        """The wrapper to install via ``registry.set_wrapper``.

        Wraps only :data:`KERNEL_FAULT_OPS`; every other op resolves to
        its original kernel unchanged.
        """

        def wrap(op, fn):
            if op not in KERNEL_FAULT_OPS:
                return fn

            def faulty(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self._covered and not abft_armed():
                    return out
                mode = self.fire("spmv")
                if mode is not None and isinstance(out, np.ndarray):
                    self.corrupt_value(out, mode)
                return out

            return faulty

        return wrap

    def corrupt_value(self, out: np.ndarray, mode: str) -> None:
        """Corrupt one element of ``out`` in place (a vector, or a
        panel in any memory layout: the element is addressed by index,
        never through a flattened view that might be a copy)."""
        if mode == "nan":
            pos = np.unravel_index(int(self._rng.integers(out.size)), out.shape)
            out[pos] = np.nan
            return
        # bitflip: hit the largest-magnitude element (an exponent-field
        # upset there can never hide under the checksum's roundoff
        # tolerance), setting its highest clear exponent bit.
        mags = np.abs(out)
        flat = int(np.nanargmax(mags)) if np.isfinite(mags).any() else 0
        pos = np.unravel_index(flat, out.shape)
        out[pos] = _set_high_exponent_bit(np.array([out[pos]]))[0]

    # ------------------------------------------------------------------
    # Message corruption (FaultyComm)
    # ------------------------------------------------------------------
    def corrupt_message(self, array: np.ndarray) -> np.ndarray:
        """A corrupted copy of an outgoing message payload."""
        bad = array.copy()
        self.corrupt_value(bad, "bitflip")
        return bad


def _set_high_exponent_bit(values: np.ndarray) -> np.ndarray:
    """Set the highest clear exponent bit of each float's bit pattern.

    Multiplies the magnitude by at least 2 (subnormals jump to ~2.0,
    typical values overflow toward inf), which is the property the
    detection guarantee rests on: the corruption always exceeds the
    rung-scaled checksum tolerance.  Values already saturated
    (inf/NaN: every exponent bit set) get their sign flipped instead.
    """
    finfo = np.finfo(values.dtype)
    bits = values.view(f"u{values.dtype.itemsize}").copy()
    uint = bits.dtype.type
    total = values.dtype.itemsize * 8
    mant = finfo.nmant
    nexp = total - 1 - mant
    out = bits.copy()
    for k, b in enumerate(bits):
        flipped = None
        for pos in range(mant + nexp - 1, mant - 1, -1):
            mask = uint(1) << uint(pos)
            if not (b & mask):
                flipped = b | mask
                break
        if flipped is None:  # inf/NaN already: flip the sign bit
            flipped = b ^ (uint(1) << uint(total - 1))
        out[k] = flipped
    return out.view(values.dtype)


def maybe_raise_transient(injector: "FaultInjector | None") -> None:
    """Service fault site: raise if a transient fault is scheduled."""
    if injector is not None and injector.fire("service") is not None:
        raise TransientFaultError()

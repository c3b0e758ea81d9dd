"""Kernel registry: dispatch on ``(op, format, precision, backend)``.

The paper's central architectural lesson (shared with HPL-MxP) is that
a benchmark survives hardware generations only if the hot operations —
SpMV, SymGS sweeps, CGS2's fused BLAS-2, WAXPBY, dots, grid transfers —
are *dispatched*, not hard-wired into container classes.  This registry
is that seam: every hot call in ``solvers/`` and ``mg/`` resolves a
kernel through it, so a new storage layout, a new precision, or
a new execution engine (SciPy's compiled row products; a GPU, MPI)
plugs in by registering functions, without touching any caller.

A backend whose arithmetic differs from the reference's — ``scipy``
sums a row sequentially, ``numpy`` pairwise — is its own *parity
class*: results agree across classes to the rung's tolerance, and
every bitwise contract is a statement about one class.  The fallback
below is what keeps a class closed: an ``(op, format, precision)`` the
active backend does not claim runs the NumPy kernel, in both classes
alike.

Resolution order for ``lookup(op, fmt, prec)``:

1. the requested (or active) backend, then the ``"numpy"`` reference
   backend as fallback;
2. within a backend, most-specific key first:
   ``(fmt, prec)`` → ``(fmt, None)`` → ``(None, prec)`` → ``(None, None)``
   (``None`` registrations are wildcards).

Lookups are cached; the cache is invalidated when registrations change,
the active backend is switched or a wrapper is installed, and each
invalidation bumps :attr:`KernelRegistry.generation`.  A caller that
keeps a resolved kernel past one call (the colour sweep binds each
block's product once) keeps the generation beside it and resolves again
when it moves.  The process-global state is two slots,
:meth:`KernelRegistry.set_backend` and :meth:`KernelRegistry.set_wrapper`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.fp.precision import Precision

#: The reference backend every installation has.
NUMPY_BACKEND = "numpy"


class KernelNotFoundError(LookupError):
    """No kernel registered for the requested key."""


@dataclass
class BackendInfo:
    """Metadata for one registered compute backend."""

    name: str
    priority: int = 0  # higher wins the auto-selection
    description: str = ""
    available: bool = True


@dataclass
class KernelRegistry:
    """The dispatch table; one process-wide instance lives in
    :data:`registry`."""

    _kernels: dict[tuple, Callable] = field(default_factory=dict)
    _backends: dict[str, BackendInfo] = field(default_factory=dict)
    _cache: dict[tuple, Callable] = field(default_factory=dict)
    _active: str = NUMPY_BACKEND
    _wrapper: Callable | None = None
    #: Bumped by every cache invalidation: a kernel resolved under an
    #: older generation may be stale.
    generation: int = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_backend(
        self,
        name: str,
        priority: int = 0,
        description: str = "",
    ) -> None:
        """Declare a backend (idempotent)."""
        self._backends[name] = BackendInfo(name, priority, description)
        self._invalidate()

    def register(
        self,
        op: str,
        fmt: str | None = None,
        precision: "Precision | str | None" = None,
        backend: str = NUMPY_BACKEND,
    ) -> Callable[[Callable], Callable]:
        """Decorator: register a kernel for ``(op, fmt, precision)``.

        ``fmt``/``precision`` of ``None`` are wildcards (the kernel
        serves every format / precision not claimed by a more specific
        registration).
        """
        if backend not in self._backends:
            self.register_backend(backend)
        prec = None if precision is None else Precision.from_any(precision)

        def deco(fn: Callable) -> Callable:
            self._kernels[(op, fmt, prec, backend)] = fn
            self._invalidate()
            return fn

        return deco

    # ------------------------------------------------------------------
    # Backend selection
    # ------------------------------------------------------------------
    @property
    def active_backend(self) -> str:
        return self._active

    def set_backend(self, name: str) -> None:
        """Select the backend future lookups prefer."""
        if name not in self._backends:
            raise KernelNotFoundError(
                f"unknown backend {name!r}; registered: {self.backends()}"
            )
        self._active = name
        self._invalidate()

    def backends(self) -> list[str]:
        """Registered backend names, highest priority first."""
        return sorted(
            self._backends, key=lambda n: -self._backends[n].priority
        )

    def autoselect_backend(self) -> str:
        """Pick the highest-priority backend, honoring ``REPRO_BACKEND``."""
        forced = os.environ.get("REPRO_BACKEND")
        if forced:
            self.set_backend(forced)
            return forced
        if self._backends:
            self._active = self.backends()[0]
            self._invalidate()
        return self._active

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def formats(self) -> list[str]:
        """Every concrete storage format any kernel is registered for."""
        return sorted(
            {k[1] for k in self._kernels if k[1] is not None}
        )

    def ops(self) -> list[str]:
        """Every registered operation name."""
        return sorted({k[0] for k in self._kernels})

    def available_variants(
        self, op: str
    ) -> list[tuple[str | None, str | None, str]]:
        """Every concrete ``(format, precision, backend)`` registration
        for ``op`` (``None`` entries are wildcards)."""
        out = []
        for key_op, fmt, prec, backend in self._kernels:
            if key_op == op:
                out.append(
                    (fmt, prec.short_name if prec else None, backend)
                )
        return sorted(out, key=lambda v: tuple(x or "" for x in v))

    # ------------------------------------------------------------------
    # Dispatch wrappers (repro.resilience)
    # ------------------------------------------------------------------
    @property
    def wrapper(self) -> Callable | None:
        """The installed dispatch wrapper, if any."""
        return self._wrapper

    def set_wrapper(self, wrapper: Callable | None) -> None:
        """Install (or clear, with ``None``) a dispatch wrapper.

        ``wrapper(op, fn) -> fn2`` sees every kernel as it resolves and
        may return a substitute (the fault injector corrupts selected
        outputs this way; returning ``fn`` unchanged opts an op out).
        Wrapped callables are cached like plain ones, and clearing the
        wrapper drops them — with no wrapper installed, lookup takes
        exactly the pre-existing path, so the disabled case costs
        nothing and dispatch stays bitwise identical.  Kernels bound
        before the call see the new wrapper too: the generation moves,
        and they resolve again.
        """
        self._wrapper = wrapper
        self._invalidate()

    def _invalidate(self) -> None:
        self._cache.clear()
        self.generation += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(
        self,
        op: str,
        fmt: str | None = None,
        precision: "Precision | str | None" = None,
        backend: str | None = None,
    ) -> Callable:
        """Resolve the kernel for an operation (cached).

        A hit is one dict probe on the arguments as passed; only a miss
        normalises them and walks the resolution order.
        """
        fn = self._cache.get((op, fmt, precision, backend))
        if fn is None:
            fn = self._resolve(op, fmt, precision, backend)
            self._cache[(op, fmt, precision, backend)] = fn
        return fn

    def _resolve(self, op, fmt, precision, backend) -> Callable:
        """``lookup``'s miss path: the normalised key, resolved (and
        wrapped) once however its precision and backend were spelled."""
        prec = None if precision is None else Precision.from_any(precision)
        want = backend or self._active
        cache_key = (op, fmt, prec, want)
        fn = self._cache.get(cache_key)
        if fn is not None:
            return fn

        chain = (want,) if want == NUMPY_BACKEND else (want, NUMPY_BACKEND)
        for b in chain:
            for f in (fmt, None):
                for p in (prec, None):
                    fn = self._kernels.get((op, f, p, b))
                    if fn is not None:
                        if self._wrapper is not None:
                            fn = self._wrapper(op, fn)
                        self._cache[cache_key] = fn
                        return fn
        raise KernelNotFoundError(
            f"no kernel for op={op!r} format={fmt!r} "
            f"precision={prec and prec.short_name!r} "
            f"backend={want!r}; registered ops: {self.ops()}, "
            f"formats: {self.formats()}, backends: {self.backends()}"
        )


#: The process-wide registry (populated by the backend modules at
#: package import).
registry = KernelRegistry()

register = registry.register
lookup = registry.lookup


def registered_formats() -> list[str]:
    """Storage formats with at least one registered kernel."""
    return registry.formats()


def available_backends() -> list[str]:
    """Backend names, highest priority first."""
    return registry.backends()


def set_backend(name: str) -> None:
    """Select the active compute backend."""
    registry.set_backend(name)


def active_backend() -> str:
    """The backend lookups currently prefer."""
    return registry.active_backend

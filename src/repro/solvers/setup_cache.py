"""Operator-keyed setup cache for repeated and batched solves.

Solver construction is the benchmark's setup phase: format conversion
(``to_format``), the low-precision matrix copy (``to_precision``),
the multigrid hierarchy (with its colorings and color-partitioned
smoother layouts), and the interior/boundary partition of the overlap
schedule.  A service that
keeps solving against the *same* operator — the batched/many-RHS
pipeline — pays all of that once per solver instance unless the
pieces are cached.

This module keys every derived setup product by a cheap **content
fingerprint** of the source operator plus the derivation parameters:

- fingerprint: blake2b over the matrix's content arrays
  (:func:`repro.sparse.formats.content_arrays`) and its dims/dtype —
  content-addressed, so mutating a matrix entry *invalidates* every
  product derived from it (a fresh fingerprint simply misses).
- products: whatever ``get_or_build`` is asked for — the solvers use
  it for the format-converted fp64 matrix, the low-precision copies,
  the MG hierarchy and the partitioned layouts.

The cache is per process (each SPMD rank holds its own, mirroring
per-rank device memory) and bounded: beyond ``max_entries`` the oldest
entry is evicted FIFO.  Hit/miss counters are exported into
:class:`~repro.solvers.gmres_ir.SolverStats` by the solvers.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable

from repro.sparse.formats import content_arrays


def operator_fingerprint(A) -> str:
    """Content hash of a local matrix (hex digest).

    blake2b over the matrix's ndarray attributes (values, column
    indices, row pointers, permutations) plus
    its type, dims and dtype.  Two matrices with identical content
    collide on purpose — that is what lets a rebuilt-but-equal
    operator reuse the cached hierarchy — while any in-place mutation
    of matrix entries changes the digest.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(type(A).__name__.encode())
    h.update(f"{getattr(A, 'nrows', 0)}x{getattr(A, 'ncols', 0)}".encode())
    h.update(str(getattr(A, "dtype", "")).encode())
    for name, arr in content_arrays(A):
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        c = arr if arr.flags["C_CONTIGUOUS"] else arr.copy()
        h.update(c)
    return h.hexdigest()


class SetupCache:
    """Bounded cache of setup products keyed by operator content.

    ``get_or_build(fingerprint, kind, params, builder)`` returns the
    cached product for ``(fingerprint, kind, params)`` or runs
    ``builder()`` and stores the result.  ``params`` must be hashable
    (tuples of primitives / frozen dataclasses).

    The cache is thread-safe: a service front end runs solves on
    worker threads, and two solvers constructed concurrently against
    the same operator must not both build (and race to store) the same
    product.  ``builder()`` runs *under* the cache lock — construction
    for one key serializes, which is exactly the single-build
    guarantee concurrent solver construction needs (setup products are
    shared, so a duplicate build is wasted work *and* a consistency
    hazard).  Builders must therefore not re-enter a different cache
    from another thread; solver builders are self-contained.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: dict[tuple, Any] = {}
        # RLock: a builder may consult the same cache for a nested
        # product (e.g. a hierarchy builder reusing a cached partition).
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get_or_build(
        self,
        fingerprint: str,
        kind: str,
        params: tuple,
        builder: Callable[[], Any],
    ) -> Any:
        key = (fingerprint, kind, params)
        with self._lock:
            if key in self._entries:
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            value = builder()
            while len(self._entries) >= self.max_entries:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = value
            return value

    def invalidate(self, fingerprint: str | None = None) -> int:
        """Drop entries for one fingerprint (or all); returns the count.

        Content addressing already handles *mutated* operators (their
        fingerprint changes); explicit invalidation frees the products
        of an operator known to be gone.
        """
        with self._lock:
            if fingerprint is None:
                n = len(self._entries)
                self._entries.clear()
                return n
            stale = [k for k in self._entries if k[0] == fingerprint]
            for k in stale:
                self._entries.pop(k)
            return len(stale)

    # ------------------------------------------------------------------
    @property
    def entries(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SetupCache: {self.entries}/{self.max_entries} entries, "
            f"{self.hits} hits / {self.misses} misses>"
        )


#: Process-wide default cache (one per SPMD rank): the benchmark's
#: repeated phase solves against the same operator share it.
_DEFAULT = SetupCache()


def default_setup_cache() -> SetupCache:
    """The shared per-process cache."""
    return _DEFAULT

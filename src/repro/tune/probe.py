"""Microbenchmark harness: measure kernel variants on the real operator.

The prober takes a **representative slice** of the actual operator (a
principal submatrix, so the nonzero structure and row widths are the
workload's own, not a synthetic stencil's), converts it into every
candidate storage format — including a SELL-C-σ (chunk, sigma)
parameter grid, the tuner's real search axis — and times every
registered kernel variant of each hot motif at each requested
precision rung.

Every candidate's output is compared **bitwise** against the untuned
default (the baseline format under the active backend with fusion on).
Variants that differ are still recorded (the report shows them with
``parity=no``) but are never selectable — a plan choice must not
change numerics.  The baseline variant always competes, so the
selected time is never worse than the baseline time.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.backends.registry import (
    NUMPY_BACKEND,
    KernelNotFoundError,
    registry,
)
from repro.backends.workspace import Workspace
from repro.fp.precision import Precision
from repro.sparse.coloring import color_sets, greedy_coloring
from repro.sparse.csr import CSRMatrix
from repro.sparse.formats import to_format
from repro.sparse.partitioned import partition_colors
from repro.sparse.scaled import to_precision
from repro.tune.plan import FUSED_OPS, PlanChoice, ProbeRecord

#: Default SELL-C-σ (chunk, sigma) search grid.
SELL_GRID: tuple[tuple[int, int], ...] = ((16, 64), (32, 128), (64, 256))

#: Panel width used for the ``_multi`` motif probes.
PROBE_PANEL = 4

#: Ops the tuner probes: hot motifs the engine dispatches, under the
#: names and on the layouts it dispatches them (``tests/test_op_census``
#: holds these tuples to that).  The sweep is ONE op at every width —
#: smoothers dispatch ``symgs_sweep_multi`` on their packed color blocks
#: for a solo solve's ``(n, 1)`` panel too — so its probe times the
#: block sweep at width 1 and at :data:`PROBE_PANEL`.
MATRIX_PROBE_OPS = ("spmv", "spmv_multi", "symgs_sweep_multi")
VECTOR_PROBE_OPS = ("waxpby_dot", "waxpby_dot_multi")


def representative_slice(A, max_rows: int = 4096) -> CSRMatrix:
    """A principal ``m x m`` CSR submatrix of the operator.

    Keeps the operator's own row-width distribution (what SELL-C-σ
    packing efficiency and CSR reduceat cost actually depend on);
    entries whose column falls outside the slice are dropped, which
    preserves symmetry of the kept block.
    """
    csr = to_format(A, "csr")
    m = min(csr.nrows, max_rows)
    keep_rows = np.arange(m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    cols, vals = [], []
    for i in keep_rows:
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        c = csr.indices[lo:hi]
        mask = c < m
        cols.append(c[mask])
        vals.append(csr.data[lo:hi][mask])
        indptr[i + 1] = indptr[i] + int(mask.sum())
    return CSRMatrix(
        indptr=indptr,
        indices=np.concatenate(cols) if cols else np.zeros(0, np.int32),
        data=np.concatenate(vals) if vals else np.zeros(0, csr.dtype),
        ncols=m,
    )


def _time(call: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def _bitwise_equal(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            return False
        return len(a) == len(b) and all(
            _bitwise_equal(x, y) for x, y in zip(a, b)
        )
    return np.array_equal(np.asarray(a), np.asarray(b))


def _params_tuple(fmt: str, params: dict | None) -> tuple:
    if fmt != "sellcs" or not params:
        return ()
    return tuple(sorted((str(k), int(v)) for k, v in params.items()))


class OperatorProber:
    """Probe every hot motif's kernel variants on one operator slice."""

    def __init__(
        self,
        A,
        *,
        baseline_format: str = "ell",
        baseline_params: dict | None = None,
        fusion: bool = True,
        rungs: tuple = ("fp64", "fp32"),
        formats: tuple = ("csr", "ell", "sellcs"),
        sell_grid: tuple = SELL_GRID,
        max_rows: int = 4096,
        panel: int = PROBE_PANEL,
        repeats: int = 3,
        seed: int = 0,
    ) -> None:
        self.slice = representative_slice(A, max_rows)
        self.baseline_format = baseline_format
        self.baseline_params = dict(baseline_params or {})
        self.fusion = bool(fusion)
        self.rungs = tuple(Precision.from_any(r) for r in rungs)
        self.panel = panel
        self.repeats = repeats
        self.rng = np.random.default_rng(seed)
        self.baseline_backend = registry.active_backend
        #: Arena every probed kernel runs in: solves always pass one,
        #: and the pooled and allocating branches of a kernel are
        #: different code — timing ``ws=None`` would time a path no
        #: solve takes.
        self.ws = Workspace("tune-probe")

        # Format variants: every plain format plus the SELL-C-σ grid
        # (the baseline's own parameters always included).
        variants: list[tuple[str, dict]] = []
        for fmt in formats:
            if fmt == "sellcs":
                grid = {tuple(p) for p in sell_grid}
                if baseline_format == "sellcs" and self.baseline_params:
                    grid.add(
                        (
                            int(self.baseline_params.get("chunk", 32)),
                            int(self.baseline_params.get("sigma", 128)),
                        )
                    )
                for chunk, sigma in sorted(grid):
                    variants.append((fmt, {"chunk": chunk, "sigma": sigma}))
            else:
                variants.append((fmt, {}))
        self.format_variants = variants

        self._vec_cache: dict[Precision, tuple] = {}

        # One coloring shared by every candidate: the color ordering
        # *is* part of the SymGS numerics, so it must not vary with the
        # storage format being probed.
        ell = to_format(self.slice, "ell")
        self.sets = color_sets(greedy_coloring(ell))

        # Materialize each (format, params, rung) matrix once, and
        # beside it the color-packed layout a smoother sweeps.
        self._mats: dict[tuple, object] = {}
        self._packed: dict[tuple, object] = {}
        for fmt, params in variants:
            base = to_format(self.slice, fmt, **params)
            for prec in self.rungs:
                key = (fmt, _params_tuple(fmt, params), prec)
                M = self._mats[key] = to_precision(base, prec)
                self._packed[key] = partition_colors(
                    M, None, self.sets, diag=M.diagonal()
                )

    # ------------------------------------------------------------------
    def _vectors(self, prec: Precision):
        """Probe inputs for one rung — memoized, because every variant
        of an (op, rung) must see the *same* inputs for the bitwise
        parity comparison to mean anything."""
        cached = self._vec_cache.get(prec)
        if cached is not None:
            return cached
        n = self.slice.nrows
        dtype = prec.dtype
        x = self.rng.standard_normal(n).astype(dtype)
        b = self.rng.standard_normal(n).astype(dtype)
        X = np.asfortranarray(
            self.rng.standard_normal((n, self.panel)).astype(dtype)
        )
        B = np.asfortranarray(
            self.rng.standard_normal((n, self.panel)).astype(dtype)
        )
        self._vec_cache[prec] = (x, b, X, B)
        return x, b, X, B

    def _runner(self, op: str, M, prec: Precision, fused: bool):
        """A zero-arg callable executing one probe iteration, returning
        the output to parity-check.  ``fused=False`` composes the
        motif from its unfused kernels exactly as the solver's
        ``fusion=False`` path does."""
        x, b, X, B = self._vectors(prec)
        fmt = M.format_name
        ws = self.ws

        def k(name):
            return registry.lookup(name, fmt, prec, backend=self._backend)

        if op == "spmv":
            fn = k("spmv")
            return lambda: fn(M, x, ws=ws)
        if op == "spmv_multi":
            fn = k("spmv_multi")
            return lambda: fn(M, X, ws=ws)
        if op == "symgs_sweep_multi":
            fn = k("symgs_sweep_multi")  # M is the color-packed layout

            def run_sweeps():
                xw = x.copy()
                Xw = X.copy(order="F")
                fn(M, b[:, None], xw[:, None], direction="forward", ws=ws)
                fn(M, B, Xw, direction="forward", ws=ws)
                return xw, Xw

            return run_sweeps
        if op == "waxpby_dot":
            if fused:
                fn = registry.lookup(
                    op, None, prec, backend=self._backend
                )
                return lambda: fn(1.0, x, -0.5, b, ws=ws)
            waxpby = registry.lookup(
                "waxpby", None, prec, backend=self._backend
            )
            dot = registry.lookup("dot", None, prec, backend=self._backend)

            def run_wd_unfused():
                w = waxpby(1.0, x, -0.5, b, ws=ws)
                return w, dot(w, w)

            return run_wd_unfused
        if op == "waxpby_dot_multi":
            if fused:
                fn = registry.lookup(
                    op, None, prec, backend=self._backend
                )
                return lambda: fn(1.0, X, -0.5, B, ws=ws)
            waxpby = registry.lookup(
                "waxpby", None, prec, backend=self._backend
            )
            dot_multi = registry.lookup(
                "dot_multi", None, prec, backend=self._backend
            )

            def run_wdm_unfused():
                W = np.empty_like(B)
                for j in range(B.shape[1]):
                    waxpby(1.0, X[:, j], -0.5, B[:, j], out=W[:, j], ws=ws)
                return W, dot_multi(W, W)

            return run_wdm_unfused
        raise ValueError(f"unknown probe op {op!r}")

    # ------------------------------------------------------------------
    def _fused_axis(self, op: str, prec: Precision, backend: str) -> tuple:
        """The fusion settings worth timing for ``backend``.  Both, only
        where it registers a fused kernel of its own for ``(op, prec)``:
        the NumPy registrations of the fused motifs compose the unfused
        kernels call for call, so a backend that falls back to them
        runs the same computation either way and timing both would let
        dispatch noise cast the solver-wide fusion vote."""
        own = backend != NUMPY_BACKEND and any(
            b == backend and p in (None, prec.short_name)
            for _, p, b in registry.available_variants(op)
        )
        return (True, False) if own else (self.fusion,)

    def _candidates(self, op: str, prec: Precision):
        """Yield ``(fmt, params_tuple, backend, fused)`` candidates."""
        backends = registry.backends()
        if op in MATRIX_PROBE_OPS:
            for fmt, params in self.format_variants:
                pt = _params_tuple(fmt, params)
                for backend in backends:
                    yield fmt, pt, backend, self.fusion
        else:
            for backend in backends:
                for fused in self._fused_axis(op, prec, backend):
                    yield self.baseline_format, _params_tuple(
                        self.baseline_format, self.baseline_params
                    ), backend, fused

    def _baseline_key(self, op: str):
        return (
            self.baseline_format,
            _params_tuple(self.baseline_format, self.baseline_params),
            self.baseline_backend,
            self.fusion,
        )

    def _primary_kernel(self, op: str, M, prec, fused: bool):
        """The registration a candidate's numerics hinge on — used to
        dedupe backends that merely fall back to the same kernel."""
        if op in FUSED_OPS and not fused:
            name = "waxpby"  # what both unfused vector motifs compose
        else:
            name = op
        fmt = M.format_name if op in MATRIX_PROBE_OPS else None
        return registry.lookup(name, fmt, prec, backend=self._backend)

    # ------------------------------------------------------------------
    def probe_op(self, op: str, prec: Precision):
        """Measure every variant of ``op`` at rung ``prec``.

        Returns ``(choice, records)`` — the parity-constrained winner
        and the full probe evidence — or ``(None, [])`` when the op has
        no resolvable kernels at this rung.
        """
        records: list[ProbeRecord] = []
        measured: dict[tuple, tuple[float, object]] = {}
        baseline_key = self._baseline_key(op)
        seen_fns: dict[tuple, tuple] = {}

        for fmt, pt, backend, fused in self._candidates(op, prec):
            key = (fmt, pt, backend, fused)
            M = self.slice
            if op in MATRIX_PROBE_OPS:
                # The layout the engine dispatches the op on.
                layouts = (
                    self._packed if op == "symgs_sweep_multi" else self._mats
                )
                M = layouts.get((fmt, pt, prec))
                if M is None:
                    continue
            self._backend = backend
            try:
                primary = self._primary_kernel(op, M, prec, fused)
                # Dedupe: a backend with no registration of its own
                # resolves to the same kernel as the fallback —
                # measuring it twice only adds noise (the baseline key
                # is never deduped away).
                fn_id = (fmt, pt, fused, id(primary))
                if key != baseline_key and fn_id in seen_fns:
                    continue
                seen_fns[fn_id] = key
                run = self._runner(op, M, prec, fused)
            except KernelNotFoundError:
                continue
            out = run()
            seconds = _time(run, self.repeats)
            measured[key] = (seconds, out)

        if baseline_key not in measured:
            return None, []

        base_seconds, base_out = measured[baseline_key]
        best_key, best_seconds = baseline_key, base_seconds
        for key, (seconds, out) in measured.items():
            parity = key == baseline_key or _bitwise_equal(out, base_out)
            records.append(
                ProbeRecord(
                    op=op,
                    rung=prec.short_name,
                    fmt=key[0],
                    fmt_params=key[1],
                    backend=key[2],
                    fused=key[3],
                    seconds=seconds,
                    parity=parity,
                )
            )
            if parity and seconds < best_seconds:
                best_key, best_seconds = key, seconds

        choice = PlanChoice(
            fmt=best_key[0],
            fmt_params=best_key[1],
            backend=best_key[2],
            fused=best_key[3],
            seconds=best_seconds,
            baseline_seconds=base_seconds,
            parity=True,
        )
        records = [
            replace(
                r,
                selected=(r.fmt, r.fmt_params, r.backend, r.fused)
                == best_key,
            )
            for r in records
        ]
        return choice, records

    def probe_all(self):
        """Probe every hot motif at every rung.

        Returns ``(entries, records)`` in :class:`DispatchPlan` shape.
        """
        entries: dict[tuple, PlanChoice] = {}
        records: list[ProbeRecord] = []
        for op in MATRIX_PROBE_OPS + VECTOR_PROBE_OPS:
            for prec in self.rungs:
                choice, recs = self.probe_op(op, prec)
                if choice is not None:
                    entries[(op, prec.short_name)] = choice
                    records.extend(recs)
        return entries, records

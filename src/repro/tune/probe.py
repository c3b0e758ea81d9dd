"""Microbenchmark harness: time CSR against ELL on the real operator.

The prober takes a **representative slice** of the actual operator (a
principal submatrix, so the nonzero structure and row widths are the
workload's own, not a synthetic stencil's), stores it in both formats
the paper compares — CSR (the reference HPG-MxP) and ELL (the optimized
one, §3.2.2) — and times the matrix motifs the engine dispatches at
each requested precision rung, under the active backend.

Every format's output is compared **bitwise** against the baseline
format's.  A format that differs is still recorded (the report shows
it with ``parity=no``) but is never selectable — a plan choice must not
change numerics.  The baseline always competes, so the selected time is
never worse than the baseline time.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.backends.registry import registry
from repro.backends.workspace import Workspace
from repro.fp.precision import Precision
from repro.sparse.coloring import color_sets, greedy_coloring
from repro.sparse.csr import CSRMatrix
from repro.sparse.formats import to_format
from repro.sparse.partitioned import partition_colors
from repro.sparse.scaled import to_precision
from repro.tune.plan import PlanChoice, ProbeRecord

#: The storage formats the tuner chooses between.
FORMATS = ("csr", "ell")

#: Panel width used for the ``_multi`` motif probes.
PROBE_PANEL = 4

#: Ops the tuner probes: hot motifs the engine dispatches, under the
#: names and on the layouts it dispatches them (``tests/test_op_census``
#: holds this tuple to that).  The sweep is ONE op at every width —
#: smoothers dispatch ``symgs_sweep_multi`` on their packed color blocks
#: for a solo solve's ``(n, 1)`` panel too — so its probe times the
#: block sweep at width 1 and at :data:`PROBE_PANEL`.
MATRIX_PROBE_OPS = ("spmv", "spmv_multi", "symgs_sweep_multi")


def representative_slice(A, max_rows: int = 4096) -> CSRMatrix:
    """A principal ``m x m`` CSR submatrix of the operator.

    Keeps the operator's own row-width distribution (what ELL padding
    and CSR row-pointer cost actually depend on); entries whose column
    falls outside the slice are dropped, which preserves symmetry of
    the kept block.
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


class OperatorProber:
    """Time every matrix motif in CSR and ELL on one operator slice."""

    def __init__(
        self,
        A,
        *,
        baseline_format: str = "ell",
        rungs: tuple = ("fp64", "fp32"),
        max_rows: int = 4096,
        panel: int = PROBE_PANEL,
        repeats: int = 3,
        seed: int = 0,
    ) -> None:
        if baseline_format not in FORMATS:
            raise ValueError(
                f"baseline format {baseline_format!r} is not one of {FORMATS}"
            )
        self.slice = representative_slice(A, max_rows)
        self.baseline_format = baseline_format
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
        self._vec_cache: dict[Precision, tuple] = {}

        # One coloring shared by both formats: the color ordering *is*
        # part of the SymGS numerics, so it must not vary with the
        # storage format being probed.
        self.sets = color_sets(greedy_coloring(to_format(self.slice, "ell")))

        # Materialize each (format, rung) matrix once, and beside it the
        # color-packed layout a smoother sweeps.
        self._mats: dict[tuple, object] = {}
        self._packed: dict[tuple, object] = {}
        for fmt in FORMATS:
            base = to_format(self.slice, fmt)
            for prec in self.rungs:
                M = self._mats[fmt, prec] = to_precision(base, prec)
                self._packed[fmt, prec] = partition_colors(
                    M, None, self.sets, diag=M.diagonal()
                )

    # ------------------------------------------------------------------
    def _vectors(self, prec: Precision):
        """Probe inputs for one rung — memoized, because both formats
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

    def _runner(self, op: str, M, prec: Precision):
        """A zero-arg callable executing one probe iteration of ``op``
        on ``M``, returning the output to parity-check."""
        x, b, X, B = self._vectors(prec)
        fn = registry.lookup(op, M.format_name, prec)
        ws = self.ws
        if op == "spmv":
            return lambda: fn(M, x, ws=ws)
        if op == "spmv_multi":
            return lambda: fn(M, X, ws=ws)
        if op == "symgs_sweep_multi":  # M is the color-packed layout

            def run_sweeps():
                xw = x.copy()
                Xw = X.copy(order="F")
                fn(M, b[:, None], xw[:, None], direction="forward", ws=ws)
                fn(M, B, Xw, direction="forward", ws=ws)
                return xw, Xw

            return run_sweeps
        raise ValueError(f"unknown probe op {op!r}")

    # ------------------------------------------------------------------
    def probe_op(self, op: str, prec: Precision):
        """Time ``op`` at rung ``prec`` in every format.

        Returns ``(choice, records)`` — the parity-constrained winner
        and the probe evidence, one record per format.
        """
        layouts = self._packed if op == "symgs_sweep_multi" else self._mats
        measured = {}
        for fmt in FORMATS:
            run = self._runner(op, layouts[fmt, prec], prec)
            out = run()
            measured[fmt] = (_time(run, self.repeats), out)

        base_seconds, base_out = measured[self.baseline_format]
        parity = {
            fmt: fmt == self.baseline_format or _bitwise_equal(out, base_out)
            for fmt, (_, out) in measured.items()
        }
        best = min(
            (fmt for fmt in FORMATS if parity[fmt]),
            key=lambda fmt: (measured[fmt][0], fmt != self.baseline_format),
        )
        records = [
            ProbeRecord(
                op=op,
                rung=prec.short_name,
                fmt=fmt,
                seconds=seconds,
                parity=parity[fmt],
                selected=fmt == best,
            )
            for fmt, (seconds, _) in measured.items()
        ]
        choice = PlanChoice(
            fmt=best,
            seconds=measured[best][0],
            baseline_seconds=base_seconds,
        )
        return choice, records

    def probe_all(self):
        """Probe every matrix motif at every rung.

        Returns ``(entries, records)`` in :class:`DispatchPlan` shape.
        """
        entries: dict[tuple, PlanChoice] = {}
        records: list[ProbeRecord] = []
        for op in MATRIX_PROBE_OPS:
            for prec in self.rungs:
                choice, recs = self.probe_op(op, prec)
                entries[(op, prec.short_name)] = choice
                records.extend(recs)
        return entries, records

"""Bound block products under every Gauss-Seidel sweep.

Each colour block's ``spmv_multi`` is resolved once — through the
registry and its wrapper — and cached on the layout with the registry
generation it was resolved under (``partitioned_ops._bound_passes``).
What that must not cost:

- a wrapper or backend installed after warm-up still governs every
  block product (the counting wrapper, the fault injector, a switch of
  parity class): the layout rebinds when the generation moves;
- a warmed sweep resolves nothing: zero ``registry.lookup`` calls, at
  every rank count the distributed legs run (``REPRO_RANKS``).

The SciPy class's guards on a bound product live with the other guards
in ``tests/test_scipy_backend.py``.
"""

import sys
import threading
from collections import Counter

import numpy as np
import pytest
from helpers_distributed import (
    BOTH_CLASSES,
    RANKS,
    SectionTimers,
    counted_dispatch,
    level_order,
    use_backend,
)

from repro.backends.registry import registry
from repro.backends.workspace import Workspace
from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg.smoothers import MulticolorGS, smooth_distributed_panel
from repro.parallel import HaloExchange, SerialComm, run_spmd
from repro.resilience.faults import parse_fault_spec
from repro.solvers import GMRESIRSolver
from repro.sparse import to_format, to_precision
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.stencil import generate_problem

POLICIES = {"double": DOUBLE_POLICY, "mixed": MIXED_DS_POLICY}


def smoother(sub, fmt="ell", prec="fp64", ws=None):
    """A colour-partitioned smoother of ``sub``'s local matrix and its
    problem."""
    prob = generate_problem(sub)
    A = to_precision(to_format(prob.A, fmt), prec)
    sets = color_sets(structured_coloring8(sub))
    return MulticolorGS(A, A.diagonal(), sets, ws=ws or Workspace()), prob


def panel(gs, prob, ncol=2, seed=3):
    """A level-order defect panel and a zero iterate with its ghost tail."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((prob.nlocal, ncol)).astype(gs.partition.dtype)
    R = level_order(gs.partition, np.asfortranarray(R))
    X = np.zeros((gs.partition.ncols, ncol), dtype=R.dtype, order="F")
    return R, X


def nonempty_blocks(P) -> int:
    return sum(blk.hi > blk.lo for blk in P.passes)


@pytest.fixture
def lookups(monkeypatch):
    """``(counts, armed)``: a ``Counter`` of ``registry.lookup`` calls by
    op, made while the calling thread has set ``armed.on`` (each rank
    thread arms itself once warm)."""
    counts, lock, armed = Counter(), threading.Lock(), threading.local()
    real = registry.lookup

    def counting(op, *args, **kwargs):
        if getattr(armed, "on", False):
            with lock:
                counts[op] += 1
        return real(op, *args, **kwargs)

    monkeypatch.setattr(registry, "lookup", counting)
    return counts, armed


# ----------------------------------------------------------------------
@BOTH_CLASSES
class TestNoLookup:
    """A warmed sweep resolves nothing (a per-call dispatch makes one
    lookup per block product)."""

    @pytest.mark.parametrize("prec", ["fp64", "fp32"])
    def test_warmed_16_cubed_sweep_makes_no_lookup(self, lookups, prec):
        counts, armed = lookups
        gs, prob = smoother(Subdomain.serial(16), prec=prec)
        R, X = panel(gs, prob)
        sweep = registry.lookup("symgs_sweep_multi", "color_partitioned", prec)
        sweep(gs.partition, R, X, ws=gs.ws)  # warm: binds every block
        armed.on = True
        for direction, zero_guess in (
            ("forward", True),
            ("forward", False),
            ("backward", False),
        ):
            sweep(gs.partition, R, X, direction, ws=gs.ws, zero_guess=zero_guess)
        armed.on = False
        assert not counts

    @pytest.mark.parametrize("nranks", RANKS)
    def test_warmed_rank_sweeps_make_no_product_lookup(self, lookups, nranks):
        """Every rank's smoothing pass, behind its blocking exchange,
        relaxes its blocks through the products bound on its first
        pass."""
        counts, armed = lookups

        def rank(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            gs, prob = smoother(sub)
            halo = HaloExchange(prob.halo, comm)
            halo.renumber(gs.partition.rank)
            R, X = panel(gs, prob, seed=comm.rank)
            for warm in (True, False):
                armed.on = not warm
                for direction in ("forward", "backward"):
                    smooth_distributed_panel(gs, halo, R, X, direction)
            armed.on = False
            return nonempty_blocks(gs.partition)

        blocks = [rank(SerialComm())] if nranks == 1 else run_spmd(nranks, rank)
        assert min(blocks) > 0
        assert counts["spmv_multi"] == 0


# ----------------------------------------------------------------------
@BOTH_CLASSES
class TestRebind:
    """A wrapper or backend installed after warm-up moves the registry
    generation, and the next sweep rebinds every block under it."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_wrapper_after_warmup_counts_like_one_built_under_it(
        self, problem16, policy
    ):
        def build(timers):
            solver = GMRESIRSolver(
                problem16, SerialComm(), policy=POLICIES[policy], timers=timers
            )
            solver.solve(problem16.b, tol=0.0, maxiter=3)
            return solver

        timers = SectionTimers()
        warmed = build(timers)  # no wrapper: every block bound bare
        with counted_dispatch(timers) as late:
            warmed.solve(problem16.b, tol=1e-9)
        with counted_dispatch(timers) as early:
            fresh = build(timers)  # built and warmed under the wrapper
            early.clear()
            fresh.solve(problem16.b, tol=1e-9)
        assert late == early
        assert late["gs", "spmv_multi"] > 0

    def test_backend_switch_after_warmup_solves_like_a_fresh_solver(
        self, problem16, parity_class
    ):
        other = "numpy" if parity_class != "numpy" else registry.backends()[0]
        warmed = GMRESIRSolver(problem16, SerialComm(), policy=MIXED_DS_POLICY)
        warmed.solve(problem16.b, tol=0.0, maxiter=3)
        with use_backend(other):
            x_late, st_late = warmed.solve(problem16.b, tol=1e-9)
            fresh = GMRESIRSolver(problem16, SerialComm(), policy=MIXED_DS_POLICY)
            x_fresh, st_fresh = fresh.solve(problem16.b, tol=1e-9)
        assert st_late.iterations == st_fresh.iterations
        assert np.array_equal(x_late, x_fresh)

    def test_uncovered_nan_corrupts_a_warmed_block_product(self):
        gs, prob = smoother(Subdomain.serial(8))
        R, X = panel(gs, prob)
        gs.sweep_panel(R, X, "forward")  # warm: every block bound bare
        assert np.isfinite(X).all()
        injector = parse_fault_spec("spmv:nan;seed=5").injector()  # uncovered
        X[:] = 0
        registry.set_wrapper(injector.kernel_wrapper())
        try:
            gs.sweep_panel(R, X, "forward")
        finally:
            registry.set_wrapper(None)
        assert injector.remaining("spmv") == 0
        assert np.isnan(X).any()
        X[:] = 0
        gs.sweep_panel(R, X, "forward")  # the wrapper is gone again
        assert np.isfinite(X).all()


@BOTH_CLASSES
def test_racing_first_sweeps_bind_equal_products():
    """Six threads (two cores) make the first sweeps of a fresh layout at
    once, each on its own iterate and arena, so each may bind and cache
    the products: every iterate is bitwise the lone sweep's, nothing
    escapes a thread, and the cached binding is the current
    generation's."""
    sub = Subdomain.serial(8)
    gs, prob = smoother(sub)
    R, X_ref = panel(gs, prob)
    gs.sweep_panel(R, X_ref, "forward")
    errors, results = [], []

    def first_sweep(P, X):
        try:
            sweep = registry.lookup("symgs_sweep_multi", "color_partitioned", "fp64")
            sweep(P, R, X, "forward", ws=Workspace())
            results.append(X)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            P = smoother(sub)[0].partition  # nothing bound on it
            threads = [
                threading.Thread(target=first_sweep, args=(P, np.zeros_like(X_ref)))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert P._bound[0] == registry.generation
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(results) == 18
    for X in results:
        assert np.array_equal(X, X_ref)

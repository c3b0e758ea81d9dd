"""The compiled coarse cycle: the V-cycle below the cut level as one
dense map (``MGLevel.coarse_map``), inside each kernel parity class.

From a zero guess the V-cycle below a level is linear, ``z = C r``.
Serially, :meth:`MultigridPreconditioner.build` forms ``C`` at the
finest level with at most ``COARSE_MAP_MAX`` unknowns by one panel
V-cycle over the identity, and a V-cycle applies it (one ``gemv`` per
column) in place of every level from there down.
"""

import contextlib

import numpy as np
import pytest
from helpers_distributed import (
    BOTH_CLASSES,
    RUNG_TOLS,
    STALL_ESCALATION,
    STALL_RESTART,
    use_backend,
)
from test_symgs_overlap import RANKS

import repro.mg.multigrid as multigrid
from repro.backends.registry import registry
from repro.fp import MIXED_DS_POLICY, Precision
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig, MultigridPreconditioner
from repro.parallel import SerialComm, run_spmd
from repro.solvers import GMRESIRSolver
from repro.solvers.setup_cache import SetupCache
from repro.stencil import generate_problem
from repro.util.timers import MotifTimers

pytestmark = BOTH_CLASSES

RUNGS = ("fp64", "fp32")


def serial_problem(nx: int):
    return generate_problem(Subdomain.serial(nx, nx, nx))


@contextlib.contextmanager
def map_set_aside(mg):
    """Inside the block, the cut level runs the recursion it replaces."""
    level = mg.levels[mg.coarse_level]
    C, level.coarse_map = level.coarse_map, None
    try:
        yield
    finally:
        level.coarse_map = C


def recursion(mg, lvl: int, R: np.ndarray) -> np.ndarray:
    """A copy of the V-cycle from ``lvl`` down, map set aside."""
    with map_set_aside(mg):
        return mg._vcycle_panel(lvl, R).copy()


def panel(rng, n: int, ncol: int, dtype) -> np.ndarray:
    return np.asfortranarray(rng.standard_normal((n, ncol)).astype(dtype))


# ----------------------------------------------------------------------
# Where the cut falls
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "nx, cut",
    [
        (16, 2),
        (24, 3),
        (32, 3),
        (48, 3 if multigrid.COARSE_MAP_MAX >= 216 else None),
    ],
)
def test_cut_level_per_box(nx, cut):
    mg = MultigridPreconditioner.build(serial_problem(nx), SerialComm())
    assert mg.coarse_level == cut
    # Every level stays built: the flop and byte models read all four.
    assert len(mg.level_dims()) == 4
    for i, lv in enumerate(mg.levels):
        assert (lv.coarse_map is not None) == (i == cut)
    if cut is not None:
        m = mg.levels[cut].nlocal
        C = mg.levels[cut].coarse_map
        assert m <= multigrid.COARSE_MAP_MAX
        assert mg.levels[cut - 1].nlocal > multigrid.COARSE_MAP_MAX
        assert C.shape == (m, m) and C.flags.f_contiguous


@pytest.mark.parametrize("nx, cut", [(16, None), (4, 0)])
def test_cut_with_one_level(nx, cut):
    """With ``nlevels=1`` the fine level is the only candidate: a 4^3
    box's whole preconditioner is the map, a 16^3 box has none."""
    mg = MultigridPreconditioner.build(
        serial_problem(nx), SerialComm(), MGConfig(nlevels=1)
    )
    assert mg.coarse_level == cut


@pytest.mark.parametrize("nranks", sorted({*RANKS, 2, 8}))
def test_no_cut_on_more_than_one_rank(nranks):
    """A level whose unknowns do not all live on this rank is never
    compiled: every rank's level 2 holds 64 unknowns of a 16^3 box, as
    serially, and only a one-rank run forms a map there."""

    def rank(comm):
        sub = Subdomain(
            BoxGrid(16, 16, 16), ProcessGrid.from_size(comm.size), comm.rank
        )
        mg = MultigridPreconditioner.build(generate_problem(sub), comm)
        return mg.coarse_level, mg.levels[2].nlocal

    for cut, level2 in run_spmd(nranks, rank):
        assert level2 == 64 <= multigrid.COARSE_MAP_MAX
        assert cut == (2 if nranks == 1 else None)


# ----------------------------------------------------------------------
# What the map is
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rung", RUNGS)
def test_columns_are_the_recursion_on_unit_vectors(problem16, rung):
    mg = MultigridPreconditioner.build(problem16, SerialComm(), precision=rung)
    cut = mg.coarse_level
    C = mg.levels[cut].coarse_map
    assert C.dtype == Precision.from_any(rung).dtype
    for j in range(C.shape[0]):
        e = np.zeros((C.shape[0], 1), dtype=C.dtype, order="F")
        e[j] = 1
        assert np.array_equal(recursion(mg, cut, e)[:, 0], C[:, j])


@pytest.mark.parametrize("rung", RUNGS)
def test_map_matches_the_recursion_within_rung_tolerance(problem16, rung):
    rtol, atol = RUNG_TOLS[rung]
    mg = MultigridPreconditioner.build(problem16, SerialComm(), precision=rung)
    cut = mg.coarse_level
    dtype = mg.levels[cut].coarse_map.dtype
    R = panel(np.random.default_rng(3), mg.levels[cut].nlocal, 3, dtype)
    expect = recursion(mg, cut, R)
    got = mg._vcycle_panel(cut, R)
    np.testing.assert_allclose(got, expect, rtol=rtol, atol=atol * abs(expect).max())
    # ... and so is the whole preconditioner.
    b = problem16.b
    z = mg.apply(b).copy()
    with map_set_aside(mg):
        z_rec = mg.apply(b)
    np.testing.assert_allclose(z, z_rec, rtol=rtol, atol=atol * abs(z_rec).max())


@pytest.mark.parametrize("nx, nlevels", [(16, 4), (4, 1)])
@pytest.mark.parametrize("rung", RUNGS)
@pytest.mark.parametrize("width", [1, 3, 8])
def test_panel_equals_solo_with_the_cut_live(nx, nlevels, rung, width):
    prob = serial_problem(nx)
    mg = MultigridPreconditioner.build(
        prob, SerialComm(), MGConfig(nlevels=nlevels), precision=rung
    )
    assert mg.coarse_level is not None
    R = panel(np.random.default_rng(width), prob.nlocal, width, np.float64)
    Z = mg.apply_panel(R).copy()
    for j in range(width):
        assert np.array_equal(mg.apply(R[:, j]), Z[:, j])


def test_levels_below_the_cut_never_run(problem16, monkeypatch):
    mg = MultigridPreconditioner.build(problem16, SerialComm())
    smoothed = []
    smooth = mg._smooth

    def recording(level, *args, **kwargs):
        smoothed.append(mg.levels.index(level))
        return smooth(level, *args, **kwargs)

    monkeypatch.setattr(mg, "_smooth", recording)
    mg.apply(problem16.b)
    assert smoothed and max(smoothed) < mg.coarse_level


def test_forming_is_set_up_not_motif_time(problem16):
    timers = MotifTimers()
    mg = MultigridPreconditioner.build(problem16, SerialComm(), timers=timers)
    assert mg.coarse_level is not None and mg.timers is timers
    assert not timers.calls
    mg.apply(problem16.b)
    assert timers.calls["gs"] == 2 * mg.coarse_level


@pytest.mark.parametrize("rung", RUNGS)
def test_warm_vcycle_allocates_nothing(problem16, rung):
    mg = MultigridPreconditioner.build(problem16, SerialComm(), precision=rung)
    r = problem16.b.astype(mg.precision.dtype)
    out = np.empty_like(r)
    mg.apply(r, out=out)  # warm-up
    misses = mg.ws.misses
    for _ in range(3):
        mg.apply(r, out=out)
    assert mg.ws.misses == misses


# ----------------------------------------------------------------------
# Rungs: transfers scheduled apart, promotion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rung, transfer", [("fp32", "fp64"), ("fp64", "fp32")])
def test_defect_at_another_transfer_rung_is_cast_once(problem16, rung, transfer):
    """The defect reaching the cut is stored at the transfer rung; the
    map casts it once into a pooled panel at its own rung and applies
    itself exactly as to a defect that arrived there."""
    mg = MultigridPreconditioner.build(
        problem16, SerialComm(), precision=rung, transfer_precision=transfer
    )
    cut = mg.coarse_level
    C = mg.levels[cut].coarse_map
    assert mg.levels[cut - 1].transfer_precision.dtype != C.dtype
    rng = np.random.default_rng(9)
    R = panel(rng, C.shape[0], 2, Precision.from_any(transfer).dtype)
    got = mg._vcycle_panel(cut, R).copy()
    assert got.dtype == C.dtype
    arrived_at_map_rung = np.asfortranarray(R.astype(C.dtype))
    assert np.array_equal(got, mg._vcycle_panel(cut, arrived_at_map_rung))
    rtol, atol = RUNG_TOLS["fp32"]
    expect = recursion(mg, cut, R)
    np.testing.assert_allclose(got, expect, rtol=rtol, atol=atol * abs(expect).max())
    # The cast panel is pooled: a warm V-cycle allocates nothing.
    r = problem16.b.astype(mg.precision.dtype)
    out = np.empty_like(r)
    mg.apply(r, out=out)
    misses = mg.ws.misses
    mg.apply(r, out=out)
    assert mg.ws.misses == misses


def test_promotion_reforms_the_map_at_fp64(problem16):
    """The measured stall (``STALL_*``) promotes an all-fp32 hierarchy
    once; the rebuilt hierarchy carries a map formed at fp64 — the one a
    fresh fp64 build forms, bit for bit."""
    b = np.random.default_rng(7).standard_normal(problem16.nlocal)
    solver = GMRESIRSolver(
        problem16,
        SerialComm(),
        policy=MIXED_DS_POLICY,
        restart=STALL_RESTART,
        escalation=STALL_ESCALATION,
    )
    cut = solver.M.coarse_level
    assert solver.M.levels[cut].coarse_map.dtype == np.float32
    _, st = solver.solve(b, tol=1e-11, maxiter=300)
    assert st.converged and len(st.promotions) == 1
    C = solver.M.levels[cut].coarse_map
    assert C.dtype == np.float64
    fresh = MultigridPreconditioner.build(problem16, SerialComm(), precision="fp64")
    assert np.array_equal(C, fresh.levels[cut].coarse_map)


def test_setup_cache_hit_reuses_the_map(problem16, monkeypatch):
    formed = []
    form = MultigridPreconditioner._form_coarse_map

    def counting(self):
        formed.append(self)
        return form(self)

    monkeypatch.setattr(MultigridPreconditioner, "_form_coarse_map", counting)
    cache = SetupCache()
    kw = dict(policy=MIXED_DS_POLICY, setup_cache=cache)
    s1 = GMRESIRSolver(problem16, SerialComm(), **kw)
    s2 = GMRESIRSolver(problem16, SerialComm(), **kw)
    assert len(formed) == 1
    assert s2.M is s1.M
    C = s1.M.levels[s1.M.coarse_level].coarse_map
    x1, _ = s1.solve(problem16.b, tol=0.0, maxiter=5)
    x2, _ = s2.solve(problem16.b, tol=0.0, maxiter=5)
    assert s2.M.levels[s2.M.coarse_level].coarse_map is C
    assert np.array_equal(x1, x2)


def test_backend_switch_reforms_the_map(problem16, parity_class):
    """The map's bits are its parity class's: the first V-cycle after
    the active backend changes forms it again, as a fresh build would."""
    other = "numpy" if parity_class != "numpy" else registry.backends()[0]
    mg = MultigridPreconditioner.build(problem16, SerialComm(), precision="fp32")
    mg.apply(problem16.b)
    with use_backend(other):
        z = mg.apply(problem16.b).copy()
        fresh = MultigridPreconditioner.build(problem16, SerialComm(), precision="fp32")
        assert np.array_equal(mg.levels[2].coarse_map, fresh.levels[2].coarse_map)
        assert np.array_equal(z, fresh.apply(problem16.b))

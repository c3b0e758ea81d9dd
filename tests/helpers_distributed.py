"""Shared helpers for the partitioned-format / distributed / multigrid test suites."""

import contextlib
import os
from collections import Counter

import numpy as np
import pytest

from repro.backends import scipy_backend
from repro.backends.registry import registry
from repro.fp import EscalationConfig
from repro.parallel import SerialComm, run_spmd

#: Marks over conftest's ``parity_class`` fixture: run a bitwise contract
#: inside every kernel parity class, or pin a comparison against recorded
#: NumPy bits to the reference class.
BOTH_CLASSES = pytest.mark.usefixtures("parity_class")
NUMPY_CLASS = pytest.mark.parametrize("parity_class", ["numpy"], indirect=True)


def spmd_rank_counts() -> list[int]:
    """Rank counts under test: ``REPRO_RANKS`` (one count or a list;
    the CI distributed legs set 1, 2 and 8), else ``1,2,4``."""
    env = os.environ.get("REPRO_RANKS", "").strip()
    if env:
        return [int(tok) for tok in env.replace(",", " ").split()]
    return [1, 2, 4]


RANKS = spmd_rank_counts()


def run_ranks(nranks: int, fn, *args) -> list:
    """``fn(comm, *args)`` on every rank (a serial comm at p=1)."""
    if nranks == 1:
        return [fn(SerialComm(), *args)]
    return run_spmd(nranks, fn, *args)


@contextlib.contextmanager
def use_backend(name: str):
    """Make ``name`` the active kernel backend, then restore."""
    previous = registry.active_backend
    registry.set_backend(name)
    try:
        yield name
    finally:
        registry.set_backend(previous)


def index_free_where(pred):
    """An autouse fixture that forces the SciPy class's diagonal plan on
    at every size (``DIA_MIN_ROWS = 0``: the shipped threshold keeps it
    off on every tier-1 operator) in the tests whose parameters satisfy
    ``pred``, so their bitwise contracts cover the index-free products.
    Bind it to a name in a test module or class to use it."""

    @pytest.fixture(autouse=True)
    def index_free(request, monkeypatch):
        spec = getattr(request.node, "callspec", None)
        if spec is not None and pred(spec.params):
            monkeypatch.setattr(scipy_backend, "DIA_MIN_ROWS", 0)

    return index_free


#: Rung-appropriate comparison tolerances (relative, absolute) for
#: checking low-precision distributed SpMV against the fp64 reference.
RUNG_TOLS = {
    "fp64": (1e-13, 1e-13),
    "fp32": (1e-5, 1e-5),
}

#: The measured fp32 stall.  On the 16^3 problem with the seed-7 normal
#: RHS, ``tol=1e-11`` and ``restart=STALL_RESTART``, an ``fp32:fp64``
#: ladder under this detector promotes once with ``control="policy"``
#: (a stall, fp32 -> fp64, at iteration 8 of 29) and three times with
#: ``control="per-ingredient"`` (ortho, smoother and spmv at L0).  At
#: the default ``stall_ratio=0.5``, or at 1e-3, nothing fires.
STALL_ESCALATION = EscalationConfig(stall_ratio=1e-4)
STALL_RESTART = 8


def smooth_vector(sub) -> np.ndarray:
    """A smooth test vector keyed to global coordinates."""
    gx, gy, gz = sub.global_coords()
    gg = sub.global_grid
    return 0.5 + (gx + 2.0 * gy + 3.0 * gz) / (gg.nx + 2 * gg.ny + 3 * gg.nz)


def level_order(P, X: np.ndarray) -> np.ndarray:
    """A natural-order vector or panel (owned rows, ghost tail or not)
    in the row order of the color partition ``P``: the owned rows move,
    a ghost tail stays where the halo plan put it."""
    out = X.copy(order="K")
    out[: P.nlocal] = X[: P.nlocal][P.order]
    return out


def natural_order(P, X: np.ndarray) -> np.ndarray:
    """Inverse of :func:`level_order`."""
    out = X.copy(order="K")
    out[: P.nlocal] = X[: P.nlocal][P.rank]
    return out


def scaled_rhs_panel(b: np.ndarray, ncol: int) -> np.ndarray:
    """Column-major panel of scaled copies of ``b`` (fp64-exact scales)."""
    B = np.empty((b.shape[0], ncol), order="F")
    for j in range(ncol):
        np.multiply(b, 1.0 + 0.5 * j, out=B[:, j])
    return B


def defect_panel_pooled(mg, lvl: int, dtype) -> bool:
    """Whether an already-applied V-cycle pooled level ``lvl``'s
    coarse-defect panel at ``dtype`` (the transfer rung's storage)."""
    misses = mg.ws.misses
    mg.ws.get_panel(("mg.panel.rc", lvl), len(mg.levels[lvl].f_c), 1, dtype)
    return mg.ws.misses == misses


class SectionTimers:
    """A ``timers`` stand-in that only remembers the open section."""

    current = None

    @contextlib.contextmanager
    def section(self, name):
        prev, self.current = self.current, name
        try:
            yield
        finally:
            self.current = prev


@contextlib.contextmanager
def counted_dispatch(sections=None):
    """``Counter`` of ``(open section, op)`` for every kernel dispatch
    inside the block (section ``None`` without ``sections``)."""
    counts = Counter()

    def wrap(op, fn):
        def counted(*args, **kwargs):
            counts[sections.current if sections else None, op] += 1
            return fn(*args, **kwargs)

        return counted

    registry.set_wrapper(wrap)
    try:
        yield counts
    finally:
        registry.set_wrapper(None)

"""Op census: the registry holds what the engine dispatches (ISSUE 17).

A counting ``registry.set_wrapper`` runs under a grid of solver
configurations — every precision policy, panel width, storage format,
smoother, orthogonalization, fusion / resilience setting, two SPMD
ranks and the PCG cross-benchmark — and the set of ops it sees must be exactly
``registry.ops()`` minus the short allow-list below.  A new op that no
path dispatches, or a hot path that stops dispatching a registered one,
fails here rather than surviving as dead weight.
"""

import numpy as np
import pytest
from helpers_distributed import SectionTimers, counted_dispatch

from repro.backends.registry import registry
from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY, EscalationConfig, PrecisionPolicy
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig, MultigridPreconditioner
from repro.parallel import SerialComm, run_spmd
from repro.resilience import ResilienceConfig
from repro.solvers import GMRESIRSolver
from repro.solvers.cg import pcg_solve
from repro.stencil import generate_problem

#: Registered ops no engine path dispatches under that name, and why
#: each is kept.
NOT_DISPATCHED = {
    # The index-set sweep on a plain matrix: the format-generic
    # reference TestOneSweepLayout pins the block sweep to.  (On the
    # color-packed layout the name is an alias of ``symgs_sweep_multi``,
    # which smoothers dispatch at every width.)
    "symgs_sweep",
    # The two halves of the paper's overlapped SpMV on the
    # interior/boundary layout: no solver path runs that schedule
    # (every SPMD exchange blocks), but ``benchmarks/suite`` times the
    # pair against the whole product (``backends.spmv_split_overhead``).
    "spmv_interior",
    "spmv_boundary",
}


def _solve(prob, comm, width=1, **kw):
    kw.setdefault("mg_config", MGConfig(nlevels=2))
    solver = GMRESIRSolver(prob, comm, restart=4, **kw)
    if width == 1:
        solver.solve(prob.b, tol=0.0, maxiter=6)
    else:
        B = np.asfortranarray(np.outer(prob.b, 1.0 + np.arange(width)))
        solver.solve_panel(B, tol=0.0, maxiter=6)


def _spmd2(**kw):
    def rank(comm):
        sub = Subdomain(BoxGrid(8, 8, 8), ProcessGrid(2, 1, 1), comm.rank)
        _solve(generate_problem(sub), comm, **kw)

    run_spmd(2, rank)


LADDER = PrecisionPolicy.from_ladder("fp32:fp64")

#: name -> run(problem16): the configuration grid of the census.
GRID = {
    **{
        f"{name}-w{width}": (
            lambda p, policy=policy, width=width: _solve(
                p, SerialComm(), width, policy=policy
            )
        )
        for name, policy in (
            ("double", DOUBLE_POLICY),
            ("mixed", MIXED_DS_POLICY),
            ("ladder", LADDER),
        )
        for width in (1, 4)
    },
    "csr": lambda p: _solve(
        p, SerialComm(), policy=MIXED_DS_POLICY, matrix_format="csr"
    ),
    "csr-w4": lambda p: _solve(p, SerialComm(), 4, matrix_format="csr"),
    "levelsched": lambda p: _solve(
        p, SerialComm(), mg_config=MGConfig(nlevels=2, smoother="levelsched")
    ),
    "symmetric-unfused-restrict": lambda p: _solve(
        p,
        SerialComm(),
        mg_config=MGConfig(nlevels=4, sweep="symmetric", fused_restrict=False),
    ),
    "budget": lambda p: _solve(
        p,
        SerialComm(),
        policy=LADDER,
        budget=1e-5,
        escalation=EscalationConfig(stall_ratio=1e-6),
    ),
    "mgs": lambda p: _solve(p, SerialComm(), ortho="mgs"),
    "cgs": lambda p: _solve(p, SerialComm(), 4, ortho="cgs"),
    "fusion-off": lambda p: _solve(p, SerialComm(), 4, fusion=False),
    "resilience": lambda p: _solve(p, SerialComm(), resilience=ResilienceConfig()),
    "spmd2": lambda p: _spmd2(policy=MIXED_DS_POLICY),
    "spmd2-abft-panel": lambda p: _spmd2(width=4, resilience=ResilienceConfig()),
    "pcg": lambda p: pcg_solve(p, SerialComm(), tol=0.0, maxiter=3),
}


_CENSUS: dict[str, dict[str, list[str]]] = {}


@pytest.fixture
def census(problem16, parity_class):
    """op -> the configurations that dispatched it, taken once inside
    each kernel parity class (same op names in both: a class changes
    which body a dispatch reaches, never which op is dispatched)."""
    if parity_class not in _CENSUS:
        seen = _CENSUS[parity_class] = {}
        for name, run in GRID.items():
            with counted_dispatch() as counts:
                run(problem16)
            for _, op in counts:
                seen.setdefault(op, []).append(name)
    return _CENSUS[parity_class]


def test_registered_ops_are_the_dispatched_ops(census):
    registered = set(registry.ops())
    assert len(registered) == 17
    assert NOT_DISPATCHED <= registered
    assert set(census) == registered - NOT_DISPATCHED, {
        "dispatched but unregistered?": set(census) - registered,
        "registered, never dispatched": registered - NOT_DISPATCHED - set(census),
        "allow-listed but dispatched": NOT_DISPATCHED & set(census),
    }


def test_single_vector_alias_is_its_multi_twin():
    for prec in ("fp64", "fp32"):
        assert registry.lookup(
            "symgs_sweep", "color_partitioned", prec, backend="numpy"
        ) is registry.lookup(
            "symgs_sweep_multi", "color_partitioned", prec, backend="numpy"
        )


@pytest.mark.parametrize("ncol", [1, 4])
def test_vcycle_dispatch_counts(problem16, ncol, parity_class):
    """Per V-cycle, at any panel width: levels 0-1 recurse and level 2
    (64 unknowns) is the dense coarse map.  The restriction is 2 ops on
    2 packed blocks, the prolongation 2 ops, the smoother 4 sweeps of
    one block product per color — less the first color of the two
    pre-smooths that start from the zero guess — the map one ``gemv``
    per column outside every motif section, and no row-copying kernel
    anywhere."""
    sections = SectionTimers()
    mg = MultigridPreconditioner.build(
        problem16, SerialComm(), MGConfig(), precision="fp32", timers=sections
    )
    assert mg.coarse_level == 2
    R = np.asfortranarray(
        np.repeat(problem16.b.astype(np.float32)[:, None], ncol, axis=1)
    )
    with counted_dispatch(sections) as counts:
        mg.apply_panel(R)
    by_section = {
        sec: {op: n for (s, op), n in counts.items() if s == sec}
        for sec in ("gs", "restrict", "prolong", None)
    }
    assert by_section["gs"] == {"symgs_sweep_multi": 4, "spmv_multi": 4 * 8 - 2}
    assert by_section["restrict"] == {"fused_restrict": 2, "spmv_multi": 2}
    assert by_section["prolong"] == {"prolong": 2}
    assert by_section[None] == {"gemv": ncol}
    assert not any(op == "spmv_rows" for _, op in counts)

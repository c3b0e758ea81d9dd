"""Engine golden: the one restart-cycle engine, pinned bitwise.

``tests/golden/gmres_ir_digests.json`` was first captured at commit
``9d6f01d`` — *before* ``solve`` and ``solve_panel`` were collapsed
into one engine — so the merged loop was proven bitwise-equal to the
old ``solve`` **and** the old ``solve_panel``, not merely to itself.
Both class files were re-captured at the commit after ``2ee331d``,
which leased the Krylov basis column-major: that moves BLAS's
reduction order inside CGS2 and the solution update, so iterates moved
while every double and mixed decision held.  The four ``ladder-*``
cases of both files were re-captured at the commit after ``8d163fa``,
which retired the fp16 rung: they now run
``PrecisionPolicy.from_ladder("fp32:fp64")`` with
``EscalationConfig(stall_ratio=1e-4)``, so ``solve`` still records a
rung change (one stall promotion fp32 -> fp64 under ``"policy"``,
three per-ingredient ones); every other record is byte-identical to
the file before it.  The two ``floor-*`` cases (restart 30, whose
first cycle ends at the fp32 cycle's attainable accuracy) were added
when that stop landed, with every earlier record left byte-identical.
Every serial case of both files was re-captured at the commit after
``c054b8e``, which compiled the V-cycle below 64 unknowns into one
dense map (``MGLevel.coarse_map``): its ``gemv`` rounds differently
from the recursion it replaces, so iterates moved, while every
iteration count, cycle length and event held except the SciPy file's
``floor-mixed`` panel column 3 (24 -> 23 iterations, cycles (14, 10) ->
(14, 9)).  The ``spmd2-*`` records (no map on more than one rank) and
``floor-ladder-policy`` (its fp64 coarse levels round into an fp32
fine level) are byte-identical.

Every case records, for ``solve`` and for a 4-column ``solve_panel``
(column 0 all-zero, column 2 converging a restart cycle early, so
deflation is pinned): a blake2b digest of the iterate, the iteration /
restart counts, the cycle lengths, a digest of the implicit-residual
history, the precision events and ``final_relres.hex()``.

The digests are a function of the floating-point environment, so the
file records a fingerprint (NumPy version, BLAS build, SIMD level,
kernel backend).  On a matching fingerprint records must be equal; on a
different NumPy/BLAS/SIMD the test compares decisions (iterations,
restarts, cycle lengths, events, exit flags) exactly and
``final_relres`` to 1e-12, and emits a warning naming the mismatch so a
CI/local divergence is visible rather than silent.

One digest file per kernel parity class, and every test here runs once
per class (conftest's ``parity_class``): ``gmres_ir_digests.json`` is
the NumPy class; ``gmres_ir_digests_scipy.json`` is the SciPy class
(compiled sequential row sums — different arithmetic, not a drifted
copy), first captured at the commit that introduced it, whose loop
the NumPy file had just pinned.

Regenerate the active class's file (only from a commit whose loops are
trusted; ``REPRO_BACKEND=numpy`` selects the reference class)::

    PYTHONPATH=src python tests/test_engine_golden.py
"""

import hashlib
import json
import math
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.backends import scipy_backend
from repro.backends.registry import registry
from repro.fp import (
    DOUBLE_POLICY,
    MIXED_DS_POLICY,
    EscalationConfig,
    PrecisionPolicy,
)
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.parallel import SerialComm, run_spmd
from repro.solvers import GMRESIRSolver
from repro.stencil import generate_problem

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_path(backend: str) -> Path:
    suffix = "" if backend == "numpy" else f"_{backend}"
    return GOLDEN_DIR / f"gmres_ir_digests{suffix}.json"


#: Short cycles: more restart boundaries per solve (where deflation,
#: the control plane, cancellation and the checkpoint live), and the
#: stencil column of the panel converges a whole cycle early.
RESTART = 8
TOL = 1e-11
MAXITER = 300

#: The ladder cases opt in to escalation with a stall threshold the
#: fp32 inner solve crosses on this problem, so they pin rung changes.
LADDER = PrecisionPolicy.from_ladder("fp32:fp64")
LADDER_ESCALATION = EscalationConfig(stall_ratio=1e-4)
POLICIES = {
    "double": (DOUBLE_POLICY, {}),
    "mixed": (MIXED_DS_POLICY, {}),
    "ladder-policy": (
        LADDER, {"control": "policy", "escalation": LADDER_ESCALATION}
    ),
    "ladder-per-ingredient": (
        LADDER, {"control": "per-ingredient", "escalation": LADDER_ESCALATION}
    ),
}
SERIAL_CASES = [
    f"{policy}-{fmt}-{fusion}"
    for policy in POLICIES
    for fmt in ("csr", "ell")
    for fusion in ("fused", "unfused")
]
SPMD_CASES = ["spmd2-overlap", "spmd2-sequential"]
#: Restart-30 records (ELL, fused) whose first cycle ends at the fp32
#: cycle's attainable accuracy (``gmres_ir.ATTAINABLE_FACTOR``); the
#: ``RESTART`` cycles above stop short of that floor every time.
FLOOR_RESTART = 30
FLOOR_CASES = ["floor-mixed", "floor-ladder-policy"]
EXIT_CASES = ["x0", "target-residual", "maxiter", "cancel"]


def fingerprint() -> dict:
    """What the recorded bits depend on besides the code under test."""
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "simd": sorted(cfg.get("SIMD Extensions", {}).get("found", [])),
        "machine": platform.machine(),
        "backend": registry.active_backend,
    }


def _digest(a: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(a).tobytes(), digest_size=16
    ).hexdigest()


def _record(x: np.ndarray, st) -> dict:
    return {
        "x": _digest(x),
        "iterations": st.iterations,
        "restarts": st.restarts,
        "cycle_lengths": list(st.cycle_lengths),
        "implicit_history": _digest(np.asarray(st.implicit_history, dtype=np.float64)),
        "events": [
            [
                e.iteration,
                e.restart,
                e.reason,
                e.from_low.short_name,
                e.to_low.short_name,
                e.ingredient,
                e.level,
                e.direction,
                float(e.relres).hex(),
            ]
            for e in st.promotions
        ],
        "final_relres": float(st.final_relres).hex(),
        "converged": bool(st.converged),
        "cancelled": bool(st.cancelled),
        "breakdown": bool(st.breakdown),
    }


def _rhs(prob, seed) -> tuple[np.ndarray, np.ndarray]:
    """One random RHS, and the deflating 4-column panel around it."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(prob.nlocal)
    B = np.zeros((prob.nlocal, 4), order="F")
    B[:, 1] = b
    B[:, 2] = prob.b  # smooth stencil RHS: converges a cycle early
    B[:, 3] = 0.5 * rng.standard_normal(prob.nlocal)
    return b, B


def _solve_and_panel(make_solver, b, B, solve_kw=None, panel_kw=None) -> dict:
    """Fresh solver per call: a promoted solver stays promoted."""
    x, st = make_solver().solve(b, **(solve_kw or {}))
    X, sts = make_solver().solve_panel(B, **(panel_kw or solve_kw or {}))
    return {
        "solve": _record(x, st),
        "panel": [_record(X[:, j], sts[j]) for j in range(B.shape[1])],
    }


def run_serial(case: str, prob) -> dict:
    policy_name, fmt, fusion = case.rsplit("-", 2)
    policy, kw = POLICIES[policy_name]
    b, B = _rhs(prob, 7)

    def make():
        return GMRESIRSolver(
            prob,
            SerialComm(),
            policy=policy,
            matrix_format=fmt,
            restart=RESTART,
            fusion=(fusion == "fused"),
            **kw,
        )

    return _solve_and_panel(make, b, B, dict(tol=TOL, maxiter=MAXITER))


def run_floor(case: str, prob) -> dict:
    policy, kw = POLICIES[case.removeprefix("floor-")]
    b, B = _rhs(prob, 7)

    def make():
        return GMRESIRSolver(
            prob, SerialComm(), policy=policy, restart=FLOOR_RESTART, **kw
        )

    return _solve_and_panel(make, b, B, dict(tol=TOL, maxiter=MAXITER))


def run_spmd2(case: str) -> list[dict]:
    """Two thread-ranks, 8^3 each, mixed ladder; one record per rank."""
    overlap = case.endswith("overlap")

    def fn(comm):
        sub = Subdomain(BoxGrid(8, 8, 8), ProcessGrid.from_size(comm.size), comm.rank)
        prob = generate_problem(sub)
        b, B = _rhs(prob, [7, comm.rank])

        def make():
            return GMRESIRSolver(
                prob,
                comm,
                policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2),
                restart=RESTART,
                overlap=overlap,
            )

        return _solve_and_panel(make, b, B, dict(tol=TOL, maxiter=MAXITER))

    return run_spmd(2, fn)


def _cancel_after(polls: int):
    """Zero-argument cancel that fires on its ``polls``-th poll."""
    seen = []

    def cancel():
        seen.append(1)
        return len(seen) >= polls

    return cancel


def _cancel_column(col: int, polls: int):
    """Per-column cancel: column ``col`` stops on its ``polls``-th poll."""
    seen = []

    def cancel(j):
        if j != col:
            return False
        seen.append(1)
        return len(seen) >= polls

    return cancel


def run_exit(case: str, prob) -> dict:
    """The other ways out of (and into) the loop: mixed policy, ELL."""
    b, B = _rhs(prob, 7)
    n = prob.nlocal

    def make():
        return GMRESIRSolver(
            prob, SerialComm(), policy=MIXED_DS_POLICY, restart=RESTART
        )

    if case == "x0":
        X0 = np.outer(np.linspace(0.0, 1.0, n), [0.0, 0.25, 0.5, 0.75])
        return _solve_and_panel(
            make,
            b,
            B,
            dict(x0=np.full(n, 0.5), tol=TOL, maxiter=MAXITER),
            dict(X0=X0, tol=TOL, maxiter=MAXITER),
        )
    if case == "target-residual":
        return _solve_and_panel(
            make, b, B, dict(target_residual=1e-6, maxiter=MAXITER)
        )
    if case == "maxiter":
        # 13 = one full cycle + a truncated one; tol=0 never converges.
        return _solve_and_panel(make, b, B, dict(tol=0.0, maxiter=13))
    if case == "cancel":
        return _solve_and_panel(
            make,
            b,
            B,
            dict(tol=TOL, maxiter=MAXITER, cancel=_cancel_after(3)),
            dict(tol=TOL, maxiter=MAXITER, cancel=_cancel_column(1, 2)),
        )
    raise ValueError(case)


def capture() -> dict:
    prob = generate_problem(Subdomain.serial(16, 16, 16))
    cases = {c: run_serial(c, prob) for c in SERIAL_CASES}
    cases.update({c: run_spmd2(c) for c in SPMD_CASES})
    cases.update({c: run_exit(c, prob) for c in EXIT_CASES})
    cases.update({c: run_floor(c, prob) for c in FLOOR_CASES})
    return {"fingerprint": fingerprint(), "cases": cases}


# ----------------------------------------------------------------------
@pytest.fixture
def golden(parity_class):
    data = json.loads(golden_path(parity_class).read_text())
    here = fingerprint()
    assert data["fingerprint"]["backend"] == here["backend"] == parity_class
    data["exact"] = data["fingerprint"] == here
    if not data["exact"]:
        warnings.warn(
            "engine golden fingerprint mismatch — recorded "
            f"{data['fingerprint']}, running {here}; comparing decisions "
            "exactly and final_relres to 1e-12 instead of bitwise",
            stacklevel=1,
        )
    return data


def _decisions(rec: dict) -> dict:
    out = {
        k: rec[k]
        for k in (
            "iterations",
            "restarts",
            "cycle_lengths",
            "converged",
            "cancelled",
            "breakdown",
        )
    }
    out["events"] = [e[:-1] for e in rec["events"]]
    return out


def _records(result):
    """The per-solve records of a case result (per rank on SPMD
    cases), each with a path for failure messages."""
    ranks = result if isinstance(result, list) else [result]
    for rank, res in enumerate(ranks):
        yield f"[rank {rank}].solve", res["solve"]
        for j, rec in enumerate(res["panel"]):
            yield f"[rank {rank}].panel[{j}]", rec


def _check(case: str, got, golden: dict) -> None:
    want = golden["cases"][case]
    if golden["exact"]:
        assert got == want, f"{case}: engine diverged bitwise from the parent"
        return
    note = f"{case} (fingerprint mismatch: recorded {golden['fingerprint']})"
    for (path, g), (_, w) in zip(_records(got), _records(want), strict=True):
        assert _decisions(g) == _decisions(w), f"{note}{path}"
        gr = float.fromhex(g["final_relres"])
        wr = float.fromhex(w["final_relres"])
        # relres is already relative to ||b||; a converged ~1e-11 value
        # carries amplified roundoff, hence the absolute floor.
        assert math.isclose(gr, wr, rel_tol=1e-12, abs_tol=1e-12), f"{note}{path}"


@pytest.mark.parametrize("case", SERIAL_CASES)
def test_serial_grid_matches_parent(case, problem16, golden):
    _check(case, run_serial(case, problem16), golden)


@pytest.mark.skipif(
    scipy_backend.dia_matvec is None, reason="this SciPy has no dia_matvec"
)
@pytest.mark.parametrize("parity_class", ["scipy"], indirect=True)
@pytest.mark.parametrize(
    "case", [c for c in SERIAL_CASES if "-ell-" in c and "double" not in c]
)
def test_index_free_products_match_parent(case, problem16, golden, monkeypatch):
    """The SciPy class's fp32 ELL products forced through the diagonal
    plan at 16^3 (the shipped ``DIA_MIN_ROWS`` keeps every matrix here
    on the row product): the operator and its colour blocks take it,
    and every recorded bit holds."""
    calls = []
    real = scipy_backend.dia_matvec

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(scipy_backend, "DIA_MIN_ROWS", 0)
    monkeypatch.setattr(scipy_backend, "dia_matvec", counting)
    _check(case, run_serial(case, problem16), golden)
    assert calls, "no product took the diagonal plan"


@pytest.mark.parametrize("case", SPMD_CASES)
def test_two_ranks_match_parent(case, golden):
    _check(case, run_spmd2(case), golden)


@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_paths_match_parent(case, problem16, golden):
    _check(case, run_exit(case, problem16), golden)


@pytest.mark.parametrize("case", FLOOR_CASES)
def test_floor_cycles_match_parent(case, problem16, golden):
    got = run_floor(case, problem16)
    # Cycle 1 ended before the restart length without converging.
    assert len(got["solve"]["cycle_lengths"]) > 1
    assert got["solve"]["cycle_lengths"][0] < FLOOR_RESTART
    _check(case, got, golden)


if __name__ == "__main__":
    path = golden_path(registry.active_backend)
    path.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {path}")

"""The Numba backend module, run interpreted (ISSUE 17 satellite).

``numba_backend.py`` uses only ``numba.njit(...)`` and ``numba.prange``,
so a stand-in module (``njit`` -> identity decorator, ``prange`` ->
``range``) lets its source execute as plain Python wherever numba is
not installed — which is every developer box and the default CI leg.
The module is exec'd against a *private* :class:`KernelRegistry`: the
process registry never sees a ``"numba"`` backend from here, so nothing
can win auto-selection by accident.

This is the local evidence that edits made blind to that file (it
cannot be compiled here) left it importable, registered only ops the
dispatch facade still serves, kept the private helpers it borrows from
``partitioned_ops``, and kept every remaining kernel in agreement with
the NumPy one.  Real-numba behaviour (typing, fp16 support, threading)
still belongs to CI's numba leg.
"""

import ast
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from helpers_distributed import RUNG_TOLS

import repro.backends.registry as registry_module
from repro.backends import dispatch, numba_backend, partitioned_ops
from repro.backends.registry import KernelRegistry, registry
from repro.fp.precision import Precision
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.sparse import partition_colors, partition_matrix, to_format, to_precision
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.stencil import generate_problem

SOURCE = Path(numba_backend.__file__).read_text(encoding="utf-8")
RUNGS = ("fp64", "fp32", "fp16")


@pytest.fixture(scope="module")
def jit():
    """A private registry holding the module's registrations."""
    private = KernelRegistry()
    stand_in = types.ModuleType("numba")
    stand_in.njit = lambda **kw: lambda fn: fn
    stand_in.prange = range
    fake_registry = types.ModuleType("repro.backends.registry")
    fake_registry.__dict__.update(registry_module.__dict__)
    fake_registry.registry = private
    fake_registry.register = private.register
    saved = {k: sys.modules.get(k) for k in ("numba", "repro.backends.registry")}
    sys.modules.update(
        {"numba": stand_in, "repro.backends.registry": fake_registry}
    )
    try:
        exec(compile(SOURCE, numba_backend.__file__, "exec"), {"__name__": "jit"})
    finally:
        for name, mod in saved.items():
            if mod is None:
                del sys.modules[name]
            else:
                sys.modules[name] = mod
    assert "numba" not in registry.backends() or numba_backend.HAVE_NUMBA
    return private


@pytest.fixture(scope="module")
def box():
    """Rank 0 of a 2x1x1 grid, 8^3 local (ghost columns, both regions)."""
    return generate_problem(Subdomain(BoxGrid(8, 8, 8), ProcessGrid(2, 1, 1), 0))


def operands(A, ncol=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (A.ncols,) if ncol is None else (A.ncols, ncol)
    x = np.asfortranarray(rng.uniform(-1, 1, shape).astype(A.dtype))
    return x, x[: A.nrows].copy(order="F")


def close(got, ref, rung):
    rtol, atol = RUNG_TOLS[rung]
    scale = max(1.0, float(np.abs(np.asarray(ref, dtype=np.float64)).max()))
    np.testing.assert_allclose(
        np.asarray(got, dtype=np.float64),
        np.asarray(ref, dtype=np.float64),
        rtol=rtol,
        atol=atol * scale,
    )


def jit_kernel(jit, op, fmt, rung):
    """The module's own registration for the exact key (it registers no
    wildcards).  Only an fp16 kernel may be missing: its compile-and-run
    probe is allowed to decline."""
    prec = Precision.from_any(rung)
    fn = jit._kernels.get((op, fmt, prec, "numba"))
    if fn is None:
        assert rung == "fp16", f"numba {op}/{fmt}/{rung} is gone"
        pytest.skip(f"the fp16 probe declined {op}/{fmt}")
    return fn


def test_module_imports_and_registers_only_served_ops(jit):
    ops = jit.ops()
    assert ops, "the stand-in import registered nothing"
    assert {k[3] for k in jit._kernels} == {"numba"}
    for op in ops:
        assert callable(getattr(dispatch, op, None)), op
        assert op in registry.ops(), op
    # Exactly the ops the agreement tests below run: a kernel added to
    # (or lost from) the module must show up here.
    assert set(ops) == {
        "spmv",
        "spmv_multi",
        "waxpby_dot",
        "spmv_interior_multi",
        "spmv_boundary_multi",
        "symgs_sweep",
        "symgs_interior",
        "symgs_boundary",
        "symgs_interior_multi",
        "symgs_boundary_multi",
    }
    # The index-set sweeps went with their NumPy dispatchers; the block
    # sweeps on the color-packed layout stay.
    assert {k[1] for k in jit._kernels if k[0].startswith("symgs_")} == {
        "color_partitioned"
    }


def test_borrowed_private_helpers_still_exist():
    """Every name the module imports from ``partitioned_ops`` (lazily,
    inside kernels — an import error would only surface under numba)."""
    borrowed = {
        alias.name
        for node in ast.walk(ast.parse(SOURCE))
        if isinstance(node, ast.ImportFrom)
        and node.module == "repro.backends.partitioned_ops"
        for alias in node.names
    }
    assert {"_sweep_region", "_symgs_sweep_cp", "_relax_block"} <= borrowed
    for name in borrowed:
        assert callable(getattr(partitioned_ops, name, None)), name


@pytest.mark.parametrize("rung", RUNGS)
@pytest.mark.parametrize("fmt", ["csr", "ell"])
def test_spmv_agrees(jit, box, fmt, rung):
    A = to_precision(to_format(box.A, fmt), rung)
    x, _ = operands(A)
    ref = registry.lookup("spmv", fmt, rung, backend="numpy")(A, x)
    fn = jit_kernel(jit, "spmv", fmt, rung)
    close(fn(A, x), ref, rung)
    out = np.empty(A.nrows, dtype=A.dtype)
    assert fn(A, x, out=out) is out
    close(out, ref, rung)


@pytest.mark.parametrize("rung", ["fp64", "fp32"])
@pytest.mark.parametrize("fmt", ["csr", "ell"])
def test_spmv_multi_agrees(jit, box, fmt, rung):
    A = to_precision(to_format(box.A, fmt), rung)
    X, _ = operands(A, 3)
    ref = registry.lookup("spmv_multi", fmt, rung, backend="numpy")(A, X)
    close(jit_kernel(jit, "spmv_multi", fmt, rung)(A, X), ref, rung)


def test_waxpby_dot_agrees(jit):
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(300), rng.standard_normal(300)
    w, local = jit_kernel(jit, "waxpby_dot", None, "fp64")(-0.5, x, 1.0, y)
    w_ref, local_ref = dispatch.waxpby_dot(-0.5, x, 1.0, y)
    close(w, w_ref, "fp64")
    assert local == pytest.approx(local_ref, rel=1e-13)


@pytest.mark.parametrize("rung", ["fp64", "fp32"])
@pytest.mark.parametrize("fmt", ["csr", "ell", "sellcs"])  # sellcs: the fallback
@pytest.mark.parametrize("region", ["interior", "boundary"])
def test_partitioned_panel_halves_agree(jit, box, region, fmt, rung):
    A = to_precision(to_format(box.A, fmt), rung)
    P = partition_matrix(A, box.halo)
    X, _ = operands(A, 3)
    op = f"spmv_{region}_multi"
    ref = np.zeros((A.nrows, 3), dtype=A.dtype, order="F")
    got = ref.copy(order="F")
    registry.lookup(op, "partitioned", rung, backend="numpy")(P, X, out=ref)
    jit_kernel(jit, op, "partitioned", rung)(P, X, out=got)
    assert np.abs(ref).max() > 0
    close(got, ref, rung)


@pytest.mark.parametrize("rung", ["fp64", "fp32"])
@pytest.mark.parametrize("fmt", ["ell", "csr"])  # csr: the _relax_block fallback
@pytest.mark.parametrize(
    "op",
    [
        "symgs_sweep",
        "symgs_interior",
        "symgs_boundary",
        "symgs_interior_multi",
        "symgs_boundary_multi",
    ],
)
def test_block_sweeps_agree(jit, box, op, fmt, rung):
    """The slice form: every block relaxes rows ``[lo, hi)`` of vectors
    stored in the partition's order (random operands are as good in
    that order as in any)."""
    A = to_precision(to_format(box.A, fmt), rung)
    sets = color_sets(structured_coloring8(box.sub))
    P = partition_colors(A, box.halo, sets, diag=A.diagonal())
    assert P.split and 0 < P.interior_fraction < 1  # both regions have blocks
    X, R = operands(A, 3 if op.endswith("_multi") else None, seed=2)
    # The halves are the forward sweep's; the whole-color sweep runs
    # both ways and from the zero guess.
    cases = [{}]
    if op == "symgs_sweep":
        cases = [
            {"direction": d, "zero_guess": z}
            for d in ("forward", "backward")
            for z in (False, True)
        ]
    for kwargs in cases:
        start = np.zeros_like(X) if kwargs.get("zero_guess") else X
        ref, got = start.copy(order="F"), start.copy(order="F")
        registry.lookup(op, "color_partitioned", rung, backend="numpy")(
            P, R, ref, **kwargs
        )
        jit_kernel(jit, op, "color_partitioned", rung)(P, R, got, **kwargs)
        assert not np.array_equal(ref, start)
        close(got, ref, rung)


def test_block_relaxation_takes_a_range(jit, box):
    """The jitted relaxation's own signature: ``[lo, hi)`` through
    ``lo`` and the block's row count, no row-index array."""
    A = to_format(box.A, "ell")
    sets = color_sets(structured_coloring8(box.sub))
    P = partition_colors(A, box.halo, sets, diag=A.diagonal())
    x, r = operands(A, seed=3)
    ref = x.copy()
    kernel = jit_kernel(jit, "symgs_interior", "color_partitioned", "fp64")
    kernel(P, r, x)
    for interior, _ in P.passes:
        lo, hi = interior.lo, interior.hi
        if lo == hi:
            continue
        ax = registry.lookup("spmv", "ell", "fp64", backend="numpy")(interior.A, ref)
        ref[lo:hi] += (r[lo:hi] - ax) / interior.diag
    close(x, ref, "fp64")
    boundary = np.concatenate([np.arange(b.lo, b.hi) for _, b in P.passes])
    assert np.array_equal(x[boundary], operands(A, seed=3)[0][boundary])

"""Chunk-size independence of the ELL kernels (PR 16 satellite).

The ELL ``spmv`` / ``spmv_rows`` / ``spmv_multi`` kernels, the
color-block sweep and the restriction block run gather -> multiply ->
row-reduce over fixed row chunks (``numpy_backend.CHUNK_ROWS``).  Tier-1
operators have at most 4096 rows, so at the shipped constant they never
leave one chunk (a restriction block first does at 48^3); here
the constant is patched to 97 rows (many chunks, a ragged tail) and to
10^9 (one chunk) and every result must be ``np.array_equal`` across the
two settings *and* to the allocating ``ws=None`` reference path — for
fp64 and fp32, with ``out=`` given and omitted, an empty row set, and a
rectangular rank-local matrix with ghost columns.  One engine-golden
case re-run under the 97-row chunk shows the solver's bits do not
depend on the constant either.

Everything here runs inside each kernel parity class: under ``scipy``
only ``spmv_rows`` chunks at all, and the compiled full, row-subset
and panel products must still be one sum, with and without ``ws`` /
``out``.
"""

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES, index_free_where
from test_engine_golden import _check, golden, run_serial  # noqa: F401

from repro.backends import Workspace, numpy_backend, spmv, spmv_multi, spmv_rows
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import coarse_to_fine_map, fused_residual_restrict
from repro.mg.smoothers import MulticolorGS
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.sparse.partitioned import extract_rows
from repro.stencil import generate_problem

pytestmark = BOTH_CLASSES

CHUNKS = (97, 10**9)
RUNGS = ("fp64", "fp32")

#: fp32 legs run the SciPy class's diagonal plan on every operator and
#: block it fits (the 8^3 and 16^3 operators and their colour blocks).
index_free = index_free_where(lambda params: params.get("rung") == "fp32")


@pytest.fixture(
    scope="module",
    params=[(8, 8, 8), (16, 16, 16), (7, 6, 5)],
    ids=["8^3", "16^3", "7x6x5"],
)
def box(request):
    """Serial boxes: 512 rows (five 97-row chunks and a 27-row tail),
    4096 rows, and an odd 7x6x5 box of 210 rows (two chunks and a
    16-row tail) whose color sets are of unequal length."""
    return generate_problem(Subdomain.serial(*request.param))


@pytest.fixture(scope="module")
def rank_box():
    """Rank 0 of a 2x1x1 grid: 512 rows, 512 + 64 columns."""
    sub = Subdomain(BoxGrid(8, 8, 8), ProcessGrid(2, 1, 1), 0)
    prob = generate_problem(sub)
    assert prob.A.ncols > prob.A.nrows
    return prob


@pytest.fixture(scope="module")
def rank_box16():
    """Rank 0 of a 2x1x1 grid, 16^3 local: its restriction block has
    512 rows (six 97-row chunks) and reads ghost columns."""
    return generate_problem(Subdomain(BoxGrid(16, 16, 16), ProcessGrid(2, 1, 1), 0))


def per_chunk(monkeypatch, call):
    """``call(ws)`` under each chunk setting (fresh arena each)."""
    results = []
    for chunk in CHUNKS:
        monkeypatch.setattr(numpy_backend, "CHUNK_ROWS", chunk)
        results.append(call(Workspace()))
    return results


def vectors(A, seed, ncol=None):
    rng = np.random.default_rng(seed)
    shape = A.ncols if ncol is None else (A.ncols, ncol)
    x = rng.standard_normal(shape).astype(A.dtype)
    return np.asfortranarray(x) if ncol else x


@pytest.mark.parametrize("rung", RUNGS)
@pytest.mark.parametrize("with_out", [True, False], ids=["out", "no-out"])
class TestChunkIndependence:
    def test_spmv(self, monkeypatch, box, rung, with_out):
        A = box.A.astype(rung)
        x = vectors(A, 1)

        def call(ws):
            out = np.empty(A.nrows, dtype=A.dtype) if with_out else None
            return spmv(A, x, out=out, ws=ws)

        many, one = per_chunk(monkeypatch, call)
        assert np.array_equal(many, one)
        assert np.array_equal(many, spmv(A, x))

    def test_spmv_rows(self, monkeypatch, box, rung, with_out):
        A = box.A.astype(rung)
        x = vectors(A, 2)
        rows = np.random.default_rng(3).permutation(A.nrows)[: A.nrows // 3]
        rows = np.sort(rows).astype(np.int64)

        def call(ws):
            out = np.empty(len(rows), dtype=A.dtype) if with_out else None
            return spmv_rows(A, rows, x, out=out, ws=ws)

        many, one = per_chunk(monkeypatch, call)
        assert np.array_equal(many, one)
        assert np.array_equal(many, spmv_rows(A, rows, x))
        assert np.array_equal(many, spmv(A, x)[rows])

    @pytest.mark.parametrize("ncol", [1, 4])
    def test_spmv_multi(self, monkeypatch, box, rung, with_out, ncol):
        A = box.A.astype(rung)
        X = vectors(A, 4, ncol)

        def call(ws):
            out = (
                np.empty((A.nrows, ncol), dtype=A.dtype, order="F")
                if with_out
                else None
            )
            return spmv_multi(A, X, out=out, ws=ws)

        many, one = per_chunk(monkeypatch, call)
        assert np.array_equal(many, one)
        assert np.array_equal(many, spmv_multi(A, X))
        for j in range(ncol):  # each column is its solo product
            assert np.array_equal(many[:, j], spmv(A, X[:, j]))


@pytest.mark.parametrize("rung", RUNGS)
class TestChunkEdges:
    def test_empty_row_set(self, monkeypatch, box, rung):
        A = box.A.astype(rung)
        x = vectors(A, 5)
        rows = np.zeros(0, dtype=np.int64)
        for y in per_chunk(monkeypatch, lambda ws: spmv_rows(A, rows, x, ws=ws)):
            assert y.shape == (0,) and y.dtype == A.dtype
        out = np.empty(0, dtype=A.dtype)
        assert spmv_rows(A, rows, x, out=out, ws=Workspace()) is out

    def test_rectangular_block_with_ghost_columns(self, monkeypatch, rank_box, rung):
        A = rank_box.A.astype(rung)
        x = vectors(A, 6)  # ghost tail populated
        rows = np.arange(0, A.nrows, 3, dtype=np.int64)

        def call(ws):
            return spmv(A, x, ws=ws), spmv_rows(A, rows, x, ws=ws)

        (y97, r97), (y1, r1) = per_chunk(monkeypatch, call)
        assert np.array_equal(y97, y1) and np.array_equal(r97, r1)
        assert np.array_equal(y97, spmv(A, x))
        assert np.array_equal(r97, y97[rows])

    @pytest.mark.parametrize("ncol", [1, 4])
    def test_block_sweep_forward_backward(self, monkeypatch, box, rung, ncol):
        A = box.A.astype(rung)
        sets = color_sets(structured_coloring8(box.sub))
        R = vectors(A, 7, ncol)[: A.nrows]
        X0 = vectors(A, 8, ncol)

        def sweep(ws):
            gs = MulticolorGS(A, A.diagonal(), sets, ws=ws)
            X = X0.copy(order="F")
            gs.forward_panel(R, X)
            gs.backward_panel(R, X)
            return X

        many, one = per_chunk(monkeypatch, sweep)
        assert np.array_equal(many, one)
        assert np.array_equal(many, sweep(None))


    @pytest.mark.parametrize("ncol", [1, 4])
    def test_restriction_block(self, monkeypatch, rank_box16, rung, ncol):
        """The packed coarse-row block leaves a single chunk (as it does
        at 48^3 with the shipped constant): same bits per chunking, as
        the allocating path, and as the full product's coarse rows."""
        prob = rank_box16
        A = prob.A.astype(rung)
        f_c = coarse_to_fine_map(prob.sub, prob.sub.coarsen())
        A_c = extract_rows(A, f_c)
        assert A_c.nrows == 512 > 97 and A_c.ncols == A.ncols > A.nrows
        X = vectors(A, 9, ncol)  # ghost tail populated
        R = vectors(A, 10, ncol)[: A.nrows]

        def restrict(ws):
            return fused_residual_restrict(A_c, R, X, f_c, ws=ws)

        many, one = per_chunk(monkeypatch, restrict)
        assert many.shape == (512, ncol) and many.dtype == A.dtype
        assert np.array_equal(many, one)
        assert np.array_equal(many, restrict(None))
        for j in range(ncol):
            ax = spmv(A, X[:, j], out=np.empty(A.nrows, dtype=A.dtype))
            assert np.array_equal(many[:, j], R[f_c, j] - ax[f_c])


def test_engine_golden_does_not_depend_on_the_chunk(
    monkeypatch,
    problem16,
    golden,  # noqa: F811
):
    """The committed digests (captured long before the kernels were
    chunked) under 97-row chunks: 43 chunks per level-0 SpMV, six per
    color block."""
    monkeypatch.setattr(numpy_backend, "CHUNK_ROWS", 97)
    case = "mixed-ell-fused"
    _check(case, run_serial(case, problem16), golden)

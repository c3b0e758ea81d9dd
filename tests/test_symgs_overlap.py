"""Communication-overlapped multicolor SymGS + fused-motif pipeline (PR 5).

Acceptance (ISSUE 5): the overlapped SymGS — halo posted, every
color's dependency-closed interior block swept, ghosts landed, every
color's boundary block finished — is bitwise-equal to the sequential
sweep at fp64 and rung-tolerance-equal at fp32, for both
storage formats at 1/2/8 ranks; the overlapped smoother path is
zero-allocation after warmup; and the fused residual check
(``waxpby_dot`` behind the operator's matvec) is bitwise-identical to
its unfused call sequence end to end.

Rank counts come from ``REPRO_RANKS`` (the CI distributed matrix legs
set 1, 2 and 8), defaulting to ``1,2,4`` locally.
"""

import os

import numpy as np
import pytest
from helpers_distributed import RUNG_TOLS as TOLS
from helpers_distributed import (
    BOTH_CLASSES,
    SectionTimers,
    counted_dispatch,
    index_free_where,
    level_order,
    natural_order,
    smooth_vector,
)

from repro.backends.dispatch import (
    dot,
    spmv,
    symgs_boundary,
    symgs_boundary_multi,
    symgs_interior,
    symgs_interior_multi,
    symgs_sweep,
    waxpby,
    waxpby_dot,
)
from repro.backends.workspace import Workspace
from repro.fp import MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.mg.smoothers import (
    MulticolorGS,
    smooth_distributed,
    smooth_distributed_panel,
)
from repro.parallel import HaloExchange, SerialComm, run_spmd
from repro.solvers import GMRESIRSolver
from repro.solvers.operator import DistributedOperator
from repro.sparse import to_format, to_precision
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.sparse.partitioned import (
    _local_adjacency_csr,
    partition_colors,
    sweep_overlap_split,
)
from repro.stencil import generate_problem


def spmd_rank_counts() -> list[int]:
    env = os.environ.get("REPRO_RANKS", "").strip()
    if env:
        return [int(tok) for tok in env.replace(",", " ").split()]
    return [1, 2, 4]


RANKS = spmd_rank_counts()

#: fp32 legs sweep through the SciPy class's diagonal plan wherever a
#: block fits it (the 8^3 serial blocks; the 7x6x5 and 2x2x2 blocks and
#: every block split along a halo fall back to the row product).
index_free = index_free_where(lambda params: params.get("prec") == "fp32")


def run_ranks(nranks: int, fn, *args) -> list:
    if nranks == 1:
        return [fn(SerialComm(), *args)]
    return run_spmd(nranks, fn, *args)


def level_halo(prob, comm, sm) -> HaloExchange:
    """The halo plan of ``prob`` re-indexed into a smoother's order."""
    halo_ex = HaloExchange(prob.halo, comm)
    halo_ex.renumber(sm.partition.rank)
    return halo_ex


def build_smoothers(comm, fmt, prec, local=(8, 8, 8)):
    """(plain smoother, partitioned smoother, halo pair, problem): each
    smoother has its own row order (whole colors / colors split along
    the halo) and a halo plan in it."""
    pg = ProcessGrid.from_size(comm.size)
    sub = Subdomain(BoxGrid(*local), pg, comm.rank)
    prob = generate_problem(sub)
    A = to_precision(to_format(prob.A, fmt), prec)
    diag = A.diagonal()
    sets = color_sets(structured_coloring8(sub))
    P = partition_colors(A, prob.halo, sets, diag=diag)
    plain = MulticolorGS(A, diag, sets)
    part = MulticolorGS(A, diag, sets, partition=P)
    halos = (level_halo(prob, comm, plain), level_halo(prob, comm, part))
    return plain, part, halos, prob, A


def sweep_natural(sm, halo_ex, r, x, direction, overlap=False) -> None:
    """``smooth_distributed`` on natural-order vectors: into the
    smoother's order, sweep, back out (in place in ``x``)."""
    P = sm.partition
    xl = level_order(P, x)
    smooth_distributed(sm, halo_ex, level_order(P, r), xl, direction, overlap)
    x[:] = natural_order(P, xl)


class TestSweepSplit:
    """The dependency-closed classification itself."""

    def test_split_partitions_each_color(self):
        pg = ProcessGrid(2, 1, 1)
        sub = Subdomain(BoxGrid(8, 8, 8), pg, 0)
        prob = generate_problem(sub)
        sets = color_sets(structured_coloring8(sub))
        mask = np.zeros(prob.nlocal, bool)
        mask[prob.halo.interior_rows] = True
        split = sweep_overlap_split(prob.A, sets, mask)
        for (early, late), rows in zip(split, sets):
            merged = np.sort(np.concatenate([early, late]))
            np.testing.assert_array_equal(merged, np.sort(rows))
            assert mask[early].all()  # early rows never touch a ghost

    def test_split_is_dependency_closed(self):
        """No early row has a non-early earlier-order neighbor — the
        invariant that makes the overlapped schedule bitwise-equal."""
        pg = ProcessGrid(2, 1, 1)
        sub = Subdomain(BoxGrid(8, 8, 8), pg, 0)
        prob = generate_problem(sub)
        sets = color_sets(structured_coloring8(sub))
        mask = np.zeros(prob.nlocal, bool)
        mask[prob.halo.interior_rows] = True
        split = sweep_overlap_split(prob.A, sets, mask)
        color_of = np.empty(prob.nlocal, np.int64)
        early = np.zeros(prob.nlocal, bool)
        for c, rows in enumerate(sets):
            color_of[rows] = c
        for e, _ in split:
            early[e] = True
        indptr, nbr = _local_adjacency_csr(prob.A, prob.nlocal)
        for i in np.nonzero(early)[0]:
            nbrs = nbr[indptr[i] : indptr[i + 1]]
            bad = (color_of[nbrs] < color_of[i]) & ~early[nbrs]
            assert not bad.any()

    def test_serial_box_is_fully_interior(self):
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        sets = color_sets(structured_coloring8(prob.sub))
        P = partition_colors(prob.A, prob.halo, sets)
        assert P.split and P.interior_fraction == 1.0

    def test_partition_rejects_shape_mismatch(self):
        prob8 = generate_problem(Subdomain.serial(8, 8, 8))
        prob4 = generate_problem(Subdomain.serial(4, 4, 4))
        sets = color_sets(structured_coloring8(prob4.sub))
        with pytest.raises(ValueError, match="does not match"):
            partition_colors(prob4.A, prob8.halo, sets)

    def test_sweep_rejects_bad_direction(self):
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        sets = color_sets(structured_coloring8(prob.sub))
        P = partition_colors(prob.A, prob.halo, sets)
        x = np.zeros(prob.A.ncols)
        with pytest.raises(ValueError, match="direction"):
            symgs_sweep(P, prob.b, x, None, None, "sideways")

    def test_order_is_color_major_interior_first(self):
        """The level's order: colors ascending, inside a color the
        closure's interior rows (ascending) before its boundary rows —
        and every block is the next consecutive range of it."""
        sub = Subdomain(BoxGrid(8, 8, 8), ProcessGrid(2, 1, 1), 0)
        prob = generate_problem(sub)
        sets = color_sets(structured_coloring8(sub))
        mask = np.zeros(prob.nlocal, bool)
        mask[prob.halo.interior_rows] = True
        split = sweep_overlap_split(prob.A, sets, mask)
        P = partition_colors(prob.A, prob.halo, sets)
        assert np.array_equal(P.order, np.concatenate([r for s in split for r in s]))
        assert np.array_equal(P.rank[P.order], np.arange(prob.nlocal))
        assert np.array_equal(P.diag, prob.A.diagonal()[P.order])
        cursor = 0
        for blocks, rows in zip(P.passes, split):
            for blk, part in zip(blocks, rows):
                assert (blk.lo, blk.hi) == (cursor, cursor + len(part))
                cursor = blk.hi
        assert cursor == prob.nlocal
        assert 0 < P.interior_fraction < 1


@BOTH_CLASSES
class TestOverlappedSymGS:
    """Cross-rank parity: overlapped vs the sequential sweep."""

    @pytest.mark.parametrize("nranks", RANKS)
    @pytest.mark.parametrize("direction", ["forward", "backward", "symmetric"])
    def test_fp64_bitwise_equal_to_sequential(self, nranks, direction):
        """Default-format (ELL) sweeps: bitwise at every rank count."""

        def fn(comm):
            plain, part, (h1, h2), prob, A = build_smoothers(comm, "ell", "fp64")
            rng = np.random.default_rng(5 + comm.rank)
            r = rng.standard_normal(prob.nlocal)
            x1 = np.zeros(A.ncols)
            x1[: prob.nlocal] = rng.standard_normal(prob.nlocal)
            x2 = x1.copy()
            sweep_natural(plain, h1, r, x1, direction)
            sweep_natural(part, h2, r, x2, direction, overlap=True)
            return bool(np.array_equal(x1, x2))

        assert all(run_ranks(nranks, fn))

    @pytest.mark.parametrize("nranks", RANKS)
    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize("prec", ["fp64", "fp32"])
    def test_cross_rank_parity_all_formats_and_rungs(self, nranks, fmt, prec):
        """Overlapped vs sequential for every format and rung — at rung
        tolerance, and bitwise: blocks keep every row's slot layout,
        so nothing re-associates."""

        def fn(comm):
            plain, part, (h1, h2), prob, A = build_smoothers(comm, fmt, prec)
            x0 = smooth_vector(prob.sub).astype(A.dtype)
            r = (0.5 * smooth_vector(prob.sub)).astype(A.dtype)
            x1 = np.zeros(A.ncols, dtype=A.dtype)
            x1[: prob.nlocal] = x0
            x2 = x1.copy()
            for d in ("forward", "backward"):
                sweep_natural(plain, h1, r, x1, d)
                sweep_natural(part, h2, r, x2, d, overlap=True)
            return (
                np.asarray(x1[: prob.nlocal], dtype=np.float64),
                np.asarray(x2[: prob.nlocal], dtype=np.float64),
            )

        rtol, atol = TOLS[prec]
        for seq, ov in run_ranks(nranks, fn):
            np.testing.assert_allclose(ov, seq, rtol=rtol, atol=atol)
            np.testing.assert_array_equal(ov, seq)

    @pytest.mark.parametrize("nranks", RANKS)
    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_overlap_bitwise_vs_partitioned_sequential(self, nranks, fmt):
        """On the *same* partitioned layout, the overlapped split
        (all interiors, then all boundaries) and the interleaved
        sequential schedule are bitwise-equal for every format — the
        dependency-closure guarantee itself."""

        def fn(comm):
            _, part, (h1, h2), prob, A = build_smoothers(comm, fmt, "fp64")
            P = part.partition
            h1 = level_halo(prob, comm, part)  # both runs on the split layout
            rng = np.random.default_rng(11 + comm.rank)
            r = level_order(P, rng.standard_normal(prob.nlocal))
            x1 = np.zeros(A.ncols)
            x1[: prob.nlocal] = rng.standard_normal(prob.nlocal)
            x2 = x1.copy()
            # Sequential on the partition: whole colors in order.
            h1.exchange(x1)
            symgs_sweep(P, r, x1, None, None, "forward")
            # Overlapped: both halves around the landing.
            pending = h2.exchange_begin(x2)
            symgs_interior(P, r, x2)
            h2.exchange_finish(pending, x2)
            symgs_boundary(P, r, x2)
            return bool(np.array_equal(x1, x2))

        assert all(run_ranks(nranks, fn))

    def test_backward_sweep_takes_the_blocking_exchange(self):
        """The level's order is the forward closure's: a backward sweep
        on a split layout exchanges first, then relaxes whole colors —
        no split-half dispatch, and one exchange round either way."""
        _, part, (_, h), prob, A = build_smoothers(SerialComm(), "ell", "fp64")
        assert part.supports_overlap
        r, x = np.ones(prob.nlocal), np.zeros(A.ncols)
        seen = {}
        for direction in ("forward", "backward"):
            with counted_dispatch() as counts:
                part.sweep_overlapped(h, r, x, direction)
            seen[direction] = {op for _, op in counts}
        assert seen["forward"] == {
            "symgs_interior_multi",
            "symgs_boundary_multi",
            "spmv_multi",
        }
        assert seen["backward"] == {"symgs_sweep_multi", "spmv_multi"}

        def fn(comm):
            _, part, (_, h), prob, A = build_smoothers(comm, "ell", "fp64")
            r, x = np.ones(prob.nlocal), np.zeros(A.ncols)
            part.sweep_overlapped(h, r, x, "forward")
            part.sweep_overlapped(h, r, x, "backward")
            return h.exchanges

        assert run_spmd(2, fn) == [2, 2]


#: Every (format, rung) pair the suite builds color partitions for.
LAYOUT_PAIRS = [
    (fmt, prec) for fmt in ("csr", "ell") for prec in ("fp64", "fp32")
]

#: Local boxes the layout suites run on: the 8^3 cube, whose eight
#: color blocks are equal (64 rows each); an odd 7x6x5 box, whose
#: color blocks are 18 to 36 rows long — no block boundary lands where
#: the cube's do; and 2x2x2, the coarsest level of a 16^3 four-level
#: hierarchy, where every color block is one row and, split along the
#: halo, seven colors have an empty interior block and one an empty
#: boundary block.
BOXES = pytest.mark.parametrize(
    "box", [(8, 8, 8), (7, 6, 5), (2, 2, 2)], ids=["8x8x8", "7x6x5", "2x2x2"]
)


def layout_case(fmt, prec, layout, ws=None, box=(8, 8, 8)):
    """One smoother on a ``box``-sized local grid and the named layout:
    ``"serial"`` (a serial box, every color one whole block) or
    ``"split"`` (rank 0 of a 2x1x1 grid, every color split along its
    halo; ghost values are whatever the test puts in the vector tail)."""
    if layout == "serial":
        sub = Subdomain.serial(*box)
    else:
        sub = Subdomain(BoxGrid(*box), ProcessGrid(2, 1, 1), 0)
    prob = generate_problem(sub)
    A = to_precision(to_format(prob.A, fmt), prec)
    diag = A.diagonal()
    sets = color_sets(structured_coloring8(sub))
    P = partition_colors(A, prob.halo if layout == "split" else None, sets, diag=diag)
    gs = MulticolorGS(A, diag, sets, ws=ws, partition=P)
    return prob, A, diag, sets, gs


@BOTH_CLASSES
class TestOneSweepLayout:
    """PR 16 / PR 19: every multicolor sweep relaxes slices of the
    color-ordered layout — serial smoothers included — and, once
    un-permuted, stays bitwise-equal to the format-generic index-set
    ``symgs_sweep`` on natural-order vectors."""

    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @pytest.mark.parametrize("direction", ["forward", "backward", "symmetric"])
    @pytest.mark.parametrize("ncol", [1, 4])
    @pytest.mark.parametrize("pooled", [True, False], ids=["ws", "no-ws"])
    @pytest.mark.parametrize("layout", ["serial", "split"])
    @BOXES
    def test_block_sweep_equals_index_set_reference(
        self, fmt, prec, direction, ncol, pooled, layout, box
    ):
        prob, A, diag, sets, gs = layout_case(
            fmt, prec, layout, Workspace() if pooled else None, box
        )
        P = gs.partition
        assert P.split == gs.supports_overlap == (layout == "split")
        rng = np.random.default_rng(21)
        R = np.asfortranarray(
            rng.standard_normal((prob.nlocal, ncol)).astype(A.dtype)
        )
        X_ref = np.asfortranarray(
            rng.standard_normal((A.ncols, ncol)).astype(A.dtype)
        )
        Rl, X = level_order(P, R), level_order(P, X_ref)
        steps = {"symmetric": ("forward", "backward")}.get(direction, (direction,))
        for d in steps:
            if ncol == 1:  # the single-vector entry points
                getattr(gs, d)(Rl[:, 0], X[:, 0])
            else:
                getattr(gs, d + "_panel")(Rl, X)
        diag_sets = [diag[rows] for rows in sets]
        for j in range(ncol):
            for d in steps:
                symgs_sweep(A, R[:, j], X_ref[:, j], sets, diag_sets, d)
        assert np.array_equal(natural_order(P, X), X_ref)

    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @pytest.mark.parametrize("ncol", [1, 4])
    @BOXES
    def test_split_halves_equal_index_set_reference(self, fmt, prec, ncol, box):
        """The overlapped forward schedule — every interior block, then
        every boundary block — is the same sweep."""
        prob, A, diag, sets, gs = layout_case(fmt, prec, "split", Workspace(), box)
        P = gs.partition
        rng = np.random.default_rng(22)
        R = np.asfortranarray(
            rng.standard_normal((prob.nlocal, ncol)).astype(A.dtype)
        )
        X_ref = np.asfortranarray(
            rng.standard_normal((A.ncols, ncol)).astype(A.dtype)
        )
        Rl, X = level_order(P, R), level_order(P, X_ref)
        if ncol == 1:
            symgs_interior(P, Rl[:, 0], X[:, 0], ws=gs.ws)
            symgs_boundary(P, Rl[:, 0], X[:, 0], ws=gs.ws)
        else:
            symgs_interior_multi(P, Rl, X, ws=gs.ws)
            symgs_boundary_multi(P, Rl, X, ws=gs.ws)
        diag_sets = [diag[rows] for rows in sets]
        for j in range(ncol):
            symgs_sweep(A, R[:, j], X_ref[:, j], sets, diag_sets, "forward")
        assert np.array_equal(natural_order(P, X), X_ref)

    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @BOXES
    def test_one_whole_block_per_color(self, fmt, prec, box):
        _, A, _, sets, gs = layout_case(fmt, prec, "serial", box=box)
        P = gs.partition
        assert not P.split and not gs.supports_overlap  # whole blocks may read ghosts
        assert gs.order is P.order
        assert np.array_equal(P.order, np.concatenate(sets))
        assert len(P.passes) == len(sets)
        cursor = 0
        for (interior, boundary), rows in zip(P.passes, sets):
            assert (interior.lo, interior.hi) == (cursor, cursor + len(rows))
            assert interior.A.nrows == len(rows) and interior.A.ncols == A.ncols
            assert boundary.lo == boundary.hi == interior.hi and boundary.A is None
            cursor = interior.hi
        assert cursor == A.nrows

    def test_gs_sections_dispatch_no_spmv_rows(self):
        """One V-cycle under a counting dispatch wrapper: the smoother
        sections issue block sweeps only, and ``spmv_rows`` (the
        row-copying kernel) runs nowhere — the restriction multiplies
        a packed block too (``tests/test_op_census.py`` has the
        transfer counts at width 1 and 4)."""
        from repro.mg import MultigridPreconditioner

        sections = SectionTimers()
        prob = generate_problem(Subdomain.serial(16, 16, 16))
        mg = MultigridPreconditioner.build(
            prob, SerialComm(), MGConfig(), precision="fp32", timers=sections
        )
        r = prob.b.astype(np.float32)
        with counted_dispatch(sections) as counts:
            mg.apply(r, out=np.empty_like(r))
        assert not any(op == "spmv_rows" for _, op in counts)
        assert counts["gs", "symgs_sweep"] == 0  # nor the index-set kernel's op
        # Levels 0-1 recurse (level 2 is the dense coarse map).
        assert counts["gs", "symgs_sweep_multi"] == 4  # 2 pre + 2 post
        # One block SpMV per color, but the first color of the two
        # zero-guess pre-smooths multiplies zeros and skips.
        assert counts["gs", "spmv_multi"] == 4 * 8 - 2
        assert counts["restrict", "fused_restrict"] == 2
        assert counts["restrict", "spmv_multi"] == 2  # on the packed block

    def test_unsplit_build_skips_the_closure_pass(self, monkeypatch):
        """Serial and blocking-SPMD hierarchies never pay the O(nnz)
        adjacency/closure pass of the overlap split."""
        import repro.sparse.partitioned as partitioned

        def boom(*args, **kwargs):
            raise AssertionError("overlap split entered on an unsplit build")

        monkeypatch.setattr(partitioned, "sweep_overlap_split", boom)
        monkeypatch.setattr(partitioned, "_local_adjacency_csr", boom)

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            solver = GMRESIRSolver(
                prob,
                comm,
                policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2, sweep="symmetric"),
                overlap=False,
            )
            _, st = solver.solve(prob.b, tol=1e-9, maxiter=200)
            return st.converged and not any(
                lv.smoother.partition.split for lv in solver.M.levels
            )

        assert all(run_ranks(1, fn))
        assert all(run_ranks(2, fn))

    def test_two_ranks_blocking_equals_overlapped(self):
        """The unsplit and the halo-split layouts are the same sweep:
        a 2-rank solve is bitwise-identical with overlap on or off."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            xs, split = [], []
            for overlap in (False, True):
                solver = GMRESIRSolver(
                    prob,
                    comm,
                    policy=MIXED_DS_POLICY,
                    mg_config=MGConfig(nlevels=2),
                    overlap=overlap,
                )
                x, st = solver.solve(prob.b, tol=1e-9, maxiter=300)
                assert st.converged
                xs.append(x)
                split.append(solver.M.levels[0].smoother.supports_overlap)
            return split == [False, True] and bool(np.array_equal(*xs))

        assert all(run_spmd(2, fn))


@BOTH_CLASSES
class TestZeroGuessSweep:
    """PR 19: the first sweep after the V-cycle zeroes a level's iterate
    is told so — it posts no halo exchange and skips the first color's
    block products — and is bitwise the ordinary sweep from an explicit
    zero iterate, signed zeros included."""

    @staticmethod
    def rhs(prob, dtype, rank):
        """Four columns: random, random with ``-0.0`` / ``+0.0``
        entries, all ``+0.0``, all ``-0.0``."""
        rng = np.random.default_rng(31 + rank)
        R = np.asfortranarray(rng.standard_normal((prob.nlocal, 4)).astype(dtype))
        R[::3, 1] = -0.0
        R[1::3, 1] = 0.0
        R[:, 2] = 0.0
        R[:, 3] = -0.0
        return R

    @pytest.mark.parametrize("nranks", [1, 2])
    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @pytest.mark.parametrize("direction", ["forward", "backward", "symmetric"])
    @pytest.mark.parametrize("overlap", [False, True])
    @BOXES
    def test_bitwise_equal_to_sweep_from_explicit_zeros(
        self, nranks, fmt, prec, direction, overlap, box
    ):
        def fn(comm):
            _, part, (_, h), prob, A = build_smoothers(comm, fmt, prec, box)
            h_ref = level_halo(prob, comm, part)
            P = part.partition
            R = level_order(P, self.rhs(prob, A.dtype, comm.rank))
            X = np.zeros((A.ncols, 4), dtype=A.dtype, order="F")
            X_ref = X.copy(order="F")
            smooth_distributed_panel(
                part, h, R, X, direction, overlap=overlap, zero_guess=True
            )
            smooth_distributed_panel(part, h_ref, R, X_ref, direction, overlap=overlap)
            steps = 2 if direction == "symmetric" else 1
            return (
                bool(np.array_equal(X, X_ref)),
                bool(np.array_equal(np.signbit(X), np.signbit(X_ref))),
                bool(np.any(X[:, 0])),
                # One round fewer; on one rank there is nothing to count.
                (h.exchanges, h_ref.exchanges)
                == ((steps - 1, steps) if comm.size > 1 else (0, 0)),
            )

        assert run_ranks(nranks, fn) == [(True, True, True, True)] * nranks

    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @BOXES
    def test_skips_exactly_the_first_color(self, fmt, prec, box):
        prob, A, _, sets, gs = layout_case(fmt, prec, "split", Workspace(), box)
        R = level_order(gs.partition, self.rhs(prob, A.dtype, 0))
        blocks = sum(blk.hi > blk.lo for pair in gs.partition.passes for blk in pair)
        first = {
            "forward": sum(b.hi > b.lo for b in gs.partition.passes[0]),
            "backward": sum(b.hi > b.lo for b in gs.partition.passes[-1]),
        }
        for direction, skipped in first.items():
            for zero_guess in (False, True):
                X = np.zeros((A.ncols, 4), dtype=A.dtype, order="F")
                with counted_dispatch() as counts:
                    gs.sweep_panel(R, X, direction, zero_guess=zero_guess)
                assert counts[None, "spmv_multi"] == blocks - zero_guess * skipped

    def test_vcycle_rounds_match_the_model(self):
        """Modelled halo rounds per V-cycle == ``HaloExchange.exchanges``
        counted on a 2-rank V-cycle, at width 1 and 4 (the operator's
        own rounds are not part of a V-cycle)."""
        from repro.mg import MultigridPreconditioner
        from repro.perf.scaling import ScalingModel

        def fn(comm, cfg, ncol, overlap):
            sub = Subdomain(BoxGrid(16, 16, 16), ProcessGrid(2, 1, 1), comm.rank)
            prob = generate_problem(sub)
            mg = MultigridPreconditioner.build(prob, comm, cfg, overlap=overlap)
            R = np.asfortranarray(np.repeat(prob.b[:, None], ncol, axis=1))
            mg.apply_panel(R)
            return sum(lv.halo_ex.exchanges for lv in mg.levels)

        for cfg in (
            MGConfig(),
            MGConfig(sweep="symmetric"),
            MGConfig(npre=2, npost=0, coarse_sweeps=3),
            MGConfig(nlevels=2, npre=0),
        ):
            model = ScalingModel(nlevels=cfg.nlevels)
            model.mg_config = cfg
            for ncol in (1, 4):
                for overlap in (False, True):
                    assert run_spmd(2, fn, cfg, ncol, overlap) == [
                        model.vcycle_halo_exchanges()
                    ] * 2, (cfg, ncol, overlap)
        # ... and the restart cycle books them: (m + 1) V-cycles, m inner
        # products and the outer residual.
        model = ScalingModel(restart=30)
        assert model.cycle_halo_exchanges() == 31 * model.vcycle_halo_exchanges() + 31
        assert model.vcycle_halo_exchanges() == 6  # 10 before the zero-guess skip


class TestOverlappedSolver:
    @pytest.mark.parametrize("nranks", RANKS)
    def test_solver_bitwise_with_and_without_symgs_overlap(self, nranks):
        """End-to-end GMRES-IR: the smoother overlap changes only the
        communication scheduling, so the solve is bitwise-identical."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            kwargs = dict(policy=MIXED_DS_POLICY, mg_config=MGConfig(nlevels=2))
            s_ov = GMRESIRSolver(prob, comm, overlap_symgs=True, **kwargs)
            x_ov, st_ov = s_ov.solve(prob.b, tol=1e-9, maxiter=300)
            s_no = GMRESIRSolver(prob, comm, overlap_symgs=False, **kwargs)
            x_no, st_no = s_no.solve(prob.b, tol=1e-9, maxiter=300)
            return (
                st_ov.converged,
                st_no.converged,
                st_ov.iterations == st_no.iterations,
                bool(np.array_equal(x_ov, x_no)),
            )

        for rec in run_ranks(nranks, fn):
            assert rec == (True, True, True, True)

    @pytest.mark.parametrize("nranks", RANKS[:2])
    def test_solver_bitwise_with_and_without_fusion(self, nranks):
        """The fused residual check composes the registry's kernels
        operation-for-operation: bitwise-identical solves."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            kwargs = dict(policy=MIXED_DS_POLICY, mg_config=MGConfig(nlevels=2))
            s_f = GMRESIRSolver(prob, comm, fusion=True, **kwargs)
            x_f, st_f = s_f.solve(prob.b, tol=1e-9, maxiter=300)
            s_u = GMRESIRSolver(prob, comm, fusion=False, **kwargs)
            x_u, st_u = s_u.solve(prob.b, tol=1e-9, maxiter=300)
            return (
                st_f.converged,
                st_f.iterations == st_u.iterations,
                bool(np.array_equal(x_f, x_u)),
            )

        for rec in run_ranks(nranks, fn):
            assert rec == (True, True, True)

    def test_symmetric_sweep_config_overlaps_both_directions(self):
        """HPCG-shaped symmetric sweeps build both directional
        schedules and still solve bitwise-identically."""
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        cfg = MGConfig(nlevels=2, sweep="symmetric")
        kwargs = dict(policy=MIXED_DS_POLICY, mg_config=cfg)
        s_ov = GMRESIRSolver(prob, SerialComm(), overlap_symgs=True, **kwargs)
        x_ov, _ = s_ov.solve(prob.b, tol=1e-9, maxiter=200)
        s_no = GMRESIRSolver(prob, SerialComm(), overlap_symgs=False, **kwargs)
        x_no, _ = s_no.solve(prob.b, tol=1e-9, maxiter=200)
        assert np.array_equal(x_ov, x_no)


class TestExposedCommCounters:
    def test_blocking_exchange_is_fully_exposed(self):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            ex = HaloExchange(prob.halo, comm)
            xf = np.zeros(prob.A.ncols)
            ex.exchange(xf)
            return ex.seconds, ex.exposed_seconds, ex.exchanges

        for secs, exposed, n in run_spmd(2, fn):
            assert n == 1
            assert secs > 0
            assert exposed == secs  # nothing hid it

    def test_split_exchange_exposes_only_the_landing(self):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            ex = HaloExchange(prob.halo, comm)
            xf = np.zeros(prob.A.ncols)
            pending = ex.exchange_begin(xf)
            posted = ex.seconds
            ex.exchange_finish(pending, xf)
            return posted, ex.seconds, ex.exposed_seconds

        for posted, total, exposed in run_spmd(2, fn):
            assert 0 < exposed < total  # the posting half is hidden
            assert exposed == pytest.approx(total - posted)

    def test_counters_reset(self):
        prob = generate_problem(Subdomain.serial(4, 4, 4))
        ex = HaloExchange(prob.halo, SerialComm())
        ex.exposed_seconds = 1.0
        ex.reset_counters()
        assert ex.exposed_seconds == 0.0

    @pytest.mark.parametrize("nranks", RANKS[:2])
    def test_solver_reports_exposed_fraction_and_levels(self, nranks):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            solver = GMRESIRSolver(
                prob,
                comm,
                policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2),
            )
            solver.solve(prob.b, tol=0.0, maxiter=5)
            per_level = solver.exposed_comm_seconds_by_level()
            return (
                solver.halo_exposed_seconds(),
                solver.halo_seconds(),
                len(per_level),
            )

        for exposed, total, nlevels in run_ranks(nranks, fn):
            assert nlevels == 2
            assert 0 <= exposed <= total + 1e-12


class TestOverlappedSmootherAllocations:
    """ISSUE 5 satellite: zero-allocation overlapped smoother path."""

    @pytest.mark.parametrize("nranks", RANKS)
    def test_workspace_arena_stable_after_warmup(self, nranks):
        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            solver = GMRESIRSolver(
                prob,
                comm,
                policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2),
                overlap=True,
                overlap_symgs=True,
            )
            assert solver.M.overlap
            solver.solve(prob.b, tol=0.0, maxiter=10)  # warmup
            misses0 = solver.ws.misses
            hits0 = solver.ws.hits
            solver.solve(prob.b, tol=0.0, maxiter=32)
            return solver.ws.misses - misses0, solver.ws.hits - hits0

        for dmiss, dhits in run_ranks(nranks, fn):
            assert dmiss == 0
            assert dhits > 0

    def test_overlapped_smoother_tracemalloc_across_ranks(self):
        """tracemalloc across a 2-rank overlapped-smoother solve: no
        allocation site grows beyond a few vectors after warmup (all
        rank threads inside the measurement window)."""
        import gc
        import tracemalloc

        vector_bytes_8 = 512 * 8

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            solver = GMRESIRSolver(
                prob,
                comm,
                policy=MIXED_DS_POLICY,
                mg_config=MGConfig(nlevels=2),
                overlap=True,
                overlap_symgs=True,
            )
            solver.solve(prob.b, tol=0.0, maxiter=10)  # warmup
            comm.barrier()
            snap1 = None
            if comm.rank == 0:
                gc.collect()
                tracemalloc.start(10)
                snap1 = tracemalloc.take_snapshot()
            comm.barrier()
            solver.solve(prob.b, tol=0.0, maxiter=32)
            comm.barrier()
            if comm.rank != 0:
                return []
            snap2 = tracemalloc.take_snapshot()
            tracemalloc.stop()
            diff = snap2.compare_to(snap1, "traceback")
            return [
                f"{d.size_diff / 1024:.1f} KB (+{d.count_diff}) at "
                + " <- ".join(d.traceback.format()[-2:])
                for d in diff
                if d.size_diff > 4 * vector_bytes_8
            ]

        offenders = run_spmd(2, fn)[0]
        assert not offenders, (
            "overlapped smoother loop grew vector-sized allocation "
            "sites:\n" + "\n".join(offenders)
        )


@BOTH_CLASSES
class TestFusedMotifs:
    @staticmethod
    def residual_case(fmt):
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        A = to_format(prob.A, fmt)
        op = DistributedOperator(A, prob.halo, SerialComm())
        rng = np.random.default_rng(0)
        return A, op, rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_fused_residual_matches_unfused_bitwise(self, fmt):
        """GMRES-IR's residual check: the matvec keeps its schedule and
        the subtraction + local dot fuse at the vector pass."""
        A, op, x, b = self.residual_case(fmt)
        r_f = np.empty(A.nrows)
        local = op.residual_norm2_local(b, x, out=r_f)
        r_u = b - spmv(A, x)
        assert np.array_equal(r_f, r_u)
        assert local == dot(r_u, r_u)
        assert np.array_equal(op.residual(b, x), r_u)  # fusion=False path

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_fp32_fused_residual_matches_unfused_bitwise(self, fmt):
        """The same fusion on the low rung's operator: an fp32 matrix
        and fp32 vectors give an fp32 residual, bitwise the unfused
        ``b - A x`` and its fp32 dot."""
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        A = to_precision(to_format(prob.A, fmt), "fp32")
        op = DistributedOperator(A, prob.halo, SerialComm())
        rng = np.random.default_rng(0)
        x, b = rng.standard_normal((2, A.nrows)).astype(np.float32)
        r_f = np.empty(A.nrows, dtype=np.float32)
        local = op.residual_norm2_local(b, x, out=r_f)
        r_u = b - spmv(A, x)
        assert r_u.dtype == np.float32
        assert np.array_equal(r_f, r_u)
        assert local == dot(r_u, r_u)
        assert np.array_equal(op.residual(b, x), r_u)

    def test_fused_residual_pools_its_scratch(self):
        _, op, x, b = self.residual_case("ell")
        out = np.empty(op.nlocal)
        op.residual_norm2_local(b, x, out=out)  # warmup
        misses0 = op.ws.misses
        for _ in range(3):
            op.residual_norm2_local(b, x, out=out)
        assert op.ws.misses == misses0

    def test_waxpby_dot_matches_unfused_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(512)
        y = rng.standard_normal(512)
        ws = Workspace()
        out = np.empty(512)
        _, local = waxpby_dot(-0.37, x, 1.0, y, out=out, ws=ws)
        ref = waxpby(-0.37, x, 1.0, y.copy(), out=y.copy(), ws=Workspace())
        assert np.array_equal(out, ref)
        assert local == dot(ref, ref)

    def test_fp32_waxpby_dot_stays_on_its_rung(self):
        """The wildcard fused kernel re-dispatches per precision: fp32
        vectors get an fp32 result, bitwise the fp32 ``waxpby`` then
        the fp32 ``dot``."""
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        x = (100 * smooth_vector(prob.sub)).astype(np.float32)
        y = (50 * smooth_vector(prob.sub)).astype(np.float32)
        w, local = waxpby_dot(1.0, x, -0.5, y)
        assert w.dtype == np.float32
        ref = waxpby(1.0, x, -0.5, y)
        assert ref.dtype == np.float32
        assert np.array_equal(w, ref)
        assert local == dot(ref, ref)

    def test_waxpby_dot_aliasing_safe(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(128)
        y = rng.standard_normal(128)
        ref = waxpby(2.0, x, 1.0, y.copy(), out=y.copy())
        w, local = waxpby_dot(2.0, x, 1.0, y, out=y)
        assert w is y
        assert np.array_equal(w, ref)
        assert local == dot(ref, ref)

    def test_cg_uses_fused_update(self):
        """PCG converges identically through the fused residual-update
        + norm (bitwise vs the historical two-call sequence is covered
        by construction; here: it still converges)."""
        from repro.solvers.cg import pcg_solve

        prob = generate_problem(Subdomain.serial(16, 16, 16))
        x, stats = pcg_solve(prob, SerialComm(), tol=1e-8, maxiter=100)
        assert stats.converged


class TestHaloSplitModel:
    def test_split_sums_to_halo_total(self):
        from repro.perf.scaling import ScalingModel

        for kwargs in ({}, {"overlap": False}, {"overlap_symgs": False}):
            model = ScalingModel(**kwargs)
            split = model.halo_traffic_split(MIXED_DS_POLICY)
            assert split["overlapped"] + split["exposed"] == pytest.approx(
                model.halo_traffic_bytes(MIXED_DS_POLICY)
            )

    def test_overlap_flags_move_bytes_between_buckets(self):
        from repro.perf.scaling import ScalingModel

        full = ScalingModel().halo_traffic_split(MIXED_DS_POLICY)
        no_sym_model = ScalingModel(overlap_symgs=False)
        no_sym = no_sym_model.halo_traffic_split(MIXED_DS_POLICY)
        none = ScalingModel(overlap=False).halo_traffic_split(MIXED_DS_POLICY)
        assert full["exposed"] == 0.0  # everything scheduled over compute
        assert no_sym["exposed"] > 0.0  # the sweeps' exchanges exposed
        assert none["overlapped"] == 0.0
        assert none["exposed"] > no_sym["exposed"]

    def test_fused_residual_models_fewer_outer_bytes(self):
        from repro.fp.precision import Precision
        from repro.perf.kernels import KernelModel

        km = KernelModel()
        n = 32**3
        fused = km.spmv_dot(n, Precision.DOUBLE).nbytes
        unfused = (
            km.spmv(n, Precision.DOUBLE).nbytes
            + km.waxpby(n, Precision.DOUBLE).nbytes
            + km.dot(n, Precision.DOUBLE).nbytes
        )
        assert fused < unfused
        assert km.waxpby_dot(n, Precision.DOUBLE).nbytes < (
            km.waxpby(n, Precision.DOUBLE).nbytes
            + km.dot(n, Precision.DOUBLE).nbytes
        )


class TestConfigAndCLI:
    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--no-overlap-symgs", "--no-fusion"]
        )
        assert args.no_overlap_symgs
        assert args.no_fusion

    def test_config_validates_overlap_symgs(self):
        from repro.core import BenchmarkConfig

        with pytest.raises(ValueError, match="overlap_symgs"):
            BenchmarkConfig(overlap_symgs="sometimes")
        cfg = BenchmarkConfig(overlap_symgs=False, fusion=False)
        assert cfg.overlap_symgs is False
        assert not cfg.fusion

    def test_solver_auto_follows_overlap(self):
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        s = GMRESIRSolver(
            prob, SerialComm(), mg_config=MGConfig(nlevels=2), overlap=True
        )
        assert s.overlap_symgs  # auto follows overlap
        s2 = GMRESIRSolver(
            prob,
            SerialComm(),
            mg_config=MGConfig(nlevels=2),
            overlap=True,
            overlap_symgs=False,
        )
        assert s2.overlap and not s2.overlap_symgs


class TestRegressionGateMetrics:
    @pytest.fixture()
    def gate(self):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            import check_regression
        finally:
            sys.path.pop(0)
        return check_regression

    def test_symgs_bytes_and_exposed_fraction_gated(self, gate):
        # Both gate at their own tight overrides (2% bytes, 1.5%
        # fraction) regardless of the generous CLI threshold — the
        # fraction is bounded at 1.0, so a wide ratio gate could
        # never fire on a near-1 baseline.
        base = {
            "model_symgs_bytes_per_cycle": 100.0,
            "exposed_comm_fraction": 0.96,
        }
        ok = {
            "model_symgs_bytes_per_cycle": 100.5,
            "exposed_comm_fraction": 0.965,
        }
        failures, _ = gate.compare(ok, base, threshold=0.2)
        assert failures == []
        bad = {
            "model_symgs_bytes_per_cycle": 105.0,
            "exposed_comm_fraction": 0.99,  # a lost overlap fits under 1.0
        }
        failures, _ = gate.compare(bad, base, threshold=0.2)
        assert len(failures) == 2

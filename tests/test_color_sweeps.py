"""Multicolor SymGS on the color-ordered layout, serial and distributed.

Every multicolor sweep relaxes slices of one layout — each color packed
into one block in the level's row order — behind a blocking halo
exchange when there are neighbors.  Once un-permuted it is bitwise the
format-generic index-set ``symgs_sweep`` on natural-order vectors, at
every rank count, format and rung; the V-cycle's zero-guess sweep is
bitwise the ordinary sweep from an explicit zero iterate; and the
modelled halo rounds per V-cycle are the counted ones.

Rank counts come from ``REPRO_RANKS`` (the CI distributed matrix legs
set 1, 2 and 8), defaulting to ``1,2,4`` locally.
"""

import numpy as np
import pytest
from helpers_distributed import (
    BOTH_CLASSES,
    RANKS,
    SectionTimers,
    counted_dispatch,
    index_free_where,
    level_order,
    natural_order,
    run_ranks,
)

from repro.backends.dispatch import symgs_sweep
from repro.backends.workspace import Workspace
from repro.fp import MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig, MultigridPreconditioner
from repro.mg.smoothers import (
    MulticolorGS,
    smooth_distributed,
    smooth_distributed_panel,
)
from repro.parallel import HaloExchange, SerialComm, run_spmd
from repro.solvers import GMRESIRSolver
from repro.sparse import PartitionedMatrix, to_format, to_precision
from repro.sparse.partitioned import _ColorBlock
from repro.sparse.coloring import color_sets, structured_coloring8
from repro.stencil import generate_problem

#: fp32 legs sweep through the SciPy class's diagonal plan wherever a
#: block fits it (the 8^3 serial blocks; the 7x6x5 and 2x2x2 blocks and
#: every block with a ghost tail fall back to the row product).
index_free = index_free_where(lambda params: params.get("prec") == "fp32")

#: Every (format, rung) pair the suite builds color layouts for.
LAYOUT_PAIRS = [
    (fmt, prec) for fmt in ("csr", "ell") for prec in ("fp64", "fp32")
]

#: Local boxes the layout suites run on: the 8^3 cube, whose eight
#: color blocks are equal (64 rows each); an odd 7x6x5 box, whose
#: color blocks are 18 to 36 rows long — no block boundary lands where
#: the cube's do; and 2x2x2, the coarsest level of a 16^3 four-level
#: hierarchy, where every color block is one row.
BOXES = pytest.mark.parametrize(
    "box", [(8, 8, 8), (7, 6, 5), (2, 2, 2)], ids=["8x8x8", "7x6x5", "2x2x2"]
)


def steps(direction: str) -> tuple[str, ...]:
    return ("forward", "backward") if direction == "symmetric" else (direction,)


def build_smoother(comm, fmt, prec, local=(8, 8, 8)):
    """``(smoother, halo plan in its order, problem, matrix)`` for this
    rank's ``local`` box."""
    pg = ProcessGrid.from_size(comm.size)
    sub = Subdomain(BoxGrid(*local), pg, comm.rank)
    prob = generate_problem(sub)
    A = to_precision(to_format(prob.A, fmt), prec)
    gs = MulticolorGS(A, A.diagonal(), color_sets(structured_coloring8(sub)))
    halo_ex = HaloExchange(prob.halo, comm)
    halo_ex.renumber(gs.partition.rank)
    return gs, halo_ex, prob, A


def layout_case(fmt, prec, layout, ws=None, box=(8, 8, 8)):
    """One smoother on a ``box``-sized local grid: ``"serial"`` (a
    serial box) or ``"ghosted"`` (rank 0 of a 2x1x1 grid, whose blocks
    read a ghost tail; ghost values are whatever the test puts there)."""
    if layout == "serial":
        sub = Subdomain.serial(*box)
    else:
        sub = Subdomain(BoxGrid(*box), ProcessGrid(2, 1, 1), 0)
    prob = generate_problem(sub)
    A = to_precision(to_format(prob.A, fmt), prec)
    diag = A.diagonal()
    sets = color_sets(structured_coloring8(sub))
    return prob, A, diag, sets, MulticolorGS(A, diag, sets, ws=ws)


@BOTH_CLASSES
class TestOneSweepLayout:
    """Every multicolor sweep relaxes slices of the color-ordered layout
    and, once un-permuted, stays bitwise-equal to the format-generic
    index-set ``symgs_sweep`` on natural-order vectors."""

    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @pytest.mark.parametrize("direction", ["forward", "backward", "symmetric"])
    @pytest.mark.parametrize("ncol", [1, 4])
    @pytest.mark.parametrize("pooled", [True, False], ids=["ws", "no-ws"])
    @pytest.mark.parametrize("layout", ["serial", "ghosted"])
    @BOXES
    def test_block_sweep_equals_index_set_reference(
        self, fmt, prec, direction, ncol, pooled, layout, box
    ):
        prob, A, diag, sets, gs = layout_case(
            fmt, prec, layout, Workspace() if pooled else None, box
        )
        P = gs.partition
        rng = np.random.default_rng(21)
        R = np.asfortranarray(
            rng.standard_normal((prob.nlocal, ncol)).astype(A.dtype)
        )
        X_ref = np.asfortranarray(
            rng.standard_normal((A.ncols, ncol)).astype(A.dtype)
        )
        Rl, X = level_order(P, R), level_order(P, X_ref)
        for d in steps(direction):
            if ncol == 1:  # the single-vector entry points
                getattr(gs, d)(Rl[:, 0], X[:, 0])
            else:
                getattr(gs, d + "_panel")(Rl, X)
        diag_sets = [diag[rows] for rows in sets]
        for j in range(ncol):
            for d in steps(direction):
                symgs_sweep(A, R[:, j], X_ref[:, j], sets, diag_sets, d)
        assert np.array_equal(natural_order(P, X), X_ref)

    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @pytest.mark.parametrize("layout", ["serial", "ghosted"])
    @BOXES
    def test_one_whole_block_per_color(self, fmt, prec, layout, box):
        """The level's order is color-major, ascending inside a color,
        and every color is one block: the next consecutive range of it,
        over the matrix's whole column space (ghost tail included)."""
        prob, A, diag, sets, gs = layout_case(fmt, prec, layout, box=box)
        P = gs.partition
        assert gs.order is P.order
        assert np.array_equal(P.order, np.concatenate(sets))
        assert np.array_equal(P.rank[P.order], np.arange(prob.nlocal))
        assert np.array_equal(P.diag, diag[P.order])
        assert len(P.passes) == P.num_colors == len(sets)
        cursor = 0
        for blk, rows in zip(P.passes, sets):
            assert (blk.lo, blk.hi) == (cursor, cursor + len(rows))
            assert blk.A.nrows == len(rows) and blk.A.ncols == A.ncols
            cursor = blk.hi
        assert cursor == A.nrows

    def test_sweep_rejects_bad_direction(self):
        prob, A, _, _, gs = layout_case("ell", "fp64", "serial")
        x = np.zeros(A.ncols)
        with pytest.raises(ValueError, match="direction"):
            symgs_sweep(gs.partition, prob.b, x, None, None, "sideways")

    def test_two_rank_solver_builds_one_block_per_color(self, monkeypatch):
        """A 2-rank solver builds no interior/boundary partition and
        sweeps one block per color on every level."""
        built = []
        init = PartitionedMatrix.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PartitionedMatrix, "__init__", counting)

        def fn(comm):
            sub = Subdomain(BoxGrid(8, 8, 8), ProcessGrid(2, 1, 1), comm.rank)
            prob = generate_problem(sub)
            solver = GMRESIRSolver(
                prob, comm, policy=MIXED_DS_POLICY, mg_config=MGConfig(nlevels=3)
            )
            _, st = solver.solve(prob.b, tol=1e-9, maxiter=200)
            levels = []
            for lv in solver.M.levels:
                P, sets = lv.smoother.partition, lv.smoother.sets
                ranges = [
                    (type(blk), blk.lo, blk.hi, blk.A.ncols) for blk in P.passes
                ]
                bounds = np.cumsum([0] + [len(rows) for rows in sets])
                ncols = lv.A.ncols
                expected = [
                    (_ColorBlock, lo, hi, ncols)
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                ]
                levels.append((len(sets), ranges == expected, P.nlocal))
            return st.converged, levels

        for converged, levels in run_spmd(2, fn):
            assert converged
            assert len(levels) == 3
            for (ncolors, one_block_per_color, nlocal), n in zip(levels, (8, 4, 2)):
                assert ncolors == 8
                assert one_block_per_color
                assert nlocal == n**3
        assert not built

    def test_gs_sections_dispatch_no_spmv_rows(self):
        """One V-cycle under a counting dispatch wrapper: the smoother
        sections issue block sweeps only, and ``spmv_rows`` (the
        row-copying kernel) runs nowhere — the restriction multiplies
        a packed block too (``tests/test_op_census.py`` has the
        transfer counts at width 1 and 4)."""
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


@BOTH_CLASSES
class TestDistributedSweep:
    @pytest.mark.parametrize("nranks", RANKS)
    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @pytest.mark.parametrize("direction", ["forward", "backward", "symmetric"])
    @BOXES
    def test_equals_index_set_reference(self, nranks, fmt, prec, direction, box):
        """Every rank's sweep — one blocking exchange, then the color
        blocks — is bitwise the index-set sweep on natural-order
        vectors behind the natural-order halo plan, on every local box
        (uneven and one-row color blocks included)."""

        def fn(comm):
            gs, halo_ex, prob, A = build_smoother(comm, fmt, prec, box)
            P = gs.partition
            rng = np.random.default_rng(5 + comm.rank)
            r = rng.standard_normal(prob.nlocal).astype(A.dtype)
            x_ref = np.zeros(A.ncols, dtype=A.dtype)
            x_ref[: prob.nlocal] = rng.standard_normal(prob.nlocal)
            x = level_order(P, x_ref)
            smooth_distributed(gs, halo_ex, level_order(P, r), x, direction)
            halo_ref = HaloExchange(prob.halo, comm)
            diag_sets = [gs.diag[rows] for rows in gs.sets]
            for d in steps(direction):
                halo_ref.exchange(x_ref)
                symgs_sweep(A, r, x_ref, gs.sets, diag_sets, d)
            return bool(np.array_equal(natural_order(P, x), x_ref))

        assert all(run_ranks(nranks, fn))


@BOTH_CLASSES
class TestZeroGuessSweep:
    """The first sweep after the V-cycle zeroes a level's iterate is
    told so — it posts no halo exchange and skips the first color's
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

    # Four ranks (a 1x2x2 grid) put edge and corner neighbors into
    # the skipped exchange, not only the one face of two ranks.
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @pytest.mark.parametrize("direction", ["forward", "backward", "symmetric"])
    @BOXES
    def test_bitwise_equal_to_sweep_from_explicit_zeros(
        self, nranks, fmt, prec, direction, box
    ):
        def fn(comm):
            gs, h, prob, A = build_smoother(comm, fmt, prec, box)
            h_ref = HaloExchange(prob.halo, comm)
            h_ref.renumber(gs.partition.rank)
            R = level_order(gs.partition, self.rhs(prob, A.dtype, comm.rank))
            X = np.zeros((A.ncols, 4), dtype=A.dtype, order="F")
            X_ref = X.copy(order="F")
            smooth_distributed_panel(gs, h, R, X, direction, zero_guess=True)
            smooth_distributed_panel(gs, h_ref, R, X_ref, direction)
            nsteps = len(steps(direction))
            return (
                bool(np.array_equal(X, X_ref)),
                bool(np.array_equal(np.signbit(X), np.signbit(X_ref))),
                bool(np.any(X[:, 0])),
                # One round fewer; on one rank there is nothing to count.
                (h.exchanges, h_ref.exchanges)
                == ((nsteps - 1, nsteps) if comm.size > 1 else (0, 0)),
            )

        assert run_ranks(nranks, fn) == [(True, True, True, True)] * nranks

    @pytest.mark.parametrize("fmt,prec", LAYOUT_PAIRS)
    @BOXES
    def test_skips_exactly_the_first_color(self, fmt, prec, box):
        prob, A, _, _, gs = layout_case(fmt, prec, "ghosted", Workspace(), box)
        R = level_order(gs.partition, self.rhs(prob, A.dtype, 0))
        passes = gs.partition.passes
        blocks = sum(blk.hi > blk.lo for blk in passes)
        first = {
            "forward": int(passes[0].hi > passes[0].lo),
            "backward": int(passes[-1].hi > passes[-1].lo),
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
        from repro.perf.scaling import ScalingModel

        def fn(comm, cfg, ncol):
            sub = Subdomain(BoxGrid(16, 16, 16), ProcessGrid(2, 1, 1), comm.rank)
            prob = generate_problem(sub)
            mg = MultigridPreconditioner.build(prob, comm, cfg)
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
                assert run_spmd(2, fn, cfg, ncol) == [
                    model.vcycle_halo_exchanges()
                ] * 2, (cfg, ncol)
        # ... and the restart cycle books them: (m + 1) V-cycles, m inner
        # products and the outer residual.
        model = ScalingModel(restart=30)
        assert model.cycle_halo_exchanges() == 31 * model.vcycle_halo_exchanges() + 31
        assert model.vcycle_halo_exchanges() == 6  # 10 before the zero-guess skip

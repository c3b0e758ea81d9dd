"""Ghost-aware partitioned format: structure, parity, allocations.

Covers the distributed-layout contract (owned columns first, ghost
columns packed at the tail, interior rows touching no ghost column)
and the cross-format / cross-precision parity of the interior+boundary SpMV against the
serial reference — each precision to its rung-appropriate tolerance.
"""

import numpy as np
import pytest
from helpers_distributed import smooth_vector
from helpers_distributed import RUNG_TOLS as TOLS

from repro.backends import Workspace
from repro.backends.dispatch import spmv_boundary, spmv_interior
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.sparse import partition_matrix, to_format, to_precision
from repro.stencil import generate_problem

FORMATS = ("csr", "ell")


def rank_problem(nranks: int = 8, rank: int = 0, dims=(4, 4, 4)):
    """One rank's problem on an ``nranks`` process grid (no comm)."""
    pg = ProcessGrid.from_size(nranks)
    sub = Subdomain(BoxGrid(*dims), pg, rank)
    return generate_problem(sub)


def full_vector_with_ghosts(prob) -> np.ndarray:
    """Owned + ghost values as a single-process halo fill would land them."""
    sub = prob.sub
    pg = sub.proc
    xfull = np.zeros(prob.halo.ncols)
    xfull[: sub.nlocal] = smooth_vector(sub)
    from repro.geometry.halo import opposite_direction

    for d in prob.halo.directions:
        nb = prob.halo.neighbor_ranks[d]
        nb_sub = Subdomain(sub.local, pg, nb)
        nb_halo = generate_problem(nb_sub).halo
        off = prob.halo.ghost_offsets[d]
        cnt = prob.halo.ghost_counts[d]
        seg = slice(sub.nlocal + off, sub.nlocal + off + cnt)
        xfull[seg] = smooth_vector(nb_sub)[nb_halo.send_indices[opposite_direction(d)]]
    return xfull


class TestPartitionStructure:
    def test_row_split_matches_halo_pattern(self):
        prob = rank_problem(8, rank=0)
        P = partition_matrix(prob.A, prob.halo)
        assert np.array_equal(P.interior_rows, prob.halo.interior_rows)
        assert np.array_equal(P.boundary_rows, prob.halo.boundary_rows)
        assert len(P.interior_rows) + len(P.boundary_rows) == P.nlocal
        assert P.ncols == prob.halo.ncols
        assert P.n_ghost == prob.halo.n_ghost

    def test_interior_block_references_no_ghost_column(self):
        """The defining overlap invariant: interior rows are computable
        before the exchange, i.e. their columns are all owned."""
        prob = rank_problem(8, rank=0)
        for fmt in FORMATS:
            P = partition_matrix(to_format(prob.A, fmt), prob.halo)
            csr = P.interior.to_csr()
            assert csr.indices.max(initial=0) < P.nlocal, fmt

    def test_boundary_block_covers_all_ghosts(self):
        """Every ghost column is referenced, and only by boundary rows."""
        prob = rank_problem(8, rank=0)
        P = partition_matrix(prob.A, prob.halo)
        cols = P.boundary.to_csr().indices
        ghost_cols = np.unique(cols[cols >= P.nlocal])
        assert len(ghost_cols) > 0
        full_ghosts = np.unique(
            prob.A.to_csr().indices[prob.A.to_csr().indices >= P.nlocal]
        )
        assert np.array_equal(ghost_cols, full_ghosts)

    def test_shape_mismatch_rejected(self):
        prob = rank_problem(8, rank=0)
        other = generate_problem(Subdomain.serial(4, 4, 4))
        with pytest.raises(ValueError, match="does not match"):
            partition_matrix(other.A, prob.halo)

    def test_interior_rows_count(self):
        prob = rank_problem(8, rank=0, dims=(8, 8, 8))
        P = partition_matrix(prob.A, prob.halo)
        # Corner rank of a 2x2x2 grid: 7^3 interior of 8^3 owned.
        assert len(P.interior_rows) == 343
        assert len(P.boundary_rows) == 512 - 343

    def test_serial_partition_has_empty_boundary(self):
        prob = generate_problem(Subdomain.serial(4, 4, 4))
        P = partition_matrix(prob.A, prob.halo)
        assert len(P.boundary_rows) == 0
        assert len(P.interior_rows) == 64


class TestPartitionedParity:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("prec", ["fp64", "fp32"])
    def test_interior_plus_boundary_matches_reference(self, fmt, prec):
        """Partitioned SpMV == serial fp64 reference, per-rung tolerance."""
        prob = rank_problem(8, rank=0)
        xfull = full_vector_with_ghosts(prob)
        ref = prob.A.spmv(xfull)  # fp64 ELL reference

        A = to_precision(to_format(prob.A, fmt), prec)
        P = partition_matrix(A, prob.halo)
        y = np.zeros(P.nlocal, dtype=A.dtype)
        xcast = xfull.astype(A.dtype)
        spmv_interior(P, xcast, out=y)
        spmv_boundary(P, xcast, out=y)
        rtol, atol = TOLS[prec]
        np.testing.assert_allclose(
            y.astype(np.float64), ref, rtol=rtol, atol=atol
        )

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_fp64_bitwise_vs_unpartitioned(self, fmt):
        """Blocks preserve each row's slot layout — ELL/CSR their
        within-row order — so the partitioned product is bitwise-equal
        to the unpartitioned SpMV in every format."""
        prob = rank_problem(8, rank=0)
        xfull = full_vector_with_ghosts(prob)
        A = to_format(prob.A, fmt)
        P = partition_matrix(A, prob.halo)
        assert np.array_equal(P.spmv(xfull), A.spmv(xfull))

    def test_full_spmv_equals_halves(self):
        prob = rank_problem(8, rank=0)
        xfull = full_vector_with_ghosts(prob)
        P = partition_matrix(prob.A, prob.halo)
        y_halves = np.zeros(P.nlocal)
        spmv_interior(P, xfull, out=y_halves)
        spmv_boundary(P, xfull, out=y_halves)
        assert np.array_equal(P.spmv(xfull), y_halves)

    def test_nnz_preserved(self):
        prob = rank_problem(8, rank=0)
        for fmt in FORMATS:
            A = to_format(prob.A, fmt)
            P = partition_matrix(A, prob.halo)
            assert P.nnz == A.nnz, fmt


class TestPartitionedWorkspace:
    def test_spmv_allocation_free_after_warmup(self):
        prob = rank_problem(8, rank=0)
        xfull = full_vector_with_ghosts(prob)
        P = partition_matrix(prob.A, prob.halo)
        ws = Workspace()
        y = np.zeros(P.nlocal)
        spmv_interior(P, xfull, out=y, ws=ws)
        spmv_boundary(P, xfull, out=y, ws=ws)
        misses0 = ws.misses
        for _ in range(3):
            spmv_interior(P, xfull, out=y, ws=ws)
            spmv_boundary(P, xfull, out=y, ws=ws)
        assert ws.misses == misses0
        assert ws.hits > 0

"""Unit tests for the 27-point problem generator."""

import numpy as np
import pytest

from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.geometry.halo import CENTER_SLOT, STENCIL_OFFSETS, build_halo_pattern
from repro.sparse.stats import (
    is_numerically_symmetric,
    is_structurally_symmetric,
    matrix_stats,
)
from repro.stencil import ProblemSpec, generate_problem, stencil_apply_dense
from repro.core.flops import stencil27_nnz


class TestSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="weird")

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            ProblemSpec(nonsym_delta=1.5)


class TestSymmetricMatrix:
    def test_diag_26_offdiag_minus1(self, problem16):
        s = matrix_stats(problem16.A)
        assert s.diag_min == s.diag_max == 26.0
        vals = problem16.A.vals
        off = vals[(vals != 0) & (vals != 26.0)]
        assert np.all(off == -1.0)

    def test_interior_rows_27_nnz(self, problem16):
        s = matrix_stats(problem16.A)
        assert s.max_row_nnz == 27
        assert s.min_row_nnz == 8  # corner: 2x2x2 neighborhood

    def test_weakly_diagonally_dominant(self, problem16):
        assert matrix_stats(problem16.A).weakly_diagonally_dominant

    def test_interior_row_sums_zero(self, problem16):
        """Interior rows: 26 - 26*1 = 0 (the Poisson-like null row sum)."""
        b = problem16.b
        interior = ~problem16.sub.local.boundary_mask()
        np.testing.assert_allclose(b[interior], 0.0, atol=1e-14)

    def test_boundary_rhs_positive(self, problem16):
        b = problem16.b
        boundary = problem16.sub.local.boundary_mask()
        assert np.all(b[boundary] > 0)

    def test_symmetry(self, problem16):
        assert is_structurally_symmetric(problem16.A)
        assert is_numerically_symmetric(problem16.A)

    def test_exact_solution_is_ones(self, problem16):
        np.testing.assert_allclose(
            problem16.A.spmv(np.ones(problem16.nlocal)), problem16.b
        )

    def test_nnz_formula(self, problem16):
        assert problem16.A.nnz == stencil27_nnz(16, 16, 16)

    def test_nnz_formula_rect(self, problem_rect):
        assert problem_rect.A.nnz == stencil27_nnz(5, 7, 4)

    def test_spmv_matches_matrix_free(self, problem_rect, rng):
        x = rng.standard_normal(problem_rect.nlocal)
        y1 = problem_rect.A.spmv(x)
        y2 = stencil_apply_dense(problem_rect.sub.global_grid, x)
        # atol floor scaled to the output: an individual entry may be a
        # near-complete cancellation, where elementwise rtol alone is
        # unsatisfiable at any summation order.
        np.testing.assert_allclose(
            y1, y2, rtol=1e-13, atol=1e-13 * np.abs(y2).max()
        )

    def test_spd(self, problem8):
        """The symmetric matrix is positive definite (CG's requirement)."""
        dense = problem8.A.to_dense()[:, : problem8.nlocal]
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > 0


class TestNonsymmetricMatrix:
    def test_not_symmetric(self, problem_nonsym16):
        assert is_structurally_symmetric(problem_nonsym16.A)  # same pattern
        assert not is_numerically_symmetric(problem_nonsym16.A, tol=1e-12)

    def test_still_weakly_dominant(self, problem_nonsym16):
        assert matrix_stats(problem_nonsym16.A).weakly_diagonally_dominant

    def test_lower_upper_values(self, problem_nonsym16):
        vals = problem_nonsym16.A.vals
        off = vals[(vals != 0) & (vals != 26.0)]
        assert set(np.round(np.unique(off), 10)) == {-1.3, -0.7}

    def test_matches_matrix_free(self):
        """Row ``i`` of the two products may differ by the roundoff of
        its own terms, ``1e-13 * (|A| |x|)_i`` — scale-aware, so a row
        that cancels to ~1e-3 is held to the size of what cancelled,
        not of what is left of it."""
        spec = ProblemSpec(kind="nonsymmetric", nonsym_delta=0.25)
        prob = generate_problem(Subdomain.serial(6, 5, 4), spec=spec)
        A = prob.A
        abs_A = type(A)(cols=A.cols, vals=np.abs(A.vals), ncols=A.ncols)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.standard_normal(prob.nlocal)
            err = A.spmv(x) - stencil_apply_dense(prob.sub.global_grid, x, spec=spec)
            assert np.all(np.abs(err) <= 1e-13 * abs_A.spmv(np.abs(x)))


class TestDistributedGeneration:
    def test_local_blocks_tile_serial_matrix(self, rng):
        """Distributed row blocks must equal the serial matrix's rows."""
        pg = ProcessGrid(2, 2, 2)
        serial = generate_problem(Subdomain.serial(8, 8, 8))
        x_serial = rng.standard_normal(512)
        y_serial = serial.A.spmv(x_serial)
        x3d = x_serial  # index by global linear id

        for rank in range(8):
            sub = Subdomain(BoxGrid(4, 4, 4), pg, rank)
            prob = generate_problem(sub)
            # Build the full local vector (owned + ghost) from x_serial.
            n = prob.nlocal
            xfull = np.zeros(prob.A.ncols)
            gx, gy, gz = sub.global_coords()
            gids = sub.global_grid.linear_index(gx, gy, gz)
            xfull[:n] = x3d[gids]
            # Fill ghosts by enumerating each direction block.
            for d in prob.halo.directions:
                nb = prob.halo.neighbor_ranks[d]
                nb_sub = Subdomain(BoxGrid(4, 4, 4), pg, nb)
                send_idx = prob.halo.send_indices[
                    d
                ]  # what *we* send; neighbor sends its opposite list
                from repro.geometry.halo import opposite_direction

                nb_halo_idx = generate_problem(nb_sub).halo.send_indices[
                    opposite_direction(d)
                ]
                ngx, ngy, ngz = nb_sub.global_coords()
                nb_gids = nb_sub.global_grid.linear_index(ngx, ngy, ngz)
                off = prob.halo.ghost_offsets[d]
                cnt = prob.halo.ghost_counts[d]
                xfull[n + off : n + off + cnt] = x3d[nb_gids[nb_halo_idx]]
            y_local = prob.A.spmv(xfull)
            np.testing.assert_allclose(y_local, y_serial[gids], rtol=1e-13)

    def test_rhs_globally_consistent(self):
        pg = ProcessGrid(2, 1, 1)
        serial = generate_problem(Subdomain.serial(8, 4, 4))
        for rank in range(2):
            sub = Subdomain(BoxGrid(4, 4, 4), pg, rank)
            prob = generate_problem(sub)
            gx, gy, gz = sub.global_coords()
            gids = sub.global_grid.linear_index(gx, gy, gz)
            np.testing.assert_allclose(prob.b, serial.b[gids])

    def test_dtype_option(self):
        prob = generate_problem(Subdomain.serial(4), dtype="fp32")
        assert prob.A.vals.dtype == np.float32


def per_point_reference(sub, spec):
    """The generator's output built one point and one slot at a time."""
    halo = build_halo_pattern(sub)
    gg = sub.global_grid
    n = sub.nlocal
    cols = np.zeros((n, 27), dtype=np.int32)
    vals = np.zeros((n, 27))
    for row in range(n):
        ix, iy, iz = (int(c) for c in sub.local.coords(row))
        gx, gy, gz = ix + sub.origin[0], iy + sub.origin[1], iz + sub.origin[2]
        for slot, (ox, oy, oz) in enumerate(STENCIL_OFFSETS):
            if not gg.contains(gx + ox, gy + oy, gz + oz):
                continue
            lx, ly, lz = (np.array([c]) for c in (ix + ox, iy + oy, iz + oz))
            cols[row, slot] = halo.ghost_columns(lx, ly, lz)[0]
            if slot == CENTER_SLOT:
                vals[row, slot] = spec.diag_value
            elif spec.kind == "symmetric":
                vals[row, slot] = spec.offdiag_value
            else:
                g_nb = gg.linear_index(gx + ox, gy + oy, gz + oz)
                d = spec.nonsym_delta
                scale = 1.0 + d if g_nb < gg.linear_index(gx, gy, gz) else 1.0 - d
                vals[row, slot] = spec.offdiag_value * scale
    return cols, vals, n + halo.n_ghost


@pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
@pytest.mark.parametrize("nranks", [1, 2])
def test_generator_matches_per_point_reference(kind, nranks):
    """Columns, values and rhs bitwise as a point-by-point build gives
    them: a 4^3 box serially, and both halves of an 8x4x4 box on a
    2x1x1 grid (ghost columns on the shared face)."""
    spec = ProblemSpec(kind=kind)
    pg = ProcessGrid(nranks, 1, 1)
    for rank in range(nranks):
        sub = Subdomain(BoxGrid(4, 4, 4), pg, rank)
        prob = generate_problem(sub, spec=spec)
        cols, vals, ncols = per_point_reference(sub, spec)
        assert prob.A.ncols == ncols
        assert np.array_equal(prob.A.cols, cols)
        assert prob.A.vals.tobytes() == vals.tobytes()
        assert prob.b.tobytes() == vals.sum(axis=1).tobytes()

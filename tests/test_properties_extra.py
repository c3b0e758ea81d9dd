"""Second round of property-based tests: halos, flop model, policies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flops import (
    LevelDims,
    flops_gmres_iteration,
    flops_gmres_solve,
    hierarchy_dims,
    stencil27_nnz,
)
from repro.core.metrics import penalty_factor
from repro.fp import DOUBLE_POLICY, Precision
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.geometry.halo import build_halo_pattern
from repro.mg.multigrid import MGConfig
from repro.perf.kernels import KernelModel
from repro.perf.network import halo_message_counts


class TestHaloProperties:
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
        st.integers(2, 5), st.integers(2, 5), st.integers(2, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_ghost_total_equals_send_total_globally(self, px, py, pz, nx, ny, nz):
        """Conservation: total ghosts == total sends across all ranks."""
        pg = ProcessGrid(px, py, pz)
        ghosts = sends = 0
        for r in range(pg.size):
            pat = build_halo_pattern(Subdomain(BoxGrid(nx, ny, nz), pg, r))
            ghosts += pat.n_ghost
            sends += pat.total_send_count
        assert ghosts == sends

    @given(st.integers(2, 8), st.integers(2, 8), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_middle_rank_surface_formula(self, nx, ny, nz):
        """The network model's surface-point count matches the real
        halo pattern of a middle rank."""
        pg = ProcessGrid(3, 3, 3)
        sub = Subdomain(BoxGrid(nx, ny, nz), pg, pg.coords_rank(1, 1, 1))
        pat = build_halo_pattern(sub)
        counts = halo_message_counts((nx, ny, nz))
        assert pat.total_send_count == counts["points"]
        assert len(pat.directions) == counts["messages"]

    @given(st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_interior_boundary_sizes(self, n):
        pg = ProcessGrid(3, 3, 3)
        sub = Subdomain(BoxGrid(n, n, n), pg, pg.coords_rank(1, 1, 1))
        pat = build_halo_pattern(sub)
        assert len(pat.interior_rows) == max(n - 2, 0) ** 3
        assert len(pat.boundary_rows) == n**3 - max(n - 2, 0) ** 3


class TestFlopModelProperties:
    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_nnz_bounds(self, nx, ny, nz):
        nnz = stencil27_nnz(nx, ny, nz)
        n = nx * ny * nz
        assert n <= nnz <= 27 * n

    @given(st.integers(8, 64).filter(lambda v: v % 8 == 0), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_iteration_flops_monotone_in_k(self, nx, k):
        dims = hierarchy_dims(nx, nx, nx, 4)
        cfg = MGConfig()
        f_k = sum(flops_gmres_iteration(dims, cfg, k).values())
        f_k1 = sum(flops_gmres_iteration(dims, cfg, k + 1).values())
        assert f_k1 > f_k

    @given(
        st.lists(st.integers(1, 30), min_size=0, max_size=6),
        st.integers(8, 32).filter(lambda v: v % 8 == 0),
    )
    @settings(max_examples=30, deadline=None)
    def test_solve_flops_additive_in_cycles(self, cycles, nx):
        dims = hierarchy_dims(nx, nx, nx, 4)
        cfg = MGConfig()
        total = sum(flops_gmres_solve(dims, cfg, cycles).values())
        parts = sum(
            sum(flops_gmres_solve(dims, cfg, [c]).values()) for c in cycles
        )
        assert total == parts


class TestKernelModelProperties:
    km = KernelModel()

    @given(st.integers(1, 10**7), st.sampled_from(["fp16", "fp32", "fp64"]))
    @settings(max_examples=40, deadline=None)
    def test_bytes_scale_linearly(self, n, prec):
        p = Precision.from_any(prec)
        one = self.km.spmv(n, p).nbytes
        two = self.km.spmv(2 * n, p).nbytes
        assert two == pytest.approx(2 * one, rel=1e-9)

    @given(st.integers(1, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_lower_precision_fewer_bytes(self, n):
        b = {
            p: self.km.gs_sweep(n, Precision.from_any(p)).nbytes
            for p in ("fp16", "fp32", "fp64")
        }
        assert b["fp16"] < b["fp32"] < b["fp64"]

    @given(st.integers(1, 10**6), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_ortho_ratio_exactly_two(self, n, k):
        b64 = self.km.ortho_cgs2_step(n, k, Precision.DOUBLE).nbytes
        b32 = self.km.ortho_cgs2_step(n, k, Precision.SINGLE).nbytes
        assert b64 == pytest.approx(2 * b32, rel=1e-12)


class TestMetricProperties:
    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_penalty_in_unit_interval(self, n_d, n_ir):
        p = penalty_factor(n_d, n_ir)
        assert 0 < p <= 1.0
        if n_ir <= n_d:
            assert p == 1.0

    @given(st.sampled_from(["fp32", "fp64"]))
    @settings(max_examples=10, deadline=None)
    def test_policy_low_roundtrip(self, prec):
        policy = DOUBLE_POLICY.with_low(prec)
        assert policy.low is Precision.from_any(prec)
        assert policy.residual_update is Precision.DOUBLE

"""Deeper tests of the scaling model's configuration space."""

import pytest

from repro.perf import NVIDIA_K80
from repro.perf.scaling import ScalingModel


class TestGeometryVariants:
    def test_level_dims_halve(self):
        m = ScalingModel(local_dims=(64, 32, 16), nlevels=3)
        assert m.level_local_dims(0) == (64, 32, 16)
        assert m.level_local_dims(1) == (32, 16, 8)
        assert m.level_local_dims(2) == (16, 8, 4)

    def test_interior_fraction(self):
        assert ScalingModel._interior_fraction((4, 4, 4)) == pytest.approx(8 / 64)
        assert ScalingModel._interior_fraction((2, 2, 2)) == 0.0

    def test_flop_dims_match_core(self):
        from repro.core.flops import stencil27_nnz

        m = ScalingModel(local_dims=(32, 32, 32))
        dims = m.level_dims_for_flops()
        assert dims[0].nnz == stencil27_nnz(32, 32, 32)
        assert dims[1].n == 16**3


class TestModeVariants:
    def test_three_modes_ordered(self):
        """half < single < double in cycle time."""
        m = ScalingModel()
        t16 = m.cycle_profile("mxp-half", 8).total_seconds
        t32 = m.cycle_profile("mxp", 8).total_seconds
        t64 = m.cycle_profile("double", 8).total_seconds
        assert t16 < t32 < t64

    def test_flops_identical_across_modes(self):
        """Precisions counted equally: same flop model for all modes."""
        m = ScalingModel()
        f32 = m.cycle_profile("mxp", 8).total_flops
        f64 = m.cycle_profile("double", 8).total_flops
        assert f32 == f64

    def test_gflops_per_gcd_rating_order(self):
        m = ScalingModel()
        assert m.gflops_per_gcd("mxp", 8) > m.gflops_per_gcd("double", 8)

    def test_comm_seconds_grow_with_ranks(self):
        m = ScalingModel()
        c1 = m.cycle_profile("mxp", 8).comm_seconds
        c2 = m.cycle_profile("mxp", 9408 * 8).comm_seconds
        assert c2 > c1


class TestRestartSensitivity:
    def test_longer_restart_higher_ortho_share(self):
        short = ScalingModel(restart=10)
        long = ScalingModel(restart=50)
        b_s = short.time_breakdown("mxp", 8)
        b_l = long.time_breakdown("mxp", 8)
        assert b_l["ortho"] > b_s["ortho"]

    def test_rating_changes_smoothly(self):
        g = [ScalingModel(restart=m).gflops_per_gcd("mxp", 8) for m in (10, 30, 50)]
        assert all(v > 0 for v in g)
        # Longer cycles amortize outer overhead but grow ortho: ratings
        # stay within a sane band.
        assert max(g) / min(g) < 1.6


class TestAblationFlags:
    def test_each_flag_independent(self):
        base = ScalingModel().gflops_per_gcd("mxp", 8)
        for kwargs in (
            {"matrix_format": "csr"},
            {"smoother": "levelsched"},
            {"fused_restrict": False},
            {"overlap": False},
            {"host_mixed_ops": True},
        ):
            g = ScalingModel(**kwargs).gflops_per_gcd("mxp", 8)
            assert g < base, kwargs

    def test_overlap_matters_only_with_ranks(self):
        """Without neighbors there is no communication to hide."""
        on = ScalingModel(overlap=True).gflops_per_gcd("mxp", 1)
        off = ScalingModel(overlap=False).gflops_per_gcd("mxp", 1)
        assert on == pytest.approx(off)

    def test_symgs_layout_charges_indirection(self):
        """The index-set layout streams row indices + staging; the
        color-partitioned layout does not."""
        from repro.fp.precision import Precision
        from repro.perf.kernels import KernelModel

        km = KernelModel()
        for prec in (Precision.SINGLE, Precision.DOUBLE):
            for panel in (1, 8):
                blocks = km.gs_sweep(32**3, prec, color_blocks=True, panel=panel)
                indexed = km.gs_sweep(32**3, prec, color_blocks=False, panel=panel)
                assert blocks.nbytes < indexed.nbytes

    def test_smoother_overlap_moves_no_symgs_bytes(self):
        """Every multicolor sweep runs on the color-packed layout, so the
        smoother's modelled halo window changes time, never bytes."""
        from repro.fp import MIXED_DS_POLICY

        on, off = ScalingModel(overlap_symgs=True), ScalingModel(overlap_symgs=False)
        for panel in (1, 8):
            assert on.cycle_symgs_bytes(MIXED_DS_POLICY, panel) == (
                off.cycle_symgs_bytes(MIXED_DS_POLICY, panel)
            )
            assert on.cycle_traffic_bytes(MIXED_DS_POLICY, panel=panel) == (
                off.cycle_traffic_bytes(MIXED_DS_POLICY, panel=panel)
            )
        assert on.gflops_per_gcd("mxp", 8) > off.gflops_per_gcd("mxp", 8)

    def test_host_mixed_ops_leaves_double_untouched(self):
        a = ScalingModel().cycle_profile("double", 8).total_seconds
        b = ScalingModel(host_mixed_ops=True).cycle_profile("double", 8).total_seconds
        assert a == pytest.approx(b)

    def test_invalid_flags(self):
        with pytest.raises(ValueError):
            ScalingModel(matrix_format="coo")
        with pytest.raises(ValueError):
            ScalingModel(smoother="jacobi")


class TestHPCGModel:
    def test_symmetric_sweep_slower_than_forward(self):
        fwd = ScalingModel().hpcg_iteration_profile(8).total_seconds
        sym = ScalingModel(sweep="symmetric").hpcg_iteration_profile(8).total_seconds
        assert sym > fwd

    def test_hpcg_below_hpgmxp_rating(self):
        hpcg = ScalingModel(sweep="symmetric").hpcg_gflops_per_gcd(8)
        mxp = ScalingModel().gflops_per_gcd("mxp", 8)
        assert hpcg < mxp

    def test_hpcg_efficiency_declines(self):
        m = ScalingModel(sweep="symmetric")
        g1 = m.hpcg_gflops_per_gcd(8)
        g2 = m.hpcg_gflops_per_gcd(9408 * 8)
        assert g2 < g1


class TestK80WeakScaling:
    def test_monotone_efficiency(self):
        m = ScalingModel(machine=NVIDIA_K80, local_dims=(128,) * 3)
        rows = m.weak_scaling_series([1, 2, 4, 8])
        effs = [r["efficiency"] for r in rows]
        assert all(a >= b for a, b in zip(effs, effs[1:]))

    def test_rating_far_below_frontier(self):
        k80 = ScalingModel(machine=NVIDIA_K80, local_dims=(128,) * 3)
        frontier = ScalingModel()
        assert (
            k80.gflops_per_gcd("mxp", 4)
            < 0.25 * frontier.gflops_per_gcd("mxp", 8)
        )


class TestHaloSplitModel:
    """The paper machine's halo window: bytes hidden behind compute
    versus exposed, by which overlap the model switches on."""

    def test_split_sums_to_halo_total(self):
        from repro.fp import MIXED_DS_POLICY

        for kwargs in ({}, {"overlap": False}, {"overlap_symgs": False}):
            model = ScalingModel(**kwargs)
            split = model.halo_traffic_split(MIXED_DS_POLICY)
            assert split["overlapped"] + split["exposed"] == pytest.approx(
                model.halo_traffic_bytes(MIXED_DS_POLICY)
            )

    def test_overlap_flags_move_bytes_between_buckets(self):
        from repro.fp import MIXED_DS_POLICY

        full = ScalingModel().halo_traffic_split(MIXED_DS_POLICY)
        no_gs = ScalingModel(overlap_symgs=False).halo_traffic_split(MIXED_DS_POLICY)
        none = ScalingModel(overlap=False).halo_traffic_split(MIXED_DS_POLICY)
        assert full["exposed"] == 0.0  # everything scheduled over compute
        assert no_gs["exposed"] > 0.0  # the sweeps' exchanges exposed
        assert none["overlapped"] == 0.0
        assert none["exposed"] > no_gs["exposed"]

"""Unit tests for the kernel-backend layer (registry, dispatch, arenas)."""

import numpy as np
import pytest

from repro.backends import (
    KernelNotFoundError,
    Workspace,
    active_backend,
    available_backends,
    registered_formats,
)
from repro.backends.registry import KernelRegistry
from repro.backends import dispatch
from repro.fp.precision import Precision


class TestRegistry:
    def make_registry(self):
        reg = KernelRegistry()
        reg.register_backend("numpy", priority=0)
        return reg

    def test_register_and_lookup(self):
        reg = self.make_registry()

        @reg.register("spmv", fmt="ell")
        def k(*a, **kw):
            return "ell-any"

        assert reg.lookup("spmv", "ell", "fp64") is k
        assert reg.lookup("spmv", "ell", "fp32") is k

    def test_specific_precision_wins(self):
        reg = self.make_registry()

        @reg.register("spmv", fmt="ell")
        def generic(*a, **kw):
            pass

        @reg.register("spmv", fmt="ell", precision="fp32")
        def fp32_kernel(*a, **kw):
            pass

        assert reg.lookup("spmv", "ell", Precision.SINGLE) is fp32_kernel
        assert reg.lookup("spmv", "ell", Precision.DOUBLE) is generic

    def test_wildcard_format_fallback(self):
        reg = self.make_registry()

        @reg.register("dot")
        def generic(*a, **kw):
            pass

        assert reg.lookup("dot", "csr", "fp64") is generic

    def test_backend_fallback_to_numpy(self):
        reg = self.make_registry()

        @reg.register("spmv", fmt="csr")
        def numpy_kernel(*a, **kw):
            pass

        reg.register_backend("fancy", priority=5)

        @reg.register("spmv", fmt="ell", backend="fancy")
        def fancy_ell(*a, **kw):
            pass

        reg.set_backend("fancy")
        # fancy has no csr kernel -> falls back to numpy's.
        assert reg.lookup("spmv", "csr", "fp64") is numpy_kernel
        assert reg.lookup("spmv", "ell", "fp64") is fancy_ell

    def test_missing_kernel_error_lists_registered(self):
        reg = self.make_registry()

        @reg.register("spmv", fmt="ell")
        def k(*a, **kw):
            pass

        with pytest.raises(KernelNotFoundError, match="ell"):
            reg.lookup("frobnicate", "ell", "fp64")

    def test_unknown_backend_raises(self):
        reg = self.make_registry()
        with pytest.raises(KernelNotFoundError, match="numpy"):
            reg.set_backend("gpu")

    def test_autoselect_honors_env(self, monkeypatch):
        reg = self.make_registry()
        reg.register_backend("fast", priority=99)
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert reg.autoselect_backend() == "numpy"
        monkeypatch.delenv("REPRO_BACKEND")
        assert reg.autoselect_backend() == "fast"

    def test_resolution_precedence_full_chain(self):
        """Most-specific key wins: (fmt, prec) beats (fmt, None) beats
        (None, prec) beats the full wildcard."""
        reg = self.make_registry()

        @reg.register("spmv")
        def full_wildcard(*a, **kw):
            pass

        @reg.register("spmv", precision="fp32")
        def prec_wildcard(*a, **kw):
            pass

        @reg.register("spmv", fmt="ell")
        def fmt_wildcard(*a, **kw):
            pass

        @reg.register("spmv", fmt="ell", precision="fp32")
        def exact(*a, **kw):
            pass

        assert reg.lookup("spmv", "ell", "fp32") is exact
        assert reg.lookup("spmv", "ell", "fp64") is fmt_wildcard
        assert reg.lookup("spmv", "csr", "fp32") is prec_wildcard
        assert reg.lookup("spmv", "csr", "fp64") is full_wildcard
        assert reg.lookup("spmv", None, None) is full_wildcard

    def test_cache_hit_is_one_probe_and_spellings_share_a_resolution(
        self, monkeypatch
    ):
        """A repeated lookup touches neither the precision normaliser nor
        the resolution chain; every spelling of one key resolves, and is
        wrapped, once."""
        reg = self.make_registry()

        @reg.register("spmv", fmt="ell", precision="fp32")
        def k(*a, **kw):
            pass

        wrapped = []

        def wrapper(op, fn):
            wrapped.append(op)
            return fn

        reg.set_wrapper(wrapper)
        assert reg.lookup("spmv", "ell", Precision.SINGLE) is k
        for spelling in ("fp32", np.dtype(np.float32), np.float32, "single"):
            assert reg.lookup("spmv", "ell", spelling) is k
        assert reg.lookup("spmv", "ell", "fp32", backend="numpy") is k
        assert wrapped == ["spmv"]

        def boom(*a, **kw):
            raise AssertionError("a cache hit normalised its key")

        monkeypatch.setattr(Precision, "from_any", boom)
        monkeypatch.setattr(reg, "_resolve", boom)
        assert reg.lookup("spmv", "ell", Precision.SINGLE) is k
        assert reg.lookup("spmv", "ell", "fp32") is k

    def test_format_wildcard_beats_precision_wildcard(self):
        """When both partial wildcards match, the format-specific
        registration wins (it sits earlier in the chain)."""
        reg = self.make_registry()

        @reg.register("spmv", fmt="ell")
        def fmt_wildcard(*a, **kw):
            pass

        @reg.register("spmv", precision="fp32")
        def prec_wildcard(*a, **kw):
            pass

        assert reg.lookup("spmv", "ell", "fp32") is fmt_wildcard

    def test_env_override_beats_priority_autodetection(self, monkeypatch):
        """REPRO_BACKEND wins over priority-based auto-detection even
        when a much higher-priority backend is registered."""
        reg = self.make_registry()
        reg.register_backend("turbo", priority=1000)
        reg.register_backend("slowpoke", priority=-5)
        monkeypatch.setenv("REPRO_BACKEND", "slowpoke")
        assert reg.autoselect_backend() == "slowpoke"
        assert reg.active_backend == "slowpoke"
        monkeypatch.setenv("REPRO_BACKEND", "missing")
        with pytest.raises(KernelNotFoundError, match="missing"):
            reg.autoselect_backend()

    def test_process_registry_has_all_formats(self):
        assert set(registered_formats()) >= {"csr", "ell"}
        assert "numpy" in available_backends()
        assert active_backend() in available_backends()

    def test_panel_ops_resolve_for_every_format(self):
        """Every panel motif resolves from the process registry at
        every rung, on the layouts the engine dispatches it on: the
        products on the storage formats, the sweep on the color-packed
        layout only — a plain matrix has no panel sweep."""
        from repro.backends.registry import registry as proc_reg

        for prec in ("fp64", "fp32"):
            for fmt in ("csr", "ell"):
                assert proc_reg.lookup("spmv_multi", fmt, prec) is not None
                assert proc_reg.lookup("fused_restrict", fmt, prec) is not None
                with pytest.raises(KernelNotFoundError):
                    proc_reg.lookup("symgs_sweep_multi", fmt, prec)
            assert proc_reg.lookup("symgs_sweep_multi", "color_partitioned", prec)
            for op in ("dot_multi", "waxpby_dot_multi", "gemv_sub_dot", "prolong"):
                assert proc_reg.lookup(op, None, prec) is not None

    def test_registry_holds_only_dispatched_ops(self):
        """The ops nothing dispatched are gone, not kept beside; the
        row-subset family is ELL plus one reference; and no kernel is
        registered for a precision off the solver ladder."""
        from repro.backends.registry import registry as proc_reg

        ops = proc_reg.ops()
        assert len(ops) == 17
        for retired in (
            "spmv_dot",
            "spmv_dot_multi",
            "waxpby_multi",
            "symgs_interior",
            "symgs_interior_multi",
            "symgs_boundary",
            "symgs_boundary_multi",
            "spmv_interior_multi",
            "spmv_boundary_multi",
        ):
            assert retired not in ops and not hasattr(dispatch, retired)
        assert [v for v in proc_reg.available_variants("spmv_rows")
                if v[2] == "numpy"] == [
            (None, None, "numpy"), ("ell", None, "numpy"),
        ]
        for op in ops:
            assert all(
                prec in (None, "fp32", "fp64")
                for _, prec, _ in proc_reg.available_variants(op)
            ), op

    def test_compiled_registrations_gated_on_the_private_import(self):
        """The optional backend registers only when its import works:
        the SciPy row products exist iff ``csr_matvec`` imported, and a
        key the backend does not claim (CSR row subsets, the sweep)
        falls back to the reference registration instead of erroring."""
        from repro.backends import scipy_backend
        from repro.backends.registry import registry as proc_reg

        have = scipy_backend.csr_matvec is not None
        assert ("scipy" in proc_reg.backends()) == have
        if not have:
            return
        for op, fmt, prec, own in (
            ("spmv", "ell", "fp64", True),
            ("spmv_multi", "ell", "fp32", True),
            ("spmv_multi", "csr", "fp64", True),
            ("spmv_rows", "ell", "fp32", True),
            ("spmv_rows", "csr", "fp64", False),
            ("symgs_sweep", "color_partitioned", "fp64", False),
        ):
            fn = proc_reg.lookup(op, fmt, prec, backend="scipy")
            assert (fn.__module__ == "repro.backends.scipy_backend") == own


class TestWorkspace:
    def test_reuse_and_counters(self):
        ws = Workspace("t")
        a = ws.get("buf", 16, np.float64)
        b = ws.get("buf", 16, np.float64)
        assert a is b
        assert ws.misses == 1 and ws.hits == 1

    def test_distinct_keys(self):
        ws = Workspace()
        a = ws.get("buf", 16, np.float64)
        assert ws.get("buf", 16, np.float32) is not a
        assert ws.get("buf", 17, np.float64) is not a
        assert ws.get("other", 16, np.float64) is not a
        assert ws.nbuffers == 4

    def test_zeros(self):
        ws = Workspace()
        a = ws.zeros("z", 8, np.float64)
        a += 5.0
        assert ws.zeros("z", 8, np.float64).sum() == 0.0

    def test_nbytes_and_clear(self):
        ws = Workspace()
        ws.get("a", 10, np.float64)
        assert ws.nbytes == 80
        ws.clear()
        assert ws.nbuffers == 0 and ws.nbytes == 0


class TestDispatch:
    def test_matrix_format_of_all_classes(self, problem16):
        A = problem16.A
        assert dispatch.matrix_format(A) == "ell"
        assert dispatch.matrix_format(A.to_csr()) == "csr"

    def test_matrix_format_rejects_unknown(self):
        with pytest.raises(TypeError, match="registered formats"):
            dispatch.matrix_format(np.zeros(3))

    def test_spmv_matches_method(self, problem16, rng):
        x = rng.standard_normal(problem16.A.ncols)
        np.testing.assert_array_equal(
            dispatch.spmv(problem16.A, x), problem16.A.spmv(x)
        )

    def test_waxpby_fresh_out(self, rng):
        x = rng.standard_normal(32)
        y = rng.standard_normal(32)
        out = np.empty(32)
        dispatch.waxpby(2.0, x, -3.0, y, out=out)
        np.testing.assert_allclose(out, 2.0 * x - 3.0 * y)

    @pytest.mark.parametrize("use_ws", [False, True])
    def test_waxpby_aliased_out(self, rng, use_ws):
        ws = Workspace() if use_ws else None
        x = rng.standard_normal(32)
        for alpha, beta in [(2.0, 1.0), (1.0, 0.5), (0.25, -1.5)]:
            y = rng.standard_normal(32)
            expect = alpha * x + beta * y
            got = dispatch.waxpby(alpha, x, beta, y, out=y, ws=ws)
            assert got is y
            np.testing.assert_allclose(got, expect)
            # out aliasing x instead of y
            x2 = x.copy()
            y2 = rng.standard_normal(32)
            expect = alpha * x2 + beta * y2
            got = dispatch.waxpby(alpha, x2, beta, y2, out=x2, ws=ws)
            np.testing.assert_allclose(got, expect)

    def test_gemv_gemvT_with_out(self, rng):
        Q = rng.standard_normal((50, 8))
        coef = rng.standard_normal(5)
        out = np.empty(50)
        dispatch.gemv(Q, 5, coef, out=out)
        np.testing.assert_allclose(out, Q[:, :5] @ coef)
        w = rng.standard_normal(50)
        h = np.empty(5)
        dispatch.gemvT(Q, 5, w, out=h)
        np.testing.assert_allclose(h, Q[:, :5].T @ w)

    def test_dot(self, rng):
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        assert dispatch.dot(a, b) == pytest.approx(float(a @ b))

    @pytest.mark.parametrize("use_ws", [False, True])
    def test_prolong(self, rng, use_ws):
        ws = Workspace() if use_ws else None
        xfull = rng.standard_normal(40)
        z_c = rng.standard_normal(5)
        f_c = np.array([3, 9, 14, 22, 37])
        expect = xfull.copy()
        expect[f_c] += z_c
        dispatch.prolong(xfull, z_c, f_c, ws=ws)
        np.testing.assert_allclose(xfull, expect)

    @pytest.mark.parametrize("use_ws", [False, True])
    @pytest.mark.parametrize("prec", ["fp64", "fp32"])
    def test_prolong_panel_columns_equal_solo(self, use_ws, prec):
        """One dispatch prolongs the whole panel; each column is
        bitwise the single-vector op on it."""
        rng = np.random.default_rng(11)
        ws = Workspace() if use_ws else None
        dtype = np.dtype(prec.replace("fp", "float"))
        X = np.asfortranarray(rng.standard_normal((40, 3)).astype(dtype))
        Z = np.asfortranarray(rng.standard_normal((5, 3)).astype(dtype))
        f_c = np.array([3, 9, 14, 22, 37])
        before = X.copy(order="F")
        solo = X.copy(order="F")
        for j in range(3):
            dispatch.prolong(solo[:, j], Z[:, j], f_c, ws=ws)
        dispatch.prolong(X, Z, f_c, ws=ws)
        assert np.array_equal(X, solo)
        assert not np.array_equal(X, before)

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_fused_restrict_out_ws(self, problem16, rng, fmt):
        from repro.sparse import to_format

        A = to_format(problem16.A, fmt)
        xfull = rng.standard_normal(A.ncols)
        r = rng.standard_normal(A.nrows)
        f_c = np.arange(0, A.nrows, 8)
        expect = r[f_c] - (problem16.A.to_csr().to_scipy() @ xfull)[f_c]
        from repro.sparse.partitioned import extract_rows

        A_c = extract_rows(A, f_c)  # packed once, as MG setup does
        ws = Workspace()
        out = np.empty(len(f_c))
        dispatch.fused_restrict(A_c, r, xfull, f_c, out=out, ws=ws)
        np.testing.assert_allclose(out, expect, rtol=1e-12)
        np.testing.assert_allclose(
            dispatch.fused_restrict(A_c, r, xfull, f_c), expect, rtol=1e-12
        )
        misses = ws.misses
        dispatch.fused_restrict(A_c, r, xfull, f_c, out=out, ws=ws)
        assert ws.misses == misses  # scratch is pooled

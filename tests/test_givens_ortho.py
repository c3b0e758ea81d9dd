"""Unit tests for Givens QR and orthogonalization kernels."""

import numpy as np
import pytest

from repro.parallel import SerialComm
from repro.solvers import GivensQR, cgs, cgs2, givens_coefficients, mgs
from repro.solvers.ortho import orthogonality_loss


class TestGivensCoefficients:
    def test_annihilates_b(self):
        c, s, r = givens_coefficients(3.0, 4.0)
        assert -s * 3.0 + c * 4.0 == pytest.approx(0.0, abs=1e-15)
        assert c * 3.0 + s * 4.0 == pytest.approx(r)
        assert r == pytest.approx(5.0)

    def test_b_zero(self):
        assert givens_coefficients(2.0, 0.0) == (1.0, 0.0, 2.0)

    def test_a_zero(self):
        assert givens_coefficients(0.0, 2.0) == (0.0, 1.0, 2.0)

    def test_norm_preserved(self):
        c, s, r = givens_coefficients(-1.7, 2.9)
        assert c * c + s * s == pytest.approx(1.0)
        assert abs(r) == pytest.approx(np.hypot(1.7, 2.9))


class TestGivensQR:
    def build_hessenberg(self, m, seed=0):
        rng = np.random.default_rng(seed)
        H = np.zeros((m + 1, m))
        for j in range(m):
            H[: j + 2, j] = rng.standard_normal(j + 2)
        return H

    def test_implicit_residual_matches_lstsq(self):
        """|t_{k+1}| must equal the least-squares residual norm."""
        m, beta = 6, 2.3
        H = self.build_hessenberg(m)
        qr = GivensQR(m)
        qr.start(beta)
        for j in range(m):
            rho = qr.add_column(H[: j + 2, j])
            e1 = np.zeros(j + 2)
            e1[0] = beta
            _, res, *_ = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)
            expected = np.sqrt(res[0]) if len(res) else np.linalg.norm(
                e1
                - H[: j + 2, : j + 1]
                @ np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)[0]
            )
            assert rho == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_solve_matches_lstsq(self):
        m, beta = 5, 1.0
        H = self.build_hessenberg(m, seed=3)
        qr = GivensQR(m)
        qr.start(beta)
        for j in range(m):
            qr.add_column(H[: j + 2, j])
        y = qr.solve()
        e1 = np.zeros(m + 1)
        e1[0] = beta
        y_ref = np.linalg.lstsq(H, e1, rcond=None)[0]
        np.testing.assert_allclose(y, y_ref, rtol=1e-10)

    def test_partial_solve(self):
        m = 5
        H = self.build_hessenberg(m, seed=4)
        qr = GivensQR(m)
        qr.start(1.0)
        for j in range(3):
            qr.add_column(H[: j + 2, j])
        y = qr.solve(3)
        e1 = np.zeros(4)
        e1[0] = 1.0
        y_ref = np.linalg.lstsq(H[:4, :3], e1, rcond=None)[0]
        np.testing.assert_allclose(y, y_ref, rtol=1e-10)

    def test_zero_column_solve(self):
        qr = GivensQR(3)
        qr.start(1.0)
        assert qr.solve(0).size == 0

    def test_overflow_cycle_rejected(self):
        qr = GivensQR(1)
        qr.start(1.0)
        qr.add_column(np.array([1.0, 0.5]))
        with pytest.raises(RuntimeError):
            qr.add_column(np.array([1.0, 0.5, 0.2]))

    def test_wrong_column_length(self):
        qr = GivensQR(3)
        qr.start(1.0)
        with pytest.raises(ValueError):
            qr.add_column(np.array([1.0]))


class TestOrthogonalization:
    def setup_basis(self, n=200, k=8, dtype=np.float64, seed=0):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, k + 1)))[0].astype(dtype)
        w = rng.standard_normal(n).astype(dtype)
        return Q.copy(), w

    @pytest.mark.parametrize("method", [cgs, cgs2, mgs])
    def test_orthogonalizes(self, method):
        Q, w = self.setup_basis()
        comm = SerialComm()
        method(comm, Q, 8, w)
        # After projection, w is orthogonal to the basis columns.
        assert np.abs(Q[:, :8].T @ w).max() < 1e-12

    @pytest.mark.parametrize("method", [cgs, cgs2, mgs])
    def test_coefficients_match_projection(self, method):
        Q, w = self.setup_basis(seed=5)
        w0 = w.copy()
        comm = SerialComm()
        h = method(comm, Q, 8, w)
        np.testing.assert_allclose(h, Q[:, :8].T @ w0, rtol=1e-10, atol=1e-12)

    def test_cgs2_beats_cgs_in_fp32(self):
        """The benchmark's motivation: CGS loses orthogonality in low
        precision; CGS2's reorthogonalization restores it."""
        n, m = 400, 25
        rng = np.random.default_rng(42)
        # An ill-conditioned Krylov-ish sequence of vectors.
        base = rng.standard_normal(n).astype(np.float32)
        comm = SerialComm()

        def run(method):
            Q = np.zeros((n, m + 1), dtype=np.float32)
            v = base / np.linalg.norm(base)
            Q[:, 0] = v
            M = rng.standard_normal((n, n)).astype(np.float32) * 0.01 + np.eye(
                n, dtype=np.float32
            )
            for k in range(1, m + 1):
                w = M @ Q[:, k - 1]
                method(comm, Q, k, w)
                nw = np.linalg.norm(w)
                Q[:, k] = w / nw
            return orthogonality_loss(Q, m + 1)

        loss_cgs = run(cgs)
        loss_cgs2 = run(cgs2)
        assert loss_cgs2 < loss_cgs
        assert loss_cgs2 < 1e-5

    def test_orthogonality_loss_of_identityish(self):
        Q, _ = self.setup_basis()
        assert orthogonality_loss(Q, 8) < 1e-14


class TestFusedCGS2:
    """PR 6 satellite: the fused projection+norm motif is bitwise-equal
    to the unfused CGS2 followed by a local dot."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fused_matches_unfused_bitwise(self, dtype):
        from repro.backends.workspace import Workspace
        from repro.solvers.ortho import cgs2_fused

        n, k = 200, 8
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((n, k + 1)))[0].astype(dtype)
        w0 = rng.standard_normal(n).astype(dtype)
        comm = SerialComm()

        from repro.backends.dispatch import dot

        w_ref = w0.copy()
        h_ref = cgs2(comm, Q.copy(), k, w_ref, ws=Workspace())
        # The unfused sequence ends with the registry's local dot (the
        # rung's own accumulation) — the fused motif must match *that*.
        local_ref = dot(w_ref, w_ref)

        w_fused = w0.copy()
        h_fused, local = cgs2_fused(comm, Q.copy(), k, w_fused, ws=Workspace())
        assert np.array_equal(w_fused, w_ref)
        assert np.array_equal(h_fused, h_ref)
        assert local == local_ref

    def test_fused_without_workspace(self):
        from repro.backends.dispatch import dot
        from repro.solvers.ortho import cgs2_fused

        n, k = 64, 4
        rng = np.random.default_rng(7)
        Q = np.linalg.qr(rng.standard_normal((n, k + 1)))[0]
        w = rng.standard_normal(n)
        w_ref = w.copy()
        h_ref = cgs2(SerialComm(), Q.copy(), k, w_ref)
        h, local = cgs2_fused(SerialComm(), Q.copy(), k, w)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(h, h_ref)
        assert local == dot(w_ref, w_ref)

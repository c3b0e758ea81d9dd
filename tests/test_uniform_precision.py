"""Tests for the uniform-precision counter-example solver.

These encode the benchmark's *raison d'être*: without the double outer
updates of Algorithm 3, a low-precision GMRES cannot deliver the nine
orders of residual reduction — which is exactly why HPG-MxP mandates
lines 7 and 47 in double.
"""

import numpy as np
import pytest

from repro.fp import MIXED_DS_POLICY
from repro.parallel import SerialComm
from repro.solvers import gmres_solve, uniform_precision_gmres
from repro.stencil import generate_problem
from repro.geometry import Subdomain


class TestUniformFP32:
    @pytest.fixture(scope="class")
    def stalled(self, problem16):
        return uniform_precision_gmres(
            problem16, SerialComm(), precision="fp32", tol=1e-9, maxiter=300
        )

    def test_does_not_reach_1e9(self, stalled):
        _, stats = stalled
        assert not stats.converged
        assert stats.residual_floor > 1e-8

    def test_does_reach_fp32_level(self, stalled):
        """It is not broken — it converges to the fp32 floor."""
        _, stats = stalled
        assert stats.residual_floor < 1e-4

    def test_solution_accurate_to_fp32_level(self, stalled):
        x, _ = stalled
        err = np.abs(x.astype(np.float64) - 1.0).max()
        assert 1e-8 < err < 1e-3

    def test_gmres_ir_succeeds_where_uniform_fails(self, problem16, comm):
        """The head-to-head that motivates the benchmark."""
        _, uniform = uniform_precision_gmres(
            problem16, SerialComm(), precision="fp32", tol=1e-9, maxiter=300
        )
        _, ir = gmres_solve(
            problem16, comm, policy=MIXED_DS_POLICY, tol=1e-9, maxiter=300
        )
        assert not uniform.converged
        assert ir.converged
        assert ir.final_relres < 1e-9 < uniform.final_relres

    def test_uniform_fp64_converges(self, problem16):
        """In fp64 the 'uniform' solver is just GMRES and must work."""
        x, stats = uniform_precision_gmres(
            problem16, SerialComm(), precision="fp64", tol=1e-9, maxiter=300
        )
        assert stats.converged
        assert np.abs(x - 1.0).max() < 1e-6

    def test_zero_rhs(self):
        prob = generate_problem(Subdomain.serial(8, 8, 8))
        prob.b[:] = 0.0
        x, stats = uniform_precision_gmres(
            prob, SerialComm(), precision="fp32", tol=1e-9, maxiter=10
        )
        assert stats.converged
        assert np.all(x == 0)
        prob.b[:] = prob.A.vals.sum(axis=1)  # restore for other tests

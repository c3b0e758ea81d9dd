"""Operator-keyed setup cache (PR 6): hit/miss/invalidation semantics.

The cache keys every derived setup product (format conversion,
low-precision copy, partition, MG hierarchy) by a content fingerprint
of the source matrix, so a second solver bound to the same operator
reuses everything while an in-place mutation — a new fingerprint —
misses cleanly.
"""

import numpy as np
import pytest

from repro.fp import MIXED_DS_POLICY
from repro.geometry import Subdomain
from repro.mg import MGConfig
from repro.parallel import SerialComm
from repro.solvers import GMRESIRSolver
from repro.solvers.cg import PCGSolver
from repro.solvers.setup_cache import (
    SetupCache,
    default_setup_cache,
    operator_fingerprint,
)
from repro.stencil import generate_problem


@pytest.fixture()
def problem():
    return generate_problem(Subdomain.serial(8, 8, 8))


class TestFingerprint:
    def test_stable_and_content_addressed(self, problem):
        f1 = operator_fingerprint(problem.A)
        assert f1 == operator_fingerprint(problem.A)
        # A rebuilt-but-equal operator collides on purpose.
        other = generate_problem(Subdomain.serial(8, 8, 8))
        assert operator_fingerprint(other.A) == f1

    def test_mutation_changes_fingerprint(self, problem):
        f1 = operator_fingerprint(problem.A)
        prob2 = generate_problem(Subdomain.serial(8, 8, 8))
        prob2.A.vals[0, 0] += 1.0
        assert operator_fingerprint(prob2.A) != f1

    def test_different_shape_differs(self, problem):
        other = generate_problem(Subdomain.serial(4, 4, 4))
        assert operator_fingerprint(other.A) != operator_fingerprint(problem.A)


class TestSetupCacheMechanics:
    def test_get_or_build_hits_and_misses(self):
        cache = SetupCache()
        built = []

        def builder():
            built.append(1)
            return object()

        v1 = cache.get_or_build("fp", "mg", (1,), builder)
        v2 = cache.get_or_build("fp", "mg", (1,), builder)
        assert v1 is v2
        assert built == [1]
        assert (cache.hits, cache.misses) == (1, 1)
        # Different params: a distinct product.
        cache.get_or_build("fp", "mg", (2,), builder)
        assert cache.misses == 2

    def test_invalidate_by_fingerprint(self):
        cache = SetupCache()
        cache.get_or_build("a", "mg", (), lambda: 1)
        cache.get_or_build("a", "part", (), lambda: 2)
        cache.get_or_build("b", "mg", (), lambda: 3)
        assert cache.invalidate("a") == 2
        assert cache.entries == 1
        assert cache.invalidate() == 1
        assert cache.entries == 0

    def test_fifo_eviction_is_bounded(self):
        cache = SetupCache(max_entries=2)
        cache.get_or_build("a", "k", (), lambda: 1)
        cache.get_or_build("b", "k", (), lambda: 2)
        cache.get_or_build("c", "k", (), lambda: 3)
        assert cache.entries == 2
        # "a" (the oldest) was evicted: rebuilding it misses.
        cache.get_or_build("a", "k", (), lambda: 4)
        assert cache.misses == 4

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            SetupCache(max_entries=0)

    def test_default_cache_is_shared(self):
        assert default_setup_cache() is default_setup_cache()


class TestSolverIntegration:
    def test_second_solver_reuses_every_product(self, problem):
        cache = SetupCache()
        kw = dict(policy=MIXED_DS_POLICY, mg_config=MGConfig(nlevels=2), restart=10)
        GMRESIRSolver(problem, SerialComm(), setup_cache=cache, **kw)
        misses_after_first = cache.misses
        assert cache.hits == 0 and misses_after_first > 0
        s2 = GMRESIRSolver(problem, SerialComm(), setup_cache=cache, **kw)
        assert cache.misses == misses_after_first  # nothing rebuilt
        assert cache.hits == misses_after_first  # every product reused
        # The reused pieces still solve.
        x, stats = s2.solve(problem.b, tol=0.0, maxiter=5)
        assert np.isfinite(x).all()
        assert stats.setup_cache_hits == cache.hits
        assert stats.setup_cache_misses == cache.misses

    def test_cached_solver_matches_uncached_bitwise(self, problem):
        kw = dict(policy=MIXED_DS_POLICY, mg_config=MGConfig(nlevels=2), restart=10)
        cache = SetupCache()
        GMRESIRSolver(problem, SerialComm(), setup_cache=cache, **kw)
        cached = GMRESIRSolver(problem, SerialComm(), setup_cache=cache, **kw)
        plain = GMRESIRSolver(problem, SerialComm(), **kw)
        xc, _ = cached.solve(problem.b, tol=0.0, maxiter=10)
        xp, _ = plain.solve(problem.b, tol=0.0, maxiter=10)
        assert np.array_equal(xc, xp)

    def test_cached_hierarchy_owns_its_arena(self, problem):
        """The cached hierarchy outlives the solver that built it and is
        acquired by solvers holding other arenas; had it kept the
        builder's (pool-leased) arena, the next lease of that arena
        would share scratch with it across threads."""
        from repro.backends.workspace import Workspace

        kw = dict(policy=MIXED_DS_POLICY, mg_config=MGConfig(nlevels=2), restart=10)
        cache = SetupCache()
        lease1, lease2 = Workspace("lease-1"), Workspace("lease-2")
        s1 = GMRESIRSolver(
            problem, SerialComm(), setup_cache=cache, workspace=lease1, **kw
        )
        s2 = GMRESIRSolver(
            problem, SerialComm(), setup_cache=cache, workspace=lease2, **kw
        )
        assert s2.M is s1.M
        assert s1.M.ws is not lease1 and s1.M.ws is not lease2
        assert all(lv.smoother.ws is s1.M.ws for lv in s1.M.levels)
        # Without a cache nothing outlives the solver: one arena serves
        # the Krylov loop and the hierarchy.
        plain = GMRESIRSolver(problem, SerialComm(), workspace=lease1, **kw)
        assert plain.M.ws is lease1

    def test_mutated_operator_misses(self, problem):
        cache = SetupCache()
        kw = dict(policy=MIXED_DS_POLICY, mg_config=MGConfig(nlevels=2), restart=10)
        GMRESIRSolver(problem, SerialComm(), setup_cache=cache, **kw)
        misses1 = cache.misses
        mutated = generate_problem(Subdomain.serial(8, 8, 8))
        mutated.A.vals[0, 0] += 1.0
        GMRESIRSolver(mutated, SerialComm(), setup_cache=cache, **kw)
        assert cache.hits == 0  # new fingerprint: no stale reuse
        assert cache.misses == 2 * misses1

    def test_different_config_params_do_not_collide(self, problem):
        cache = SetupCache()
        kw = dict(policy=MIXED_DS_POLICY, mg_config=MGConfig(nlevels=2))
        GMRESIRSolver(problem, SerialComm(), restart=10, setup_cache=cache, **kw)
        misses1 = cache.misses
        GMRESIRSolver(
            problem,
            SerialComm(),
            restart=10,
            matrix_format="csr",
            setup_cache=cache,
            **kw,
        )
        # Every product key carries its derivation params (the MG key
        # includes the matrix format), so the csr solver must never be
        # served an ell-keyed entry: no hits, only fresh misses.
        assert cache.hits == 0
        assert cache.misses == 2 * misses1

    def test_pcg_reuses_mg_hierarchy(self, problem):
        cache = SetupCache()
        s1 = PCGSolver(
            problem,
            SerialComm(),
            mg_config=MGConfig(nlevels=2),
            setup_cache=cache,
        )
        assert cache.misses == 1 and cache.hits == 0
        s2 = PCGSolver(
            problem,
            SerialComm(),
            mg_config=MGConfig(nlevels=2),
            setup_cache=cache,
        )
        assert cache.hits == 1
        assert s2.M is s1.M
        x, stats = s2.solve(problem.b, tol=1e-8, maxiter=20)
        assert stats.setup_cache_hits == 1
        assert np.isfinite(x).all()

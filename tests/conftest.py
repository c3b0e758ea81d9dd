"""Shared fixtures: cached problems and communicators.

Problem generation is deterministic, so module-scope caching keeps the
suite fast without coupling tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers_distributed import use_backend

from repro.backends.registry import registry
from repro.geometry.partition import Subdomain
from repro.parallel.comm import SerialComm
from repro.stencil.poisson27 import ProblemSpec, generate_problem


@pytest.fixture(params=registry.backends())
def parity_class(request):
    """Run the test once per kernel parity class (``scipy``'s compiled
    sequential row sums, ``numpy``'s pairwise reference): a bitwise
    contract is one that holds *inside* each.  A test that compares
    against recorded NumPy bits pins the reference class instead::

        @pytest.mark.parametrize("parity_class", ["numpy"], indirect=True)

    (``helpers_distributed.BOTH_CLASSES`` / ``NUMPY_CLASS`` are the two
    marks.)
    """
    with use_backend(request.param) as name:
        yield name


@pytest.fixture(scope="session")
def problem8():
    """Serial 8^3 problem (512 rows) — smallest 4-level-unfriendly box."""
    return generate_problem(Subdomain.serial(8, 8, 8))

@pytest.fixture(scope="session")
def problem16():
    """Serial 16^3 problem (4096 rows) — supports a 4-level hierarchy."""
    return generate_problem(Subdomain.serial(16, 16, 16))


@pytest.fixture(scope="session")
def problem_nonsym16():
    return generate_problem(
        Subdomain.serial(16, 16, 16), spec=ProblemSpec(kind="nonsymmetric")
    )


@pytest.fixture(scope="session")
def problem_rect():
    """Non-cubic box to catch x/y/z index transpositions."""
    return generate_problem(Subdomain.serial(5, 7, 4))


@pytest.fixture()
def comm():
    return SerialComm()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)

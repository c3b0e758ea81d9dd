"""Pluggable kernel-backend layer.

Every hot operation of the benchmark — SpMV, SymGS sweeps, CGS2's
GEMV/GEMVT, WAXPBY, dots, grid transfers — is dispatched through a
process-wide :class:`~repro.backends.registry.KernelRegistry` on a
``(op, format, precision, backend)`` key.  The ``numpy`` reference
backend is always present; an optional Numba backend registers itself
when the package is importable (auto-detected here at import time) and
wins the priority-based auto-selection.  ``REPRO_BACKEND=<name>``
forces a backend explicitly.

The companion :class:`~repro.backends.workspace.Workspace` arena gives
solvers preallocated, precision-keyed scratch so the inner
Arnoldi/V-cycle loop runs with zero per-iteration array allocations.

Registering a new backend::

    from repro.backends import register, registry

    registry.register_backend("mygpu", priority=20)

    @register("spmv", fmt="ell", backend="mygpu")
    def spmv_ell_mygpu(A, x, out=None, ws=None):
        ...

See README section "Kernel backends" for the full contract.
"""

from repro.backends.registry import (
    KernelNotFoundError,
    KernelRegistry,
    active_backend,
    available_backends,
    lookup,
    register,
    registered_formats,
    registry,
    set_backend,
)
from repro.backends.workspace import (
    Workspace,
    WorkspacePool,
    default_workspace,
)

# Importing the backend modules populates the registry; numpy first
# (the guaranteed fallback), then optional accelerated backends.
from repro.backends import numpy_backend  # noqa: E402,F401
from repro.backends import partitioned_ops  # noqa: E402,F401
from repro.backends import numba_backend  # noqa: E402,F401

registry.autoselect_backend()

# The unfused restriction is a reference, not an op: its product goes
# through ``spmv_multi`` and its tail is the NumPy ``fused_restrict``'s.
from repro.backends.numpy_backend import unfused_restrict  # noqa: E402

from repro.backends.dispatch import (  # noqa: E402
    dot,
    dot_multi,
    fused_restrict,
    gemv,
    gemvT,
    matrix_format,
    prolong,
    spmv,
    spmv_boundary,
    spmv_interior,
    spmv_multi,
    spmv_rows,
    symgs_sweep,
    symgs_sweep_multi,
    waxpby,
)

__all__ = [
    "KernelNotFoundError",
    "KernelRegistry",
    "Workspace",
    "WorkspacePool",
    "active_backend",
    "available_backends",
    "default_workspace",
    "dot",
    "dot_multi",
    "fused_restrict",
    "gemv",
    "gemvT",
    "lookup",
    "matrix_format",
    "prolong",
    "register",
    "registered_formats",
    "registry",
    "set_backend",
    "spmv",
    "spmv_boundary",
    "spmv_interior",
    "spmv_multi",
    "spmv_rows",
    "symgs_sweep",
    "symgs_sweep_multi",
    "unfused_restrict",
    "waxpby",
]

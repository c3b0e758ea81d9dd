"""Pluggable kernel-backend layer.

Every hot operation of the benchmark — SpMV, SymGS sweeps, CGS2's
GEMV/GEMVT, WAXPBY, dots, grid transfers — is dispatched through a
process-wide :class:`~repro.backends.registry.KernelRegistry` on a
``(op, format, precision, backend)`` key.  Two backends ship, and they
are two **parity classes**: ``numpy``, the reference (pairwise row
sums), always present; and ``scipy``, compiled sequential row products
for ELL / CSR at fp64 / fp32 (:mod:`~repro.backends.scipy_backend`),
which registers wherever SciPy's ``csr_matvec`` imports and wins the
priority-based auto-selection.  Bitwise contracts hold inside a class;
across classes results agree to the rung's tolerance.
``REPRO_BACKEND=numpy`` pins the reference class.

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
# (the guaranteed fallback), then the compiled class.
from repro.backends import numpy_backend  # noqa: E402,F401
from repro.backends import partitioned_ops  # noqa: E402,F401
from repro.backends import scipy_backend  # noqa: E402,F401

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

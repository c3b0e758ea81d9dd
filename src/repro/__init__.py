"""HPG-MxP reproduction — mixed-precision GMRES-IR benchmark library.

Reproduces Kashi et al., "Scaling the memory wall using mixed-precision:
HPG-MxP on an exascale machine" (SC'25): the benchmark itself (problem
generator, multigrid-preconditioned GMRES-IR, validation and metric
pipeline), the optimizations the paper contributes (multicolor
Gauss-Seidel, ELL storage, fused SpMV-restriction, overlap), an
MPI-like SPMD runtime for real distributed numerics, and a calibrated
performance model of Frontier that regenerates the paper's scaling
figures.

Quickstart::

    from repro import BenchmarkConfig, run_benchmark, format_report
    result = run_benchmark(BenchmarkConfig(local_nx=16, nranks=1))
    print(format_report(result))
"""

from repro.version import __version__, PAPER
from repro.fp import (
    Precision,
    PrecisionPolicy,
    EscalationConfig,
    DOUBLE_POLICY,
    MIXED_DS_POLICY,
)
from repro.core import (
    BenchmarkConfig,
    BenchmarkResult,
    HPGMxPBenchmark,
    run_benchmark,
    HPCGConfig,
    run_hpcg,
    format_report,
)
from repro.solvers import GMRESIRSolver, PCGSolver, gmres_solve, pcg_solve
from repro.stencil import generate_problem, ProblemSpec
from repro.geometry import Subdomain, ProcessGrid, BoxGrid
from repro.parallel import SerialComm, run_spmd
from repro.mg import MGConfig, MultigridPreconditioner

__all__ = [
    "__version__",
    "PAPER",
    "Precision",
    "PrecisionPolicy",
    "EscalationConfig",
    "DOUBLE_POLICY",
    "MIXED_DS_POLICY",
    "BenchmarkConfig",
    "BenchmarkResult",
    "HPGMxPBenchmark",
    "run_benchmark",
    "HPCGConfig",
    "run_hpcg",
    "format_report",
    "GMRESIRSolver",
    "PCGSolver",
    "gmres_solve",
    "pcg_solve",
    "generate_problem",
    "ProblemSpec",
    "Subdomain",
    "ProcessGrid",
    "BoxGrid",
    "SerialComm",
    "run_spmd",
    "MGConfig",
    "MultigridPreconditioner",
]

"""Matrix-free distributed stencil operator (paper §5).

The conclusion notes that GMRES-IR's extra low-precision matrix copy
can be avoided in applications by using the *matrix-free* variant of
GMRES: the operator action is computed from the stencil directly and
"only the low-precision matrix needs to be stored ... for
preconditioning".  This module provides that operator: a distributed
``y = A x`` evaluated slot-by-slot from precomputed column indices and
the two stencil coefficient values, without storing the ELL value
block in the operator precision.

It plugs into :class:`~repro.solvers.gmres_ir.GMRESIRSolver` through
the same ``matvec`` / ``matvec_panel`` interface as
:class:`DistributedOperator` and is exercised by the memory-equalized
benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.fp.precision import Precision
from repro.parallel.comm import Communicator
from repro.parallel.halo_exchange import HaloExchange
from repro.stencil.poisson27 import Problem


class MatrixFreeStencilOperator:
    """Distributed 27-point operator without a stored value array.

    For the benchmark matrix every off-diagonal coefficient is a
    constant (or one of two constants in the nonsymmetric variant), so
    the SpMV needs only the column-index block and a per-slot
    coefficient vector — 4 bytes/nnz instead of 4 + value bytes/nnz.

    Parameters
    ----------
    problem:
        The generated problem (provides structure and the spec).
    comm:
        Communicator for halo exchanges.
    precision:
        Compute precision of the operator application.
    """

    def __init__(
        self,
        problem: Problem,
        comm: Communicator,
        precision: "Precision | str" = Precision.DOUBLE,
    ) -> None:
        prec = Precision.from_any(precision)
        self.precision = prec
        self.comm = comm
        self.halo_ex = HaloExchange(problem.halo, comm)
        self.nlocal = problem.nlocal
        A = problem.A
        self.cols = A.cols
        # Per-(row, slot) coefficients stay in a compact form: for the
        # benchmark matrix there are at most three distinct values
        # (diag, lower, upper), encoded as int8 codes + a value table.
        vals = A.vals
        uniq = np.unique(vals)
        if len(uniq) > 8:
            raise ValueError(
                "matrix-free operator requires a stencil with few distinct values"
            )
        self._value_table = uniq.astype(prec.dtype)
        codes = np.searchsorted(uniq, vals)
        self._codes = codes.astype(np.int8)
        self._xfull = np.zeros(self.nlocal + problem.halo.n_ghost, dtype=prec.dtype)

    @property
    def dtype(self) -> np.dtype:
        return self.precision.dtype

    @property
    def A(self):  # pragma: no cover - interface parity with DistributedOperator
        raise AttributeError("matrix-free operator stores no matrix")

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A x`` reconstructed from codes and the value table."""
        xf = self._xfull
        xf[: self.nlocal] = x
        self.halo_ex.exchange(xf)
        vals = self._value_table[self._codes]
        y = (vals * xf[self.cols]).sum(axis=1, dtype=self.dtype)
        if out is not None:
            out[:] = y
            return out
        return y

    def matvec_panel(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`matvec` per column — the panel interface the GMRES-IR
        restart loop drives its inner operator through."""
        for j in range(X.shape[1]):
            self.matvec(X[:, j], out=out[:, j])
        return out

    def residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``b - A x`` in the operator precision."""
        return np.asarray(b, dtype=self.dtype) - self.matvec(x)

    def memory_bytes(self) -> int:
        """Operator storage: index block + codes + tiny value table.

        Compare with ``ELLMatrix.memory_bytes`` — the value block
        (8 bytes/slot in double) is replaced by 1-byte codes.
        """
        return (
            self.cols.size * self.cols.itemsize
            + self._codes.size
            + self._value_table.nbytes
        )

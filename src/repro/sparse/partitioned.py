"""Ghost-column-aware partitioned matrices (distributed storage layouts).

**Partitioning contract.**  A rank's local column space is
``[0, nlocal)`` for owned points followed by ``[nlocal, nlocal+n_ghost)``
for ghost points, grouped in per-neighbor blocks in canonical direction
order — exactly the enumeration :class:`~repro.geometry.halo.HaloPattern`
builds.  Because the ghost columns are packed contiguously at the tail,
a halo receive lands *directly* in the tail of the full vector
(``xfull[nlocal + offset : ...]``) with zero unpack copies; the receive
buffer *is* the vector segment.

**Interior/boundary row blocks.**  :func:`partition_matrix` splits
rows by whether their stencil touches a ghost column; each side becomes
its own block matrix (same storage format as the source, full local
column space).  They are the two halves of the paper's §3.2.3 overlap
schedule — interior SpMV while the halo is in flight, boundary SpMV
after it lands.  The solvers do not run that schedule: thread ranks
share one interpreter lock and have no second engine to hide the
exchange behind, so every distributed product is a blocking exchange
followed by one whole-matrix kernel.  The split layout stays as the
measured kernel pair ``spmv_interior`` / ``spmv_boundary``.  Every row
keeps the slots it had in the source, so a block's row sums are
bitwise those of the unpartitioned kernel.

**Color-partitioned SymGS.**  The multicolor Gauss-Seidel sweep
reads the same kind of layout via :func:`partition_colors`, which
applies the paper's independent-set reordering (§3.2.1) to the matrix
*and* the vectors: it fixes the level's row order as color-major, packs
every color's rows into one contiguous block once, and renumbers the
blocks' owned columns into that order (the ghost tail stays where the
halo plan put it).  Vectors of the level are stored in the same order,
so a color block relaxes the slice ``[lo, hi)`` of the iterate — no
gather, no scatter — and streams its block instead of copying rows out
of the matrix.  Every smoother sweeps this layout, serial and SPMD
alike; an SPMD sweep runs behind a blocking halo exchange.
"""

from __future__ import annotations

import numpy as np

from repro.fp.precision import Precision
from repro.geometry.halo import HaloPattern
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import ELLMatrix
from repro.sparse.reorder import column_map, inverse_permutation


class PartitionedMatrix:
    """A local matrix split into interior/boundary row blocks.

    The blocks share the source matrix's storage format and its full
    local column space (owned + ghost-tail columns), so both consume
    the same full vector.  Kernels resolve through the registry ops
    ``spmv_interior`` / ``spmv_boundary`` (and ``spmv``, the two block
    kernels back to back).
    """

    format_name = "partitioned"

    def __init__(
        self,
        interior,
        boundary,
        interior_rows: np.ndarray,
        boundary_rows: np.ndarray,
        nlocal: int,
        ncols: int,
        block_format: str,
    ) -> None:
        self.interior = interior
        self.boundary = boundary
        self.interior_rows = np.ascontiguousarray(interior_rows, dtype=np.int64)
        self.boundary_rows = np.ascontiguousarray(boundary_rows, dtype=np.int64)
        self.nlocal = nlocal
        self.ncols = ncols
        self.block_format = block_format

    # ------------------------------------------------------------------
    # Shape and metadata
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.nlocal

    @property
    def n_ghost(self) -> int:
        return self.ncols - self.nlocal

    @property
    def dtype(self) -> np.dtype:
        return self.interior.dtype if len(self.interior_rows) else self.boundary.dtype

    @property
    def precision(self) -> Precision:
        return Precision.from_any(self.dtype)

    @property
    def nnz(self) -> int:
        return int(self.interior.nnz) + int(self.boundary.nnz)

    # ------------------------------------------------------------------
    # Kernels (dispatch through the registry)
    # ------------------------------------------------------------------
    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        from repro.backends.dispatch import spmv

        return spmv(self, x, out=out)

    def spmv_interior(self, x, out=None, ws=None) -> np.ndarray:
        from repro.backends.dispatch import spmv_interior

        return spmv_interior(self, x, out=out, ws=ws)

    def spmv_boundary(self, x, out=None, ws=None) -> np.ndarray:
        from repro.backends.dispatch import spmv_boundary

        return spmv_boundary(self, x, out=out, ws=ws)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes(self, index_bytes: int = 4) -> int:
        """Block storage plus the two row-index maps (int64)."""
        total = 8 * (len(self.interior_rows) + len(self.boundary_rows))
        for blk in (self.interior, self.boundary):
            total += blk.memory_bytes(index_bytes)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PartitionedMatrix {self.block_format} "
            f"{len(self.interior_rows)}i+{len(self.boundary_rows)}b rows, "
            f"{self.n_ghost} ghost cols, {self.precision.short_name}>"
        )


def _relabel(cols: np.ndarray, col_map: np.ndarray | None) -> np.ndarray:
    return cols if col_map is None else col_map[cols]


def _csr_rows(csr: CSRMatrix, rows: np.ndarray, col_map=None) -> CSRMatrix:
    """Row-subset CSR preserving within-row entry order and dtype."""
    lens = (csr.indptr[rows + 1] - csr.indptr[rows]).astype(np.int64)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    total = int(indptr[-1])
    if total:
        flat = np.repeat(csr.indptr[rows], lens) + (
            np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        )
        indices = _relabel(csr.indices[flat], col_map)
        data = csr.data[flat]
    else:
        indices = np.zeros(0, dtype=csr.indices.dtype)
        data = np.zeros(0, dtype=csr.data.dtype)
    return CSRMatrix(indptr=indptr, indices=indices, data=data, ncols=csr.ncols)


def extract_rows(A, rows: np.ndarray, col_map: np.ndarray | None = None):
    """Row-subset block in A's own format, values preserved.

    The one packing every block layout is built from: the SpMV
    partition's interior/boundary blocks, the color blocks, and the
    multigrid restriction block (the coarse-mapped rows).  Every format
    keeps each row's slot layout, so block row sums are
    bitwise-identical to the unpartitioned kernel's: ELL
    matrices slice their dense arrays, CSR slices its ranges (entry
    order kept).

    ``col_map`` (length ``A.ncols``,
    :func:`repro.sparse.reorder.column_map`) relabels every
    stored column — padding slots included, so each slot still reads
    the same vector entry once the vector is stored in the new order,
    and the row sums do not move a bit.
    """
    if isinstance(A, ELLMatrix):
        return ELLMatrix(
            cols=_relabel(A.cols[rows], col_map), vals=A.vals[rows], ncols=A.ncols
        )
    if isinstance(A, CSRMatrix):
        return _csr_rows(A, rows, col_map)
    raise TypeError(
        f"cannot partition {type(A).__name__}; expected a CSR/ELL local matrix"
    )


class _ColorBlock:
    """The rows ``[lo, hi)`` of the level's order — one color's rows —
    with their matrix block.

    The block shares the source matrix's storage format and full local
    column space (owned columns in the level's order), so a full-matrix
    ``spmv`` on it computes exactly the rows' relaxation numerators and
    the update is arithmetic on the slice ``[lo, hi)`` of the level's
    vectors — no index array on the hot path.  ``A`` is ``None`` for an
    empty range.
    """

    __slots__ = ("lo", "hi", "A", "diag")

    def __init__(self, lo: int, hi: int, A_block, diag: np.ndarray) -> None:
        self.lo = lo
        self.hi = hi
        self.A = A_block
        self.diag = diag


class ColorPartitionedMatrix:
    """A local matrix in the smoother's order: the layout every
    multicolor Gauss-Seidel sweep reads, and the row order the level's
    vectors are stored in.

    ``order[k]`` is the natural row at position ``k`` (``rank`` is the
    inverse): color-major, ascending inside a color.  ``passes`` holds
    one :class:`_ColorBlock` per color, consecutive ranges of that
    order; ``diag`` is the relaxation diagonal in it.

    Dispatches through the registry op ``symgs_sweep`` (whole colors in
    either direction).  Block extraction reuses the SpMV partition's
    row-subset machinery, so every format is covered.  The sweeps cache
    each block's bound product on the layout (``_bound``, see
    ``repro.backends.partitioned_ops``).
    """

    format_name = "color_partitioned"

    def __init__(self, A, sets: list[np.ndarray], diag: np.ndarray) -> None:
        from repro.backends.dispatch import matrix_format

        self.dtype = A.dtype
        self.nlocal = A.nrows
        self.ncols = A.ncols
        self.block_format = matrix_format(A)
        self.order = np.concatenate(sets)
        self.rank = inverse_permutation(self.order)
        col_map = column_map(self.rank, A.ncols)
        self.diag = diag[self.order]
        self.passes: list[_ColorBlock] = []
        lo = 0
        for rows in sets:
            hi = lo + len(rows)
            block = extract_rows(A, rows, col_map) if len(rows) else None
            self.passes.append(_ColorBlock(lo, hi, block, self.diag[lo:hi]))
            lo = hi

    @property
    def precision(self) -> Precision:
        return Precision.from_any(self.dtype)

    @property
    def num_colors(self) -> int:
        return len(self.passes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ColorPartitionedMatrix {self.block_format} "
            f"{self.num_colors} colors, {self.nlocal} rows, "
            f"{self.precision.short_name}>"
        )


def partition_colors(
    A,
    sets: list[np.ndarray],
    diag: np.ndarray | None = None,
) -> ColorPartitionedMatrix:
    """Put a local matrix in the multicolor SymGS's order, packed one
    block per color.

    ``sets`` are the multicolor Gauss-Seidel color sets (ascending row
    order within each color, as :func:`repro.sparse.coloring.color_sets`
    returns them); ``diag`` is the diagonal the relaxation divides by,
    in natural order (defaults to ``A.diagonal()``).
    """
    sets = [np.ascontiguousarray(s, dtype=np.int64) for s in sets]
    if diag is None:
        diag = A.diagonal()
    return ColorPartitionedMatrix(A, sets, diag)


def partition_matrix(A, halo: HaloPattern) -> PartitionedMatrix:
    """Split a local matrix into interior/boundary blocks along ``halo``.

    ``A`` must follow the partitioning contract already (owned columns
    first, ghost columns packed at the tail in the halo pattern's block
    order) — which every matrix built by
    :func:`repro.stencil.poisson27.generate_problem` does.
    """
    from repro.backends.dispatch import matrix_format

    if A.nrows != halo.nlocal or A.ncols != halo.ncols:
        raise ValueError(
            f"matrix shape ({A.nrows} rows, {A.ncols} cols) does not match "
            f"the halo pattern ({halo.nlocal} owned + {halo.n_ghost} ghost)"
        )
    interior_rows = halo.interior_rows
    boundary_rows = halo.boundary_rows
    return PartitionedMatrix(
        interior=extract_rows(A, interior_rows),
        boundary=extract_rows(A, boundary_rows),
        interior_rows=interior_rows,
        boundary_rows=boundary_rows,
        nlocal=halo.nlocal,
        ncols=halo.ncols,
        block_format=matrix_format(A),
    )

"""Ghost-column-aware partitioned matrix (distributed storage layout).

At 75k GCDs the benchmark is decided by how few bytes cross the memory
bus *and* the network per iteration, and by whether the halo exchange
hides behind interior compute (§3.2.3).  Both properties are layout
properties, so this module makes them explicit in the storage format
instead of recovering them per call with row-subset kernels:

**Partitioning contract.**  A rank's local column space is
``[0, nlocal)`` for owned points followed by ``[nlocal, nlocal+n_ghost)``
for ghost points, grouped in per-neighbor blocks in canonical direction
order — exactly the enumeration :class:`~repro.geometry.halo.HaloPattern`
builds.  Because the ghost columns are packed contiguously at the tail,
a halo receive lands *directly* in the tail of the full vector
(``xfull[nlocal + offset : ...]``) with zero unpack copies; the receive
buffer *is* the vector segment.

**Interior/boundary row blocks.**  Rows are split by whether their
stencil touches a ghost column.  Each side becomes its own block matrix
(same storage format as the source, full local column space), so the
two halves of the overlap schedule — interior SpMV while the halo is in
flight, boundary SpMV after it lands — are plain full-matrix kernels on
dense blocks.  No per-call row-subset index arithmetic remains on the
hot path, which is what makes the distributed loop allocation-free
after warmup.  Every row keeps the slots it had in the source, so a
block's row sums are bitwise those of the unpartitioned kernel.

**Color-partitioned SymGS (PR 5, PR 16, PR 19).**  The multicolor
Gauss-Seidel sweep reads the same kind of layout via
:func:`partition_colors`, which applies the paper's independent-set
reordering (§3.2.1) to the matrix *and* the vectors: it fixes the
level's row order as color-major, packs every color's rows into
contiguous blocks once, and renumbers the blocks' owned columns into
that order (the ghost tail stays where the halo plan put it).  Vectors
of the level are stored in the same order, so a color block relaxes the
slice ``[lo, hi)`` of the iterate — no gather, no scatter — and streams
its block instead of copying rows out of the matrix.  Every smoother
sweeps this layout; without a halo pattern (serial, or SPMD behind a
blocking exchange) each color is one whole block.  With one, every
color's rows are ordered *interior* first, *boundary* after, and packed
as those two blocks.  Unlike SpMV, a Gauss-Seidel color pass reads
values written by earlier passes, so the interior set must be
**dependency-closed**, not merely ghost-free: a row may run before the
halo lands only if (a) its stencil touches no ghost column and (b)
every neighbor updated by an *earlier* color pass is itself interior.
Under that closure the overlapped forward schedule — post the halo,
sweep every color's interior block, land the ghosts, sweep every
color's boundary block — executes *exactly* the reads and writes of the
sequential per-color sweep and is therefore bitwise-equal to it (the
property the cross-rank parity suite asserts).  The closure is the
forward sweep's; a backward sweep relaxes whole colors (both blocks) in
reverse behind a blocking exchange.  The closure erodes roughly one
layer per earlier color from the subdomain faces, so fine levels hide
almost the whole sweep behind the exchange while tiny coarse boxes may
degenerate to an empty interior (the Fig. 9b coarse-level exposure) —
correct in both regimes.
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
    ``spmv_interior`` / ``spmv_boundary`` (and ``spmv`` for the
    non-overlapped product, which is the same two block kernels run
    back to back — bitwise-identical to the overlapped schedule).
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

    @property
    def interior_fraction(self) -> float:
        """Share of rows computable before the halo lands."""
        return len(self.interior_rows) / self.nlocal if self.nlocal else 0.0

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


def _local_adjacency_csr(A, nlocal: int) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal *local* adjacency of ``A`` as (indptr, neighbor cols).

    Ghost columns (>= ``nlocal``) are excluded — they are frozen for a
    sweep and impose no ordering constraint beyond the interior test —
    as are the diagonal and explicit zeros (a coupling stored as zero
    moves nothing and therefore constrains nothing; classifying from
    the *stored* values keeps the split self-consistent with what the
    kernels actually compute).
    """
    if hasattr(A, "indptr"):  # CSR layout
        lens = np.diff(A.indptr)
        rows = np.repeat(np.arange(A.nrows, dtype=np.int64), lens)
        cols = A.indices.astype(np.int64)
        keep = (cols < nlocal) & (cols != rows) & (A.data != 0)
    elif hasattr(A, "cols"):  # ELL
        n = A.nrows
        rows2d = np.arange(n, dtype=np.int64)[:, None]
        mask = (A.vals != 0) & (A.cols != rows2d) & (A.cols < nlocal)
        lens = mask.sum(axis=1)
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)
        cols = A.cols[mask].astype(np.int64)
        keep = np.ones(len(cols), dtype=bool)
    else:
        raise TypeError(f"cannot derive adjacency from {type(A).__name__}")
    cols = cols[keep]
    rows = rows[keep]
    indptr = np.zeros(A.nrows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols


def sweep_overlap_split(
    A, sets: list[np.ndarray], interior_mask: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Dependency-closed (interior, boundary) rows per color set, for
    the forward sweep (colors in ascending order).

    A row of color ``c`` is interior ("early") iff its stencil touches
    no ghost column **and** every local neighbor of an earlier color is
    itself early.  That single fixpoint makes the split schedule — all
    early blocks in sweep order, then all late blocks in sweep order —
    read exactly the values the sequential per-color sweep reads (see
    the module docstring), which is what makes the overlapped SymGS
    bitwise-equal to it.  Because the predicate only consults earlier
    colors, one pass over the colors in sweep order computes the
    fixpoint exactly.
    """
    nlocal = len(interior_mask)
    indptr, nbr = _local_adjacency_csr(A, nlocal)
    color_of = np.empty(nlocal, dtype=np.int64)
    for c, rows in enumerate(sets):
        color_of[rows] = c

    early = np.zeros(nlocal, dtype=bool)
    split: list[tuple[np.ndarray, np.ndarray]] = []
    for c, rows in enumerate(sets):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cand = interior_mask[rows]
        if cand.any() and c > 0:
            crows = rows[cand]
            lens = indptr[crows + 1] - indptr[crows]
            total = int(lens.sum())
            if total:
                flat = np.repeat(indptr[crows], lens) + (
                    np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
                )
                nb = nbr[flat]
                # An earlier-color neighbor that is not early blocks us.
                viol = (color_of[nb] < c) & ~early[nb]
                ok = np.ones(len(crows), dtype=bool)
                starts = np.cumsum(lens) - lens
                nonempty = lens > 0
                if nonempty.any():
                    viol64 = viol.astype(np.int64)
                    any_viol = np.add.reduceat(viol64, starts[nonempty]) > 0
                    ok[nonempty] = ~any_viol
                good = np.zeros(len(rows), dtype=bool)
                good[np.nonzero(cand)[0]] = ok
                cand = good
        early[rows[cand]] = True
        split.append((rows[cand], rows[~cand]))
    return split


class _ColorBlock:
    """The rows ``[lo, hi)`` of the level's order — one color's rows of
    one region — with their matrix block.

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
    inverse): color-major, and inside a color the dependency-closed
    interior rows before the boundary rows when the layout is split
    along a halo.  ``passes`` holds one ``(interior, boundary)``
    :class:`_ColorBlock` pair per color, consecutive ranges of that
    order; ``diag`` is the relaxation diagonal in it.

    Dispatches through the registry ops ``symgs_sweep`` (whole colors
    in either direction — what every non-overlapped sweep runs) and
    ``symgs_interior`` / ``symgs_boundary`` (the halves of the
    overlapped forward sweep).  Block extraction reuses the SpMV
    partition's row-subset machinery, so every format is covered.  The
    sweeps cache each block's bound product on the layout (``_bound``,
    see ``repro.backends.partitioned_ops``).

    ``split=False`` is the layout without the halo split: every color
    is one whole block (its boundary range empty) and no dependency
    closure was computed.  That is the serial layout, and the layout of
    an SPMD smoother that exchanges before it sweeps — its "interior"
    blocks do read ghost columns, so it cannot run the overlapped
    halves.
    """

    format_name = "color_partitioned"

    def __init__(
        self,
        A,
        split_sets: list[tuple[np.ndarray, np.ndarray]],
        diag: np.ndarray,
        split: bool,
    ) -> None:
        from repro.backends.dispatch import matrix_format

        self.dtype = A.dtype
        self.nlocal = A.nrows
        self.ncols = A.ncols
        self.block_format = matrix_format(A)
        self.split = split
        self.order = np.concatenate([rows for pair in split_sets for rows in pair])
        self.rank = inverse_permutation(self.order)
        col_map = column_map(self.rank, A.ncols)
        self.diag = diag[self.order]
        self.passes: list[tuple[_ColorBlock, _ColorBlock]] = []
        lo = 0
        for pair in split_sets:
            blocks = []
            for rows in pair:
                hi = lo + len(rows)
                block = extract_rows(A, rows, col_map) if len(rows) else None
                blocks.append(_ColorBlock(lo, hi, block, self.diag[lo:hi]))
                lo = hi
            self.passes.append(tuple(blocks))

    @property
    def precision(self) -> Precision:
        return Precision.from_any(self.dtype)

    @property
    def num_colors(self) -> int:
        return len(self.passes)

    @property
    def interior_fraction(self) -> float:
        """Share of rows the forward sweep relaxes before the halo lands."""
        if self.nlocal == 0:
            return 0.0
        return sum(i.hi - i.lo for i, _ in self.passes) / self.nlocal

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ColorPartitionedMatrix {self.block_format} "
            f"{self.num_colors} colors, {self.nlocal} rows, "
            f"{self.precision.short_name}>"
        )


def partition_colors(
    A,
    halo: HaloPattern | None,
    sets: list[np.ndarray],
    diag: np.ndarray | None = None,
) -> ColorPartitionedMatrix:
    """Put a local matrix in the multicolor SymGS's order, packed per
    color.

    ``sets`` are the multicolor Gauss-Seidel color sets (ascending row
    order within each color, as :func:`repro.sparse.coloring.color_sets`
    returns them); ``diag`` is the diagonal the relaxation divides by,
    in natural order (defaults to ``A.diagonal()``).

    With a ``halo`` every color is split into its dependency-closed
    interior block and its boundary block (the overlapped schedule);
    ``halo=None`` packs each color whole and skips the O(nnz)
    adjacency/closure pass (serial sweeps, and SPMD sweeps behind a
    blocking exchange).
    """
    sets = [np.ascontiguousarray(s, dtype=np.int64) for s in sets]
    if halo is None:
        split_sets = [(rows, rows[:0]) for rows in sets]
    else:
        if A.nrows != halo.nlocal or A.ncols != halo.ncols:
            raise ValueError(
                f"matrix shape ({A.nrows} rows, {A.ncols} cols) does not match "
                f"the halo pattern ({halo.nlocal} owned + {halo.n_ghost} ghost)"
            )
        interior_mask = np.zeros(halo.nlocal, dtype=bool)
        interior_mask[halo.interior_rows] = True
        split_sets = sweep_overlap_split(A, sets, interior_mask)
    if diag is None:
        diag = A.diagonal()
    return ColorPartitionedMatrix(A, split_sets, diag, split=halo is not None)


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

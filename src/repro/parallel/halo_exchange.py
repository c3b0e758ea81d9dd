"""Halo exchange over a communicator.

Packs boundary values into per-neighbor messages, ships them, and
receives incoming messages *directly into* the ghost tail of the full
vector (the ghost-column layout contract makes the vector segment the
receive buffer — no unpack copy).  With the queue-backed runtime sends
are buffered and never block, so the exchange posts all sends first
and then drains receives — the same structure as the paper's
asynchronous scheme, where buffer packing and host-device copies run
on a dedicated stream (§3.2.3).  Every exchange blocks: thread ranks
share one interpreter lock and have no second engine to hide the
messages behind compute.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.workspace import Workspace
from repro.geometry.halo import HaloPattern, direction_index, opposite_direction
from repro.parallel.comm import Communicator

#: Tag base for halo messages; the direction index is added so multiple
#: directions between the same pair of ranks stay distinct.
HALO_TAG_BASE = 1000

#: Sequence tagging: each exchange round offsets its tags by
#: ``HALO_SEQ_STRIDE * (round % HALO_SEQ_WINDOW)``.  Ranks run their
#: exchanges in lockstep, so sender and receiver agree on the round
#: number without negotiation; a message lost (or a stale one lingering)
#: in round ``k`` can then never satisfy round ``k+1``'s receive — the
#: receive times out instead of silently landing wrong-round data.  The
#: stride clears the direction-index range (< 26) and the window is kept
#: small so the transport's per-tag buffer free-lists stay bounded.
HALO_SEQ_STRIDE = 64
HALO_SEQ_WINDOW = 4


class HaloExchange:
    """Executable halo-exchange plan bound to a communicator.

    Packing stages each outgoing message in a pooled per-direction
    buffer from the (optionally shared) workspace arena, so repeated
    exchanges allocate nothing on this rank's hot path.  Handing the
    staged buffer straight to ``isend`` is safe because the
    :class:`~repro.parallel.comm.Communicator` contract is
    buffered-send semantics (the transport copies before returning).
    """

    def __init__(
        self,
        pattern: HaloPattern,
        comm: Communicator,
        workspace: Workspace | None = None,
        deadline: float | None = None,
    ) -> None:
        self.pattern = pattern
        self.comm = comm
        self.ws = workspace if workspace is not None else Workspace("halo")
        self.nlocal = pattern.nlocal
        self.n_ghost = pattern.n_ghost
        #: Per-exchange receive deadline in seconds.  ``None`` defers to
        #: the transport's default patience; a finite value turns a
        #: lost message into a prompt, typed
        #: :class:`~repro.parallel.comm.CommTimeoutError` instead of a
        #: full-timeout hang.
        self.deadline = deadline
        #: Exchange-round counter driving the sequence tags (not reset
        #: by :meth:`reset_counters` — it is protocol state, not a
        #: measurement).
        self._seq = 0
        #: Accumulated wall-clock seconds spent packing/posting and
        #: landing halo messages, and the number of exchanges — the
        #: measured counters the benchmark record reports next to the
        #: network model's prediction.  Note these seconds nest inside
        #: the caller's motif sections (an SpMV's halo time is also
        #: SpMV time).
        self.seconds = 0.0
        self.exchanges = 0
        #: True wire accounting: point-to-point messages posted and
        #: bytes shipped by this plan.  A *wide* (panel) exchange posts
        #: one message per neighbor carrying all N columns, so its
        #: message count matches a single-vector exchange while its
        #: bytes scale with the panel — exactly the split the
        #: alpha-beta network fit separates and ``halo_messages_per_rhs``
        #: gates.
        self.messages = 0
        self.sent_bytes = 0
        # Precompute (neighbor, send-indices, send-tag, recv-tag,
        # ghost-slice) tuples in canonical direction order.
        self._plan: list[tuple[int, np.ndarray, int, int, slice]] = []
        for d in pattern.directions:
            nb = pattern.neighbor_ranks[d]
            send_idx = pattern.send_indices[d]
            send_tag = HALO_TAG_BASE + direction_index(opposite_direction(d))
            recv_tag = HALO_TAG_BASE + direction_index(d)
            off = pattern.ghost_offsets[d]
            cnt = pattern.ghost_counts[d]
            ghost_slice = slice(self.nlocal + off, self.nlocal + off + cnt)
            self._plan.append((nb, send_idx, send_tag, recv_tag, ghost_slice))

    @property
    def num_neighbors(self) -> int:
        return len(self._plan)

    def renumber(self, rank: np.ndarray) -> None:
        """Re-index the send plan for vectors stored in a permuted row
        order (``rank[i]`` is the position of natural row ``i``).

        Only where the sender *reads* each point moves: a message keeps
        its point order, so the receiver's ghost blocks — and the ghost
        tail every matrix column refers to — are untouched.  (The
        pattern stays in natural numbering.)
        """
        self._plan = [
            (nb, rank[send_idx], send_tag, recv_tag, ghost_slice)
            for nb, send_idx, send_tag, recv_tag, ghost_slice in self._plan
        ]

    def full_vector(self, x_local: np.ndarray) -> np.ndarray:
        """Allocate owned+ghost storage and copy the owned part in."""
        xfull = np.zeros(self.nlocal + self.n_ghost, dtype=x_local.dtype)
        xfull[: self.nlocal] = x_local
        return xfull

    # Wide (panel) exchange -------------------------------------------
    # One implementation serves every width: ``XF`` is a column-major
    # (nlocal + n_ghost, N) panel whose owned rows hold current values,
    # and each exchange ships **one message per neighbor** carrying all
    # N columns — the latency term is paid once per panel, not once per
    # column.  Each neighbor's (len(send_idx), N) block lands directly
    # in the panel's ghost-tail rows via ``recv_into``.  The transport
    # free-lists key on shape+dtype, so every width recycles its own
    # buffer species and the loop is zero-allocation after warmup.  One
    # wide round counts as **one** exchange (not N), while
    # :attr:`messages` / :attr:`sent_bytes` record the true wire
    # traffic.  The single-vector entry point below is the width-1
    # case: it views the vector as an ``(n, 1)`` panel and forwards.

    def exchange_panel(self, XF: np.ndarray) -> None:
        """Fill every column's ghost rows from neighbor ranks.

        The owned rows ``XF[:nlocal]`` must already hold current
        values.  No-op on a serial communicator (no neighbors exist).
        All sends are packed into pooled staging buffers and posted
        first (buffered, so the buffers are reusable at once); then
        each neighbor's message is received straight into its ``XF``
        ghost rows (``recv_into``), with no unpack staging.
        """
        if not self._plan:
            return
        t0 = time.perf_counter()
        comm = self.comm
        ncol = XF.shape[1]
        seq = self._seq_offset()
        for i, (nb, send_idx, send_tag, _, _) in enumerate(self._plan):
            buf = self.ws.get(("halo.send", i), (len(send_idx), ncol), XF.dtype)
            np.take(XF, send_idx, axis=0, out=buf, mode="clip")
            comm.isend(buf, nb, send_tag + seq)
            self.messages += 1
            self.sent_bytes += buf.nbytes
        for nb, _, _, recv_tag, ghost_slice in self._plan:
            comm.recv_into(
                nb, recv_tag + seq, XF[ghost_slice, :], timeout=self.deadline
            )
        self.seconds += time.perf_counter() - t0
        self.exchanges += 1

    def exchange(self, xfull: np.ndarray) -> None:
        """Blocking exchange of one full vector (the width-1 panel)."""
        self.exchange_panel(xfull[:, None])

    def _seq_offset(self) -> int:
        """Advance the exchange round; return its tag offset."""
        off = HALO_SEQ_STRIDE * (self._seq % HALO_SEQ_WINDOW)
        self._seq += 1
        return off

    def reset_counters(self) -> None:
        """Restart the measured seconds/exchange/wire counters."""
        self.seconds = 0.0
        self.exchanges = 0
        self.messages = 0
        self.sent_bytes = 0

    def exchange_bytes(self, itemsize: int) -> int:
        """Bytes this rank sends per exchange (for the perf model)."""
        return sum(len(p[1]) for p in self._plan) * itemsize

"""Thread-per-rank SPMD execution.

:func:`run_spmd` launches ``p`` threads, each running the same function
with its own :class:`ThreadComm`.  Point-to-point messages travel
through per-(src, dst, tag) queues; collectives rendezvous at a shared
barrier and reduce contributions in rank order, making them
deterministic.  NumPy kernels release the GIL, so rank threads execute
real concurrent work — the runtime is a faithful, if small, stand-in
for MPI on a shared-memory node.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable

import numpy as np

from repro.parallel.comm import CommStats, CommTimeoutError, Communicator

#: Default seconds a blocking recv/barrier waits before declaring deadlock.
DEFAULT_TIMEOUT = 120.0


class _SPMDContext:
    """State shared by all rank threads of one SPMD execution."""

    def __init__(self, size: int, timeout: float) -> None:
        self.size = size
        self.timeout = timeout
        self.barrier = threading.Barrier(size)
        self.slots: list[Any] = [None] * size
        self._mail_lock = threading.Lock()
        self._mailboxes: dict[tuple[int, int, int], queue.Queue] = {}
        self._freelists: dict[tuple, queue.Queue] = {}
        self.abort = threading.Event()

    def mailbox(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self._mail_lock:
            q = self._mailboxes.get(key)
            if q is None:
                q = queue.Queue()
                self._mailboxes[key] = q
            return q

    def freelist(
        self, src: int, dst: int, tag: int, shape: tuple, dtype
    ) -> queue.Queue:
        """Recycled transport buffers for one message species.

        Keyed by shape and dtype as well as the channel (like
        :class:`~repro.backends.workspace.Workspace` keys), because
        several ``HaloExchange`` instances — the fp64 outer operator,
        the fp32 inner one, every MG level — legitimately share
        the same (src, dst, tag) with different message sizes; a
        channel-only key would make them evict each other's buffer
        every send.  Receivers that consume a message with
        ``recv_into`` return its transport buffer here; the next
        matching ``send`` reuses it instead of allocating — the steady
        state of the halo path is then allocation-free.
        """
        key = (src, dst, tag, shape, dtype)
        with self._mail_lock:
            q = self._freelists.get(key)
            if q is None:
                q = queue.Queue()
                self._freelists[key] = q
            return q

    def wait_barrier(self) -> None:
        if self.abort.is_set():
            raise RuntimeError("SPMD aborted by another rank")
        self.barrier.wait(timeout=self.timeout)


class ThreadComm(Communicator):
    """Communicator bound to one rank thread of an SPMD execution."""

    def __init__(self, ctx: _SPMDContext, rank: int) -> None:
        self._ctx = ctx
        self._rank = rank
        self.stats = CommStats()

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._ctx.size

    def barrier(self) -> None:
        self.stats.barriers += 1
        self._ctx.wait_barrier()

    def allreduce(self, value, op: str = "sum"):
        ctx = self._ctx
        self.stats.allreduces += 1
        if isinstance(value, np.ndarray):
            self.stats.allreduce_bytes += value.nbytes
            ctx.slots[self._rank] = value
        else:
            self.stats.allreduce_bytes += 8
            ctx.slots[self._rank] = value
        ctx.wait_barrier()
        contributions = list(ctx.slots)
        ctx.wait_barrier()  # all ranks read before slots are reused
        return _reduce_in_order(contributions, op)

    def allgather(self, value) -> list:
        ctx = self._ctx
        self.stats.allgathers += 1
        ctx.slots[self._rank] = value
        ctx.wait_barrier()
        out = list(ctx.slots)
        ctx.wait_barrier()
        return out

    def bcast(self, value, root: int = 0):
        ctx = self._ctx
        self.stats.bcasts += 1
        if self._rank == root:
            ctx.slots[root] = value
        ctx.wait_barrier()
        out = ctx.slots[root]
        ctx.wait_barrier()
        return out

    def send(self, array: np.ndarray, dest: int, tag: int) -> None:
        if not 0 <= dest < self.size or dest == self._rank:
            raise ValueError(f"bad destination rank {dest}")
        self.stats.sends += 1
        self.stats.send_bytes += array.nbytes
        # Copy: the sender may overwrite its buffer immediately after,
        # matching MPI's buffered-send semantics.  The copy lands in a
        # recycled transport buffer when the channel has one (put back
        # by a matching ``recv_into``); otherwise a fresh buffer is
        # allocated, as before.
        free = self._ctx.freelist(
            self._rank, dest, tag, array.shape, array.dtype
        )
        try:
            buf = free.get_nowait()
        except queue.Empty:
            buf = np.empty(array.shape, dtype=array.dtype)
        np.copyto(buf, array)
        self._ctx.mailbox(self._rank, dest, tag).put((buf, free))

    def _pop_message(
        self, source: int, tag: int, timeout: float | None = None
    ) -> tuple:
        q = self._ctx.mailbox(source, self._rank, tag)
        wait = self._ctx.timeout if timeout is None else timeout
        try:
            return q.get(timeout=wait)
        except queue.Empty:
            raise CommTimeoutError(self._rank, source, tag, wait) from None

    def recv(
        self, source: int, tag: int, timeout: float | None = None
    ) -> np.ndarray:
        if not 0 <= source < self.size or source == self._rank:
            raise ValueError(f"bad source rank {source}")
        array, _free = self._pop_message(source, tag, timeout)
        # Ownership of the buffer transfers to the caller, so it cannot
        # be recycled; the channel's next send allocates afresh.
        self.stats.recvs += 1
        self.stats.recv_bytes += array.nbytes
        return array

    def recv_into(
        self,
        source: int,
        tag: int,
        out: np.ndarray,
        timeout: float | None = None,
    ) -> None:
        if not 0 <= source < self.size or source == self._rank:
            raise ValueError(f"bad source rank {source}")
        array, free = self._pop_message(source, tag, timeout)
        if array.shape != out.shape:
            raise RuntimeError(
                f"recv_into size mismatch from rank {source}: "
                f"got {array.shape}, expected {out.shape}"
            )
        self.stats.recvs += 1
        self.stats.recv_bytes += array.nbytes
        np.copyto(out, array)
        free.put(array)  # recycle the transport buffer


def _reduce_in_order(contributions: list, op: str):
    """Reduce rank contributions in rank order (deterministic)."""
    if op not in ("sum", "max", "min"):
        raise ValueError(f"unsupported reduction op {op!r}")
    first = contributions[0]
    if isinstance(first, np.ndarray):
        acc = first.astype(first.dtype, copy=True)
        for c in contributions[1:]:
            if op == "sum":
                acc += c
            elif op == "max":
                np.maximum(acc, c, out=acc)
            else:
                np.minimum(acc, c, out=acc)
        return acc
    acc = first
    for c in contributions[1:]:
        if op == "sum":
            acc = acc + c
        elif op == "max":
            acc = max(acc, c)
        else:
            acc = min(acc, c)
    return acc


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    **kwargs: Any,
) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` rank threads.

    Returns the per-rank return values in rank order.  If any rank
    raises, all ranks are aborted and the first exception (by rank) is
    re-raised with rank context.
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    ctx = _SPMDContext(nranks, timeout)
    results: list[Any] = [None] * nranks
    errors: list[tuple[int, BaseException]] = []
    errors_lock = threading.Lock()

    def worker(rank: int) -> None:
        comm = ThreadComm(ctx, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            with errors_lock:
                errors.append((rank, exc))
            ctx.abort.set()
            ctx.barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}")
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if errors:
        errors.sort(key=lambda e: e[0])
        rank, exc = errors[0]
        if isinstance(exc, threading.BrokenBarrierError):
            # Secondary failure; prefer a primary error if present.
            for r, e in errors:
                if not isinstance(e, threading.BrokenBarrierError):
                    rank, exc = r, e
                    break
        raise RuntimeError(f"SPMD rank {rank} failed: {exc!r}") from exc
    return results

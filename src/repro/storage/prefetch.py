"""Partition prefetching: overlap disk IO with training (paper Steps A-D).

"When prefetching is used to mask the IO latency required to load S_{i+1}
during mini-batch training on S_i ..." (Section 5.1).
:class:`PrefetchingBufferManager` is the one way a writable
:class:`PartitionBuffer` changes residency, and it moves both halves of a
swap's I/O off the training thread. At each plan step the training thread
only remaps rows (:meth:`PartitionBuffer.set_partitions`): leaving
partitions are detached from the buffer, arriving ones are mapped from
staging slots that are already filled. It then queues one job on the
manager's I/O thread, which writes every dirty detached slot back to the
store and reads the *next* step's partitions straight into free staging
slots while the trainer works on the current one. A step with no successor
(the continual trainer's resident sets, a restore) queues only the
write-backs.

Slot ownership: the training thread owns the resident slots; the I/O
thread owns detached and staged slots while its job runs. Jobs run one at a
time, in order, so a partition evicted at step i and read again for step
i+1 is written before it is read. Every other store access (the next
``load_step``, a missed partition's synchronous read, ``finish``,
``flush``/snapshots, ``drop_all``/``reset``, evaluation's table read)
waits for the job first. (Read-only serving buffers have nothing to write
back and swap without a manager.)

The disk reads and writes still happen (and are still counted by
:class:`IOStats`) — prefetching changes *when* they happen, which is what
the balanced-workload argument for COMET (Section 7.5) is about: a policy
whose steps carry similar amounts of training work gives the I/O thread
time to finish; a front-loaded policy exposes the tail IO.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

from .buffer import PartitionBuffer, SlotIO


class PrefetchError(RuntimeError):
    """A partition I/O job failed; the original error is chained.

    Write-backs of that job may be missing or torn: resume from a snapshot.
    """


class PrefetchingBufferManager:
    """Drives a :class:`PartitionBuffer` through an epoch plan with prefetch.

    Usage: call :meth:`load_step` for each step; the manager swaps the buffer
    (admitting staged slots when the I/O thread filled them in time) and
    queues the write-back of the leaving partitions plus the read of the
    next step's incoming ones. ``hits`` counts partitions admitted from a
    staged slot.

    An I/O-thread exception is re-raised as :class:`PrefetchError` from the
    next wait (hence from ``load_step``/``finish`` or any buffer call that
    touches the store) instead of dying silently on the thread — a failed
    read must abort the swap that depended on it, not hand the trainer a
    silent miss.

    ``fault_hook`` is a test-only crash-injection point, called with a
    crash-point name: ``swap-evicted`` on the training thread between
    detaching and admitting, ``prefetch-staged`` after admitting a staged
    slot, and ``writeback-pending`` on the I/O thread before each dirty
    partition's write-back.
    """

    def __init__(self, buffer: PartitionBuffer,
                 fault_hook: Optional[Callable[[str], None]] = None) -> None:
        self.buffer = buffer
        self.fault_hook = fault_hook
        self._io = ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="partition-io")
        self._pending: Optional[Future] = None
        self.hits = 0
        buffer.enable_staging(self.wait, self._fire)

    def _fire(self, point: str) -> None:
        if point == "prefetch-staged":
            self.hits += 1
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _job(self, writes: List[SlotIO], reads: List[SlotIO]) -> None:
        """Runs on the I/O thread: write-backs first, then reads."""
        store = self.buffer.store
        for part, (data, state) in writes:
            self._fire("writeback-pending")
            store.write_partition(part, data, state)
        for part, views in reads:
            store.read_partition(part, out=views)

    def wait(self) -> None:
        """Block until the queued I/O job (if any) completes.

        Raises :class:`PrefetchError` if it failed; the partitions it was
        staging are dropped, so a later step reads them again.
        """
        pending, self._pending = self._pending, None
        if pending is None:
            return
        error = pending.exception()
        if error is not None:
            self.buffer.drop_staged()
            raise PrefetchError(f"partition I/O job failed: {error!r}") from error

    def load_step(self, partitions: Sequence[int],
                  next_partitions: Optional[Sequence[int]] = None) -> int:
        """Swap the buffer to ``partitions``; start staging the next set.

        With no ``next_partitions`` the queued job only writes back the
        partitions that left dirty. Returns the number of partitions moved
        (reads + evictions).
        """
        buf = self.buffer
        self.wait()
        moved = buf.set_partitions(partitions)
        incoming = sorted({int(p) for p in next_partitions or ()}
                          - set(buf.resident))
        writes, reads = buf.stage(incoming)
        if writes or reads:
            self._pending = self._io.submit(self._job, writes, reads)
        return moved

    def finish(self) -> None:
        """Wait for the I/O thread, drop staged slots, flush dirty partitions.

        Raises :class:`PrefetchError` if a job failed since the last
        ``load_step`` — shutdown must not swallow I/O failures.
        """
        self.wait()
        self.buffer.drop_staged()
        self.buffer.flush()

    def reset(self) -> None:
        """Discard in-flight, staged and resident partitions (resume path).

        Nothing is written back. A pending job error is also cleared: a
        restore rewrites the store and refills the buffer, so a failure to
        write or stage is moot.
        """
        try:
            self.wait()
        except PrefetchError:
            pass
        self.buffer.drop_all()

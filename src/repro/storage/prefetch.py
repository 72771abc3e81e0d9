"""Partition prefetching: overlap disk IO with training (paper Steps A-D).

"When prefetching is used to mask the IO latency required to load S_{i+1}
during mini-batch training on S_i ..." (Section 5.1). :class:`Prefetcher`
reads the partitions of the *next* epoch step on a background thread while
the trainer works on the current one; when the swap arrives, already-staged
partitions are admitted from memory instead of disk.

The disk reads still happen (and are still counted by :class:`IOStats`) —
prefetching changes *when* they happen, which is what the balanced-workload
argument for COMET (Section 7.5) is about: a policy whose steps carry similar
amounts of training work gives the prefetcher time to finish; a front-loaded
policy exposes the tail IO.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .buffer import PartitionBuffer
from .node_store import NodeStore


class PrefetchError(RuntimeError):
    """A background prefetch worker died; the original error is chained."""


class Prefetcher:
    """Stages upcoming partitions in memory ahead of the buffer swap.

    A worker-thread exception is captured and re-raised from the next
    :meth:`wait` (hence from ``load_step``/``finish``) instead of dying
    silently inside the daemon thread — a prefetch that failed to read a
    partition must abort the swap that depended on it, not hand the trainer
    a silent miss.
    """

    def __init__(self, store: NodeStore) -> None:
        self.store = store
        self._staged: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self.prefetch_hits = 0
        self.prefetch_misses = 0

    # ------------------------------------------------------------------
    def start(self, partitions: Sequence[int]) -> None:
        """Begin reading ``partitions`` in the background (non-blocking)."""
        self.wait()
        parts = [int(p) for p in partitions]

        def work() -> None:
            try:
                for part in parts:
                    data, state = self.store.read_partition(part)
                    with self._lock:
                        self._staged[part] = (data, state)
            except BaseException as exc:  # surfaced by the next wait()
                with self._lock:
                    self._error = exc

        self._thread = threading.Thread(target=work, daemon=True)
        self._thread.start()

    def wait(self) -> None:
        """Block until the in-flight prefetch (if any) completes.

        Raises :class:`PrefetchError` if the worker thread failed.
        """
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._lock:
            error, self._error = self._error, None
        if error is not None:
            raise PrefetchError(
                f"prefetch worker failed: {error!r}") from error

    def take(self, part: int) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Hand over a staged partition, or ``None`` on a miss."""
        with self._lock:
            item = self._staged.pop(part, None)
        if item is not None:
            self.prefetch_hits += 1
        else:
            self.prefetch_misses += 1
        return item

    def drop_all(self) -> None:
        with self._lock:
            self._staged.clear()


class PrefetchingBufferManager:
    """Drives a :class:`PartitionBuffer` through an epoch plan with prefetch.

    Usage: call :meth:`load_step` for each step; the manager swaps the buffer
    (using staged data when the prefetcher finished in time) and immediately
    starts prefetching the next step's incoming partitions.

    ``fault_hook`` is a test-only crash-injection point, called with a
    crash-point name at the swap's I/O boundaries (``swap-evicted`` between
    the eviction and admission halves of a swap, ``prefetch-staged`` between
    taking staged prefetch data and applying it to the buffer).
    """

    def __init__(self, buffer: PartitionBuffer,
                 fault_hook: Optional[Callable[[str], None]] = None) -> None:
        self.buffer = buffer
        self.prefetcher = Prefetcher(buffer.store)
        self.fault_hook = fault_hook

    def _fire(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def load_step(self, partitions: Sequence[int],
                  next_partitions: Optional[Sequence[int]] = None) -> int:
        """Swap the buffer to ``partitions``; start prefetching the next set.

        Returns the number of partitions moved (reads + evictions).
        """
        wanted = set(int(x) for x in partitions)
        if len(wanted) > self.buffer.capacity:
            raise ValueError(
                f"requested {len(wanted)} partitions, capacity {self.buffer.capacity}")
        self.prefetcher.wait()
        removed = []
        added = []
        for part in [q for q in self.buffer.resident if q not in wanted]:
            self.buffer.evict(part)
            removed.append(part)
        self._fire("swap-evicted")
        for part in sorted(wanted):
            if self.buffer.is_resident(part):
                continue
            staged = self.prefetcher.take(part)
            if staged is not None:
                self._fire("prefetch-staged")
                self.buffer.admit_preloaded(part, *staged)
            else:
                self.buffer.admit(part)
            added.append(part)
        moved = len(added) + len(removed)
        self.buffer.notify_swap(added, removed)
        if next_partitions is not None:
            incoming = [p for p in next_partitions
                        if not self.buffer.is_resident(int(p))]
            if incoming:
                self.prefetcher.start(incoming)
        return moved

    def finish(self) -> None:
        """Flush dirty partitions and drop any staged data.

        Raises :class:`PrefetchError` if a prefetch worker died since the
        last ``load_step`` — shutdown must not swallow worker failures.
        """
        self.prefetcher.wait()
        self.prefetcher.drop_all()
        self.buffer.flush()

    def reset(self) -> None:
        """Discard in-flight and staged prefetch data (resume path).

        A pending worker error is also cleared: after a restore the staged
        data would be dropped anyway, so a failure to produce it is moot.
        """
        try:
            self.prefetcher.wait()
        except PrefetchError:
            pass
        self.prefetcher.drop_all()

    @property
    def hits(self) -> int:
        return self.prefetcher.prefetch_hits

    @property
    def misses(self) -> int:
        return self.prefetcher.prefetch_misses

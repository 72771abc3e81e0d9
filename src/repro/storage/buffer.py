"""The partition buffer: in-CPU-memory cache of node partitions.

MariusGNN "uses a buffer with capacity of c physical node partitions"
(Section 3). :class:`PartitionBuffer` holds partitions read from the
:class:`~repro.storage.node_store.NodeStore`, provides a global-id gather for
mini-batch construction, and applies row-sparse Adagrad updates in place
(Step 6 of the mini-batch lifecycle).

Partitions live in one flat *slab* array of equal slots; ``_slab_row`` maps
each resident global node ID to its slab row. :meth:`gather` and
:meth:`apply_gradients` are therefore a single vectorized fancy-index over
the slab — no per-partition Python loop on the mini-batch hot path. Disk
reads land directly in a slot (``NodeStore.read_partition(out=...)``) and
write-backs go straight from it: a partition's bytes are copied once each
way. A write-back to a partition file a snapshot links replaces the file
instead of writing into it (the store's link rule), so it never changes a
snapshot.

Swapping to the next partition set (:meth:`set_partitions`) is a diff that
only remaps rows: leaving partitions are *detached* and arriving ones
admitted — one logical-partition swap per step under COMET (Steps A-D in
Figure 2). Registered *swap listeners* receive that diff
(``fn(added, removed)``), which is how samplers keep their partition-aware
adjacency index incremental instead of re-sorting the in-buffer edge list.

**Prefetching** (Section 5.1: "prefetching is used to mask the IO latency
required to load S_{i+1} during mini-batch training on S_i"). The slab has
``2 * capacity`` slots: ``capacity`` resident ones and as many *staging*
ones. Every trainer changes residency only through :meth:`load_step`,
which remaps rows on the training thread (leaving partitions detached,
arriving ones mapped from staging slots that are already filled) and then
queues one job on the buffer's single I/O thread: it writes every dirty
detached slot back to the store, then reads the *next* step's partitions
straight into free staging slots while the trainer works on the current
one. A step with no successor (the continual trainer's resident sets, a
restore) queues only the write-backs.

Slot ownership: the training thread owns resident slots; the I/O thread
owns detached and staged slots while its job runs. Jobs run one at a time,
in order, so a partition evicted at step i and read again for step i+1 is
written before it is read. Every other store or free-slot access (the
next ``load_step``, a missed partition's synchronous read, ``finish``,
``flush``/snapshots, ``drop_all``/``reset``) waits for the job first. An
I/O-thread error surfaces as :class:`PrefetchError` at that wait. The disk
reads and writes still happen (and are still counted by :class:`IOStats`);
prefetching changes *when* they happen, which is what the balanced-workload
argument for COMET (Section 7.5) is about.

Inference serving keeps no partition buffer: a read-only server has no
epoch plan and nothing to write back, so
:class:`~repro.serve.engine.ServingEngine` reads the store's partition
maps in place.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.optim import RowAdagrad
from ..obs.registry import get_registry
from .io_stats import IOStats
from .node_store import NodeStore

SwapListener = Callable[[List[int], List[int]], None]
#: ``(partition, (data, state))`` — a slot's views, handed to the I/O thread.
SlotIO = Tuple[int, Tuple[np.ndarray, Optional[np.ndarray]]]


class PrefetchError(RuntimeError):
    """A partition I/O job failed; the original error is chained.

    Write-backs of that job may be missing or torn: resume from a snapshot.
    """


class PartitionBuffer:
    """Holds up to ``capacity`` physical node partitions in memory.

    ``hits`` counts partitions admitted from a staged slot. ``fault_hook``
    is a test-only crash-injection point, called with a crash-point name:
    ``swap-evicted`` on the training thread between detaching and
    admitting, ``prefetch-staged`` after admitting a staged slot, and
    ``writeback-pending`` on the I/O thread before each dirty partition's
    write-back.
    """

    def __init__(self, store: NodeStore, capacity: int,
                 optimizer: Optional[RowAdagrad] = None,
                 fault_hook: Optional[Callable[[str], None]] = None) -> None:
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        if capacity > store.num_partitions:
            raise ValueError(
                f"capacity {capacity} exceeds partition count {store.num_partitions}"
            )
        self.store = store
        self.capacity = capacity
        self.optimizer = optimizer
        self.stats: IOStats = store.stats
        self.fault_hook = fault_hook
        self.hits = 0
        self._slot_size = int(store.scheme.sizes().max())
        self._free_slots = list(range(2 * capacity - 1, -1, -1))
        self._slab = self._new_slab()
        # Adagrad state rows beside the slab, allocated at the first fill
        # from a learnable store.
        self._state_slab: Optional[np.ndarray] = None
        self._slot_of: Dict[int, int] = {}          # resident partition -> slot
        self._dirty: Dict[int, bool] = {}
        self._staged: Dict[int, int] = {}           # read-ahead partition -> slot
        self._detached: Dict[int, int] = {}         # partition -> slot to write back
        self._io = ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="partition-io")
        self._pending: Optional[Future] = None
        # Global node id -> row in the slab; -1 if not resident.
        self._slab_row = np.full(store.num_nodes, -1, dtype=np.int64)
        self._partition_of_row = np.full(store.num_nodes, -1, dtype=np.int32)
        self._resident_ids: Optional[np.ndarray] = None   # resident_nodes()
        self._swap_listeners: List[SwapListener] = []

    # ------------------------------------------------------------------
    @property
    def resident(self) -> List[int]:
        return sorted(self._slot_of)

    @property
    def num_nodes(self) -> int:
        """Node IDs the slab maps cover: the store's count at the last
        construction or :meth:`refresh_from_store`."""
        return len(self._slab_row)

    def dirty_partitions(self) -> List[int]:
        """Resident partitions holding updates not yet written back."""
        return sorted(p for p, dirty in self._dirty.items() if dirty)

    def node_mask(self) -> np.ndarray:
        """Boolean mask over all nodes: resident in the buffer or not."""
        return self._slab_row >= 0

    def add_swap_listener(self, fn: SwapListener) -> None:
        """Register ``fn(added, removed)`` to observe buffer-swap diffs."""
        self._swap_listeners.append(fn)

    def notify_swap(self, added: Sequence[int], removed: Sequence[int]) -> None:
        """Report a completed swap diff to the registered listeners."""
        if not (added or removed):
            return
        added = sorted(int(p) for p in added)
        removed = sorted(int(p) for p in removed)
        for fn in self._swap_listeners:
            fn(added, removed)

    # ------------------------------------------------------------------
    def _new_slab(self) -> np.ndarray:
        return np.empty((2 * self.capacity * self._slot_size, self.store.dim),
                        dtype=np.float32)

    def _views(self, slot: int, part: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """A slot's rows for ``part`` in the slab and the state slab."""
        if self._state_slab is None and self.store.learnable:
            self._state_slab = np.empty_like(self._slab)
        base = slot * self._slot_size
        rows = slice(base, base + self.store.scheme.partition_size(part))
        state = self._state_slab[rows] if self._state_slab is not None else None
        return self._slab[rows], state

    def _map(self, part: int, slot: int, dirty: bool = False) -> None:
        """Make a filled slot the resident copy of ``part``."""
        self._slot_of[part] = slot
        self._dirty[part] = dirty
        self._resident_ids = None
        lo, hi = self.store.scheme.boundaries[part : part + 2]
        base = slot * self._slot_size
        self._slab_row[lo:hi] = np.arange(base, base + (hi - lo), dtype=np.int64)
        self._partition_of_row[lo:hi] = part

    def _unmap(self, part: int) -> int:
        """Drop ``part`` from residency; returns its (still filled) slot."""
        del self._dirty[part]
        self._resident_ids = None
        lo, hi = self.store.scheme.boundaries[part : part + 2]
        self._slab_row[lo:hi] = -1
        self._partition_of_row[lo:hi] = -1
        return self._slot_of.pop(part)

    def admit(self, part: int) -> None:
        """Make ``part`` resident (the buffer must have room).

        A partition the I/O thread staged is mapped from its slot, and one
        detached but not yet handed to the I/O thread gets its (still
        dirty) slot back: reading disk would lose its updates. Any other
        is read from disk into a free slot.
        """
        if part in self._slot_of:
            return
        if len(self._slot_of) >= self.capacity:
            raise RuntimeError(f"buffer full ({self.capacity}); detach "
                               f"before admitting {part}")
        self.wait()
        if part in self._detached:
            self._map(part, self._detached.pop(part), dirty=True)
            return
        slot = self._staged.pop(part, None)
        if slot is not None:
            self._map(part, slot)
            self._fire("prefetch-staged")
            return
        slot = self._free_slots.pop()
        t0 = time.perf_counter()
        try:
            self.store.read_partition(part, out=self._views(slot, part))
        except BaseException:
            self._free_slots.append(slot)
            raise
        obs = get_registry()
        obs.histogram("storage.swap.load_ms").observe(
            1000.0 * (time.perf_counter() - t0))
        obs.counter("storage.swaps").inc()
        self._map(part, slot)

    def detach(self, part: int) -> None:
        """Unmap a resident partition without copying it.

        A clean partition's slot is freed at once; a dirty one's is held
        for the next :meth:`stage` to hand to the I/O thread for
        write-back.
        """
        if part not in self._slot_of:
            raise KeyError(f"partition {part} is not resident")
        dirty = self._dirty[part]
        slot = self._unmap(part)
        if dirty:
            self._detached[part] = slot
        else:
            self._free_slots.append(slot)

    # -- prefetching (training thread, except :meth:`_job`) ---------------
    def _fire(self, point: str) -> None:
        if point == "prefetch-staged":
            self.hits += 1
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _job(self, writes: List[SlotIO], reads: List[SlotIO]) -> None:
        """Runs on the I/O thread: write-backs first, then reads."""
        for part, (data, state) in writes:
            self._fire("writeback-pending")
            self.store.write_partition(part, data, state)
        for part, views in reads:
            self.store.read_partition(part, out=views)

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
            self.drop_staged()
            raise PrefetchError(f"partition I/O job failed: {error!r}") from error

    def load_step(self, partitions: Sequence[int],
                  next_partitions: Optional[Sequence[int]] = None) -> int:
        """Swap to ``partitions``; start staging ``next_partitions``.

        With no ``next_partitions`` the queued job only writes back the
        partitions that left dirty. Returns the number of partitions moved
        (reads + evictions).
        """
        self.wait()
        moved = self.set_partitions(partitions)
        # Built before the I/O thread competes for the interpreter lock.
        self.resident_nodes()
        incoming = sorted({int(p) for p in next_partitions or ()}
                          - set(self._slot_of))
        writes, reads = self.stage(incoming)
        if writes or reads:
            self._pending = self._io.submit(self._job, writes, reads)
        return moved

    def finish(self) -> None:
        """Wait for the I/O thread, drop staged slots, flush dirty partitions.

        Raises :class:`PrefetchError` if a job failed since the last
        ``load_step``: shutdown must not swallow I/O failures.
        """
        self.wait()
        self.drop_staged()
        self.flush()

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
        self.drop_all()

    def drop_staged(self) -> None:
        """Free the slots of staged partitions that were not admitted."""
        self._free_slots.extend(self._staged.values())
        self._staged.clear()

    def stage(self, parts: Sequence[int]) -> Tuple[List[SlotIO], List[SlotIO]]:
        """Plan the next I/O job: ``(write_backs, reads)``.

        The write-backs are the dirty detached slots; ``parts`` are given
        free slots to be read into. A detached slot may be reused for a
        read because the job writes everything back before it reads.
        """
        writes = [(part, self._views(slot, part))
                  for part, slot in self._detached.items()]
        self._free_slots.extend(self._detached.values())
        self._detached.clear()
        reads = []
        for part in parts:
            slot = self._staged[part] = self._free_slots.pop()
            reads.append((part, self._views(slot, part)))
        return writes, reads

    # ------------------------------------------------------------------
    def set_partitions(self, parts: Sequence[int]) -> int:
        """Remap the buffer to exactly ``parts``; returns #partitions moved.

        Leaving partitions are detached, staged slots the new set does not
        use are freed, and arriving partitions are admitted. Registered
        swap listeners are called with the (added, removed) diff. Trainers
        reach this through :meth:`load_step`, which writes detached dirty
        partitions back.
        """
        wanted = sorted(set(int(x) for x in parts))
        if len(wanted) > self.capacity:
            raise ValueError(f"requested {len(wanted)} partitions, capacity {self.capacity}")
        keep = set(wanted)
        removed = [q for q in self.resident if q not in keep]
        for part in removed:
            self.detach(part)
        self._fire("swap-evicted")
        for part in [q for q in self._staged if q not in keep]:
            self._free_slots.append(self._staged.pop(part))
        added = [q for q in wanted if q not in self._slot_of]
        for part in added:
            self.admit(part)
        self.notify_swap(added, removed)
        return len(added) + len(removed)

    def drop_all(self) -> None:
        """Discard every resident and staged partition WITHOUT write-back.

        The crash-recovery path: whatever the buffer holds is about to be
        superseded by a snapshot restore, so flushing it would overwrite the
        store with post-snapshot (possibly corrupt) state. Swap listeners
        are notified so partition-aware sampler indexes drop the partitions
        too.
        """
        self.wait()
        self.drop_staged()
        self._free_slots.extend(self._detached.values())
        self._detached.clear()
        dropped = sorted(self._slot_of)
        for part in dropped:
            self._free_slots.append(self._unmap(part))
        self.notify_swap([], dropped)

    def flush(self) -> None:
        """Write every dirty partition back: resident ones stay resident;
        detached ones no I/O job has taken yet are freed."""
        self.wait()
        writes = self.stage(())[0] + [
            (part, self._views(self._slot_of[part], part))
            for part in self.dirty_partitions()]
        for part, (data, state) in writes:
            self.store.write_partition(part, data, state)
            if part in self._slot_of:
                self._dirty[part] = False

    def refresh_from_store(self, parts: Optional[Sequence[int]] = None) -> None:
        """Re-sync with a store whose table changed underneath the buffer.

        The streaming subsystem's invalidation hook: after the node table
        grows (new streamed nodes extend the last partition) or its rows
        change, in-buffer copies are stale. ``parts`` names the changed
        partitions (``None`` = all); resident ones among them are re-read.
        Dirty partitions are written back
        *first* (row-span writes: a grown partition's in-buffer copy covers
        only its old rows), the node-to-slab maps are extended to the
        store's ``num_nodes``, and the slab is reallocated — every resident
        partition reinstalled — only if the largest partition outgrew the
        slot size. Swap listeners are not notified: residency is unchanged.
        """
        self.wait()
        new_slot = int(self.store.scheme.sizes().max())
        stale = sorted(self._slot_of) if parts is None else sorted(
            int(q) for q in parts if int(q) in self._slot_of)
        if new_slot > self._slot_size:
            # Slot geometry changed: every view into the slab moves.
            stale = sorted(self._slot_of)
        for part in stale:
            if self._dirty[part]:
                lo = int(self.store.scheme.boundaries[part])
                # The slot holds the rows mapped at admission; a grown
                # partition's new rows are not among them.
                rows = self._slab_row[self._partition_of_row == part]
                state = (self._state_slab[rows]
                         if self._state_slab is not None else None)
                self.store.write_span(lo, self._slab[rows], state)
            self._dirty[part] = False
            self._free_slots.append(self._unmap(part))
        num_nodes = self.store.num_nodes
        if num_nodes > len(self._slab_row):
            pad = num_nodes - len(self._slab_row)
            self._slab_row = np.concatenate(
                [self._slab_row, np.full(pad, -1, dtype=np.int64)])
            self._partition_of_row = np.concatenate(
                [self._partition_of_row, np.full(pad, -1, dtype=np.int32)])
        if new_slot > self._slot_size:
            # Every slot is free now: reallocate at the new slot size.
            self._slot_size = new_slot
            self._slab = self._new_slab()
            self._state_slab = None
        for part in stale:
            self.admit(part)

    # ------------------------------------------------------------------
    def gather(self, node_ids: np.ndarray) -> np.ndarray:
        """Copy the rows of ``node_ids`` (global IDs; must all be resident)."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        rows = self._slab_row[node_ids]
        if (rows < 0).any():
            missing = node_ids[rows < 0][:5]
            raise KeyError(f"nodes not resident in buffer (first few: {missing.tolist()})")
        return self._slab[rows]

    def apply_gradients(self, node_ids: np.ndarray, grads: np.ndarray) -> None:
        """Row-sparse optimizer update for learnable representations (Step 6)."""
        if self.optimizer is None:
            raise RuntimeError("buffer was built without an embedding optimizer")
        node_ids = np.asarray(node_ids, dtype=np.int64)
        rows = self._slab_row[node_ids]
        if (rows < 0).any():
            raise KeyError("gradient rows must be resident in the buffer")
        if self._state_slab is None:
            raise RuntimeError("resident partitions have no optimizer state")
        self.optimizer.update(self._slab, self._state_slab, rows, grads)
        touched = np.bincount(self._partition_of_row[node_ids])
        for part in np.flatnonzero(touched).tolist():
            self._dirty[part] = True

    def resident_nodes(self) -> np.ndarray:
        """All node IDs currently resident (for in-memory negative
        sampling), built once per residency; callers must not modify it."""
        if self._resident_ids is None:
            bounds = self.store.scheme.boundaries
            self._resident_ids = np.concatenate(
                [np.empty(0, dtype=np.int64)]
                + [np.arange(bounds[p], bounds[p + 1], dtype=np.int64)
                   for p in sorted(self._slot_of)])
        return self._resident_ids

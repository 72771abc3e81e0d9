"""Reusable fault-injection harness for crash-safety tests.

The production code exposes narrow test-only hooks (``fault_hook`` on
:class:`~repro.train.checkpoint.SnapshotManager` and
:class:`~repro.storage.buffer.PartitionBuffer`); this module
provides the other half: a :class:`FaultInjector` that "kills" the process
(raises :class:`SimulatedCrash`) the N-th time a chosen :class:`CrashPoint`
is hit, and :class:`FaultyStorage`, which wraps a live
:class:`~repro.storage.node_store.NodeStore` *in place* so every holder of
the store (the buffer and its I/O thread) sees the same faulty I/O
boundaries. A crash raised on the I/O thread reaches the trainer as
:class:`~repro.storage.buffer.PrefetchError` at its next wait.

A write crash is **torn**: half the partition's rows are replaced with NaNs
before the crash fires, modelling a partial write-back. Recovery code must
therefore treat the workdir memmaps as scratch and rebuild them from the
snapshot — exactly what the trainers' ``resume()`` does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.storage import NodeStore


class SimulatedCrash(Exception):
    """Stands in for a killed worker at an I/O boundary."""


class CrashPoint:
    """Registered crash points across the training stack."""

    # NodeStore I/O boundaries (FaultyStorage)
    NODE_READ = "node-read"                  # partition read (admit/staging)
    NODE_WRITE = "node-write"                # partition write-back — torn
                                             # (on the I/O thread for swaps)

    # PartitionBuffer hooks: the one swap path of every disk
    # trainer (lp-disk, nc-disk, lp-stream; see docs/checkpointing.md for
    # which trainer reaches which point)
    SWAP_EVICTED = "swap-evicted"            # mid-swap: detached, not admitted
    PREFETCH_STAGED = "prefetch-staged"      # staged slot admitted, swap
                                             # not complete
    WRITEBACK_PENDING = "writeback-pending"  # I/O thread: dirty partition
                                             # detached, not yet written back

    # SnapshotManager hooks
    SNAPSHOT_BEGIN = "snapshot-begin"        # temp dir created, nothing in it
    SNAPSHOT_MID_FILES = "snapshot-mid-files"  # first file written or
                                               # linked, no manifest yet
    SNAPSHOT_PRE_RENAME = "snapshot-pre-rename"    # fully written, not visible
    SNAPSHOT_POST_RENAME = "snapshot-post-rename"  # visible, pruning pending

    # WriteAheadLog hooks (streaming durability)
    WAL_FRAME_MID = "wal-frame-mid"          # half a frame on disk — torn tail
    WAL_TRUNCATE_PRE = "wal-truncate-pre"    # meta written, segments not yet
                                             # unlinked

    # GraphDeltaLog append hook (the name predates the journal-only log)
    SPILL_POST_WRITE = "spill-post-write"    # frame journaled, bucket index
                                             # not yet updated

    # EdgeBucketStore compaction hooks
    REWRITE_STAGED = "rewrite-staged"        # layout.next staged, bucket file
                                             # still the old bytes
    REWRITE_POST_RENAME = "rewrite-post-rename"  # new bytes committed, layout
                                                 # sidecar not yet promoted

    # Telemetry sink hook (repro.obs.sinks)
    SINK_FLUSH_MID = "sink-flush-mid"        # half a flush on disk — torn
                                             # trailing record

    ALL = (NODE_READ, NODE_WRITE, SWAP_EVICTED, PREFETCH_STAGED,
           WRITEBACK_PENDING, SNAPSHOT_BEGIN, SNAPSHOT_MID_FILES,
           SNAPSHOT_PRE_RENAME, SNAPSHOT_POST_RENAME,
           WAL_FRAME_MID, WAL_TRUNCATE_PRE, SPILL_POST_WRITE,
           REWRITE_STAGED, REWRITE_POST_RENAME, SINK_FLUSH_MID)


class FaultInjector:
    """Raises :class:`SimulatedCrash` the ``after+1``-th time the chosen
    crash point fires; inert afterwards (a process dies only once)."""

    def __init__(self, crash_at: str, after: int = 0) -> None:
        if crash_at not in CrashPoint.ALL:
            raise ValueError(f"unknown crash point {crash_at!r}")
        self.crash_at = crash_at
        self.after = int(after)
        self.seen = 0
        self.fired = False

    def fire(self, point: str) -> None:
        if self.fired or point != self.crash_at:
            return
        self.seen += 1
        if self.seen > self.after:
            self.fired = True
            raise SimulatedCrash(
                f"simulated crash at {point} (occurrence {self.seen})")


class FaultyStorage:
    """Wraps a :class:`NodeStore` in place with crash-injecting I/O.

    Because the instance's bound methods are replaced (not a subclass or a
    copy), the buffer, the I/O thread, and trainer all hit the faulty paths
    without any re-plumbing — including reads straight into a buffer slot
    (``out=``). ``uninstall()`` restores the originals.
    """

    def __init__(self, store: NodeStore, injector: FaultInjector) -> None:
        self.store = store
        self.injector = injector
        self._read = store.read_partition
        self._write = store.write_partition
        store.read_partition = self._read_hook    # type: ignore[method-assign]
        store.write_partition = self._write_hook  # type: ignore[method-assign]

    def uninstall(self) -> None:
        self.store.read_partition = self._read    # type: ignore[method-assign]
        self.store.write_partition = self._write  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def _read_hook(self, part: int, out=None):
        self.injector.fire(CrashPoint.NODE_READ)
        return self._read(part, out=out)

    def _write_hook(self, part: int, data: np.ndarray,
                    state: Optional[np.ndarray] = None) -> None:
        try:
            self.injector.fire(CrashPoint.NODE_WRITE)
        except SimulatedCrash:
            torn = np.array(data)
            torn[len(torn) // 2:] = np.nan
            self._write(part, torn, state)
            raise
        self._write(part, data, state)

"""The append-only graph delta log: edge events bucketed by partition pair.

Streamed edge insertions and deletions land here before compaction merges
them into the base :class:`~repro.storage.edge_store.EdgeBucketStore`.
The log keeps no event arrays of its own: its one store is the
:class:`~repro.stream.wal.WriteAheadLog` journal. Every append sorts its
batch by the partition pair ``(i, j)`` of the endpoints (stable, so each
bucket keeps arrival order; pairs are stable under node growth, because
streamed nodes only ever extend the *last* partition), assigns sequence
numbers in that order, and writes the batch as **one** EDGES frame. The
log then indexes each same-bucket run of the frame as ``(segment, byte
offset, rows, first seq)``, so reading one bucket's events gathers only
that bucket's runs from read-only maps of the segments, never the whole
log.

Forgetting: :meth:`mark_compacted` drops every index run below the
compaction horizon and lets the journal delete the segments wholly below
it. This is the bounded-history principle of the online-caching
literature (Colussi: the work function algorithm can forget history):
once deltas are merged into the base structures, replaying them can never
change observable behaviour, so they need not be retained.

With ``wal_dir`` the journal is **durable**: frames are fsync'd per
``fsync_every`` before the append is acknowledged, and :meth:`restore`
rebuilds the exact acknowledged state after a crash by indexing the
recovered frames in place. Without it the journal lives in ``journal_dir``
(a temporary directory if ``None``), is opened on the first append, never
fsyncs, and deletes the stale segments it finds when it opens.

The log is internally thread-safe (``_mutex``): ingest, overlay
composition, and compaction bookkeeping may be driven from different
threads — :class:`~repro.stream.live.LiveGraph`'s one writer lock
(``live.lock``) orders the writers, this mutex protects the index and the
segment maps. A bucket read takes its runs and maps under the mutex and
reads the mapped bytes outside it; a map stays valid after compaction
deletes its segment.
"""

from __future__ import annotations

import mmap
import os
from array import array
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs.registry import get_registry
from .wal import KIND_EDGES, WalFrame, WalRecovery, WriteAheadLog

OP_INSERT = 0
OP_DELETE = 1

_ROW_BYTES = 6 * 8                  # one (op, src, dst, rel, bi, bj) row

# One bucket's events: columnar, arrival-ordered.
PairEvents = Dict[str, np.ndarray]


def _empty_events() -> PairEvents:
    return {"op": np.empty(0, dtype=np.int64),
            "src": np.empty(0, dtype=np.int64),
            "dst": np.empty(0, dtype=np.int64),
            "rel": np.empty(0, dtype=np.int64),
            "seq": np.empty(0, dtype=np.int64)}


class GraphDeltaLog:
    """Append-only log of edge events, stored only in its journal.

    Parameters
    ----------
    num_partitions:
        Bucket grid size ``p`` (fixed for the lifetime of the stream; node
        growth extends the last partition, never the grid).
    has_relations:
        Whether events carry a relation column.
    journal_dir:
        Directory of the non-durable journal (used when ``wal_dir`` is
        ``None``); ``None`` puts it in a temporary directory.
    wal_dir:
        Directory of a durable journal; ``None`` (default) means nothing
        survives a crash except snapshots and compacted stores.
    fsync_every:
        Group-commit window of the durable journal: fsync after every N
        frames. 1 = every acknowledged append is durable.
    wal_segment_bytes:
        Journal segment rotation size.
    """

    def __init__(self, num_partitions: int, has_relations: bool = False,
                 journal_dir: Optional[os.PathLike] = None,
                 wal_dir: Optional[os.PathLike] = None,
                 fsync_every: int = 1,
                 wal_segment_bytes: int = 4 << 20) -> None:
        self.num_partitions = int(num_partitions)
        self.has_relations = bool(has_relations)
        self.journal_dir = journal_dir
        self.seq = 0               # next sequence number to assign
        self.compacted_seq = 0     # events below this are merged into base
        # Per bucket code ``i * p + j``: its runs, flattened as (segment
        # index, byte offset, rows, first seq) quadruples in seq order.
        self._runs: Dict[int, array] = {}
        self._maps: Dict[int, mmap.mmap] = {}
        self._mutex = threading.RLock()
        self.fault_hook: Optional[Callable[[str], None]] = None
        self._fsync_every = int(fsync_every)
        self._wal_segment_bytes = int(wal_segment_bytes)
        self.wal: Optional[WriteAheadLog] = None
        if wal_dir is not None:
            self.wal = self._open_durable(wal_dir)
        # Telemetry for the benchmark / CLI stats.
        self.events_appended = 0
        self.edges_inserted = 0
        self.edges_deleted = 0

    def _fire(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _open_durable(self, wal_dir: os.PathLike,
                      resume: Optional[WalRecovery] = None) -> WriteAheadLog:
        if self._fsync_every < 1:
            raise ValueError("fsync_every must be at least 1 for a durable "
                             "journal")
        return WriteAheadLog(wal_dir, fsync_every=self._fsync_every,
                             segment_bytes=self._wal_segment_bytes,
                             resume=resume)

    def _journal(self) -> WriteAheadLog:
        """The journal, opening the non-durable one on first use. Caller
        holds ``_mutex``."""
        if self.wal is None:
            if self.journal_dir is None:
                self._tmp = tempfile.TemporaryDirectory(prefix="journal-")
                self.journal_dir = self._tmp.name
            self.wal = WriteAheadLog(self.journal_dir, fsync_every=0,
                                     segment_bytes=self._wal_segment_bytes)
        return self.wal

    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Events not yet merged into the base structures (the staleness
        the compaction cadence trades against)."""
        return self.seq - self.compacted_seq

    # ------------------------------------------------------------------
    def append(self, op: int, src: np.ndarray, dst: np.ndarray,
               rel: Optional[np.ndarray], bi: np.ndarray,
               bj: np.ndarray) -> Tuple[int, int]:
        """Append one batch of same-op events; returns its ``[lo, hi)`` seq
        range. Endpoint validation and bucket assignment are the caller's
        (the :class:`~repro.stream.live.LiveGraph`'s) responsibility.

        The batch is journaled (and, durably, fsync'd per ``fsync_every``)
        **before** the index changes — a crash during the journal write
        leaves the log exactly as if the append never happened, so nothing
        unacknowledged can leak into recovery and nothing acknowledged can
        be lost.
        """
        n = len(src)
        if n == 0:
            return self.seq, self.seq
        bi = np.asarray(bi, dtype=np.int64)
        bj = np.asarray(bj, dtype=np.int64)
        codes = bi * self.num_partitions + bj
        order = np.argsort(codes, kind="stable")
        src = np.asarray(src, dtype=np.int64)[order]
        dst = np.asarray(dst, dtype=np.int64)[order]
        rel = (np.asarray(rel, dtype=np.int64)[order] if rel is not None
               else np.zeros(n, dtype=np.int64))
        t0 = time.perf_counter()
        with self._mutex:
            lo = self.seq
            segment, offset = self._journal().append_edges(
                lo, op, src, dst, rel, bi[order], bj[order])
            self._fire("spill-post-write")     # journaled, not indexed
            self._index(segment, offset, lo, codes[order])
            self.seq += n
            self.events_appended += n
            if op == OP_INSERT:
                self.edges_inserted += n
            else:
                self.edges_deleted += n
            get_registry().histogram("stream.append_ms").observe(
                1000.0 * (time.perf_counter() - t0))
            return lo, self.seq

    def _index(self, segment: int, offset: int, first_seq: int,
               codes: np.ndarray) -> None:
        """Index every same-bucket run of one journal frame's rows (their
        bucket codes, in row order). Caller holds ``_mutex``."""
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        ends = np.append(starts[1:], len(codes))
        for s, e, code in zip(starts.tolist(), ends.tolist(),
                              codes[starts].tolist()):
            self._runs.setdefault(code, array("q")).extend(
                (segment, offset + s * _ROW_BYTES, e - s, first_seq + s))

    def journal_nodes(self, old_total: int, new_total: int) -> None:
        """Journal a node-growth step (rows are deterministic per node id,
        so only the totals need to survive — see
        :class:`~repro.stream.wal.WriteAheadLog`)."""
        with self._mutex:
            if self.wal is not None and self.wal.durable:
                self.wal.append_nodes(self.seq, old_total, new_total)

    # ------------------------------------------------------------------
    def _map(self, segment: int, end: int) -> mmap.mmap:
        """A read-only map of journal segment ``segment`` covering its first
        ``end`` bytes, remapped when a run lies past the mapped length. A
        replaced map is dropped, never closed: a read outside the mutex may
        still be gathering from it. Caller holds ``_mutex``."""
        mapped = self._maps.get(segment)
        if mapped is None or len(mapped) < end:
            with open(self.wal.segment_path(segment), "rb") as fh:
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            self._maps[segment] = mapped
        return mapped

    def events_for_bucket(self, i: int, j: int,
                          upto_seq: Optional[int] = None) -> PairEvents:
        """Live events of bucket ``(i, j)`` with ``compacted_seq <= seq <
        upto_seq``, in arrival order, as columnar arrays."""
        with self._mutex:
            runs = self._runs.get(int(i) * self.num_partitions + int(j))
            if not runs:
                return _empty_events()
            quads = np.array(runs, dtype=np.int64).reshape(-1, 4)
            compacted = self.compacted_seq
            upto = self.seq if upto_seq is None else int(upto_seq)
            # Segments are nondecreasing along the runs, and the last run in
            # each reaches furthest into it. Map under the mutex, read
            # outside it: a map stays valid after compaction deletes its
            # segment.
            last = [len(quads) - 1]
            if quads[0, 0] != quads[-1, 0]:
                last[:0] = np.flatnonzero(quads[1:, 0] != quads[:-1, 0])
            maps = [self._map(int(quads[r, 0]),
                              int(quads[r, 1] + quads[r, 2] * _ROW_BYTES))
                    for r in last]
        rows = quads[:, 2]
        ends = rows.cumsum()
        before = ends - rows
        k = np.arange(ends[-1])
        seq = (quads[:, 3] - before).repeat(rows) + k
        at = (quads[:, 1] - before * _ROW_BYTES).repeat(rows) + k * _ROW_BYTES
        parts, lo = [], 0
        for mapped, r in zip(maps, last):
            # Row b of this view starts at byte b: one fancy index gathers
            # every run's rows, whatever their alignment.
            starts = np.ndarray((len(mapped) - _ROW_BYTES + 1, 6), np.int64,
                                buffer=mapped, strides=(1, 8))
            parts.append(starts[at[lo:ends[r]]])
            lo = ends[r]
        events = parts[0] if len(parts) == 1 else np.concatenate(parts)
        lo, hi = np.searchsorted(seq, (compacted, upto)).tolist()
        return {"op": events[lo:hi, 0], "src": events[lo:hi, 1],
                "dst": events[lo:hi, 2], "rel": events[lo:hi, 3],
                "seq": seq[lo:hi]}

    # ------------------------------------------------------------------
    def mark_compacted(self, upto_seq: int) -> None:
        """Forget every event below ``upto_seq`` (now merged into base).

        Index runs entirely below the horizon are dropped (reads ignore
        events below ``compacted_seq`` anyway), and journal segments
        covered by the new horizon are deleted.
        """
        upto = int(upto_seq)
        with self._mutex:
            if upto < self.compacted_seq:
                raise ValueError("compaction horizon cannot move backwards")
            self.compacted_seq = upto
            for code, runs in list(self._runs.items()):
                quads = np.array(runs, dtype=np.int64).reshape(-1, 4)
                dead = int(np.searchsorted(quads[:, 3] + quads[:, 2], upto,
                                           side="right"))
                if dead == len(quads):
                    del self._runs[code]
                else:
                    del runs[:4 * dead]
            if self.wal is not None:
                self.wal.truncate_covered(upto)
            needed = {seg for runs in self._runs.values()
                      for seg in runs[::4]}
            self._maps = {seg: mapped for seg, mapped in self._maps.items()
                          if seg in needed}

    # ------------------------------------------------------------------
    def restore(self, compacted_seq: int, recovery: WalRecovery,
                wal_dir: os.PathLike) -> List[WalFrame]:
        """Rebuild acknowledged state after a crash; must be called on a
        fresh, empty log.

        ``compacted_seq`` is the durable compaction horizon (from the edge
        store's layout sidecar — it commits atomically with the compacted
        bucket file). WAL frames from ``recovery`` are filtered against it
        and the remainder is returned for the
        :class:`~repro.stream.live.LiveGraph` to replay (each EDGES frame
        is then indexed in place by :meth:`restore_events`), in
        acknowledged order, with original sequence numbers. A horizon
        always falls between two appends, so each EDGES frame is either
        merged or replayed whole (:meth:`restore_events` refuses a gap or
        an overlap).

        A durable journal over ``wal_dir`` (the directory ``recovery`` was
        scanned from) resumes after ``recovery``'s segments; they stay on
        disk, holding the replayed suffix, until compaction covers them.
        """
        with self._mutex:
            if self.seq or self._runs:
                raise RuntimeError("restore() requires an empty log")
            self.compacted_seq = int(compacted_seq)
            floor = max(self.compacted_seq, recovery.covered_seq)
            self.seq = floor
            replay: List[WalFrame] = []
            for frame in recovery.frames:
                if frame.kind == KIND_EDGES and frame.seq_end <= floor:
                    continue          # already merged into base
                replay.append(frame)
            self.wal = self._open_durable(wal_dir, resume=recovery)
            return replay

    def restore_events(self, frame: WalFrame) -> Tuple[int, int]:
        """Index one recovered EDGES frame in place with its original seqs
        (used only by WAL replay — nothing is re-journaled; the surviving
        WAL segments already hold these frames)."""
        edges = frame.edges
        n = len(edges)
        if n == 0:
            return self.seq, self.seq
        with self._mutex:
            if frame.seq_lo != self.seq:
                raise RuntimeError(
                    f"WAL replay out of order: frame starts at seq "
                    f"{frame.seq_lo}, log expects {self.seq}")
            self._index(frame.segment, frame.offset, frame.seq_lo,
                        edges[:, 4] * self.num_partitions + edges[:, 5])
            self.seq += n
            self.events_appended += n
            self.edges_inserted += int(np.sum(edges[:, 0] == OP_INSERT))
            self.edges_deleted += int(np.sum(edges[:, 0] == OP_DELETE))
            return frame.seq_lo, self.seq

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the journal (stream shutdown)."""
        with self._mutex:
            if self.wal is not None:
                self.wal.close()

    def stats(self) -> Dict[str, int]:
        with self._mutex:
            out = {"seq": self.seq, "compacted_seq": self.compacted_seq,
                   "pending": self.pending_events,
                   "events_appended": self.events_appended,
                   "edges_inserted": self.edges_inserted,
                   "edges_deleted": self.edges_deleted}
            if self.wal is not None:
                out["wal"] = self.wal.stats()
            return out

"""The append-only graph delta log: edge events bucketed by partition pair.

Streamed edge insertions and deletions land here before compaction merges
them into the base :class:`~repro.storage.edge_store.EdgeBucketStore`. The
log is the write-path analogue of the edge buckets — and it is *physically*
bucketed: every append groups its events by the partition pair ``(i, j)``
of their endpoints (stable under node growth, because streamed nodes only
ever extend the *last* partition), so reading one bucket's events touches
only that bucket's arrays, never the whole log. Events carry a monotone
sequence number and their operation, so the overlay composition — and the
compactor — can replay exactly one bucket's events in arrival order.

Two disciplines keep the log bounded:

* **Spill** — once more than ``spill_threshold`` events are buffered in
  memory, the in-memory segments are written to ``spill-<n>.npz`` files
  under ``spill_dir`` (one archive member per bucket and column, so a
  later per-bucket read decompresses only its own members) and dropped
  from RAM. Ingest throughput therefore never depends on how long
  compaction has been deferred.
* **Forgetting** — :meth:`mark_compacted` discards every event below the
  compaction horizon (memory and spill files alike). This is the
  bounded-history principle of the online-caching literature (Colussi:
  the work function algorithm can forget history): once deltas are
  merged into the base structures, replaying them can never change
  observable behaviour, so they need not be retained.

With ``wal_dir`` set the log is additionally **durable**: every append is
framed and fsync'd to a :class:`~repro.stream.wal.WriteAheadLog` before
it is acknowledged (group-commit window configurable via
``fsync_every``), spill files are written with the
write-temp+fsync+rename idiom, and WAL segments are truncated only once
their seq range is covered by a spill file or the compaction horizon.
:meth:`restore` rebuilds the exact acknowledged state after a crash from
the surviving spill files plus a WAL scan.

The log is internally thread-safe (``_mutex``): ingest, spill, overlay
composition, and compaction bookkeeping may be driven from different
threads — :class:`~repro.stream.live.LiveGraph`'s one writer lock
(``live.lock``) orders the writers, this mutex protects the log's own
containers.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs.registry import get_registry
from ..storage.atomic import atomic_write
from .wal import KIND_EDGES, KIND_NODES, WalFrame, WalRecovery, WriteAheadLog

OP_INSERT = 0
OP_DELETE = 1

_COLUMNS = ("op", "src", "dst", "rel", "seq")

Pair = Tuple[int, int]
# One bucket's events within a segment: columnar, arrival-ordered.
PairEvents = Dict[str, np.ndarray]
# One segment: events grouped by bucket.
Segment = Dict[Pair, PairEvents]


def _empty_events() -> PairEvents:
    return {"op": np.empty(0, dtype=np.uint8),
            "src": np.empty(0, dtype=np.int64),
            "dst": np.empty(0, dtype=np.int64),
            "rel": np.empty(0, dtype=np.int64),
            "seq": np.empty(0, dtype=np.int64)}


def _concat_events(parts: List[PairEvents]) -> PairEvents:
    if not parts:
        return _empty_events()
    if len(parts) == 1:
        return parts[0]
    return {col: np.concatenate([p[col] for p in parts]) for col in _COLUMNS}


class _SpillFile:
    """One spilled segment: the archive plus its in-memory pair index."""

    def __init__(self, path: Path, pair_max_seq: Dict[Pair, int],
                 max_seq: int) -> None:
        self.path = path
        self.pair_max_seq = pair_max_seq   # last seq per bucket in the file
        self.max_seq = max_seq

    def load_pair(self, pair: Pair) -> PairEvents:
        # npz members are decompressed lazily on access: only this
        # bucket's five arrays are read, not the whole archive.
        i, j = pair
        with np.load(self.path) as archive:
            return {col: archive[f"{i}:{j}:{col}"] for col in _COLUMNS}

    @classmethod
    def reattach(cls, path: Path) -> Optional["_SpillFile"]:
        """Rebuild the pair index of an existing spill file (recovery);
        only the per-pair ``seq`` members are decompressed."""
        pair_max_seq: Dict[Pair, int] = {}
        with np.load(path) as archive:
            for name in archive.files:
                i, j, col = name.split(":")
                if col != "seq":
                    continue
                seqs = archive[name]
                if len(seqs):
                    pair_max_seq[(int(i), int(j))] = int(seqs[-1])
        if not pair_max_seq:
            return None
        return cls(path, pair_max_seq, max(pair_max_seq.values()))


class GraphDeltaLog:
    """Append-only, spillable, optionally WAL-durable log of edge events.

    Parameters
    ----------
    num_partitions:
        Bucket grid size ``p`` (fixed for the lifetime of the stream; node
        growth extends the last partition, never the grid).
    has_relations:
        Whether events carry a relation column.
    spill_dir:
        Directory for spilled segments; created on first spill. ``None``
        disables spilling (the log stays purely in-memory).
    spill_threshold:
        Soft cap on in-memory events before the segments spill.
    wal_dir:
        Directory for the write-ahead journal; ``None`` (default) keeps
        the pre-durability behaviour — nothing survives a crash except
        spill files and snapshots.
    fsync_every:
        Group-commit window of the journal: fsync after every N frames.
        1 = every acknowledged append is durable.
    wal_segment_bytes:
        Journal segment rotation size.
    """

    def __init__(self, num_partitions: int, has_relations: bool = False,
                 spill_dir: Optional[os.PathLike] = None,
                 spill_threshold: int = 1 << 20,
                 wal_dir: Optional[os.PathLike] = None,
                 fsync_every: int = 1,
                 wal_segment_bytes: int = 4 << 20) -> None:
        self.num_partitions = int(num_partitions)
        self.has_relations = bool(has_relations)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.spill_threshold = int(spill_threshold)
        self.seq = 0               # next sequence number to assign
        self.compacted_seq = 0     # events below this are merged into base
        self._segments: List[Segment] = []
        self._spilled: List[_SpillFile] = []       # oldest first
        self._mem_events = 0
        self._spill_counter = 0
        self._mutex = threading.RLock()
        self.fault_hook: Optional[Callable[[str], None]] = None
        self._fsync_every = int(fsync_every)
        self._wal_segment_bytes = int(wal_segment_bytes)
        self.wal: Optional[WriteAheadLog] = None
        if wal_dir is not None:
            self.wal = WriteAheadLog(wal_dir, fsync_every=fsync_every,
                                     segment_bytes=wal_segment_bytes)
        # Telemetry for the benchmark / CLI stats.
        self.events_appended = 0
        self.edges_inserted = 0
        self.edges_deleted = 0
        self.spills = 0

    def _fire(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Events not yet merged into the base structures (the staleness
        the compaction cadence trades against)."""
        return self.seq - self.compacted_seq

    @property
    def memory_events(self) -> int:
        return self._mem_events

    # ------------------------------------------------------------------
    def append(self, op: int, src: np.ndarray, dst: np.ndarray,
               rel: Optional[np.ndarray], bi: np.ndarray,
               bj: np.ndarray) -> Tuple[int, int]:
        """Append one batch of same-op events; returns its ``[lo, hi)`` seq
        range. Endpoint validation and bucket assignment are the caller's
        (the :class:`~repro.stream.live.LiveGraph`'s) responsibility.

        With a WAL attached, the batch is journaled and (per the
        ``fsync_every`` policy) fsync'd **before** any in-memory state
        changes — a crash during the journal write leaves the log exactly
        as if the append never happened, so nothing unacknowledged can
        leak into recovery and nothing acknowledged can be lost.
        """
        n = len(src)
        if n == 0:
            return self.seq, self.seq
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        rel = (np.asarray(rel, dtype=np.int64) if rel is not None
               else np.zeros(n, dtype=np.int64))
        bi = np.asarray(bi, dtype=np.int64)
        bj = np.asarray(bj, dtype=np.int64)
        t0 = time.perf_counter()
        with self._mutex:
            lo = self.seq
            if self.wal is not None:
                self.wal.append_edges(lo, op, src, dst, rel, bi, bj)
            seq = np.arange(lo, lo + n, dtype=np.int64)
            ops = np.full(n, op, dtype=np.uint8)
            self._ingest_segment(ops, src, dst, rel, bi, bj, seq)
            self.seq += n
            self.events_appended += n
            if op == OP_INSERT:
                self.edges_inserted += n
            else:
                self.edges_deleted += n
            if (self.spill_dir is not None
                    and self._mem_events > self.spill_threshold):
                self._spill()
            get_registry().histogram("stream.append_ms").observe(
                1000.0 * (time.perf_counter() - t0))
            return lo, self.seq

    def _ingest_segment(self, ops: np.ndarray, src: np.ndarray,
                        dst: np.ndarray, rel: np.ndarray, bi: np.ndarray,
                        bj: np.ndarray, seq: np.ndarray) -> None:
        """Group one batch by bucket and add it as an in-memory segment.
        Caller holds ``_mutex``."""
        n = len(src)
        # Group the batch by bucket once, at append time: every later read
        # of bucket (i, j) then touches only (i, j)'s arrays.
        codes = bi * self.num_partitions + bj
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = np.concatenate(
            [[0], np.nonzero(np.diff(sorted_codes))[0] + 1, [n]])
        segment: Segment = {}
        for s, e in zip(starts[:-1], starts[1:]):
            rows = order[s:e]
            code = int(sorted_codes[s])
            pair = (code // self.num_partitions, code % self.num_partitions)
            segment[pair] = {"op": ops[rows], "src": src[rows],
                             "dst": dst[rows], "rel": rel[rows],
                             "seq": seq[rows]}
        self._segments.append(segment)
        self._mem_events += n

    def journal_nodes(self, old_total: int, new_total: int) -> None:
        """Journal a node-growth step (rows are deterministic per node id,
        so only the totals need to survive — see
        :class:`~repro.stream.wal.WriteAheadLog`)."""
        if self.wal is None:
            return
        with self._mutex:
            self.wal.append_nodes(self.seq, old_total, new_total)

    def _spill(self) -> None:
        """Move the in-memory segments to one on-disk npz segment.

        The archive is staged and renamed atomically (a crash mid-spill
        leaves no torn file for recovery to trip on), and once it is
        durable the WAL no longer needs the covered frames — segments
        wholly below the new coverage point are truncated.
        """
        if not self._segments:
            return
        merged: Dict[Pair, List[PairEvents]] = {}
        for segment in self._segments:
            for pair, events in segment.items():
                merged.setdefault(pair, []).append(events)
        arrays = {}
        pair_max_seq: Dict[Pair, int] = {}
        for pair, parts in merged.items():
            events = _concat_events(parts)
            i, j = pair
            for col in _COLUMNS:
                arrays[f"{i}:{j}:{col}"] = events[col]
            pair_max_seq[pair] = int(events["seq"][-1])
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spill-{self._spill_counter:08d}.npz"
        self._spill_counter += 1
        with atomic_write(path) as fh:
            np.savez(fh, **arrays)
        self._spilled.append(_SpillFile(path, pair_max_seq,
                                        max(pair_max_seq.values())))
        self._segments = []
        self._mem_events = 0
        self.spills += 1
        self._fire("spill-post-write")
        if self.wal is not None:
            # Everything below self.seq is now durable in spill files (or
            # already compacted): the journal may forget it.
            self.wal.truncate_covered(self.seq)

    # ------------------------------------------------------------------
    def events_for_bucket(self, i: int, j: int,
                          upto_seq: Optional[int] = None) -> PairEvents:
        """Live events of bucket ``(i, j)`` with ``compacted_seq <= seq <
        upto_seq``, in arrival order, as columnar arrays."""
        pair = (int(i), int(j))
        with self._mutex:
            # Snapshot the containers; spill files are immutable until
            # deleted by compaction (which holds the structural lock), so
            # the archive reads below can happen outside the mutex.
            spilled = list(self._spilled)
            segments = list(self._segments)
            compacted = self.compacted_seq
            upto = self.seq if upto_seq is None else int(upto_seq)
        picked: List[PairEvents] = []
        for spill in spilled:
            last = spill.pair_max_seq.get(pair)
            if last is None or last < compacted:
                continue
            picked.append(spill.load_pair(pair))
        for segment in segments:
            events = segment.get(pair)
            if events is not None:
                picked.append(events)
        out = _concat_events(picked)
        if len(out["seq"]) == 0:
            return out
        # Per-pair seqs are appended in order, so the live window is one
        # contiguous slice.
        lo = int(np.searchsorted(out["seq"], compacted, side="left"))
        hi = int(np.searchsorted(out["seq"], upto, side="left"))
        if lo == 0 and hi == len(out["seq"]):
            return out
        return {col: out[col][lo:hi] for col in _COLUMNS}

    # ------------------------------------------------------------------
    def mark_compacted(self, upto_seq: int) -> None:
        """Forget every event below ``upto_seq`` (now merged into base).

        Segments entirely below the horizon are dropped (spill files
        deleted); a segment straddling it is filtered in place. Observable
        behaviour is unchanged by construction: composition already ignores
        events below ``compacted_seq``. With a WAL attached, journal
        segments covered by the new horizon are truncated too.
        """
        upto = int(upto_seq)
        with self._mutex:
            if upto < self.compacted_seq:
                raise ValueError("compaction horizon cannot move backwards")
            self.compacted_seq = upto
            kept_spills: List[_SpillFile] = []
            for spill in self._spilled:
                if spill.max_seq >= upto:
                    kept_spills.append(spill)
                else:
                    spill.path.unlink(missing_ok=True)
            self._spilled = kept_spills
            kept: List[Segment] = []
            removed = 0
            for segment in self._segments:
                filtered: Segment = {}
                for pair, events in segment.items():
                    cut = int(np.searchsorted(events["seq"], upto,
                                              side="left"))
                    removed += cut
                    if cut == 0:
                        filtered[pair] = events
                    elif cut < len(events["seq"]):
                        filtered[pair] = {col: events[col][cut:]
                                          for col in _COLUMNS}
                if filtered:
                    kept.append(filtered)
            self._segments = kept
            self._mem_events -= removed
            if self.wal is not None:
                self.wal.truncate_covered(upto)

    # ------------------------------------------------------------------
    def restore(self, compacted_seq: int, recovery: WalRecovery,
                wal_dir: Optional[os.PathLike] = None) -> List[WalFrame]:
        """Rebuild acknowledged state after a crash; must be called on a
        fresh, empty log.

        ``compacted_seq`` is the durable compaction horizon (from the edge
        store's layout sidecar — it commits atomically with the compacted
        bucket file). Surviving spill files are reattached (those wholly
        below the horizon are deleted), then WAL frames from ``recovery``
        are filtered against the durable floor — the first seq *not*
        already covered by base + spills — and the remainder is returned
        for the :class:`~repro.stream.live.LiveGraph` to replay, in
        acknowledged order, with original sequence numbers. Edge frames
        straddling the floor are sliced, never double-applied.

        If ``wal_dir`` is given, a fresh journal is attached that resumes
        after ``recovery``'s segments (they stay on disk, still guarding
        the replayed suffix, until coverage truncates them).
        """
        with self._mutex:
            if self.seq or self._segments or self._spilled:
                raise RuntimeError("restore() requires an empty log")
            self.compacted_seq = int(compacted_seq)
            spill_floor = self.compacted_seq
            if self.spill_dir is not None and self.spill_dir.is_dir():
                for path in sorted(self.spill_dir.glob("spill-*.npz")):
                    self._spill_counter = max(
                        self._spill_counter,
                        int(path.stem.split("-")[1]) + 1)
                    spill = _SpillFile.reattach(path)
                    if spill is None or spill.max_seq < self.compacted_seq:
                        path.unlink(missing_ok=True)
                        continue
                    self._spilled.append(spill)
                    spill_floor = max(spill_floor, spill.max_seq + 1)
            floor = max(spill_floor, recovery.covered_seq)
            self.seq = floor
            replay: List[WalFrame] = []
            for frame in recovery.frames:
                if frame.kind == KIND_NODES:
                    replay.append(frame)
                    continue
                if frame.seq_end <= floor:
                    continue          # already durable in base or spills
                if frame.seq_lo < floor:
                    keep = frame.edges[floor - frame.seq_lo:]
                    frame = WalFrame(kind=KIND_EDGES, seq_lo=floor,
                                     count=len(keep), edges=keep)
                replay.append(frame)
            if wal_dir is not None:
                self.wal = WriteAheadLog(wal_dir,
                                         fsync_every=self._fsync_every,
                                         segment_bytes=self._wal_segment_bytes,
                                         resume=recovery)
            return replay

    def restore_events(self, frame: WalFrame) -> Tuple[int, int]:
        """Re-apply one recovered EDGES frame with its original seqs (used
        only by WAL replay — nothing is re-journaled; the surviving WAL
        segments already hold these frames)."""
        edges = frame.edges
        n = len(edges)
        if n == 0:
            return self.seq, self.seq
        with self._mutex:
            if frame.seq_lo != self.seq:
                raise RuntimeError(
                    f"WAL replay out of order: frame starts at seq "
                    f"{frame.seq_lo}, log expects {self.seq}")
            seq = np.arange(frame.seq_lo, frame.seq_lo + n, dtype=np.int64)
            ops = edges[:, 0].astype(np.uint8)
            self._ingest_segment(ops, edges[:, 1], edges[:, 2], edges[:, 3],
                                 edges[:, 4], edges[:, 5], seq)
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
                   "memory_events": self._mem_events,
                   "spilled_segments": len(self._spilled),
                   "events_appended": self.events_appended,
                   "edges_inserted": self.edges_inserted,
                   "edges_deleted": self.edges_deleted,
                   "spills": self.spills}
            if self.wal is not None:
                out["wal"] = self.wal.stats()
            return out

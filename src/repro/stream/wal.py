"""The delta log's journal: its one on-disk store of events.

Every accepted stream mutation — an edge insert/delete batch or a
node-growth step — is framed and written here *before* the
:class:`~repro.stream.delta_log.GraphDeltaLog` acknowledges it, and the
log keeps no other copy of its events: it indexes runs of these frames
and reads them back through read-only maps. Frames are self-describing
and self-checking:

``[magic "WFRM" | kind u8 | seq_lo u64 | count u32 | paylen u32 | crc u32
| payload]``

* ``EDGES`` frames carry an ``(n, 6)`` int64 payload of columns
  ``(op, src, dst, rel, bi, bj)``; the events' sequence numbers are
  ``seq_lo .. seq_lo + n`` in row order (the delta log assigns them
  densely, so they need not be stored per event).
* ``NODES`` frames carry ``(old_total, new_total)`` — node rows
  themselves are a deterministic function of ``(stream seed, node id)``
  (:meth:`~repro.stream.live.LiveGraph._init_rows`), so replay only
  needs the count to regenerate them bit-identically. ``seq_lo`` records
  the log position, which totally orders node growth against edge frames.

The crc covers the header fields and the payload, so a torn tail write
(the crash happened mid-frame) is detected on recovery, **dropped
loudly**, and physically truncated; a bad frame that is *not* the tail
of the final segment is real corruption and raises.

Durability: ``fsync_every=1`` fsyncs each frame before the append
returns (no acknowledged event can be lost); ``fsync_every=N`` group-
commits every N frames, trading a bounded ack'd-loss window for
throughput; ``fsync_every=0`` is a scratch journal that never fsyncs and
deletes the segments it finds when it opens (nothing is ever recovered
from it). Every frame is flushed to the OS as it is written, so a map of
the segment sees it. Segments rotate at ``segment_bytes`` and are deleted
by :meth:`truncate_covered` only once everything in them is durable
elsewhere — edge frames below the compaction horizon, node frames at or
below the node count recorded in ``wal-meta.json`` (which is written
atomically *before* any segment is unlinked).
"""

from __future__ import annotations

import json
import logging
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs.registry import get_registry
from ..storage.atomic import atomic_write_json, fsync_dir

logger = logging.getLogger(__name__)

MAGIC = b"WFRM"
KIND_EDGES = 1
KIND_NODES = 2

_HEADER = struct.Struct("<4sBQII")   # magic, kind, seq_lo, count, paylen
_CRC = struct.Struct("<I")
_NODES_PAYLOAD = struct.Struct("<qq")

_EDGE_COLS = 6                        # op, src, dst, rel, bi, bj

META_NAME = "wal-meta.json"


class WalCorruption(RuntimeError):
    """A damaged frame that is *not* an expected torn tail."""


@dataclass
class WalFrame:
    """One recovered frame, already decoded."""
    kind: int
    seq_lo: int
    count: int
    edges: Optional[np.ndarray] = None          # (n, 6) int64 for EDGES
    node_totals: Optional[Tuple[int, int]] = None  # (old, new) for NODES
    segment: int = 0                            # EDGES payload location:
    offset: int = 0                             # segment index, byte offset

    @property
    def seq_end(self) -> int:
        return self.seq_lo + (self.count if self.kind == KIND_EDGES else 0)


@dataclass
class _SegmentInfo:
    """Truncation bookkeeping for one closed (or scanned) segment."""
    index: int
    path: Path
    end_seq: int = 0      # max seq_lo + count over its edge frames
    max_nodes: int = 0    # max new_total over its node frames

    def note(self, frame: WalFrame) -> None:
        self.end_seq = max(self.end_seq, frame.seq_end, frame.seq_lo)
        if frame.kind == KIND_NODES:
            self.max_nodes = max(self.max_nodes, frame.node_totals[1])


@dataclass
class WalRecovery:
    """Result of scanning a WAL directory after a (possible) crash."""
    meta: Dict[str, int]
    frames: List[WalFrame] = field(default_factory=list)
    segments: List[_SegmentInfo] = field(default_factory=list)
    next_segment: int = 0
    torn_frames: int = 0
    torn_bytes: int = 0

    @property
    def covered_seq(self) -> int:
        return int(self.meta.get("covered_seq", 0))

    @property
    def num_nodes(self) -> int:
        return int(self.meta.get("num_nodes", 0))

    @property
    def max_seq(self) -> int:
        """Highest event seq recorded anywhere (meta or frames)."""
        seq = self.covered_seq
        for frame in self.frames:
            seq = max(seq, frame.seq_end)
        return seq

    @property
    def max_nodes_recorded(self) -> int:
        nodes = self.num_nodes
        for frame in self.frames:
            if frame.kind == KIND_NODES:
                nodes = max(nodes, frame.node_totals[1])
        return nodes


def _segment_name(index: int) -> str:
    return f"wal-{index:08d}.log"


def _valid_frame_after(data: bytes, start: int) -> bool:
    """True if any byte range at/after ``start`` decodes as a CRC-valid
    frame — the signature that a bad frame sits *before* intact data."""
    offset = data.find(MAGIC, start)
    while offset != -1:
        header = data[offset:offset + _HEADER.size]
        if len(header) == _HEADER.size:
            magic, kind, _, _, paylen = _HEADER.unpack(header)
            if kind in (KIND_EDGES, KIND_NODES):
                crc_off = offset + _HEADER.size
                body_off = crc_off + _CRC.size
                if body_off + paylen <= len(data):
                    (crc,) = _CRC.unpack(data[crc_off:body_off])
                    payload = data[body_off:body_off + paylen]
                    if zlib.crc32(header[4:] + payload) == crc:
                        return True
        offset = data.find(MAGIC, offset + 1)
    return False


def _parse_segment(path: Path, index: int,
                   is_last: bool) -> Tuple[List[WalFrame], int]:
    """Decode a segment's frames; returns (frames, torn_bytes_truncated).

    A short/corrupt frame at the tail of the *final* segment is the
    expected signature of a crash mid-write: it is logged, counted, and
    physically truncated away so a later append never interleaves with
    garbage. Anywhere else it raises :class:`WalCorruption`.
    """
    frames: List[WalFrame] = []
    data = path.read_bytes()
    offset = 0
    bad_at: Optional[int] = None
    reason = ""
    while offset < len(data):
        header = data[offset:offset + _HEADER.size]
        if len(header) < _HEADER.size:
            bad_at, reason = offset, "short header"
            break
        magic, kind, seq_lo, count, paylen = _HEADER.unpack(header)
        if magic != MAGIC or kind not in (KIND_EDGES, KIND_NODES):
            bad_at, reason = offset, f"bad magic/kind {magic!r}/{kind}"
            break
        crc_off = offset + _HEADER.size
        body_off = crc_off + _CRC.size
        if body_off + paylen > len(data):
            bad_at, reason = offset, "short payload"
            break
        (crc,) = _CRC.unpack(data[crc_off:body_off])
        payload = data[body_off:body_off + paylen]
        if zlib.crc32(header[4:] + payload) != crc:
            bad_at, reason = offset, "crc mismatch"
            break
        if kind == KIND_EDGES:
            arr = np.frombuffer(payload, dtype=np.int64)
            if len(arr) != count * _EDGE_COLS:
                bad_at, reason = offset, "payload/count mismatch"
                break
            frames.append(WalFrame(kind=kind, seq_lo=seq_lo, count=count,
                                   edges=arr.reshape(count, _EDGE_COLS),
                                   segment=index, offset=body_off))
        else:
            old_total, new_total = _NODES_PAYLOAD.unpack(payload)
            frames.append(WalFrame(kind=kind, seq_lo=seq_lo, count=count,
                                   node_totals=(old_total, new_total)))
        offset = body_off + paylen
    if bad_at is None:
        return frames, 0
    if not is_last:
        raise WalCorruption(
            f"corrupt WAL frame in non-final segment {path.name} at byte "
            f"{bad_at} ({reason}) — the journal is damaged beyond a torn "
            f"tail; refusing to recover silently")
    # A torn *write* can only damage the physical tail: frames are appended
    # sequentially, so a bad frame with another decodable frame after it is
    # media corruption of acknowledged data, not a crash artifact — dropping
    # it would silently lose durable events.
    if _valid_frame_after(data, bad_at + 1):
        raise WalCorruption(
            f"corrupt WAL frame mid-segment {path.name} at byte {bad_at} "
            f"({reason}) with intact frames after it — the journal is "
            f"damaged beyond a torn tail; refusing to recover silently")
    torn = len(data) - bad_at
    logger.warning(
        "dropping torn WAL tail: %d byte(s) at offset %d of %s (%s) — "
        "these events were never acknowledged durable",
        torn, bad_at, path.name, reason)
    with open(path, "rb+") as fh:
        fh.truncate(bad_at)
        fh.flush()
        os.fsync(fh.fileno())
    return frames, torn


class WriteAheadLog:
    """Framed, fsync'd, segment-rotating journal (see module docstring).

    ``append_edges`` returns where the payload landed, so the delta log
    can index it in place. ``fault_hook`` (test-only) fires named crash
    points: ``wal-frame-mid`` after the first half of a frame has been
    flushed to disk but before the rest, and ``wal-truncate-pre`` after
    the meta write but before covered segments are unlinked.
    """

    def __init__(self, wal_dir: os.PathLike, fsync_every: int = 1,
                 segment_bytes: int = 4 << 20,
                 resume: Optional[WalRecovery] = None) -> None:
        if fsync_every < 0:
            raise ValueError("fsync_every must be non-negative")
        self.wal_dir = Path(wal_dir)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.fsync_every = int(fsync_every)
        self.durable = self.fsync_every > 0
        if not self.durable:
            for stale in self.wal_dir.glob("wal-*.log"):
                stale.unlink()
        self.segment_bytes = int(segment_bytes)
        self.fault_hook: Optional[Callable[[str], None]] = None
        self._closed_segments: List[_SegmentInfo] = []
        self._meta: Dict[str, int] = {"covered_seq": 0, "num_nodes": 0}
        index = 0
        if resume is not None:
            self._closed_segments = list(resume.segments)
            self._meta = dict(resume.meta)
            index = resume.next_segment
        self._segment = _SegmentInfo(index, self.wal_dir / _segment_name(index))
        self._fh = open(self._segment.path, "ab")
        self._cur_bytes = self._segment.path.stat().st_size
        self._pending = 0            # frames written since the last fsync
        self._synced_nodes = int(self._meta.get("num_nodes", 0))
        self._latest_nodes = self._synced_nodes
        # Telemetry.
        self.frames_written = 0
        self.edge_events = 0
        self.node_events = 0
        self.syncs = 0
        self.bytes_written = 0
        self.rotations = 0
        self.truncated_segments = 0

    # -- recovery ------------------------------------------------------
    @classmethod
    def scan(cls, wal_dir: os.PathLike) -> WalRecovery:
        """Read back everything durable in ``wal_dir``.

        Returns the meta horizon plus every decodable frame in segment
        order (frame order within a segment is append order, so replaying
        the returned list front to back reproduces the acknowledged
        history). Torn tail frames are dropped and truncated; see
        :func:`_parse_segment`.
        """
        wal_dir = Path(wal_dir)
        meta: Dict[str, int] = {"covered_seq": 0, "num_nodes": 0}
        meta_path = wal_dir / META_NAME
        if meta_path.exists():
            meta.update(json.loads(meta_path.read_text()))
        recovery = WalRecovery(meta=meta)
        if not wal_dir.is_dir():
            return recovery
        paths = sorted(wal_dir.glob("wal-*.log"))
        for pos, path in enumerate(paths):
            index = int(path.stem.split("-")[1])
            info = _SegmentInfo(index, path)
            frames, torn = _parse_segment(path, index,
                                          is_last=(pos == len(paths) - 1))
            for frame in frames:
                info.note(frame)
            recovery.frames.extend(frames)
            recovery.segments.append(info)
            recovery.torn_bytes += torn
            recovery.torn_frames += 1 if torn else 0
            recovery.next_segment = index + 1
        return recovery

    # -- append path ---------------------------------------------------
    def append_edges(self, seq_lo: int, op: int, src: np.ndarray,
                     dst: np.ndarray, rel: np.ndarray, bi: np.ndarray,
                     bj: np.ndarray) -> Tuple[int, int]:
        """Journal one batch; returns ``(segment index, byte offset)`` of
        its ``(n, 6)`` payload (see :meth:`segment_path`)."""
        n = len(src)
        payload = np.empty((n, _EDGE_COLS), dtype=np.int64)
        payload[:, 0] = op
        payload[:, 1] = src
        payload[:, 2] = dst
        payload[:, 3] = rel
        payload[:, 4] = bi
        payload[:, 5] = bj
        where = self._write_frame(KIND_EDGES, seq_lo, n, payload.tobytes())
        self.edge_events += n
        return where

    def append_nodes(self, seq_lo: int, old_total: int,
                     new_total: int) -> None:
        payload = _NODES_PAYLOAD.pack(int(old_total), int(new_total))
        self._latest_nodes = max(self._latest_nodes, int(new_total))
        self._write_frame(KIND_NODES, seq_lo, int(new_total - old_total),
                          payload)
        self.node_events += int(new_total - old_total)

    def _write_frame(self, kind: int, seq_lo: int, count: int,
                     payload: bytes) -> Tuple[int, int]:
        where = (self._segment.index,
                 self._cur_bytes + _HEADER.size + _CRC.size)
        header = _HEADER.pack(MAGIC, kind, int(seq_lo), int(count),
                              len(payload))
        crc = zlib.crc32(header[4:] + payload)
        buf = header + _CRC.pack(crc) + payload
        if self.fault_hook is not None:
            # Crash-injection path: land the first half on disk so the
            # torn-tail recovery logic has a real partial frame to chew on.
            half = len(buf) // 2
            self._fh.write(buf[:half])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.fault_hook("wal-frame-mid")
            self._fh.write(buf[half:])
        else:
            self._fh.write(buf)
        self._fh.flush()
        self._segment.note(WalFrame(
            kind=kind, seq_lo=seq_lo, count=count,
            node_totals=(0, self._latest_nodes) if kind == KIND_NODES
            else None))
        self._cur_bytes += len(buf)
        self.bytes_written += len(buf)
        self.frames_written += 1
        self._pending += 1
        if self.durable and self._pending >= self.fsync_every:
            self.sync()
        if self._cur_bytes >= self.segment_bytes:
            self._rotate()
        return where

    def sync(self) -> None:
        """Group-commit flush: after this returns, every frame written so
        far survives a crash."""
        if self._pending == 0 or not self.durable:
            return
        t0 = time.perf_counter()
        os.fsync(self._fh.fileno())
        get_registry().histogram("stream.wal.fsync_ms").observe(
            1000.0 * (time.perf_counter() - t0))
        self._pending = 0
        self._synced_nodes = self._latest_nodes
        self.syncs += 1

    def _rotate(self) -> None:
        self.sync()
        self._fh.close()
        self._closed_segments.append(self._segment)
        index = self._segment.index + 1
        self._segment = _SegmentInfo(index, self.wal_dir / _segment_name(index))
        self._fh = open(self._segment.path, "ab")
        if self.durable:
            fsync_dir(self.wal_dir)
        self._cur_bytes = 0
        self.rotations += 1

    # -- truncation ----------------------------------------------------
    def truncate_covered(self, covered_seq: int,
                         num_nodes: Optional[int] = None) -> int:
        """Delete closed segments whose entire contents are durable
        elsewhere: edge frames with ``seq_end <= covered_seq`` (merged by
        compaction) and node frames whose totals are at or below the node
        count being recorded.

        The meta file — the durable claim that "events below
        ``covered_seq`` and nodes up to ``num_nodes`` need no journal" —
        is written atomically *before* any unlink, so a crash between the
        two merely leaves deletable segments behind (replay of already-
        covered frames is suppressed by the horizon, never double-applied).
        """
        covered_seq = int(covered_seq)
        if num_nodes is None:
            num_nodes = self._synced_nodes
        num_nodes = max(int(num_nodes), int(self._meta.get("num_nodes", 0)))
        covered_seq = max(covered_seq, int(self._meta.get("covered_seq", 0)))
        doomed = [seg for seg in self._closed_segments
                  if seg.end_seq <= covered_seq and seg.max_nodes <= num_nodes]
        self._meta = {"covered_seq": covered_seq, "num_nodes": num_nodes}
        if self.durable:
            atomic_write_json(self.wal_dir / META_NAME, self._meta)
        if self.fault_hook is not None:
            self.fault_hook("wal-truncate-pre")
        if not doomed:
            return 0
        for seg in doomed:
            seg.path.unlink(missing_ok=True)
        if self.durable:
            fsync_dir(self.wal_dir)
        self._closed_segments = [seg for seg in self._closed_segments
                                 if seg not in doomed]
        self.truncated_segments += len(doomed)
        return len(doomed)

    # ------------------------------------------------------------------
    def segment_path(self, index: int) -> Path:
        return self.wal_dir / _segment_name(index)

    @property
    def covered_seq(self) -> int:
        return int(self._meta.get("covered_seq", 0))

    def close(self) -> None:
        self.sync()
        self._fh.close()

    def stats(self) -> Dict[str, int]:
        return {"frames": self.frames_written,
                "edge_events": self.edge_events,
                "node_events": self.node_events,
                "syncs": self.syncs,
                "bytes_written": self.bytes_written,
                "rotations": self.rotations,
                "segments": len(self._closed_segments) + 1,
                "truncated_segments": self.truncated_segments,
                "covered_seq": self.covered_seq,
                "fsync_every": self.fsync_every}

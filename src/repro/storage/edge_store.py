"""Disk-backed edge bucket store.

The edge list is "organized according to edge buckets ... stored sequentially
on disk" (paper Section 3). :class:`EdgeBucketStore` materializes the
bucket-major edge array in a memmap file and serves contiguous bucket reads
with IO accounting, so the smallest-read analysis of Section 6 (edge bucket
size shrinking quadratically in p) is measurable for real.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.edge_list import Graph
from ..graph.partition import EdgeBuckets, PartitionScheme
from .atomic import atomic_write, fsync_dir
from .io_stats import IOStats, crc_file


class EdgeBucketStore:
    """Edge buckets written bucket-major to a single on-disk file.

    ``fault_hook`` (test-only) is called with a named crash point around
    the compaction commit sequence so the fault-injection suite can kill
    the process at each boundary.
    """

    def __init__(self, path: os.PathLike, graph: Graph, scheme: PartitionScheme,
                 stats: Optional[IOStats] = None) -> None:
        self.path = Path(path)
        self.scheme = scheme
        self.stats = stats if stats is not None else IOStats()
        self.fault_hook = None
        self.compacted_seq = 0
        self.num_relations = graph.num_relations
        self.has_relations = graph.rel is not None
        buckets = EdgeBuckets(graph, scheme)
        self.bucket_offsets = buckets.bucket_offsets
        width = 3 if self.has_relations else 2
        self.width = width
        flat = np.empty((buckets.num_edges, width), dtype=np.int64)
        flat[:, 0] = buckets.src
        flat[:, -1] = buckets.dst
        if self.has_relations:
            flat[:, 1] = buckets.rel
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._edges = np.memmap(self.path, dtype=np.int64, mode="w+", shape=flat.shape)
        self._edges[:] = flat
        self._edges.flush()
        self.num_edges = len(flat)
        self._file_crc = zlib.crc32(flat)
        self._write_layout()

    def _fire(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _layout_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".layout.npz")

    def _staged_layout_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".layout.next")

    def _layout_arrays(self, offsets: np.ndarray, crc: int,
                       compacted_seq: int) -> dict:
        return dict(bucket_offsets=offsets,
                    width=np.int64(self.width),
                    num_relations=np.int64(self.num_relations),
                    has_relations=np.int64(1 if self.has_relations else 0),
                    file_crc=np.int64(crc),
                    compacted_seq=np.int64(compacted_seq))

    def _write_layout(self) -> None:
        """Persist the bucket offsets (they live only in memory otherwise)
        so :meth:`open` can reattach to the file after a process restart.

        The layout also records a CRC of the bucket file's bytes and the
        delta-log sequence number the file covers (``compacted_seq``):
        the CRC lets :meth:`open` detect a sidecar that describes a
        different file instead of serving bytes under wrong offsets, and
        ``compacted_seq`` is the durable compaction horizon the WAL
        replays from.
        """
        with atomic_write(self._layout_path()) as fh:
            np.savez(fh, **self._layout_arrays(self.bucket_offsets,
                                               self._file_crc,
                                               self.compacted_seq))

    @classmethod
    def open(cls, path: os.PathLike, scheme: PartitionScheme,
             stats: Optional[IOStats] = None) -> "EdgeBucketStore":
        """Reattach to an existing bucket file (stream-workdir resume).

        Reads the layout sidecar written at construction and after every
        compaction, and verifies the sidecar's recorded CRC against the
        bucket file's actual bytes: a crash between a compaction's
        bucket-file rename and its sidecar update leaves a sidecar
        describing the *previous* file, and serving the new bytes under
        the old offsets would silently return garbage edges — the CRC
        check turns that into a loud error instead.
        """
        self = cls.__new__(cls)
        self.path = Path(path)
        self.scheme = scheme
        self.stats = stats if stats is not None else IOStats()
        self.fault_hook = None
        self._heal_staged_layout()
        with np.load(self._layout_path()) as layout:
            self.bucket_offsets = layout["bucket_offsets"]
            self.width = int(layout["width"])
            self.num_relations = int(layout["num_relations"])
            self.has_relations = bool(layout["has_relations"])
            self._file_crc = int(layout["file_crc"])
            self.compacted_seq = (int(layout["compacted_seq"])
                                  if "compacted_seq" in layout.files else 0)
        if scheme.num_partitions ** 2 + 1 != len(self.bucket_offsets):
            raise ValueError(
                f"bucket file has {len(self.bucket_offsets) - 1} buckets, "
                f"scheme expects {scheme.num_partitions ** 2}")
        if crc_file(self.path) != self._file_crc:
            raise ValueError(
                f"bucket file {self.path} does not match its layout sidecar "
                f"(likely a crash between a compaction's rename and the "
                f"sidecar update); re-preprocess the stream workdir")
        self.num_edges = int(self.bucket_offsets[-1])
        self._edges = np.memmap(self.path, dtype=np.int64, mode="r+",
                                shape=(max(self.num_edges, 1), self.width))
        return self

    def _heal_staged_layout(self) -> None:
        """Resolve an interrupted compaction commit.

        :meth:`rewrite_buckets` stages the *new* layout as
        ``<path>.layout.next`` before renaming the new bucket file into
        place, and promotes it to the live sidecar afterwards. A crash in
        between leaves the staged sidecar on disk; whether the bucket-file
        rename happened decides which side of the commit point we are on:

        * staged CRC matches the bucket file → the rename happened, the
          compaction is durable — promote the staged sidecar (this also
          commits its ``compacted_seq`` horizon, so WAL replay does not
          double-apply events the compaction already merged);
        * staged CRC does not match → the rename never happened, the old
          file is still live — discard the staged sidecar.
        """
        staged = self._staged_layout_path()
        if not staged.exists():
            return
        try:
            with np.load(staged) as layout:
                staged_crc = int(layout["file_crc"])
        except Exception:
            staged.unlink(missing_ok=True)
            return
        if self.path.exists() and crc_file(self.path) == staged_crc:
            os.rename(staged, self._layout_path())
            fsync_dir(self.path.parent)
        else:
            staged.unlink(missing_ok=True)

    @property
    def num_partitions(self) -> int:
        return self.scheme.num_partitions

    def bucket_size(self, i: int, j: int) -> int:
        p = self.num_partitions
        b = i * p + j
        return int(self.bucket_offsets[b + 1] - self.bucket_offsets[b])

    def bucket_bytes(self, i: int, j: int) -> int:
        return self.bucket_size(i, j) * self.width * 8

    def read_bucket(self, i: int, j: int, record_io: bool = True) -> np.ndarray:
        """One contiguous disk read returning bucket (i, j) edges."""
        p = self.num_partitions
        b = i * p + j
        lo, hi = int(self.bucket_offsets[b]), int(self.bucket_offsets[b + 1])
        data = np.array(self._edges[lo:hi])
        if record_io:
            self.stats.record_read(data.nbytes)
        return data

    def bucket_endpoints(self, i: int, j: int,
                         record_io: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Bucket ``(i, j)``'s ``(src, dst)`` endpoint arrays — the bucket
        source of a :class:`~repro.graph.csr.PartitionedAdjacencyIndex`, so
        a buffer swap reads only the *new* partitions' buckets from disk
        instead of re-reading all c^2 resident buckets."""
        data = self.read_bucket(i, j, record_io=record_io)
        return data[:, 0], data[:, -1]

    def read_buckets(self, pairs: Sequence[Tuple[int, int]],
                     record_io: bool = True) -> np.ndarray:
        parts = [self.read_bucket(i, j, record_io) for i, j in pairs]
        if not parts:
            return np.empty((0, self.width), dtype=np.int64)
        return np.concatenate(parts, axis=0)

    def subgraph_for_partitions(self, partitions: Sequence[int],
                                record_io: bool = True) -> Graph:
        """In-memory subgraph over all pairwise buckets of ``partitions``.

        ``record_io=False`` rebuilds the subgraph from already-resident data
        (e.g. after only the training-example set X_i changed), skipping the
        disk accounting.
        """
        edges = self.read_buckets(
            [(i, j) for i in partitions for j in partitions], record_io)
        return Graph(
            num_nodes=self.scheme.num_nodes,
            src=edges[:, 0],
            dst=edges[:, -1],
            rel=edges[:, 1] if self.has_relations else None,
            num_relations=self.num_relations,
        )

    def rewrite_buckets(self, bucket_arrays: Iterable[np.ndarray],
                        scheme: Optional[PartitionScheme] = None,
                        compacted_seq: Optional[int] = None) -> None:
        """Atomically replace the whole bucket-major file (compaction).

        ``bucket_arrays`` yields one ``(n, width)`` int64 array per bucket
        in ascending bucket-major ``(i, j)`` order — p*p arrays in total,
        which are **streamed** to the staging file one bucket at a time
        (peak extra memory is one composed bucket, never the edge set —
        compaction must not defeat the out-of-core design it serves).

        The commit protocol makes the swap crash-atomic *including* its
        metadata: the new bytes are staged as ``<path>.tmp`` (fsync), the
        new layout sidecar is staged as ``<path>.layout.next`` (fsync),
        and only then is the bucket file renamed into place — that rename
        is the commit point. The staged sidecar is promoted to the live
        name afterwards; a crash anywhere in between is resolved by
        :meth:`_heal_staged_layout` on the next :meth:`open`, so a reader
        never observes new bytes under old offsets, or a compaction
        horizon that disagrees with the file it describes.

        ``scheme`` replaces the store's partition scheme (node growth since
        construction); the partition *count* must be unchanged — buckets
        are identified by partition pair, not by node ranges.
        ``compacted_seq`` records the delta-log horizon the new file
        covers; it becomes durable at the same commit point as the bytes.
        """
        if scheme is not None:
            if scheme.num_partitions != self.num_partitions:
                raise ValueError("compaction cannot change the partition count")
            self.scheme = scheme
        if compacted_seq is None:
            compacted_seq = self.compacted_seq
        p = self.num_partitions
        offsets = np.zeros(p * p + 1, dtype=np.int64)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        count = 0
        crc = 0
        with open(tmp, "wb") as fh:
            for b, arr in enumerate(bucket_arrays):
                arr = np.ascontiguousarray(arr, dtype=np.int64)
                if arr.ndim != 2 or arr.shape[1] != self.width:
                    raise ValueError(f"bucket {b} has shape {arr.shape}, "
                                     f"expected (n, {self.width})")
                offsets[b + 1] = offsets[b] + len(arr)
                payload = arr.tobytes()
                fh.write(payload)
                crc = zlib.crc32(payload, crc)
                count += 1
            if count != p * p:
                raise ValueError(f"expected {p * p} buckets, got {count}")
            total = int(offsets[-1])
            if total == 0:     # keep the file mappable (one zero row)
                pad = np.zeros((1, self.width), dtype=np.int64).tobytes()
                fh.write(pad)
                crc = zlib.crc32(pad, crc)
            fh.flush()
            os.fsync(fh.fileno())
        self.stats.record_write(total * self.width * 8)
        with atomic_write(self._staged_layout_path()) as fh:
            np.savez(fh, **self._layout_arrays(offsets, crc, compacted_seq))
        self._fire("rewrite-staged")
        self._edges.flush()
        del self._edges
        os.rename(tmp, self.path)
        fsync_dir(self.path.parent)
        self._fire("rewrite-post-rename")
        os.rename(self._staged_layout_path(), self._layout_path())
        fsync_dir(self.path.parent)
        self._edges = np.memmap(self.path, dtype=np.int64, mode="r+",
                                shape=(max(total, 1), self.width))
        self.bucket_offsets = offsets
        self.num_edges = total
        self._file_crc = crc
        self.compacted_seq = int(compacted_seq)

    def fingerprint(self) -> str:
        """Layout identity: bucket offsets + edge width.

        The edge store is immutable between compactions, so the fingerprint
        also pins its contents' shape — a snapshot taken against one bucket
        layout refuses to resume against another, and a compaction (which
        changes the offsets) deliberately invalidates older snapshots'
        store pins.
        """
        crc = zlib.crc32(np.ascontiguousarray(self.bucket_offsets).tobytes())
        return f"edge:{self.num_edges}:{self.width}:{crc:08x}"

    def close(self) -> None:
        self._edges.flush()
        del self._edges

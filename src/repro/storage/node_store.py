"""Disk-backed partitioned node representation store.

Base vector representations are "stored sequentially in a lookup table split
into p physical partitions on disk" (paper Section 3). :class:`NodeStore`
implements that table as a raw float32 file: partition ``i`` is the
contiguous row range given by the :class:`~repro.graph.partition.
PartitionScheme`, so loading a partition is one sequential read — the
property the auto-tuning rules in Section 6 rely on when comparing partition
size to the disk block size.

Learnable representations carry per-row Adagrad state in a second file that
pages in and out with its partition (as in Marius).

Every training-side transfer is positional I/O on the store's open files:
``os.preadv`` straight into the caller's array (a partition buffer's slab
slot, a snapshot's partition-sized scratch) and ``os.pwrite`` from it. The
table therefore lives only in the OS page cache, never in a training
process's address space. Serving alone reads through a read-only memory
map of the table (:meth:`NodeStore.read_rows`,
:meth:`NodeStore.partition_block`), created on first use; positional writes
land in the same page cache, so the map sees them.

The store also knows which partitions it has written since a given moment
(:meth:`NodeStore.written_since`): every write path stamps what it touches,
so a snapshot rewrites exactly those partition files and links the rest.
"""

from __future__ import annotations

import os
import threading
import zlib
from pathlib import Path
from typing import Optional, Set, Tuple

import numpy as np

from ..graph.partition import PartitionScheme
from .io_stats import IOStats


def _bytes_of(rows: np.ndarray) -> memoryview:
    """The raw bytes of a C-contiguous array, without a copy."""
    if not rows.flags.c_contiguous:
        raise ValueError("positional I/O needs C-contiguous rows")
    return memoryview(rows.reshape(-1).view(np.uint8))


class NodeStore:
    """Partitioned on-disk array of per-node vectors.

    Parameters
    ----------
    path:
        Backing file location (created/overwritten).
    scheme:
        Node-to-partition assignment; partitions are contiguous row ranges.
    dim:
        Vector dimension.
    learnable:
        If True, an Adagrad state file is kept alongside the table.
    stats:
        Shared :class:`IOStats` to account traffic against.
    """

    def __init__(self, path: os.PathLike, scheme: PartitionScheme, dim: int,
                 learnable: bool = True, stats: Optional[IOStats] = None) -> None:
        self.path = Path(path)
        self.scheme = scheme
        self.dim = int(dim)
        self.learnable = learnable
        self.stats = stats if stats is not None else IOStats()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._attach("w+b")
        for fh in self._files():
            os.ftruncate(fh.fileno(), self._file_bytes)

    @property
    def _state_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".state")

    @property
    def _file_bytes(self) -> int:
        return self.num_nodes * self.dim * 4

    def _attach(self, mode: str) -> None:
        """Open the table (and state) files: ``w+b`` creates, ``r+b``
        attaches. Unbuffered: every transfer is one positional call."""
        self._table_fh = open(self.path, mode, buffering=0)
        self._state_fh = (open(self._state_path, mode, buffering=0)
                          if self.learnable else None)
        self._map: Optional[np.memmap] = None   # serving's, made on first use
        self.writes = 0       # bumped by every write: a mark for written_since
        self._written_at = np.zeros(self.scheme.num_partitions, dtype=np.int64)
        self._stamp_lock = threading.Lock()   # I/O and ingest threads write

    def _files(self):
        return [self._table_fh] + ([self._state_fh] if self.learnable else [])

    @classmethod
    def open(cls, path: os.PathLike, scheme: PartitionScheme, dim: int,
             learnable: bool = True, stats: Optional[IOStats] = None,
             truncate: bool = False) -> "NodeStore":
        """Reattach to an existing table file without overwriting it
        (stream-workdir resume). The file must match ``scheme`` x ``dim``;
        with ``truncate=True`` a *larger* file is cut back to the scheme's
        size — node growth is append-only, so rows past the target are
        exactly the post-snapshot additions a resume discards. Contents
        are validated downstream by the resuming trainer's snapshot
        fingerprints."""
        self = cls.__new__(cls)
        self.path = Path(path)
        self.scheme = scheme
        self.dim = int(dim)
        self.learnable = learnable
        self.stats = stats if stats is not None else IOStats()
        expected = self._file_bytes
        for target in [self.path] + ([self._state_path] if learnable else []):
            actual = target.stat().st_size
            if actual > expected and truncate:
                os.truncate(target, expected)
                actual = expected
            if actual != expected:
                raise ValueError(f"table file {target} is {actual} bytes, "
                                 f"scheme x dim expects {expected}")
        self._attach("r+b")
        return self

    def _stamp(self, parts) -> None:
        """Record that ``parts`` (an index or slice) were just written."""
        with self._stamp_lock:
            self.writes += 1
            self._written_at[parts] = self.writes

    def written_since(self, mark: int) -> Set[int]:
        """Partitions written after ``mark`` (an earlier :attr:`writes`).

        The one place a snapshot decides which partition files changed:
        ``write_partition``, ``write_span``, ``initialize`` and ``grow``
        all stamp the partitions they touch.
        """
        return set(np.flatnonzero(self._written_at > mark).tolist())

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.scheme.num_nodes

    @property
    def num_partitions(self) -> int:
        return self.scheme.num_partitions

    def partition_bytes(self, part: int) -> int:
        return self.scheme.partition_size(part) * self.dim * 4

    def _bounds(self, part: int) -> Tuple[int, int]:
        return (int(self.scheme.boundaries[part]),
                int(self.scheme.boundaries[part + 1]))

    def _state_file(self):
        if self._state_fh is None:
            raise ValueError("store has no optimizer state file")
        return self._state_fh

    # -- positional I/O (no stats, no stamps) ----------------------------
    def _pread(self, fh, row: int, out: np.ndarray) -> None:
        """Fill ``out`` from the rows starting at ``row``."""
        buf = _bytes_of(out)
        offset = row * self.dim * 4
        while buf:
            got = os.preadv(fh.fileno(), [buf], offset)
            if got == 0:
                raise EOFError(f"{fh.name}: short read at byte {offset}")
            buf, offset = buf[got:], offset + got

    def _pwrite(self, fh, row: int, data: np.ndarray) -> None:
        """Write ``data``'s rows (as float32) starting at row ``row``."""
        buf = _bytes_of(np.ascontiguousarray(data, dtype=np.float32))
        offset = row * self.dim * 4
        while buf:
            put = os.pwrite(fh.fileno(), buf, offset)
            buf, offset = buf[put:], offset + put

    # ------------------------------------------------------------------
    def initialize(self, values: Optional[np.ndarray] = None,
                   scale: Optional[float] = None,
                   rng: Optional[np.random.Generator] = None) -> None:
        """Fill the table, one partition at a time: either copy ``values``
        or uniform-random init (the same bytes as one whole-table draw)."""
        if values is not None:
            if values.shape != (self.num_nodes, self.dim):
                raise ValueError(f"initializer shape {values.shape} != "
                                 f"{(self.num_nodes, self.dim)}")
        else:
            rng = rng or np.random.default_rng()
            if scale is None:
                scale = 1.0 / self.dim
        for part in range(self.num_partitions):
            lo, hi = self._bounds(part)
            rows = (values[lo:hi] if values is not None else
                    rng.uniform(-scale, scale, size=(hi - lo, self.dim)))
            self._pwrite(self._table_fh, lo, rows)
        self.flush()
        self._stamp(slice(None))

    # ------------------------------------------------------------------
    def read_partition(self, part: int,
                       out: Optional[Tuple[np.ndarray, Optional[np.ndarray]]] = None
                       ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Read one partition (and its optimizer state).

        Into fresh RAM arrays, or — with ``out=(data, state)`` — straight
        into caller-owned arrays such as a partition buffer's slab slot, so
        the bytes are copied once. Returns the ``(data, state)`` filled.
        """
        lo, hi = self._bounds(part)
        if out is None:
            data = np.empty((hi - lo, self.dim), dtype=np.float32)
            state = None if self._state_fh is None else np.empty_like(data)
        else:
            data, state = out
            if data.shape != (hi - lo, self.dim):
                raise ValueError(f"partition {part} expects shape {(hi - lo, self.dim)}, got {data.shape}")
            if self._state_fh is None:
                state = None
        self._pread(self._table_fh, lo, data)
        if state is not None:
            self._pread(self._state_fh, lo, state)
        self.stats.record_read(data.nbytes, partition_loads=1)
        if state is not None:
            self.stats.record_read(state.nbytes)
        return data, state

    def write_partition(self, part: int, data: np.ndarray,
                        state: Optional[np.ndarray] = None) -> None:
        """Write a partition (and optimizer state) back to disk."""
        lo, hi = self._bounds(part)
        if data.shape != (hi - lo, self.dim):
            raise ValueError(f"partition {part} expects shape {(hi - lo, self.dim)}, got {data.shape}")
        self._pwrite(self._table_fh, lo, data)
        self._stamp(part)
        self.stats.record_write(data.nbytes, partition_evictions=1)
        if state is not None:
            self._pwrite(self._state_file(), lo, state)
            self.stats.record_write(state.nbytes)

    def write_span(self, start_row: int, data: np.ndarray,
                   state: Optional[np.ndarray] = None) -> None:
        """Write a contiguous row span (buffer re-sync after table growth:
        the in-buffer copy of a grown partition covers only its old rows;
        a snapshot restore, a partition file at a time)."""
        stop = start_row + len(data)
        if start_row < 0 or stop > self.num_nodes:
            raise ValueError(f"span [{start_row}, {stop}) outside the table")
        self._pwrite(self._table_fh, start_row, data)
        bounds = self.scheme.boundaries
        self._stamp(slice(np.searchsorted(bounds, start_row, side="right") - 1,
                          np.searchsorted(bounds, stop, side="left")))
        self.stats.record_write(data.nbytes)
        if state is not None:
            self._pwrite(self._state_file(), start_row, state)
            self.stats.record_write(state.nbytes)

    def read_block(self, part: int, out: np.ndarray,
                   state: bool = False) -> np.ndarray:
        """Partition ``part``'s rows (``state=True``: its optimizer state)
        read positionally into the first rows of ``out`` — a snapshot
        reuses one partition-sized array for every partition. Returns the
        filled rows; counted as bytes read, not as a partition load."""
        lo, hi = self._bounds(part)
        rows = out[: hi - lo]
        self._pread(self._state_file() if state else self._table_fh, lo, rows)
        self.stats.record_read(rows.nbytes)
        return rows

    def gather_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` (any order, duplicates allowed) by positional
        reads: one read per run of consecutive ids among the sorted unique
        ones. Evaluation's gather — it never maps the table."""
        uniq, inverse = np.unique(np.asarray(rows, dtype=np.int64),
                                  return_inverse=True)
        out = np.empty((len(uniq), self.dim), dtype=np.float32)
        if len(uniq) == 0:
            return out
        if uniq[0] < 0 or uniq[-1] >= self.num_nodes:
            raise IndexError(f"rows outside [0, {self.num_nodes})")
        cuts = np.flatnonzero(np.diff(uniq) != 1) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(uniq)]):
            self._pread(self._table_fh, int(uniq[lo]), out[lo:hi])
        self.stats.record_read(out.nbytes)
        return out[inverse]

    # -- serving's read-only map ----------------------------------------
    def _mapped(self) -> np.memmap:
        """The read-only map of the table file, made on first use and
        dropped by :meth:`grow` and :meth:`close`."""
        if self._map is None:
            self._map = np.memmap(self.path, dtype=np.float32, mode="r",
                                  shape=(self.num_nodes, self.dim))
        return self._map

    def read_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row gather from the mapped table: serving's lookups."""
        rows = np.asarray(rows, dtype=np.int64)
        data = np.array(self._mapped()[rows])
        self.stats.record_read(data.nbytes)
        return data

    def partition_block(self, part: int) -> np.ndarray:
        """Partition ``part``'s rows in place: a read-only view of the map,
        no copy (serving scores whole partitions straight from the page
        cache). Counted as bytes read, not as a partition load; callers
        must not hold it across :meth:`grow`, which drops the map."""
        lo, hi = self._bounds(part)
        block = self._mapped()[lo:hi].view(np.ndarray)
        self.stats.record_read(block.nbytes)
        return block

    def read_all(self) -> np.ndarray:
        """A copy of the entire table (an oracle for tests and examples;
        training never holds the whole table)."""
        return self._read_whole(self._table_fh)

    def read_all_state(self) -> Optional[np.ndarray]:
        """Full optimizer-state table (``None`` for fixed-feature stores)."""
        return None if self._state_fh is None else self._read_whole(
            self._state_fh)

    def _read_whole(self, fh) -> np.ndarray:
        data = np.empty((self.num_nodes, self.dim), dtype=np.float32)
        self._pread(fh, 0, data)
        self.stats.record_read(data.nbytes)
        return data

    def grow(self, new_scheme: "PartitionScheme", values: np.ndarray,
             state: Optional[np.ndarray] = None) -> None:
        """Append new node rows: the streaming node-table growth path.

        ``new_scheme`` must extend this store's scheme by exactly
        ``len(values)`` nodes under the last-partition growth rule
        (:meth:`PartitionScheme.extended`), so existing rows keep their
        offsets and the append is a pure file extension: ``ftruncate`` the
        files to the new size (new state rows read as zeros), write the
        new rows, and drop the read-only map so the next serving read maps
        the new size. Callers holding partition buffer copies must re-sync
        afterwards.
        """
        extra = new_scheme.num_nodes - self.num_nodes
        if extra != len(values):
            raise ValueError(f"scheme grows by {extra} nodes but {len(values)} "
                             f"rows were supplied")
        if (new_scheme.num_partitions != self.scheme.num_partitions
                or not np.array_equal(new_scheme.boundaries[:-1],
                                      self.scheme.boundaries[:-1])):
            raise ValueError("grow supports only last-partition extension")
        if values.shape != (extra, self.dim):
            raise ValueError(f"new rows must be ({extra}, {self.dim}), "
                             f"got {values.shape}")
        if extra == 0:
            return
        lo = self.num_nodes
        self.scheme = new_scheme
        for fh in self._files():
            os.ftruncate(fh.fileno(), self._file_bytes)
        self._map = None
        self._pwrite(self._table_fh, lo, values)
        self.stats.record_write(values.nbytes)
        if self._state_fh is not None and state is not None:
            self._pwrite(self._state_fh, lo, state)
        self._stamp(new_scheme.num_partitions - 1)
        self.flush()

    def fingerprint(self) -> str:
        """Layout identity (not contents): partition boundaries + dim.

        Snapshots record this so a resume against a store partitioned
        differently (or a different graph size) is rejected up front.
        """
        crc = zlib.crc32(np.ascontiguousarray(self.scheme.boundaries).tobytes())
        learnable = 1 if self.learnable else 0
        return f"node:{self.num_nodes}:{self.dim}:{learnable}:{crc:08x}"

    def flush(self) -> None:
        """Make every write so far durable (``fsync`` both files)."""
        for fh in self._files():
            os.fsync(fh.fileno())

    def close(self) -> None:
        """Flush, close both files and drop the read-only map."""
        if self._table_fh.closed:
            return
        self.flush()
        for fh in self._files():
            fh.close()
        self._map = None

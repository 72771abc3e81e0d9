"""Disk-backed partitioned node representation store.

Base vector representations are "stored sequentially in a lookup table split
into p physical partitions on disk" (paper Section 3). :class:`NodeStore`
implements that table with a real ``numpy.memmap`` file: partition ``i`` is
the contiguous row range given by the :class:`~repro.graph.partition.
PartitionScheme`, so loading a partition is one sequential read — the
property the auto-tuning rules in Section 6 rely on when comparing partition
size to the disk block size.

Learnable representations carry per-row Adagrad state in a second memmap that
pages in and out with its partition (as in Marius).

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
        self._map("w+")

    @property
    def _state_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".state")

    def _map(self, mode: str) -> None:
        """Map the table (and state) files: ``w+`` creates, ``r+`` attaches."""
        shape = (self.scheme.num_nodes, self.dim)
        self._table = np.memmap(self.path, dtype=np.float32, mode=mode,
                                shape=shape)
        self._state: Optional[np.memmap] = None
        if self.learnable:
            self._state = np.memmap(self._state_path, dtype=np.float32,
                                    mode=mode, shape=shape)
        self.writes = 0       # bumped by every write: a mark for written_since
        self._written_at = np.zeros(self.scheme.num_partitions, dtype=np.int64)
        self._stamp_lock = threading.Lock()   # I/O and ingest threads write

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
        expected = scheme.num_nodes * self.dim * 4
        for target in [self.path] + ([self._state_path] if learnable else []):
            actual = target.stat().st_size
            if actual > expected and truncate:
                with open(target, "r+b") as fh:
                    fh.truncate(expected)
                actual = expected
            if actual != expected:
                raise ValueError(f"table file {target} is {actual} bytes, "
                                 f"scheme x dim expects {expected}")
        self._map("r+")
        return self

    def _stamp(self, parts) -> None:
        """Record that ``parts`` (an index or slice) were just written."""
        with self._stamp_lock:
            self.writes += 1
            self._written_at[parts] = self.writes

    def written_since(self, mark: int) -> Set[int]:
        """Partitions written after ``mark`` (an earlier :attr:`writes`).

        The one place a snapshot decides which partition files changed:
        ``write_partition``, ``write_span``, ``initialize``, ``grow`` and
        ``restore`` all stamp the partitions they touch.
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

    # ------------------------------------------------------------------
    def initialize(self, values: Optional[np.ndarray] = None,
                   scale: Optional[float] = None,
                   rng: Optional[np.random.Generator] = None) -> None:
        """Fill the table: either copy ``values`` or uniform-random init."""
        if values is not None:
            if values.shape != self._table.shape:
                raise ValueError(f"initializer shape {values.shape} != {self._table.shape}")
            self._table[:] = values.astype(np.float32)
        else:
            rng = rng or np.random.default_rng()
            if scale is None:
                scale = 1.0 / self.dim
            chunk = 1 << 16
            for start in range(0, self.num_nodes, chunk):
                stop = min(start + chunk, self.num_nodes)
                self._table[start:stop] = rng.uniform(
                    -scale, scale, size=(stop - start, self.dim)).astype(np.float32)
        self._table.flush()
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
        lo, hi = int(self.scheme.boundaries[part]), int(self.scheme.boundaries[part + 1])
        if out is None:
            data = np.array(self._table[lo:hi])
            state = None if self._state is None else np.array(self._state[lo:hi])
        else:
            data, state = out
            if data.shape != (hi - lo, self.dim):
                raise ValueError(f"partition {part} expects shape {(hi - lo, self.dim)}, got {data.shape}")
            data[...] = self._table[lo:hi]
            if self._state is None:
                state = None
            else:
                state[...] = self._state[lo:hi]
        self.stats.record_read(data.nbytes, partition_loads=1)
        if state is not None:
            self.stats.record_read(state.nbytes)
        return data, state

    def write_partition(self, part: int, data: np.ndarray,
                        state: Optional[np.ndarray] = None) -> None:
        """Write a partition (and optimizer state) back to disk."""
        lo, hi = int(self.scheme.boundaries[part]), int(self.scheme.boundaries[part + 1])
        if data.shape != (hi - lo, self.dim):
            raise ValueError(f"partition {part} expects shape {(hi - lo, self.dim)}, got {data.shape}")
        self._table[lo:hi] = data
        self._stamp(part)
        self.stats.record_write(data.nbytes, partition_evictions=1)
        if state is not None:
            if self._state is None:
                raise ValueError("store has no optimizer state file")
            self._state[lo:hi] = state
            self.stats.record_write(state.nbytes)

    def write_span(self, start_row: int, data: np.ndarray,
                   state: Optional[np.ndarray] = None) -> None:
        """Write a contiguous row span (buffer re-sync after table growth:
        the in-buffer copy of a grown partition covers only its old rows)."""
        stop = start_row + len(data)
        if start_row < 0 or stop > self.num_nodes:
            raise ValueError(f"span [{start_row}, {stop}) outside the table")
        self._table[start_row:stop] = data
        bounds = self.scheme.boundaries
        self._stamp(slice(np.searchsorted(bounds, start_row, side="right") - 1,
                          np.searchsorted(bounds, stop, side="left")))
        self.stats.record_write(data.nbytes)
        if state is not None:
            if self._state is None:
                raise ValueError("store has no optimizer state file")
            self._state[start_row:stop] = state
            self.stats.record_write(state.nbytes)

    # ------------------------------------------------------------------
    def read_rows(self, rows: np.ndarray) -> np.ndarray:
        """Direct (unbuffered) row gather: evaluation and serving reads."""
        rows = np.asarray(rows, dtype=np.int64)
        data = np.array(self._table[rows])
        self.stats.record_read(data.nbytes)
        return data

    def partition_block(self, part: int, state: bool = False) -> np.ndarray:
        """Partition ``part``'s rows (``state=True``: its optimizer state)
        in place: a read-only view of the map, no copy (serving scores
        whole partitions straight from the page cache; snapshots write
        partition files from it). Counted as bytes read, not as a partition
        load; callers must not hold it across :meth:`grow`, which remaps
        the table."""
        lo, hi = int(self.scheme.boundaries[part]), int(self.scheme.boundaries[part + 1])
        block = (self._state if state else self._table)[lo:hi].view(np.ndarray)
        block.flags.writeable = False
        self.stats.record_read(block.nbytes)
        return block

    def read_all(self) -> np.ndarray:
        """Load the entire table (in-memory training mode)."""
        data = np.array(self._table)
        self.stats.record_read(data.nbytes)
        return data

    def read_all_state(self) -> Optional[np.ndarray]:
        """Full optimizer-state table (``None`` for fixed-feature stores)."""
        if self._state is None:
            return None
        data = np.array(self._state)
        self.stats.record_read(data.nbytes)
        return data

    def restore(self, table: np.ndarray,
                state: Optional[np.ndarray] = None) -> None:
        """Overwrite the whole store from a snapshot's table (+ state) copy.

        The workdir memmaps are scratch once checkpointing is on — a resume
        rewrites them wholesale from the snapshot, so partition writes torn
        by a crash after the snapshot cannot leak into training.
        """
        if table.shape != self._table.shape:
            raise ValueError(
                f"restore shape {table.shape} != store shape {self._table.shape}")
        self._table[:] = table
        self.stats.record_write(self._table.nbytes)
        if state is not None:
            if self._state is None:
                raise ValueError("store has no optimizer state file")
            if state.shape != self._state.shape:
                raise ValueError(
                    f"restore state shape {state.shape} != {self._state.shape}")
            self._state[:] = state
            self.stats.record_write(self._state.nbytes)
        self._stamp(slice(None))
        self.flush()

    def grow(self, new_scheme: "PartitionScheme", values: np.ndarray,
             state: Optional[np.ndarray] = None) -> None:
        """Append new node rows: the streaming node-table growth path.

        ``new_scheme`` must extend this store's scheme by exactly
        ``len(values)`` nodes under the last-partition growth rule
        (:meth:`PartitionScheme.extended`), so existing rows keep their
        offsets and the append is a pure file extension: flush, release the
        memmap, ``truncate`` the backing file to the new size, remap, and
        write the new rows. Callers holding views into the old memmap (the
        partition buffer) must re-sync afterwards.
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
        shape = (new_scheme.num_nodes, self.dim)
        self._table = self._extend_memmap(self.path, self._table, shape)
        self._table[lo:] = values.astype(np.float32)
        self.stats.record_write(values.nbytes)
        if self._state is not None:
            self._state = self._extend_memmap(self._state_path, self._state,
                                              shape)
            self._state[lo:] = (state.astype(np.float32) if state is not None
                                else 0.0)
        self._stamp(new_scheme.num_partitions - 1)
        self.flush()

    @staticmethod
    def _extend_memmap(path: Path, mm: np.memmap,
                       shape: Tuple[int, int]) -> np.memmap:
        mm.flush()
        del mm
        with open(path, "r+b") as fh:
            fh.truncate(shape[0] * shape[1] * 4)
            fh.flush()
            os.fsync(fh.fileno())
        return np.memmap(path, dtype=np.float32, mode="r+", shape=shape)

    def fingerprint(self) -> str:
        """Layout identity (not contents): partition boundaries + dim.

        Snapshots record this so a resume against a store partitioned
        differently (or a different graph size) is rejected up front.
        """
        crc = zlib.crc32(np.ascontiguousarray(self.scheme.boundaries).tobytes())
        learnable = 1 if self._state is not None else 0
        return f"node:{self.num_nodes}:{self.dim}:{learnable}:{crc:08x}"

    def flush(self) -> None:
        self._table.flush()
        if self._state is not None:
            self._state.flush()

    def close(self) -> None:
        self.flush()
        # memmaps are released by dropping references
        del self._table
        if self._state is not None:
            del self._state
            self._state = None

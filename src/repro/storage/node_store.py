"""Disk-backed partitioned node representation store.

Base vector representations are "stored sequentially in a lookup table split
into p physical partitions on disk" (paper Section 3). :class:`NodeStore`
keeps that table as a directory with one file per partition,
``node_table/<part>.npy``: a plain float32 ``.npy`` of shape (partition
rows, dim), so loading a partition is one sequential read — the property
the auto-tuning rules in Section 6 rely on when comparing partition size to
the disk block size. Learnable representations carry per-row Adagrad state
in ``node_state/<part>.npy`` files that page in and out with their
partition (as in Marius).

This is the snapshot's layout too (:mod:`repro.train.checkpoint`): a save
hard-links the store's files, a resume links a snapshot's files back
(:meth:`NodeStore.link_from`), and a serving store opens a snapshot's
files in place (``NodeStore.open(..., read_only=True)``). One write rule
keeps a linked file unchanged: a same-shape write goes in place while the
file has one link, and otherwise writes the whole partition to
``<part>.npy.tmp`` and renames it over the file, breaking the link.
Shape changes (:meth:`NodeStore.grow`, ``open(truncate=True)``) always
take the temp-plus-rename route. A crash between the temp write and the
rename leaves the old file intact plus a ``.tmp`` that the next
:meth:`NodeStore.open` sweeps.

Every training-side transfer is positional I/O on the store's open files
at the ``.npy`` header's data offset: ``os.preadv`` straight into the
caller's array (a partition buffer's slab slot) and ``os.pwrite`` from it.
The table therefore lives only in the OS page cache, never in a training
process's address space. Serving alone reads through read-only memory maps,
one per partition (:meth:`NodeStore.read_rows`,
:meth:`NodeStore.partition_block`), created on first use; in-place writes
land in the same page cache, so the maps see them.
"""

from __future__ import annotations

import os
import shutil
import zlib
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..graph.partition import PartitionScheme
from .io_stats import IOStats


_TABLES = ("node_table", "node_state")     # the table, its Adagrad state


def table_file(name: str, part: int) -> str:
    """A partition file's path relative to its store or snapshot."""
    return f"{name}/{part:05d}.npy"


def _bytes_of(rows: np.ndarray) -> memoryview:
    """The raw bytes of a C-contiguous array, without a copy."""
    if not rows.flags.c_contiguous:
        raise ValueError("positional I/O needs C-contiguous rows")
    return memoryview(rows.reshape(-1).view(np.uint8))


def _pwrite(fh, offset: int, data: np.ndarray) -> None:
    """Write ``data`` (as float32) at byte ``offset`` of ``fh``."""
    buf = _bytes_of(np.ascontiguousarray(data, dtype=np.float32))
    while buf:
        put = os.pwrite(fh.fileno(), buf, offset)
        buf, offset = buf[put:], offset + put


def link_or_copy(source: Path, target: Path) -> None:
    """Hard-link ``source`` as ``target``, or copy it where the link fails
    (``EXDEV``: the two are on different filesystems)."""
    try:
        os.link(source, target)
    except OSError:
        shutil.copyfile(source, target)


def _new_file(path: Path, rows: int, dim: int):
    """Create a table file: the ``.npy`` header, then ``rows`` zero rows.
    Returns the open file, positioned at the first row."""
    fh = open(path, "wb", buffering=0)
    np.lib.format.write_array_header_1_0(
        fh, {"descr": "<f4", "fortran_order": False, "shape": (rows, dim)})
    fh.truncate(fh.tell() + rows * dim * 4)
    return fh


class NodeStore:
    """Partitioned on-disk array of per-node vectors.

    Parameters
    ----------
    path:
        Store directory (created; existing partition files are replaced).
    scheme:
        Node-to-partition assignment; partitions are contiguous row ranges.
    dim:
        Vector dimension.
    learnable:
        If True, Adagrad state files are kept alongside the table.
    stats:
        Shared :class:`IOStats` to account traffic against.
    """

    def __init__(self, path: os.PathLike, scheme: PartitionScheme, dim: int,
                 learnable: bool = True, stats: Optional[IOStats] = None) -> None:
        path = Path(path)
        for name in _TABLES[:2 if learnable else 1]:
            # Unlink, never truncate: a snapshot may link the old files.
            shutil.rmtree(path / name, ignore_errors=True)
            (path / name).mkdir(parents=True)
            for part in range(scheme.num_partitions):
                _new_file(path / table_file(name, part),
                          scheme.partition_size(part), int(dim)).close()
        self._attach(path, scheme, dim, learnable, stats)

    @classmethod
    def open(cls, path: os.PathLike, scheme: PartitionScheme, dim: int,
             learnable: bool = True, stats: Optional[IOStats] = None,
             truncate: bool = False, read_only: bool = False) -> "NodeStore":
        """Attach to existing partition files without overwriting them
        (stream-workdir resume; with ``read_only=True`` a serving store
        over a snapshot directory, which writes nothing there). Each
        file's header must match ``scheme`` x ``dim``; with
        ``truncate=True`` a *longer* last partition is cut back to the
        scheme's size — node growth is append-only, so rows past the
        target are exactly the post-snapshot additions a resume discards.
        Contents are validated downstream by the resuming trainer's
        snapshot fingerprints."""
        self = cls.__new__(cls)
        self._attach(path, scheme, dim, learnable, stats, truncate, read_only)
        return self

    def _attach(self, path, scheme, dim, learnable, stats, truncate=False,
                read_only=False) -> None:
        """The one attach path, for a new store and an existing one: sweep
        leftover ``.tmp`` files, cut a longer last partition back (with
        ``truncate``) and open every partition file."""
        self.path = Path(path)
        self.scheme = scheme
        self.dim = int(dim)
        self.learnable = learnable
        self.read_only = read_only
        self.stats = stats if stats is not None else IOStats()
        self.tables = _TABLES[:2 if learnable else 1]
        # Per table and partition: the open file and its data offset.
        self._files = {name: [None] * scheme.num_partitions
                       for name in self.tables}
        # Serving's read-only maps of the table files, made on first use.
        self._maps: List[Optional[np.ndarray]] = [None] * scheme.num_partitions
        last = self.num_partitions - 1
        for name in self.tables:
            if not read_only:
                for leftover in (self.path / name).glob("*.tmp"):
                    leftover.unlink()
            if truncate:
                rows = np.load(self.path / table_file(name, last))
                if len(rows) > scheme.partition_size(last):
                    self._replace(name, last, rows[:scheme.partition_size(last)])
            for part in range(self.num_partitions):
                self._reopen(name, part, scheme.partition_size(part))

    @staticmethod
    def stored_rows(path: os.PathLike) -> int:
        """Rows in a store directory's table files, from their headers."""
        return sum(np.load(file, mmap_mode="r").shape[0]
                   for file in (Path(path) / "node_table").glob("*.npy"))

    def _reopen(self, name: str, part: int, rows: int) -> None:
        """Open partition ``part``'s current ``name`` file, check its
        shape, and drop the handle and map of the file it replaced."""
        path = self.path / table_file(name, part)
        fh = open(path, "rb" if self.read_only else "r+b", buffering=0)
        np.lib.format.read_magic(fh)
        header = np.lib.format.read_array_header_1_0(fh)
        if header != ((rows, self.dim), False, np.float32):
            fh.close()
            raise ValueError(f"partition file {path} holds {header}, the "
                             f"scheme x dim expects {(rows, self.dim)}")
        old, self._files[name][part] = self._files[name][part], (fh, fh.tell())
        if name == "node_table":
            self._maps[part] = None
        if old is not None:
            old[0].close()

    def files(self) -> List[str]:
        """Every partition file, relative to :attr:`path`."""
        return [table_file(name, part) for name in self.tables
                for part in range(self.num_partitions)]

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.scheme.num_nodes

    @property
    def num_partitions(self) -> int:
        return self.scheme.num_partitions

    def _bounds(self, part: int) -> Tuple[int, int]:
        return (int(self.scheme.boundaries[part]),
                int(self.scheme.boundaries[part + 1]))

    # -- positional I/O (no stats) ---------------------------------------
    def _pread(self, name: str, part: int, row: int, out: np.ndarray) -> None:
        """Fill ``out`` from partition ``part``'s rows starting at ``row``."""
        fh, offset = self._files[name][part]
        buf, offset = _bytes_of(out), offset + row * self.dim * 4
        while buf:
            got = os.preadv(fh.fileno(), [buf], offset)
            if got == 0:
                raise EOFError(f"{fh.name}: short read at byte {offset}")
            buf, offset = buf[got:], offset + got

    def _write_rows(self, name: str, part: int, row: int,
                    data: np.ndarray) -> None:
        """The one write rule: in place while the file has one link; else
        (a snapshot links it) the whole partition goes to a new file."""
        fh, offset = self._files[name][part]
        if os.fstat(fh.fileno()).st_nlink == 1:
            _pwrite(fh, offset + row * self.dim * 4, data)
            return
        whole = data
        if len(data) != self.scheme.partition_size(part):
            whole = np.empty((self.scheme.partition_size(part), self.dim),
                             dtype=np.float32)
            self._pread(name, part, 0, whole)
            whole[row:row + len(data)] = data
        self._replace(name, part, whole)

    def _replace(self, name: str, part: int, rows: np.ndarray) -> None:
        """Write ``rows`` as partition ``part``'s new ``name`` file: to
        ``<part>.npy.tmp``, then renamed over the current file."""
        final = self.path / table_file(name, part)
        tmp = final.with_name(final.name + ".tmp")
        with _new_file(tmp, len(rows), self.dim) as fh:
            _pwrite(fh, fh.tell(), rows)
        os.replace(tmp, final)
        self._reopen(name, part, len(rows))

    # ------------------------------------------------------------------
    def initialize(self, values: Optional[np.ndarray] = None,
                   scale: Optional[float] = None,
                   rng: Optional[np.random.Generator] = None) -> None:
        """Fill the table, one partition at a time: either copy ``values``
        or uniform-random init (the same bytes as one whole-table draw).
        Not fsynced: a snapshot fsyncs the files it links, and a store
        that must outlive a crash on its own calls :meth:`flush`."""
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
            self._write_rows("node_table", part, 0, rows)

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
            state = np.empty_like(data) if self.learnable else None
        else:
            data, state = out
            if data.shape != (hi - lo, self.dim):
                raise ValueError(f"partition {part} expects shape {(hi - lo, self.dim)}, got {data.shape}")
            if not self.learnable:
                state = None
        self._pread("node_table", part, 0, data)
        if state is not None:
            self._pread("node_state", part, 0, state)
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
        self._write_rows("node_table", part, 0, data)
        self.stats.record_write(data.nbytes, partition_evictions=1)
        if state is not None:
            self._write_rows("node_state", part, 0, state)
            self.stats.record_write(state.nbytes)

    def write_span(self, start_row: int, data: np.ndarray,
                   state: Optional[np.ndarray] = None) -> None:
        """Write a contiguous row span, a partition file at a time (buffer
        re-sync after table growth: the in-buffer copy of a grown
        partition covers only its old rows)."""
        stop = start_row + len(data)
        if start_row < 0 or stop > self.num_nodes:
            raise ValueError(f"span [{start_row}, {stop}) outside the table")
        bounds = self.scheme.boundaries
        for part in range(bounds.searchsorted(start_row, side="right") - 1,
                          bounds.searchsorted(stop)):
            lo, hi = self._bounds(part)
            a, b = max(lo, start_row), min(hi, stop)
            for name, rows in (("node_table", data), ("node_state", state)):
                if a < b and rows is not None:
                    self._write_rows(name, part, a - lo,
                                     rows[a - start_row:b - start_row])
        self.stats.record_write(data.nbytes)
        if state is not None:
            self.stats.record_write(state.nbytes)

    def gather_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` (any order, duplicates allowed) by positional
        reads: one read per run of consecutive ids within a partition
        among the sorted unique ones. Evaluation's gather — it never maps
        the table."""
        uniq, inverse = np.unique(np.asarray(rows, dtype=np.int64),
                                  return_inverse=True)
        out = np.empty((len(uniq), self.dim), dtype=np.float32)
        if len(uniq) == 0:
            return out
        if uniq[0] < 0 or uniq[-1] >= self.num_nodes:
            raise IndexError(f"rows outside [0, {self.num_nodes})")
        bounds = self.scheme.boundaries
        parts = bounds.searchsorted(uniq, side="right") - 1
        cuts = np.flatnonzero((np.diff(uniq) != 1) | (np.diff(parts) != 0)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(uniq)]):
            part = int(parts[lo])
            self._pread("node_table", part, int(uniq[lo] - bounds[part]),
                        out[lo:hi])
        self.stats.record_read(out.nbytes)
        return out[inverse]

    # -- serving's read-only maps ---------------------------------------
    def _mapped(self, part: int) -> np.ndarray:
        """Partition ``part``'s table file mapped read-only, made on first
        use and dropped when the file is replaced or the store closes."""
        if self._maps[part] is None:
            self._maps[part] = np.load(
                self.path / table_file("node_table", part),
                mmap_mode="r").view(np.ndarray)
        return self._maps[part]

    def read_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row gather from the mapped partition files: serving's lookups.
        Ids inside one partition (every single-id lookup) are one gather;
        otherwise the ids are sorted once and each partition they touch
        is one gather."""
        rows = np.asarray(rows, dtype=np.int64)
        bounds = self.scheme.boundaries
        if rows.size:
            low, high = rows.min(), rows.max()
            if low < bounds[0] or high >= bounds[-1]:
                raise IndexError(f"rows outside [0, {self.num_nodes})")
            part = int(bounds.searchsorted(low, side="right")) - 1
            if high < bounds[part + 1]:
                data = self._mapped(part)[rows - bounds[part]]
                self.stats.record_read(data.nbytes)
                return data
        order = np.argsort(rows, kind="stable")
        ids = rows[order]
        edges = ids.searchsorted(bounds)
        data = np.empty((len(rows), self.dim), dtype=np.float32)
        for part in np.flatnonzero(np.diff(edges)).tolist():
            lo, hi = edges[part], edges[part + 1]
            data[order[lo:hi]] = self._mapped(part)[ids[lo:hi] - bounds[part]]
        self.stats.record_read(data.nbytes)
        return data

    def partition_block(self, part: int) -> np.ndarray:
        """Partition ``part``'s rows in place: a read-only view of its map,
        no copy (serving scores whole partitions straight from the page
        cache). Counted as bytes read, not as a partition load; callers
        must not hold it across a write that replaces the file."""
        block = self._mapped(part)
        self.stats.record_read(block.nbytes)
        return block

    def read_all(self) -> np.ndarray:
        """A copy of the entire table (an oracle for tests and examples;
        training never holds the whole table)."""
        return self._read_whole("node_table")

    def read_all_state(self) -> Optional[np.ndarray]:
        """Full optimizer-state table (``None`` for fixed-feature stores)."""
        return self._read_whole("node_state") if self.learnable else None

    def _read_whole(self, name: str) -> np.ndarray:
        data = np.concatenate([np.load(self.path / table_file(name, part))
                               for part in range(self.num_partitions)])
        self.stats.record_read(data.nbytes)
        return data

    def grow(self, new_scheme: "PartitionScheme", values: np.ndarray,
             state: Optional[np.ndarray] = None) -> None:
        """Append new node rows: the streaming node-table growth path.

        ``new_scheme`` must extend this store's scheme by exactly
        ``len(values)`` nodes under the last-partition growth rule
        (:meth:`PartitionScheme.extended`), so existing rows keep their
        offsets: the last partition's files are rewritten with the new
        rows appended (new state rows are zeros unless ``state`` is
        given) and fsynced — state first, so the table file never holds
        more rows than the state file. Callers holding partition buffer
        copies must re-sync afterwards.
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
        last, old = self.num_partitions - 1, self.scheme.partition_size(
            self.num_partitions - 1)
        added = {"node_table": values, "node_state": np.zeros_like(values)
                 if state is None else state}
        for name in reversed(self.tables):
            rows = np.empty((old + extra, self.dim), dtype=np.float32)
            self._pread(name, last, 0, rows[:old])
            rows[old:] = added[name]
            self._replace(name, last, rows)
            os.fsync(self._files[name][last][0].fileno())
        self.scheme = new_scheme
        self.stats.record_write(values.nbytes)

    def link_from(self, source: os.PathLike) -> None:
        """Make every partition file the same file as ``source``'s (a
        snapshot directory, which shares this layout): each is hard-linked
        to ``<part>.npy.tmp`` — copied if the link fails — and renamed
        into place. No table bytes move through the store; the next write
        to each partition breaks its link once."""
        for name in self.tables:
            for part in range(self.num_partitions):
                target = self.path / table_file(name, part)
                tmp = target.with_name(target.name + ".tmp")
                tmp.unlink(missing_ok=True)
                link_or_copy(Path(source) / table_file(name, part), tmp)
                os.replace(tmp, target)
                self._reopen(name, part, self.scheme.partition_size(part))

    def fingerprint(self) -> str:
        """Layout identity (not contents): partition boundaries + dim.

        Snapshots record this so a resume against a store partitioned
        differently (or a different graph size) is rejected up front.
        """
        crc = zlib.crc32(np.ascontiguousarray(self.scheme.boundaries).tobytes())
        learnable = 1 if self.learnable else 0
        return f"node:{self.num_nodes}:{self.dim}:{learnable}:{crc:08x}"

    def _handles(self):
        return [fh for files in self._files.values() for fh, _ in files]

    def flush(self) -> None:
        """Make every write so far durable (``fsync`` every file)."""
        for fh in self._handles():
            os.fsync(fh.fileno())

    def close(self) -> None:
        """Flush, close every file and drop the read-only maps."""
        if self._handles()[0].closed:
            return
        self.flush()
        for fh in self._handles():
            fh.close()
        self._maps = [None] * self.num_partitions

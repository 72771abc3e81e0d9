"""Disk IO accounting shared by the node store, edge store, and buffer.

Section 6 of the paper reasons about three quantities that drive epoch time:
total bytes transferred disk->CPU (``IO``), the number of partition sets per
epoch (``|S|``), and the smallest disk read size (``R``) relative to the
device block size. :class:`IOStats` measures all three from the real disk
traffic our storage layer performs: the node store's positional reads and
writes, serving's reads of its map, and the edge store's bucket reads.
"""

from __future__ import annotations

import os
import threading
import zlib
from dataclasses import dataclass, field, fields
from typing import Dict


def crc_file(path: os.PathLike, chunk: int = 1 << 20) -> int:
    """CRC-32 of a file, streamed in 1 MiB chunks — the payloads this
    layer validates (snapshot archives, bucket files) can be table-sized,
    so neither side may hold the whole file in memory. Shared by the
    checkpoint subsystem and the edge store's layout sidecar."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


@dataclass
class IOStats:
    """Counters for disk traffic (bytes are payload bytes, reads are calls).

    The partition I/O thread and the training thread (edge-bucket reads)
    count into one instance, so every update holds a lock: ``+=`` on an
    attribute is not atomic across threads and would drop counts.

    ``smallest_read`` is the paper's quantity R, the smallest disk read in
    bytes (0 before the first read). It is a running minimum, so the
    counters stay a few ints however long a stream or a serving worker
    runs; a :meth:`diff` window therefore carries the minimum over the
    whole history, not over the window.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    num_reads: int = 0
    num_writes: int = 0
    partition_loads: int = 0
    partition_evictions: int = 0
    smallest_read: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def record_read(self, nbytes: int, partition_loads: int = 0) -> None:
        with self._lock:
            self.smallest_read = (int(nbytes) if self.num_reads == 0
                                  else min(self.smallest_read, int(nbytes)))
            self.bytes_read += int(nbytes)
            self.num_reads += 1
            self.partition_loads += partition_loads

    def record_write(self, nbytes: int, partition_evictions: int = 0) -> None:
        with self._lock:
            self.bytes_written += int(nbytes)
            self.num_writes += 1
            self.partition_evictions += partition_evictions

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def as_dict(self) -> Dict[str, int]:
        """Counter export for telemetry."""
        return {"bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
                "reads": self.num_reads,
                "writes": self.num_writes,
                "partition_loads": self.partition_loads,
                "partition_evictions": self.partition_evictions,
                "smallest_read": self.smallest_read}

    def _counters(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.init}

    def reset(self) -> None:
        with self._lock:
            for name in self._counters():
                setattr(self, name, 0)

    def snapshot(self) -> "IOStats":
        with self._lock:
            return IOStats(**self._counters())

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Traffic since an earlier snapshot."""
        before = earlier._counters()
        out = IOStats(**{name: value - before[name]
                         for name, value in self._counters().items()})
        out.smallest_read = (self.smallest_read
                             if self.num_reads > earlier.num_reads else 0)
        return out

"""Storage layer: node store (one file per partition, in the snapshot
layout; positional I/O, read-only maps for serving),
memmap-backed edge store, the partition buffer (which also prefetches on
its own I/O thread), IO stats."""

from .atomic import (atomic_write, atomic_write_bytes, atomic_write_json,
                     fsync_dir)
from .buffer import PartitionBuffer, PrefetchError
from .edge_store import EdgeBucketStore
from .io_stats import IOStats
from .node_store import NodeStore

__all__ = ["IOStats", "NodeStore", "EdgeBucketStore", "PartitionBuffer",
           "PrefetchError",
           "atomic_write", "atomic_write_bytes", "atomic_write_json",
           "fsync_dir"]

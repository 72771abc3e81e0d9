"""Storage layer: node store (positional I/O; a read-only map for serving),
memmap-backed edge store, partition buffer, IO stats."""

from .atomic import (atomic_write, atomic_write_bytes, atomic_write_json,
                     fsync_dir)
from .buffer import PartitionBuffer
from .edge_store import EdgeBucketStore
from .io_stats import IOStats
from .node_store import NodeStore
from .prefetch import PrefetchError, PrefetchingBufferManager

__all__ = ["IOStats", "NodeStore", "EdgeBucketStore", "PartitionBuffer",
           "PrefetchingBufferManager", "PrefetchError",
           "atomic_write", "atomic_write_bytes", "atomic_write_json",
           "fsync_dir"]

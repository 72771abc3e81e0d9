"""Out-of-core inference serving over trained snapshots.

The serving layer reuses the training stack's out-of-core machinery — the
partitioned node store, read in place through read-only maps, and the DENSE
sampler — to answer embedding, link scoring, and encode-on-read queries
against a :class:`~repro.train.checkpoint.SnapshotManager` snapshot without
ever holding the full table in memory. See ``docs/serving.md``.
"""

from .batcher import (BatcherStopped, Overloaded, RequestBatcher,
                      RequestTimeout, ServeRequest)
from .engine import ServingEngine
from .lifecycle import GracefulDrain
from .loader import serve_link_prediction, serve_node_classification
from .stats import ServeStats, latency_summary, make_query_stream

__all__ = ["ServingEngine", "RequestBatcher", "ServeRequest",
           "ServeStats", "Overloaded", "RequestTimeout", "BatcherStopped",
           "GracefulDrain",
           "latency_summary", "make_query_stream", "serve_link_prediction",
           "serve_node_classification"]

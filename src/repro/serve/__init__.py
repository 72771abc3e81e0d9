"""Out-of-core inference serving over trained snapshots.

The serving layer reuses the training stack's out-of-core machinery — the
partitioned node store, read in place through read-only maps, and the DENSE
sampler — to answer embedding, link scoring, and encode-on-read queries
against a :class:`~repro.train.checkpoint.SnapshotManager` snapshot without
ever holding the full table in memory. See ``docs/serving.md``.
"""

from .engine import ServingEngine
from .lifecycle import GracefulDrain
from .loader import serve_link_prediction, serve_node_classification
from .stats import ServeStats, make_query_stream

__all__ = ["ServingEngine", "ServeStats", "GracefulDrain",
           "make_query_stream", "serve_link_prediction",
           "serve_node_classification"]

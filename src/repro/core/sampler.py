"""Mini-batch samplers: the DENSE sampler and its construction utilities.

:class:`DenseSampler` is MariusGNN's sampler — it owns the dual-sorted
adjacency index over the in-memory (sub)graph and produces
:class:`~repro.core.dense.DenseBatch` objects via Algorithm 1. For in-memory
training the index is a flat :class:`~repro.graph.csr.AdjacencyIndex`
(optionally pre-built and shared read-only between samplers). For
disk-based training, :meth:`from_partitions` builds a
two-level :class:`~repro.graph.csr.PartitionedAdjacencyIndex` and a
partition-buffer swap costs only an incremental :meth:`update_graph` — the
"preparing each S_i for training" cost of Section 6, Quantity 2: it sorts
the buckets of entering partitions and copies the resident edges once,
instead of re-sorting the whole in-buffer edge list. Both indexes hold the
same flat neighbor layout, so a one-hop sample is one gather either way.

The sampler also owns the reusable per-``num_nodes`` scratch arrays of the
batch fast path: the boolean membership array that replaces ``np.isin``
dedup inside :func:`~repro.core.dense.build_dense`, and the int64 row
scratch that turns ``repr_map`` into a sortless scatter + gather. A sampler
instance is therefore not thread-safe; share the *index* across threads, not
the sampler.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.csr import AdjacencyIndex, PartitionedAdjacencyIndex
from ..graph.edge_list import Graph
from ..graph.partition import PartitionScheme
from .dense import DenseBatch, build_dense


class DenseSampler:
    """Multi-hop neighborhood sampler producing DENSE batches.

    Parameters
    ----------
    graph:
        The graph (or in-buffer subgraph) over which sampling is legal.
        May be ``None`` when ``index`` is given.
    fanouts:
        Per-layer fanouts ordered away from the target nodes.
    directions:
        Neighbor directions to draw from (``"out"``/``"in"``/``"both"``).
    index:
        Optional pre-built adjacency index (flat or partitioned) to use
        instead of building one from ``graph`` — lets many samplers share
        one read-only index.
    """

    def __init__(self, graph: Optional[Graph], fanouts: Sequence[int],
                 directions: Optional[str] = None,
                 rng: Optional[np.random.Generator] = None,
                 index: Optional[Union[AdjacencyIndex,
                                       PartitionedAdjacencyIndex]] = None) -> None:
        if any(not isinstance(f, (int, np.integer)) for f in fanouts):
            raise TypeError("fanouts must be integers")
        self.fanouts = list(int(f) for f in fanouts)
        self._rng = rng or np.random.default_rng()
        if index is not None:
            if directions is not None and directions != index.directions:
                raise ValueError(
                    f"directions {directions!r} conflicts with the pre-built "
                    f"index's {index.directions!r}")
            self.index = index
            self.directions = index.directions
        elif graph is not None:
            self.directions = directions or "both"
            self.index = AdjacencyIndex(graph, directions=self.directions)
        else:
            raise ValueError("need a graph or a pre-built index")
        self.index_updates = 0
        self._member: Optional[np.ndarray] = None
        self._rows: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_partitions(cls, scheme: PartitionScheme,
                        bucket_source: Callable[[int, int],
                                                Tuple[np.ndarray, np.ndarray]],
                        partitions: Iterable[int], fanouts: Sequence[int],
                        directions: str = "both",
                        rng: Optional[np.random.Generator] = None) -> "DenseSampler":
        """Build a sampler over the two-level partition-aware index.

        ``bucket_source(i, j)`` must return edge bucket ``(i, j)``'s endpoint
        arrays (e.g. :meth:`EdgeBucketStore.bucket_endpoints`). Buffer swaps
        then go through :meth:`update_graph`.
        """
        index = PartitionedAdjacencyIndex(scheme, bucket_source, partitions,
                                          directions=directions)
        return cls(None, fanouts, directions=directions, rng=rng, index=index)

    @property
    def num_layers(self) -> int:
        return len(self.fanouts)

    # ------------------------------------------------------------------
    def update_graph(self, added_parts: Iterable[int] = (),
                     removed_parts: Iterable[int] = ()) -> None:
        """Incremental swap (Steps A-D): re-index only partitions that moved.

        Requires a partition-aware index (see :meth:`from_partitions`); the
        flat index has no notion of partitions.
        """
        if not isinstance(self.index, PartitionedAdjacencyIndex):
            raise TypeError("update_graph needs a partition-aware index; "
                            "build the sampler with "
                            "DenseSampler.from_partitions")
        self.index.update_partitions(added_parts, removed_parts)
        self.index_updates += 1

    def reseed(self, rng: np.random.Generator) -> None:
        """Swap the draw stream in place (per-batch seeding reuses one
        sampler — and its O(num_nodes) scratch — across batches)."""
        self._rng = rng

    # ------------------------------------------------------------------
    def _scratch(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.index.num_nodes
        if self._member is None or len(self._member) != n:
            self._member = np.zeros(n, dtype=bool)
            self._rows = np.empty(n, dtype=np.int64)
        return self._member, self._rows

    def sample(self, target_nodes: np.ndarray) -> DenseBatch:
        """Build the DENSE structure for a batch of target nodes."""
        member, rows = self._scratch()
        batch = build_dense(target_nodes, self.fanouts, self.index,
                            rng=self._rng, member=member)
        batch.compute_repr_map(row_scratch=rows)
        return batch

    def sample_no_neighbors(self, target_nodes: np.ndarray) -> DenseBatch:
        """Zero-layer batch (decoder-only models, e.g. DistMult in Table 8)."""
        return build_dense(target_nodes, [], self.index, rng=self._rng)

"""Per-partition IVF index for sublinear top-k target queries.

The exact top-k sweep (:meth:`~repro.serve.engine.ServingEngine.
topk_targets_batch` with ``exact=True``) scores **every** row of every
candidate partition — cost linear in table size. This module adds the first-pass structure that breaks that
linearity: each physical partition carries a small set of k-means
clusters over its rows (an inverted-file / IVF layout, partition-resident
so it rebuilds independently when a streamed partition changes), and a
query first bounds what each cluster could possibly score before scoring
anything.

The bound is sound, not heuristic. Every shipped decoder's
``score_against`` is *linear in the candidate row* — it exposes
``target_query_rows(src, rel) -> q`` with ``score(s, r, d) = q . h_d``.
By Cauchy-Schwarz, for any member ``x`` of a cluster with centroid ``c``
and radius ``r = max |x - c|``:

    q . x  =  q . c + q . (x - c)  <=  q . c + |q| * r

so a cluster whose bound falls below the query's running k-th best score
cannot contribute a result, and a partition whose every cluster is below
every source's threshold is **skipped without being scored** — the
win grows with table size because thresholds tighten after the first few
high-bound partitions. Bounds are evaluated in float64 with an explicit
epsilon margin so float32 scoring round-off can never prune a true
top-k member; the property-tested worst-case recall floor lives in
``tests/test_serve_ann.py`` and the committed benchmark asserts
recall@10 >= 0.95 on the exact-vs-ANN curve.

Rebuild semantics: the index is **lazy**. Construction and every
invalidation (live-stream ingest refresh, node growth, compaction) only
mark partitions stale; `ensure_current()` — called by the engine at the
top of each ANN sweep, under the engine's query guard — rebuilds exactly
the stale ones, each clustered in place in the table map. A serving
engine that never answers top-k never pays for clustering.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..storage.node_store import NodeStore

#: Safety margin added to every cluster bound: float32 scoring of a
#: member may land slightly above the float64 bound of its cluster, and a
#: pruned cluster must never hide a true top-k row. Absolute + relative.
_BOUND_EPS = 1e-5


class PartitionClusters:
    """The IVF cells of one physical partition.

    ``rows[indptr[j]:indptr[j+1]]`` are the partition-local row offsets of
    cluster ``j``'s members (each global node id is ``lo + row``), grouped
    so the surviving clusters' columns of a partition's block scores are
    one fancy index.
    """

    __slots__ = ("centroids", "radii", "rows", "indptr", "num_rows")

    def __init__(self, centroids: np.ndarray, radii: np.ndarray,
                 rows: np.ndarray, indptr: np.ndarray) -> None:
        self.centroids = centroids          # (c, dim) float32
        self.radii = radii                  # (c,) float64
        self.rows = rows                    # (m,) int64, grouped by cluster
        self.indptr = indptr                # (c + 1,) int64
        self.num_rows = int(len(rows))

    @property
    def num_clusters(self) -> int:
        return int(len(self.radii))


def _kmeans(block: np.ndarray, num_clusters: int,
            iters: int) -> PartitionClusters:
    """Deterministic Lloyd iterations over one partition block.

    Init takes evenly spaced rows (a pure function of the block — no RNG,
    so a rebuilt partition always clusters the same way), empty clusters
    keep their previous centroid, and the final pass records each
    cluster's member rows and float64 radius.
    """
    m = len(block)
    if m == 0:                    # empty partition: zero cells, always pruned
        dim = block.shape[1] if block.ndim == 2 else 0
        return PartitionClusters(np.empty((0, dim), dtype=np.float32),
                                 np.empty(0, dtype=np.float64),
                                 np.empty(0, dtype=np.int64),
                                 np.zeros(1, dtype=np.int64))
    c = max(1, min(int(num_clusters), m))
    x64 = block.astype(np.float64)
    centroids = x64[np.linspace(0, m - 1, c).round().astype(np.int64)].copy()
    sq = (x64 * x64).sum(axis=1)
    for _ in range(iters + 1):       # last pass only re-assigns
        d2 = sq[:, None] - 2.0 * (x64 @ centroids.T) \
            + (centroids * centroids).sum(axis=1)[None, :]
        assign = d2.argmin(axis=1)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, x64)
        counts = np.bincount(assign, minlength=c)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
    # Drop empty cells and group member rows per surviving cluster.
    keep = np.flatnonzero(filled)
    remap = np.empty(c, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    assign = remap[assign]
    order = np.argsort(assign, kind="stable")
    rows = order.astype(np.int64)
    indptr = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(np.bincount(assign, minlength=len(keep)), out=indptr[1:])
    centroids = centroids[keep]
    diff = x64 - centroids[assign]
    dist = np.sqrt((diff * diff).sum(axis=1))
    radii = np.zeros(len(keep), dtype=np.float64)
    np.maximum.at(radii, assign, dist)
    return PartitionClusters(centroids.astype(np.float32), radii, rows, indptr)


class AnnIndex:
    """Per-partition cluster index over a partitioned node store.

    Parameters
    ----------
    store:
        The served :class:`NodeStore` (each rebuilt partition is
        clustered in place from :meth:`NodeStore.partition_block`).
    cluster_size:
        Target rows per cluster; partition ``i`` gets
        ``ceil(size_i / cluster_size)`` cells.
    iters:
        Lloyd iterations per (re)build.
    """

    def __init__(self, store: NodeStore, cluster_size: int = 64,
                 iters: int = 4) -> None:
        if cluster_size < 1:
            raise ValueError("cluster_size must be at least 1")
        self.store = store
        self.cluster_size = int(cluster_size)
        self.iters = int(iters)
        self._parts: Dict[int, PartitionClusters] = {}
        self._stale = set(range(store.scheme.num_partitions))
        self.builds = 0            # partitions clustered (telemetry)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate(self, parts: Optional[Sequence[int]] = None) -> None:
        """Mark partitions stale (``None`` = all); rebuilt on next query.

        This is what the serving engine's live-stream listeners call:
        refresh write-backs and compactions invalidate the touched
        partitions, node growth invalidates the (extended) last partition.
        """
        if parts is None:
            self._stale.update(range(self.store.scheme.num_partitions))
        else:
            self._stale.update(int(p) for p in parts)

    def ensure_current(self) -> None:
        """Rebuild every stale partition from the store."""
        while self._stale:
            part = self._stale.pop()
            block = self.store.partition_block(part)
            n_clusters = -(-len(block) // self.cluster_size)   # ceil
            self._parts[part] = _kmeans(block, n_clusters, self.iters)
            self.builds += 1

    def partition(self, part: int) -> PartitionClusters:
        return self._parts[part]

    # ------------------------------------------------------------------
    # Query-side bounds
    # ------------------------------------------------------------------
    def cluster_bounds(self, queries: np.ndarray) -> List[np.ndarray]:
        """Upper bounds on what each cluster could score for each query.

        ``queries`` is the ``(n, dim)`` matrix of decoder query vectors
        (``target_query_rows``). Returns one ``(n, c_p)`` float64 array
        per partition: ``bounds[p][s, j] >= score(s, x)`` for every member
        ``x`` of partition ``p``'s cluster ``j`` — computed as
        ``q . centroid + |q| * radius`` in float64 plus an epsilon margin
        covering float32 scoring round-off.
        """
        q64 = np.asarray(queries, dtype=np.float64)
        qnorm = np.sqrt((q64 * q64).sum(axis=1))
        out: List[np.ndarray] = []
        for part in range(self.store.scheme.num_partitions):
            pc = self._parts[part]
            bounds = q64 @ pc.centroids.astype(np.float64).T \
                + qnorm[:, None] * pc.radii[None, :]
            bounds += _BOUND_EPS * (1.0 + np.abs(bounds))
            out.append(bounds)
        return out

    def stats(self) -> Dict[str, int]:
        built = [pc for pc in self._parts.values()]
        return {"partitions_built": len(built),
                "partitions_stale": len(self._stale),
                "clusters": sum(pc.num_clusters for pc in built),
                "builds": self.builds}

"""The live graph: base partitioned stores composed with the delta overlay.

:class:`LiveGraph` is the single write path of the streaming subsystem and
the read surface everything else queries. It owns the base
:class:`~repro.storage.node_store.NodeStore` /
:class:`~repro.storage.edge_store.EdgeBucketStore` pair plus a
:class:`~repro.stream.delta_log.GraphDeltaLog`, and exposes *composed*
bucket reads: bucket ``(i, j)``'s live edges are its base edges (minus
tombstoned ones, base order preserved) followed by its un-deleted delta
insertions in arrival order.

That composition order is the correctness keystone. An offline preprocess
of the final edge list — base edges with deletions applied, then surviving
insertions appended, bucket-majored by the *stable* sort of
:class:`~repro.graph.partition.EdgeBuckets` — produces exactly the same
per-bucket edge order, so a :class:`~repro.graph.csr.
PartitionedAdjacencyIndex` built over either holds identical
neighbor runs and samples bit-identically under a fixed RNG. Compaction
(:class:`~repro.stream.compactor.Compactor`) writes the composed buckets
as the new base, which by the same argument changes nothing observable.

Node additions take effect immediately: new IDs extend the *last*
partition (:meth:`PartitionScheme.extended` — existing bucket assignments
are stable), the node table grows in place with deterministically seeded
rows (a pure function of ``(seed, node_id)``, so any interleaving of adds
yields the same values), and registered listeners re-size their derived
structures (adjacency index degree arrays, partition-buffer slab maps).

Deletion semantics: a delete event removes **every** live occurrence of
the edge — base copies and earlier un-compacted insertions alike; a later
insertion of the same edge re-adds it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.edge_list import Graph
from ..graph.partition import PartitionScheme
from ..storage.edge_store import EdgeBucketStore
from ..storage.node_store import NodeStore
from .delta_log import OP_DELETE, OP_INSERT, GraphDeltaLog
from .locks import SharedExclusiveLock
from .wal import KIND_NODES, WalFrame

BucketListener = Callable[[List[Tuple[int, int]]], None]
GrowthListener = Callable[[PartitionScheme], None]


class LiveGraph:
    """Base stores + delta overlay: the streaming read/write surface.

    Parameters
    ----------
    node_store:
        The partitioned node table (grows in place on node additions).
    edge_store:
        The base edge buckets (rewritten by compaction).
    journal_dir:
        Directory of the delta log's non-durable journal (default:
        ``<edge file>.journal``; unused when ``wal_dir`` is set).
    seed:
        Stream seed for deterministic new-node row initialization.
    wal_dir:
        Write-ahead journal directory for the delta log (``None`` keeps
        the non-durable behaviour).
    fsync_every:
        Journal group-commit window (1 = fsync per acknowledged append).
    """

    def __init__(self, node_store: NodeStore, edge_store: EdgeBucketStore,
                 journal_dir: Optional[os.PathLike] = None, seed: int = 0,
                 wal_dir: Optional[os.PathLike] = None,
                 fsync_every: int = 1,
                 wal_segment_bytes: int = 4 << 20) -> None:
        if node_store.num_partitions != edge_store.num_partitions:
            raise ValueError("node and edge stores disagree on partitions")
        self.node_store = node_store
        self.edge_store = edge_store
        self.seed = int(seed)
        if journal_dir is None:
            journal_dir = edge_store.path.with_suffix(
                edge_store.path.suffix + ".journal")
        self.log = GraphDeltaLog(node_store.num_partitions,
                                 has_relations=edge_store.has_relations,
                                 journal_dir=journal_dir,
                                 wal_dir=wal_dir, fsync_every=fsync_every,
                                 wal_segment_bytes=wal_segment_bytes)
        self.nodes_added = 0
        # Locks (outermost first; the rule is in repro.stream.locks):
        #
        # * ``lock`` — the writer mutex. Every writer holds it: ingest,
        #   node growth, compaction, WAL replay, refresh write-back.
        # * ``rw`` — shared/exclusive. Queries take the shared side;
        #   growth/compaction/replay and refresh write-back also take the
        #   exclusive side because they change what queries read.
        self.lock = threading.RLock()
        self.rw = SharedExclusiveLock()
        self._bucket_listeners: List[BucketListener] = []
        self._growth_listeners: List[GrowthListener] = []
        self._health_sources: Dict[str, Callable[[], dict]] = {}

    # ------------------------------------------------------------------
    @property
    def scheme(self) -> PartitionScheme:
        return self.node_store.scheme

    @property
    def num_nodes(self) -> int:
        return self.node_store.num_nodes

    @property
    def num_partitions(self) -> int:
        return self.node_store.num_partitions

    @property
    def has_relations(self) -> bool:
        return self.edge_store.has_relations

    @property
    def width(self) -> int:
        return self.edge_store.width

    # ------------------------------------------------------------------
    # Listener registry (samplers and buffers follow the stream)
    # ------------------------------------------------------------------
    def add_bucket_listener(self, fn: BucketListener) -> None:
        """``fn(pairs)`` runs after events change the given edge buckets."""
        self._bucket_listeners.append(fn)

    def add_growth_listener(self, fn: GrowthListener) -> None:
        """``fn(new_scheme)`` runs after the node table grows."""
        self._growth_listeners.append(fn)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _init_rows(self, node_ids: np.ndarray) -> np.ndarray:
        """Deterministic per-node initialization: a pure function of
        ``(stream seed, node id)``, independent of add batching."""
        rows = np.empty((len(node_ids), self.node_store.dim), dtype=np.float32)
        scale = 1.0 / self.node_store.dim
        for k, node in enumerate(node_ids):
            rng = np.random.default_rng([self.seed, int(node)])
            rows[k] = rng.uniform(-scale, scale, size=self.node_store.dim)
        return rows

    def add_nodes(self, count: int) -> np.ndarray:
        """Append ``count`` new nodes (last partition grows); returns their IDs.

        The growth step is journaled (totals only — the rows are the
        deterministic function above, so replay regenerates them
        bit-identically) *before* any in-memory structure changes."""
        if count <= 0:
            raise ValueError("count must be positive")
        with self.lock, self.rw.exclusive():
            lo = self.num_nodes
            self.log.journal_nodes(lo, lo + count)
            ids = np.arange(lo, lo + count, dtype=np.int64)
            new_scheme = self.scheme.extended(count)
            self.node_store.grow(new_scheme, self._init_rows(ids))
            self.edge_store.scheme = new_scheme
            self.nodes_added += count
            for fn in self._growth_listeners:
                fn(new_scheme)
        return ids

    def _append_edges(self, op: int, edges: np.ndarray) -> Tuple[int, int]:
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != self.width:
            raise ValueError(f"edges must be (n, {self.width}) "
                             f"[src{', rel' if self.width == 3 else ''}, dst]")
        if len(edges) == 0:
            return self.log.seq, self.log.seq
        # The writer mutex: one ingest batch (and the bucket listeners it
        # fires) at a time, excluded from every other writer. Queries hold
        # only the shared side of ``rw`` and keep running.
        with self.lock:
            src, dst = edges[:, 0], edges[:, -1]
            if ((src < 0).any() or (dst < 0).any()
                    or (src >= self.num_nodes).any()
                    or (dst >= self.num_nodes).any()):
                raise ValueError("edge endpoint outside the live node ID "
                                 f"space [0, {self.num_nodes})")
            rel = edges[:, 1] if self.width == 3 else None
            bi = self.scheme.partition_of(src)
            bj = self.scheme.partition_of(dst)
            pairs = sorted({(int(i), int(j)) for i, j in zip(bi, bj)})
            span = self.log.append(op, src, dst, rel, bi, bj)
            for fn in self._bucket_listeners:
                fn(pairs)
        return span

    def insert_edges(self, edges: np.ndarray) -> Tuple[int, int]:
        """Log edge insertions; returns their ``[lo, hi)`` sequence range."""
        return self._append_edges(OP_INSERT, edges)

    def delete_edges(self, edges: np.ndarray) -> Tuple[int, int]:
        """Log edge deletions (every live occurrence is removed)."""
        return self._append_edges(OP_DELETE, edges)

    # ------------------------------------------------------------------
    # Read path: composed buckets
    # ------------------------------------------------------------------
    @staticmethod
    def _edge_keys(rows: np.ndarray) -> np.ndarray:
        """Rows as one comparable key each (byte view; fixed-width int64
        columns make byte equality == row equality)."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        return rows.view([("", np.int64)] * rows.shape[1]).ravel()

    def bucket_edges(self, i: int, j: int, upto_seq: Optional[int] = None,
                     record_io: bool = True) -> np.ndarray:
        """Bucket ``(i, j)``'s live edges: base minus tombstones (base order
        preserved), then surviving delta insertions in arrival order.

        Deletion is resolved in one vectorized pass, not per delete event:
        a base edge dies if its key was ever deleted (base rows precede
        every event; a later re-insert survives as a delta row), and a
        delta insertion dies iff a delete of its key arrived *after* it
        (compared by sequence number).
        """
        base = self.edge_store.read_bucket(i, j, record_io=record_io)
        events = self.log.events_for_bucket(i, j, upto_seq=upto_seq)
        n_events = len(events["seq"])
        if n_events == 0:
            return base
        cols = [events["src"]]
        if self.width == 3:
            cols.append(events["rel"])
        cols.append(events["dst"])
        event_rows = np.stack(cols, axis=1)
        is_ins = events["op"] == OP_INSERT
        del_mask = ~is_ins
        if not del_mask.any():
            return np.concatenate([base, event_rows], axis=0)
        event_keys = self._edge_keys(event_rows)
        del_keys = event_keys[del_mask]
        del_seq = events["seq"][del_mask]
        # Latest delete seq per distinct deleted key.
        order = np.argsort(del_keys, kind="stable")
        sk, ss = del_keys[order], del_seq[order]
        starts = np.concatenate([[0], np.nonzero(sk[1:] != sk[:-1])[0] + 1])
        uniq_keys = sk[starts]
        last_del_seq = np.maximum.reduceat(ss, starts)
        base_live = ~np.isin(self._edge_keys(base), uniq_keys)
        ins_keys = event_keys[is_ins]
        ins_seq = events["seq"][is_ins]
        idx = np.searchsorted(uniq_keys, ins_keys)
        idx_c = np.minimum(idx, len(uniq_keys) - 1)
        matched = uniq_keys[idx_c] == ins_keys
        ins_live = ~(matched & (last_del_seq[idx_c] > ins_seq))
        return np.concatenate([base[base_live], event_rows[is_ins][ins_live]],
                              axis=0)

    def bucket_endpoints(self, i: int, j: int,
                         record_io: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Composed ``(src, dst)`` arrays of bucket ``(i, j)`` — the bucket
        source for overlay-aware adjacency indexes and serving engines."""
        edges = self.bucket_edges(i, j, record_io=record_io)
        return edges[:, 0], edges[:, -1]

    def num_live_edges(self) -> int:
        """Total edges in the composed view (O(p^2) bucket compositions)."""
        p = self.num_partitions
        return int(sum(len(self.bucket_edges(i, j, record_io=False))
                       for i in range(p) for j in range(p)))

    def materialize(self, record_io: bool = False) -> Graph:
        """The full composed edge list as an in-memory :class:`Graph`, in
        bucket-major order — what an offline rebuild of the final edge list
        would preprocess. Used by equivalence tests and the CLI verifier."""
        p = self.num_partitions
        chunks = [self.bucket_edges(i, j, record_io=record_io)
                  for i in range(p) for j in range(p)]
        edges = (np.concatenate(chunks, axis=0) if chunks
                 else np.empty((0, self.width), dtype=np.int64))
        return Graph(num_nodes=self.num_nodes, src=edges[:, 0],
                     dst=edges[:, -1],
                     rel=edges[:, 1] if self.width == 3 else None,
                     num_relations=self.edge_store.num_relations,
                     name="live")

    # ------------------------------------------------------------------
    def staleness(self) -> int:
        """Un-compacted events: the live view's distance from its base."""
        return self.log.pending_events

    # ------------------------------------------------------------------
    def replay_wal(self, frames: Sequence[WalFrame],
                   ) -> Dict[str, int]:
        """Re-apply recovered WAL frames in acknowledged order (see
        :meth:`GraphDeltaLog.restore`, which produced ``frames``).

        Node frames re-grow the table idempotently — only totals beyond
        the restored node count are applied, and the regenerated rows are
        the same deterministic function of ``(seed, node id)`` as the
        original adds, so rows restored from a snapshot or store are never
        clobbered. Edge frames re-enter the delta overlay with their
        original sequence numbers. Listeners fire exactly as live traffic
        would, so engines and trainers registered before replay track the
        recovered state."""
        replayed_edges = 0
        replayed_nodes = 0
        with self.lock, self.rw.exclusive():
            for frame in frames:
                if frame.kind == KIND_NODES:
                    _, new_total = frame.node_totals
                    if new_total <= self.num_nodes:
                        continue   # already covered by the restored stores
                    lo = self.num_nodes
                    count = new_total - lo
                    ids = np.arange(lo, new_total, dtype=np.int64)
                    new_scheme = self.scheme.extended(count)
                    self.node_store.grow(new_scheme, self._init_rows(ids))
                    self.edge_store.scheme = new_scheme
                    self.nodes_added += count
                    replayed_nodes += count
                    for fn in self._growth_listeners:
                        fn(new_scheme)
                else:
                    self.log.restore_events(frame)
                    pairs = sorted({(int(i), int(j)) for i, j in
                                    zip(frame.edges[:, 4], frame.edges[:, 5])})
                    for fn in self._bucket_listeners:
                        fn(pairs)
                    replayed_edges += frame.count
        return {"frames": len(frames), "edge_events": replayed_edges,
                "nodes": replayed_nodes}

    def register_health(self, name: str, fn: Callable[[], dict]) -> None:
        """Attach a named health source (the background compactor reports
        its state this way) surfaced by :meth:`health`."""
        self._health_sources[name] = fn

    def health(self) -> dict:
        """One dict describing the service's liveness: overlay staleness,
        journal state, and every registered source
        (e.g. background-compaction status)."""
        out = {"ts": time.time(),
               "num_nodes": self.num_nodes,
               "nodes_added": self.nodes_added,
               "base_edges": self.edge_store.num_edges,
               "staleness": self.staleness(),
               "log": self.log.stats()}
        for name, fn in self._health_sources.items():
            out[name] = fn()
        return out

    def stats(self) -> dict:
        out = self.log.stats()
        out.update({"num_nodes": self.num_nodes,
                    "nodes_added": self.nodes_added,
                    "base_edges": self.edge_store.num_edges})
        return out

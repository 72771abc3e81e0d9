"""The out-of-core query engine: batched inference over the node table.

The served table is a partition-major :class:`~repro.storage.node_store.
NodeStore` memmap, and every query family reads it in place — the OS page
cache is the serving buffer. A read-only server has neither an epoch plan
nor gradients to write back, so it keeps no partition cache of its own:

* :meth:`ServingEngine.get_embeddings` — row gather from the store.
* :meth:`ServingEngine.score_edges` / :meth:`ServingEngine.topk_targets` —
  decoder scoring; top-k scores each candidate partition's contiguous row
  range of the map as one block and keeps a running best-k, with no
  residency side effects.
* :meth:`ServingEngine.encode_nodes` / :meth:`ServingEngine.classify` —
  GNN encode-on-read: multi-hop neighborhoods are sampled over the
  subgraph of at most ``buffer_capacity`` partitions (exactly the
  restriction disk training applies) and only the forward pass runs.
  This is the one family with a resident set: the sampler's.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.sampler import DenseSampler
from ..obs.registry import get_registry
from ..nn.module import Module
from ..nn.tensor import Tensor, no_grad
from ..storage.node_store import NodeStore
from .ann import AnnIndex
from .stats import ServeStats


class ServingEngine:
    """Answers embedding / scoring / encode queries over a trained snapshot.

    Parameters
    ----------
    model:
        A restored :class:`~repro.train.link_prediction.LinkPredictionModel`
        (decoder required for scoring queries) or
        :class:`~repro.train.node_classification.NodeClassifier`
        (``classify`` queries). Put into eval mode on construction.
    store:
        Read-only :class:`NodeStore` holding the served table (base
        embeddings for LP, node features for NC).
    buffer_capacity:
        Partitions the encode sampler holds at once (``0 <`` capacity
        ``<=`` partition count).
    edge_source:
        Optional ``(i, j) -> (src, dst)`` bucket source (e.g.
        ``EdgeBucketStore.bucket_endpoints``) enabling encode-on-read; the
        sampler's partition-aware index follows its resident set
        incrementally.
    fanouts / directions:
        Sampling shape for encode-on-read (ignored without ``edge_source``).
    ann:
        Serve top-k through the per-partition :class:`AnnIndex` (built
        lazily on the first top-k query, kept current by the live-stream
        listeners). ``exact=True`` on a query is the per-call escape
        hatch; decoders without a linear ``target_query_rows`` form fall
        back to the exact sweep automatically.
    ann_cluster_size:
        Target rows per IVF cluster (recall is bound-sound at any value;
        this only trades pruning granularity against bound-pass cost).
    """

    def __init__(self, model: Module, store: NodeStore, buffer_capacity: int,
                 edge_source: Optional[Callable] = None,
                 fanouts: Sequence[int] = (), directions: str = "both",
                 seed: int = 0, ann: bool = True,
                 ann_cluster_size: int = 64) -> None:
        if buffer_capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        if buffer_capacity > store.num_partitions:
            raise ValueError(f"capacity {buffer_capacity} exceeds partition "
                             f"count {store.num_partitions}")
        self.model = model
        self.model.eval()
        self.store = store
        self.buffer_capacity = int(buffer_capacity)
        # Protects the engine's own shared state (the sampler index and its
        # draw stream, the ANN index) between queries and live-stream
        # listener callbacks. Re-entrant: classify -> encode_nodes. Over a
        # live graph, queries additionally take the graph's shared lock and
        # validate the table seqlock — see _query_guard / _table_read.
        self._live_lock = threading.RLock()
        self._live = None             # set by over_live
        self._table_version = None    # live.table_version when streaming
        self.stats = ServeStats()
        self.decoder = getattr(model, "decoder", None)
        self.ann_enabled = bool(ann)
        self.ann_cluster_size = int(ann_cluster_size)
        self.ann_index: Optional[AnnIndex] = None   # built on first ANN top-k
        self.sampler: Optional[DenseSampler] = None
        if edge_source is not None and len(fanouts) > 0:
            self.sampler = DenseSampler.from_partitions(
                self.scheme, edge_source, (), list(fanouts),
                directions=directions, rng=np.random.default_rng(seed))

    # ------------------------------------------------------------------
    @property
    def scheme(self):
        """The served store's partition scheme — read dynamically, because a
        live graph's node table grows (last partition extends) mid-stream."""
        return self.store.scheme

    @classmethod
    def over_live(cls, live, model: Module, buffer_capacity: int,
                  fanouts: Sequence[int] = (), directions: str = "both",
                  seed: int = 0, ann: bool = True,
                  ann_cluster_size: int = 64) -> "ServingEngine":
        """A serving engine over a :class:`~repro.stream.live.LiveGraph`.

        The engine queries the live view, not a frozen snapshot: its
        sampler's bucket source is the composed base+delta read, and the
        registered stream listeners keep it coherent — ingests refresh
        exactly the touched resident buckets, node additions extend the
        index, and table rewrites invalidate the ANN index. Embedding
        lookups need no overlay handling at all, because streamed nodes
        grow the node table at ingest time.
        """
        engine = cls(model, live.node_store, buffer_capacity,
                     edge_source=live.bucket_endpoints, fanouts=fanouts,
                     directions=directions, seed=seed, ann=ann,
                     ann_cluster_size=ann_cluster_size)
        # Queries take the live graph's *shared* lock (so they run
        # concurrently with ingest and with each other's lock-free
        # sections, but drain for structural mutations — growth,
        # compaction, WAL replay, which take the exclusive side) plus the
        # engine's own lock for its sampler/ANN state. Node-table row
        # rewrites (refresh write-back) are not excluded at all: reads
        # that touch the store validate live.table_version around
        # themselves and retry on a raced write window.
        engine._live = live
        engine._table_version = live.table_version
        live.add_bucket_listener(engine._on_live_buckets)
        live.add_growth_listener(engine._on_live_growth)
        live.add_compact_listener(lambda: engine._invalidate_ann(None))
        live.add_table_listener(engine._invalidate_ann)
        return engine

    @contextlib.contextmanager
    def _query_guard(self):
        """Per-query locking: shared side of the live graph's structural
        lock (when streaming) + the engine-private lock."""
        if self._live is not None:
            with self._live.rw.shared():
                with self._live_lock:
                    yield
        else:
            with self._live_lock:
                yield

    def _table_read(self, fn):
        """Run ``fn`` under the node-table seqlock protocol.

        A refresh write-back rewrites table rows without excluding
        readers; any store read that overlaps its write window may be
        torn. The protocol: snapshot the version (waits out an in-flight
        write), run, and accept only if the version is unchanged. After
        repeated collisions the read runs inside the write lock itself
        (guaranteed quiescent, and writers are rare enough that this is
        the cold path of a cold path).
        """
        version = self._table_version
        if version is None:
            return fn()
        for _ in range(8):
            token = version.begin()
            out = fn()
            if not version.changed(token):
                return out
        with version.write():
            return fn()

    # The stream listeners run on the writer's thread (under the live
    # graph's writer mutex) while queries run under its shared lock on
    # serving threads; the engine lock below is what orders them. Plain
    # (non-live) engines keep a private lock and pay one uncontended
    # acquire per query.
    def _on_live_buckets(self, pairs: List[tuple]) -> None:
        with self._live_lock:
            if self.sampler is not None:
                self.sampler.index.refresh_buckets(pairs)

    def _on_live_growth(self, new_scheme) -> None:
        with self._live_lock:
            if self.sampler is not None:
                self.sampler.index.extend_nodes(new_scheme)
            # Only the last partition's rows changed (the growth rule).
            self._invalidate_ann([new_scheme.num_partitions - 1])

    def _invalidate_ann(self, parts: Optional[List[int]]) -> None:
        """Table rows changed (``None``: all): their ANN cells are stale."""
        with self._live_lock:
            if self.ann_index is not None:
                self.ann_index.invalidate(parts)

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if len(ids) and ((ids < 0).any() or (ids >= self.store.num_nodes).any()):
            bad = ids[(ids < 0) | (ids >= self.store.num_nodes)][:5]
            raise KeyError(f"query node ids out of range: {bad.tolist()}")
        return ids

    def _check_rels(self, rels: np.ndarray) -> np.ndarray:
        """Relation ids must index the decoder's relation table: a negative
        id would silently wrap to the last relation."""
        num = int(getattr(self.decoder, "num_relations", 1))
        rels = np.asarray(rels, dtype=np.int64)
        if rels.size and ((rels < 0).any() or (rels >= num).any()):
            bad = rels[(rels < 0) | (rels >= num)][:5]
            raise KeyError(f"relation ids out of range [0, {num}): "
                           f"{bad.tolist()}")
        return rels

    # ------------------------------------------------------------------
    # Query family 1: embedding lookup
    # ------------------------------------------------------------------
    def get_embeddings(self, node_ids: np.ndarray) -> np.ndarray:
        """Rows of the served table for ``node_ids`` (any order, dups ok).

        One gather from the table map, rows aligned with the input.
        """
        t0 = time.perf_counter()
        with self._query_guard():
            out = self._table_read(
                lambda: self.store.read_rows(self._check_ids(node_ids)))
        self.stats.requests += 1
        self.stats.lookups += len(out)
        get_registry().histogram("serve.embed.latency_ms").observe(
            1000.0 * (time.perf_counter() - t0))
        return out

    # ------------------------------------------------------------------
    # Query family 2: decoder scoring
    # ------------------------------------------------------------------
    def _require_decoder(self):
        if self.decoder is None:
            raise RuntimeError("model has no decoder; scoring queries need a "
                               "link prediction snapshot")
        return self.decoder

    @staticmethod
    def _split_pairs(pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] not in (2, 3):
            raise ValueError("pairs must be (n, 2) [src, dst] or "
                             "(n, 3) [src, rel, dst]")
        src, dst = pairs[:, 0], pairs[:, -1]
        rel = (pairs[:, 1] if pairs.shape[1] == 3
               else np.zeros(len(pairs), dtype=np.int64))
        return src, rel, dst

    def score_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Decoder scores for ``(src[, rel], dst)`` rows.

        Decoder-only models (``encoder="none"``) run the exact offline math:
        gather both endpoint embeddings in one pass, then
        ``decoder.score_edges`` — bit-identical to
        :func:`~repro.train.link_prediction.score_edges_offline` on the same
        snapshot. Encoder models first encode-on-read both endpoint sets.
        """
        decoder = self._require_decoder()
        src, rel, dst = self._split_pairs(pairs)
        if len(src) == 0:
            return np.empty(0, dtype=np.float32)
        self._check_rels(rel)
        t0 = time.perf_counter()
        with self._query_guard():
            if getattr(self.model, "encoder", None) is None:
                embs = self._table_read(lambda: self.store.read_rows(
                    self._check_ids(np.concatenate([src, dst]))))
                src_repr = Tensor(embs[: len(src)])
                dst_repr = Tensor(embs[len(src):])
            else:
                targets = np.unique(np.concatenate([src, dst]))
                reprs = self._table_read(
                    lambda: self._encode_rows(targets, seed=None))
                rows = np.searchsorted(targets, np.concatenate([src, dst]))
                src_repr = Tensor(reprs[rows[: len(src)]])
                dst_repr = Tensor(reprs[rows[len(src):]])
        with no_grad():
            scores = decoder.score_edges(src_repr, rel, dst_repr).data
        self.stats.requests += 1
        self.stats.edges_scored += len(src)
        get_registry().histogram("serve.score.latency_ms").observe(
            1000.0 * (time.perf_counter() - t0))
        return scores

    def topk_targets(self, src: int, k: int, rel: int = 0,
                     exclude: Sequence[int] = (),
                     exact: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Best-``k`` destination nodes for ``(src, rel, ?)``, best first.

        The single-source form of :meth:`topk_targets_batch` (exactly its
        ``n = 1`` case — one implementation, no drift); see there for the
        ANN/exact split and the return-shape contract.
        """
        ids, scores = self.topk_targets_batch([int(src)], k, rel=rel,
                                              exclude=exclude, exact=exact)
        return ids[0], scores[0]

    def topk_targets_batch(self, srcs: Sequence[int], k: int,
                           rel=0, exclude: Sequence[int] = (),
                           exact: bool = False
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Best-``k`` destinations for *many* sources in one partition sweep.

        By default the sweep is **pruned** by the per-partition
        :class:`AnnIndex`: a first pass bounds every cluster's best
        possible score (``q . centroid + |q| * radius``, sound by
        Cauchy-Schwarz) and partitions whose every cluster falls below
        every source's running k-th best are skipped without being
        scored. ``exact=True`` — or a decoder without the linear
        ``target_query_rows`` form, or ``ann=False`` at construction —
        runs the exact blockwise scan over every candidate partition.
        Both paths score partitions in place in the table map and serve
        decoder-only snapshots; their scores are bit-equal.

        ``rel`` is a scalar or a per-source array; ``exclude`` is a shared
        candidate blacklist applied to every source (excluded ids are
        removed, never returned).

        Return-shape contract: ``(ids, scores)`` of shape
        ``(len(srcs), k_eff)``, each row best-first with ties broken by
        ascending node id, where ``k_eff = min(k, num_candidates)`` and
        ``num_candidates`` counts the table's nodes *net of the excluded
        ids* — a large ``exclude`` list narrows the result instead of
        silently returning fewer than the clamped ``k``. Over a live view
        the candidate count is read from the dynamic scheme inside the
        query guard, so concurrent growth cannot leave the clamp and the
        sweep disagreeing.
        """
        decoder = self._require_decoder()
        if getattr(self.model, "encoder", None) is not None:
            raise RuntimeError(
                "topk_targets_batch serves decoder-only snapshots; an "
                "encoder model would need every candidate encoded-on-read "
                "(use score_edges over an explicit candidate set instead)")
        srcs = np.asarray(srcs, dtype=np.int64).ravel()
        n = len(srcs)
        k = int(k)
        if n == 0 or k <= 0:
            return (np.empty((n, 0), dtype=np.int64),
                    np.empty((n, 0), dtype=np.float32))
        rel_arr = self._check_rels(
            np.broadcast_to(np.asarray(rel, dtype=np.int64), (n,)))
        excluded = np.asarray(sorted(set(int(x) for x in exclude)),
                              dtype=np.int64)
        use_ann = (not exact and self.ann_enabled
                   and hasattr(decoder, "target_query_rows"))

        def sweep() -> Tuple[np.ndarray, np.ndarray]:
            self._check_ids(srcs)
            total = int(self.scheme.num_nodes)
            valid = excluded[(excluded >= 0) & (excluded < total)]
            k_eff = min(k, total - len(valid))
            if k_eff <= 0:
                return (np.empty((n, 0), dtype=np.int64),
                        np.empty((n, 0), dtype=np.float32))
            src_t = Tensor(self.store.read_rows(srcs))
            index = self._require_ann() if use_ann else None
            return self._sweep(decoder, src_t, rel_arr, valid, k_eff, index)

        t0 = time.perf_counter()
        with self._query_guard(), no_grad():
            best_ids, best_scores = self._table_read(sweep)
        self.stats.requests += 1
        self.stats.topk_queries += n
        get_registry().histogram("serve.topk.latency_ms").observe(
            1000.0 * (time.perf_counter() - t0))
        return best_ids, best_scores

    @staticmethod
    def _merge_topk(best_ids: np.ndarray, best_scores: np.ndarray,
                    ids: np.ndarray, scores: np.ndarray,
                    k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fold new candidates into the running best-k, rows kept sorted
        by (score descending, node id ascending).

        The id tie-break is the determinism fix: truncating with a bare
        ``argpartition`` over scores let *which* of several tied-score
        candidates survived depend on partition visit order, so the same
        query could return different ids under different visit orders
        (the ANN sweep's differs from the exact one's). Here the sort
        key is the single complex scalar ``-score + id*i``: numpy orders
        complex lexicographically (real, then imaginary), giving the
        total (score desc, id asc) order, and keys are *unique* (one id
        appears once per row) — so even the unstable k-selection below
        picks a deterministic set, and only the k survivors pay a sort.
        The kept set is a pure function of the candidate set, at O(w)
        selection cost instead of an O(w log w) full-width sort.
        """
        merged_scores = np.concatenate(
            [best_scores, scores.astype(np.float32)], axis=1)
        merged_ids = np.concatenate([best_ids, ids], axis=1)
        key = -merged_scores.astype(np.float64) + 1j * merged_ids
        if key.shape[1] > k:
            sel = np.argpartition(key, k - 1, axis=1)[:, :k]
            merged_ids = np.take_along_axis(merged_ids, sel, axis=1)
            merged_scores = np.take_along_axis(merged_scores, sel, axis=1)
            key = np.take_along_axis(key, sel, axis=1)
        order = np.argsort(key, axis=1)
        return (np.take_along_axis(merged_ids, order, axis=1),
                np.take_along_axis(merged_scores, order, axis=1))

    def _require_ann(self) -> AnnIndex:
        """The lazily-built cluster index, rebuilt where stale.

        Built on the first ANN top-k (engines that never answer top-k
        never pay for clustering) and invalidated by the live-stream
        listeners; rebuilds cluster each stale partition's rows in place
        in the table map.
        """
        if self.ann_index is None:
            self.ann_index = AnnIndex(self.store,
                                      cluster_size=self.ann_cluster_size)
        self.ann_index.ensure_current()
        return self.ann_index

    def _sweep(self, decoder, src_t: Tensor, rel_arr: np.ndarray,
               excluded: np.ndarray, k: int,
               index: Optional[AnnIndex]) -> Tuple[np.ndarray, np.ndarray]:
        """Score candidate partitions in place, keeping a running best-k.

        Each scored partition is one contiguous block of the table map
        and one dense ``score_against``. Without ``index`` this is the
        exact oracle: every partition, every row, ascending. With it the
        sweep is pruned: partitions are visited in descending order of
        their best cluster bound (so the running thresholds tighten as
        early as possible), a partition whose every cluster falls below
        every source's threshold is skipped, and only the columns of
        clusters some source still needs enter the running best-k. Both
        score the same blocks, pruning is sound, and the merge is a pure
        function of the candidate set, so the two return the same bits.
        """
        n = src_t.data.shape[0]
        best_ids = np.empty((n, 0), dtype=np.int64)
        best_scores = np.empty((n, 0), dtype=np.float32)
        thresholds = np.full(n, -np.inf)
        order = range(self.scheme.num_partitions)
        if index is not None:
            bounds = index.cluster_bounds(
                decoder.target_query_rows(src_t.data, rel_arr))
            order = np.argsort([-float(b.max()) if b.size else np.inf
                                for b in bounds], kind="stable")
        for part in order:
            part = int(part)
            lo = int(self.scheme.boundaries[part])
            rows = np.arange(int(self.scheme.boundaries[part + 1]) - lo)
            if index is not None:
                ub = bounds[part]                    # (n, clusters)
                if ub.size == 0 or (ub.max(axis=1) < thresholds).all():
                    self.stats.topk_parts_pruned += 1
                    continue
                pc = index.partition(part)
                surviving = (ub >= thresholds[:, None]).any(axis=0)
                rows = pc.rows[np.repeat(surviving, np.diff(pc.indptr))]
            if len(excluded):    # remove, don't mask: never return one
                rows = rows[~np.isin(lo + rows, excluded)]
            if index is not None and len(rows) == 0:
                self.stats.topk_parts_pruned += 1
                continue
            scores = decoder.score_against(
                src_t, rel_arr, Tensor(self.store.partition_block(part))).data
            ids = lo + rows
            best_ids, best_scores = self._merge_topk(
                best_ids, best_scores, np.broadcast_to(ids, (n, len(ids))),
                scores[:, rows], k)
            if best_scores.shape[1] == k:
                thresholds = best_scores[:, -1].astype(np.float64)
            self.stats.topk_parts_scanned += 1
            if index is not None:
                self.stats.ann_rows_scored += len(rows)
        return best_ids, best_scores

    # ------------------------------------------------------------------
    # Query family 3: GNN encode-on-read
    # ------------------------------------------------------------------
    def _require_sampler(self) -> DenseSampler:
        if self.sampler is None:
            raise RuntimeError(
                "engine was built without an edge source / fanouts; "
                "encode-on-read queries need the neighborhood sampler")
        return self.sampler

    def _encoder_forward(self, h0: Tensor, batch) -> Tensor:
        encode = getattr(self.model, "encode", None)
        if encode is not None:                      # LinkPredictionModel
            return encode(h0, batch)
        return self.model.encoder(h0, batch)        # NodeClassifier

    def encode_nodes(self, node_ids: np.ndarray,
                     seed: Optional[int] = None) -> np.ndarray:
        """Encoder outputs for ``node_ids`` via sampled neighborhoods.

        Multi-hop neighborhoods are drawn from the subgraph of the
        sampler's resident partitions only (both endpoints of every
        sampled edge are resident by construction of the partitioned
        index), mirroring the neighborhood restriction disk training
        applies. The query's partitions are taken in ascending chunks of
        at most ``buffer_capacity``, and each chunk is exactly the
        sampler's resident set while its nodes are encoded, so which
        neighbors exist never depends on earlier queries. ``seed``
        reseeds the draw stream: with it the result is a pure function
        of (snapshot, query, seed).
        """
        t0 = time.perf_counter()
        with self._query_guard():
            out = self._table_read(
                lambda: self._encode_rows(self._check_ids(node_ids), seed))
        self.stats.requests += 1
        self.stats.nodes_encoded += len(out)
        get_registry().histogram("serve.encode.latency_ms").observe(
            1000.0 * (time.perf_counter() - t0))
        return out

    def _encoder_out_dim(self) -> int:
        encoder = getattr(self.model, "encoder", None)
        return int(encoder.dims[-1]) if encoder is not None else self.store.dim

    def _set_resident(self, sampler: DenseSampler, parts: np.ndarray) -> None:
        """Make ``parts`` exactly the sampler's resident set."""
        resident = set(sampler.index.partitions)
        wanted = set(int(p) for p in parts)
        added, removed = sorted(wanted - resident), sorted(resident - wanted)
        if added or removed:
            sampler.update_graph(added, removed)
            self.stats.swaps += len(added)

    def _encode_rows(self, ids: np.ndarray, seed: Optional[int]) -> np.ndarray:
        if self.sampler is None and getattr(self.model, "encoder",
                                            None) is None:
            # Decoder-only snapshots have no message passing: the node
            # representation IS the stored table row (model.encode is the
            # identity on h0), so encode-on-read degrades to the row
            # gather and every snapshot serves all four query families.
            return self.store.read_rows(ids)
        sampler = self._require_sampler()
        if seed is not None:
            sampler.reseed(np.random.default_rng(seed))
        if len(ids) == 0:
            return np.empty((0, self._encoder_out_dim()), dtype=np.float32)
        parts = self.scheme.partition_of(ids)
        uniq = np.unique(parts)
        out: Optional[np.ndarray] = None
        with no_grad():
            for start in range(0, len(uniq), self.buffer_capacity):
                chunk = uniq[start : start + self.buffer_capacity]
                self._set_resident(sampler, chunk)
                mask = np.isin(parts, chunk)
                targets = np.unique(ids[mask])
                batch = sampler.sample(targets)
                h0 = Tensor(self.store.read_rows(batch.node_ids))
                reprs = self._encoder_forward(h0, batch).data
                if out is None:
                    out = np.empty((len(ids), reprs.shape[1]), dtype=reprs.dtype)
                rows = np.searchsorted(targets, ids[mask])
                out[mask] = reprs[rows]
        return out

    def classify(self, node_ids: np.ndarray,
                 seed: Optional[int] = None) -> np.ndarray:
        """Predicted class labels for ``node_ids`` (NC snapshots)."""
        head = getattr(self.model, "head", None)
        if head is None:
            raise RuntimeError("model has no classification head; classify "
                               "queries need a node classification snapshot")
        reprs = self.encode_nodes(node_ids, seed=seed)
        with no_grad():
            logits = head(Tensor(reprs)).data
        return logits.argmax(axis=1)

"""The out-of-core query engine: batched inference over a partition buffer.

The same machinery that makes training disk-friendly (partitioned node
store, bounded :class:`~repro.storage.buffer.PartitionBuffer`, DENSE
multi-hop sampling over the in-buffer subgraph) serves queries here, with
three differences:

* the buffer runs **read-only** — eviction never writes back and gradient
  application is refused;
* residency is driven by the live query stream through a
  :class:`~repro.policies.query_lru.QueryLRU` replacement policy instead of
  a precomputed epoch plan;
* execution is **partition-locality ordered**: every batched entry point
  groups its work by partition (resident partitions first), so co-located
  queries share one swap instead of thrashing the buffer.

Three query families (the full table is never materialized in memory —
peak residency is ``buffer_capacity`` partitions):

* :meth:`ServingEngine.get_embeddings` — paged row lookup.
* :meth:`ServingEngine.score_edges` / :meth:`ServingEngine.topk_targets` —
  decoder scoring; top-k streams candidate partitions through the buffer
  blockwise and keeps a running best-k, without ever touching the
  replacement policy (scan resistance: a sequential sweep must not evict
  the query-hot partitions).
* :meth:`ServingEngine.encode_nodes` / :meth:`ServingEngine.classify` —
  GNN encode-on-read: multi-hop neighborhoods are sampled over the
  in-buffer subgraph (exactly the restriction disk training applies) and
  only the forward pass runs.
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
from ..policies.query_lru import QueryLRU
from ..storage.buffer import PartitionBuffer
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
        Physical partitions held in memory at once.
    policy:
        Replacement policy; defaults to a fresh :class:`QueryLRU`.
    edge_source:
        Optional ``(i, j) -> (src, dst)`` bucket source (e.g.
        ``EdgeBucketStore.bucket_endpoints``) enabling encode-on-read; the
        sampler's partition-aware index follows buffer swaps incrementally.
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
                 policy: Optional[QueryLRU] = None,
                 edge_source: Optional[Callable] = None,
                 fanouts: Sequence[int] = (), directions: str = "both",
                 seed: int = 0, ann: bool = True,
                 ann_cluster_size: int = 64) -> None:
        self.model = model
        self.model.eval()
        self.store = store
        # Protects the engine's own shared state (buffer residency, the
        # replacement policy, the sampler index) between queries and
        # live-stream listener callbacks. Re-entrant: classify ->
        # encode_nodes. Over a live graph, queries additionally take the
        # graph's shared lock and validate the table seqlock — see
        # _query_guard / _table_read.
        self._live_lock = threading.RLock()
        self._live = None             # set by over_live
        self._table_version = None    # live.table_version when streaming
        self.policy = policy or QueryLRU(self.scheme.num_partitions)
        self.buffer = PartitionBuffer(store, buffer_capacity, read_only=True,
                                      replacement_policy=self.policy)
        self.stats = ServeStats()
        self.buffer.add_swap_listener(self._on_swap)
        self.decoder = getattr(model, "decoder", None)
        self.ann_enabled = bool(ann)
        self.ann_cluster_size = int(ann_cluster_size)
        self.ann_index: Optional[AnnIndex] = None   # built on first ANN top-k
        self.sampler: Optional[DenseSampler] = None
        if edge_source is not None and len(fanouts) > 0:
            self.sampler = DenseSampler.from_partitions(
                self.scheme, edge_source, (), list(fanouts),
                directions=directions, rng=np.random.default_rng(seed))
            self.buffer.add_swap_listener(
                lambda added, removed: self.sampler.update_graph(added, removed))

    # ------------------------------------------------------------------
    @property
    def scheme(self):
        """The served store's partition scheme — read dynamically, because a
        live graph's node table grows (last partition extends) mid-stream."""
        return self.store.scheme

    @classmethod
    def over_live(cls, live, model: Module, buffer_capacity: int,
                  policy: Optional[QueryLRU] = None,
                  fanouts: Sequence[int] = (), directions: str = "both",
                  seed: int = 0, ann: bool = True,
                  ann_cluster_size: int = 64) -> "ServingEngine":
        """A serving engine over a :class:`~repro.stream.live.LiveGraph`.

        The engine queries the live view, not a frozen snapshot: its
        sampler's bucket source is the composed base+delta read, and the
        registered stream listeners keep it coherent — ingests refresh
        exactly the touched resident buckets, node additions extend the
        index and re-sync the buffer, compactions re-read the (identical)
        rewritten base. Embedding lookups need no overlay handling at all,
        because streamed nodes grow the node table at ingest time.
        """
        engine = cls(model, live.node_store, buffer_capacity, policy=policy,
                     edge_source=live.bucket_endpoints, fanouts=fanouts,
                     directions=directions, seed=seed, ann=ann,
                     ann_cluster_size=ann_cluster_size)
        # Queries take the live graph's *shared* lock (so they run
        # concurrently with ingest and with each other's lock-free
        # sections, but drain for structural mutations — growth,
        # compaction, WAL replay, which take the exclusive side) plus the
        # engine's own lock for its buffer/policy/sampler state. Node-
        # table row rewrites (refresh write-back) are not excluded at
        # all: reads that touch the store validate live.table_version
        # around themselves and retry on a raced write window.
        engine._live = live
        engine._table_version = live.table_version
        live.add_bucket_listener(engine._on_live_buckets)
        live.add_growth_listener(engine._on_live_growth)
        live.add_compact_listener(engine._on_live_compact)
        live.add_table_listener(engine._on_live_table)
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
        write), run, and accept only if the version is unchanged. On a
        collision, resident partitions admitted during the window are
        re-read before retrying; after repeated collisions the read runs
        inside the write lock itself (guaranteed quiescent, and writers
        are rare enough that this is the cold path of a cold path).
        """
        version = self._table_version
        if version is None:
            return fn()
        for attempt in range(8):
            token = version.begin()
            if attempt:
                self.buffer.refresh_from_store()
            out = fn()
            if not version.changed(token):
                return out
        with version.write():
            self.buffer.refresh_from_store()
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
            self.buffer.refresh_from_store(
                parts=[new_scheme.num_partitions - 1])
            if self.ann_index is not None:
                self.ann_index.invalidate([new_scheme.num_partitions - 1])

    def _on_live_compact(self) -> None:
        with self._live_lock:
            self.buffer.refresh_from_store()
            if self.ann_index is not None:
                self.ann_index.invalidate()

    def _on_live_table(self, parts: List[int]) -> None:
        with self._live_lock:
            self.buffer.refresh_from_store(parts=parts)
            if self.ann_index is not None:
                self.ann_index.invalidate(parts)

    def _on_swap(self, added: List[int], removed: List[int]) -> None:
        self.stats.swaps += len(added)

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if len(ids) and ((ids < 0).any() or (ids >= self.store.num_nodes).any()):
            bad = ids[(ids < 0) | (ids >= self.store.num_nodes)][:5]
            raise KeyError(f"query node ids out of range: {bad.tolist()}")
        return ids

    def _partition_order(self, parts: np.ndarray) -> List[int]:
        """Resident partitions first (free hits), then ascending admits."""
        resident = [int(p) for p in parts if self.buffer.is_resident(int(p))]
        absent = [int(p) for p in parts if not self.buffer.is_resident(int(p))]
        return resident + absent

    # ------------------------------------------------------------------
    # Query family 1: embedding lookup
    # ------------------------------------------------------------------
    def _gather_rows(self, ids: np.ndarray) -> np.ndarray:
        """The paging gather without stats accounting (internal fetches by
        the scoring paths must not inflate the request/lookup counters)."""
        out = np.empty((len(ids), self.store.dim), dtype=np.float32)
        if len(ids) == 0:
            return out
        parts = self.scheme.partition_of(ids)
        uniq = np.unique(parts)
        self.policy.touch(uniq)
        pending = set(int(p) for p in uniq)
        for part in self._partition_order(uniq):
            pending.discard(part)
            self.buffer.ensure_resident([part], protect=list(pending))
            mask = parts == part
            out[mask] = self.buffer.gather(ids[mask])
        return out

    def get_embeddings(self, node_ids: np.ndarray) -> np.ndarray:
        """Rows of the served table for ``node_ids`` (any order, dups ok).

        Pages the needed partitions through the buffer in locality order —
        one residency check per partition, one vectorized gather per
        partition group — and returns rows aligned with the input.
        """
        t0 = time.perf_counter()
        with self._query_guard():
            out = self._table_read(
                lambda: self._gather_rows(self._check_ids(node_ids)))
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
        gather both endpoint embeddings in one locality-ordered pass, then
        ``decoder.score_edges`` — bit-identical to
        :func:`~repro.train.link_prediction.score_edges_offline` on the same
        snapshot. Encoder models first encode-on-read both endpoint sets.
        """
        decoder = self._require_decoder()
        src, rel, dst = self._split_pairs(pairs)
        if len(src) == 0:
            return np.empty(0, dtype=np.float32)
        t0 = time.perf_counter()
        with self._query_guard():
            if getattr(self.model, "encoder", None) is None:
                embs = self._table_read(lambda: self._gather_rows(
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
        every source's running k-th best are skipped without being paged
        in. ``exact=True`` — or a decoder without the linear
        ``target_query_rows`` form, or ``ann=False`` at construction —
        runs the exact blockwise scan over every candidate partition.
        Both paths never touch the replacement policy (scan resistance)
        and serve decoder-only snapshots.

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
        rel_arr = np.broadcast_to(np.asarray(rel, dtype=np.int64), (n,))
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
            src_t = Tensor(self._gather_rows(srcs))
            if use_ann:
                return self._sweep_ann(decoder, src_t, rel_arr, valid, k_eff)
            return self._sweep_exact(decoder, src_t, rel_arr, valid, k_eff)

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
        candidates survived depend on partition visit order — and the
        visit order depends on buffer residency, so the same query could
        return different ids under different cache states. Here the sort
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

    def _sweep_exact(self, decoder, src_t: Tensor, rel_arr: np.ndarray,
                     excluded: np.ndarray,
                     k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The oracle: page every candidate partition, score every row."""
        n = src_t.data.shape[0]
        best_ids = np.empty((n, 0), dtype=np.int64)
        best_scores = np.empty((n, 0), dtype=np.float32)
        all_parts = np.arange(self.scheme.num_partitions)
        for part in self._partition_order(all_parts):
            self.buffer.ensure_resident([part])
            lo = int(self.scheme.boundaries[part])
            hi = int(self.scheme.boundaries[part + 1])
            block = Tensor(self.buffer.partition_view(part))
            scores = decoder.score_against(src_t, rel_arr, block).data
            ids = np.arange(lo, hi, dtype=np.int64)
            if len(excluded):
                drop = excluded[(excluded >= lo) & (excluded < hi)] - lo
                if len(drop):        # remove, don't mask: an excluded id
                    keep = np.ones(hi - lo, dtype=bool)   # must never be
                    keep[drop] = False                    # returned
                    scores, ids = scores[:, keep], ids[keep]
            best_ids, best_scores = self._merge_topk(
                best_ids, best_scores, np.broadcast_to(ids, (n, len(ids))),
                scores, k)
            self.stats.topk_parts_scanned += 1
        return best_ids, best_scores

    def _require_ann(self) -> AnnIndex:
        """The lazily-built cluster index, rebuilt where stale.

        Built on the first ANN top-k (engines that never answer top-k
        never pay for clustering) and invalidated by the live-stream
        listeners; rebuilds read partitions straight from the store, so
        index maintenance cannot evict query-hot buffer partitions.
        """
        if self.ann_index is None:
            self.ann_index = AnnIndex(self.store,
                                      cluster_size=self.ann_cluster_size)
        self.ann_index.ensure_current()
        return self.ann_index

    def _sweep_ann(self, decoder, src_t: Tensor, rel_arr: np.ndarray,
                   excluded: np.ndarray,
                   k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The pruned sweep: bound first, page and score only survivors.

        Partitions are visited in descending order of their best cluster
        bound (so the running thresholds tighten as early as possible);
        within a surviving partition only the clusters some source still
        needs are gathered and scored — the exact blockwise math over a
        subset of rows. Visit order is a pure function of the table and
        the query (never of buffer residency), and pruning is sound, so
        the result matches the exact sweep up to float32 rounding of the
        candidate scores.
        """
        n = src_t.data.shape[0]
        index = self._require_ann()
        queries = decoder.target_query_rows(src_t.data, rel_arr)
        bounds = index.cluster_bounds(queries)
        best_ids = np.empty((n, 0), dtype=np.int64)
        best_scores = np.empty((n, 0), dtype=np.float32)
        thresholds = np.full(n, -np.inf)
        order = np.argsort([-float(b.max()) if b.size else np.inf
                            for b in bounds], kind="stable")
        for part in order:
            part = int(part)
            ub = bounds[part]                        # (n, clusters)
            if ub.size == 0 or (ub.max(axis=1) < thresholds).all():
                self.stats.topk_parts_pruned += 1
                continue
            surviving = (ub >= thresholds[:, None]).any(axis=0)
            pc = index.partition(part)
            row_mask = np.repeat(surviving, np.diff(pc.indptr))
            rows = pc.rows[row_mask]
            lo = int(self.scheme.boundaries[part])
            ids = lo + rows
            if len(excluded):
                keep = ~np.isin(ids, excluded)
                rows, ids = rows[keep], ids[keep]
            if len(rows) == 0:
                self.stats.topk_parts_pruned += 1
                continue
            self.buffer.ensure_resident([part])
            block = Tensor(self.buffer.partition_view(part)[rows])
            scores = decoder.score_against(src_t, rel_arr, block).data
            best_ids, best_scores = self._merge_topk(
                best_ids, best_scores, np.broadcast_to(ids, (n, len(ids))),
                scores, k)
            if best_scores.shape[1] == k:
                thresholds = best_scores[:, -1].astype(np.float64)
            self.stats.topk_parts_scanned += 1
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

        Multi-hop neighborhoods are drawn from the in-buffer subgraph only
        (both endpoints of every sampled edge are resident by construction
        of the partitioned index), mirroring the neighborhood restriction
        disk training applies. Query nodes spanning more partitions than
        the buffer holds are processed in locality-ordered chunks.

        With ``seed`` the result is a pure function of (snapshot, query,
        seed): the draw stream is reseeded, chunks run in ascending
        partition order, and each chunk swaps to an *exact* resident set —
        otherwise leftover residency would change which neighbors exist in
        the in-buffer subgraph between calls. Without a seed, execution is
        locality-optimized (resident partitions first, leftovers kept).
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

    def _encode_rows(self, ids: np.ndarray, seed: Optional[int]) -> np.ndarray:
        if self.sampler is None and getattr(self.model, "encoder",
                                            None) is None:
            # Decoder-only snapshots have no message passing: the node
            # representation IS the stored table row (model.encode is the
            # identity on h0), so encode-on-read degrades to the paged
            # gather and every snapshot serves all four query families.
            return self._gather_rows(ids)
        sampler = self._require_sampler()
        deterministic = seed is not None
        if deterministic:
            sampler.reseed(np.random.default_rng(seed))
        if len(ids) == 0:
            return np.empty((0, self._encoder_out_dim()), dtype=np.float32)
        parts = self.scheme.partition_of(ids)
        uniq = np.unique(parts)
        self.policy.touch(uniq)
        order = ([int(p) for p in uniq] if deterministic
                 else self._partition_order(uniq))
        chunks = [order[i : i + self.buffer.capacity]
                  for i in range(0, len(order), self.buffer.capacity)]
        out: Optional[np.ndarray] = None
        with no_grad():
            for i, chunk in enumerate(chunks):
                if deterministic:
                    self.buffer.set_partitions(chunk)
                else:
                    protect = [p for c in chunks[i + 1 :] for p in c]
                    self.buffer.ensure_resident(chunk, protect=protect)
                mask = np.isin(parts, chunk)
                targets = np.unique(ids[mask])
                batch = sampler.sample(targets)
                h0 = Tensor(self.buffer.gather(batch.node_ids))
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

"""The out-of-core query engine: batched inference over the node table.

The served table is a :class:`~repro.storage.node_store.NodeStore` — for a
disk snapshot, the snapshot's own partition files — mapped read-only one
partition at a time, and every query family reads it in place: the OS
page cache is the serving buffer. A read-only server has neither an epoch
plan nor gradients to write back, so it keeps no partition cache of its
own:

* :meth:`ServingEngine.get_embeddings` — row gather from the store.
* :meth:`ServingEngine.score_edges` / :meth:`ServingEngine.topk_targets` —
  decoder scoring; top-k scores the partitions in chunks of at most
  ``buffer_capacity``, each partition's map as one block, and folds each
  chunk's candidates into a running best-k, with no residency side
  effects.
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
    """

    def __init__(self, model: Module, store: NodeStore, buffer_capacity: int,
                 edge_source: Optional[Callable] = None,
                 fanouts: Sequence[int] = (), directions: str = "both",
                 seed: int = 0) -> None:
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
        # draw stream) between queries and live-stream
        # listener callbacks. Re-entrant: classify -> encode_nodes. Over a
        # live graph, queries additionally take the graph's shared lock —
        # see _query_guard.
        self._live_lock = threading.RLock()
        self._live = None             # set by over_live
        self.stats = ServeStats()
        self.decoder = getattr(model, "decoder", None)
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
                  seed: int = 0) -> "ServingEngine":
        """A serving engine over a :class:`~repro.stream.live.LiveGraph`.

        The engine queries the live view, not a frozen snapshot: its
        sampler's bucket source is the composed base+delta read, and the
        registered stream listeners keep it coherent — ingests refresh
        exactly the touched resident buckets and node additions extend
        the index. Lookups and top-k need no overlay handling at all:
        streamed nodes grow the node table at ingest time, and both read
        the table in place. Every query runs inside the shared side of
        ``live.rw``, and every write to the table rows or structure it
        reads (growth, compaction, WAL replay, a refresh's write-back)
        holds the exclusive side, so a query never sees one half done.
        """
        engine = cls(model, live.node_store, buffer_capacity,
                     edge_source=live.bucket_endpoints, fanouts=fanouts,
                     directions=directions, seed=seed)
        # Queries take the live graph's *shared* lock (so they run
        # concurrently with ingest and with each other's lock-free
        # sections, but drain for every write they could observe —
        # growth, compaction, WAL replay and refresh write-back, which
        # take the exclusive side) plus the engine's own lock for its
        # sampler state.
        engine._live = live
        live.add_bucket_listener(engine._on_live_buckets)
        live.add_growth_listener(engine._on_live_growth)
        return engine

    @contextlib.contextmanager
    def _query_guard(self):
        """Per-query locking: shared side of the live graph's ``rw`` lock
        (when streaming) + the engine-private lock."""
        if self._live is not None:
            with self._live.rw.shared():
                with self._live_lock:
                    yield
        else:
            with self._live_lock:
                yield

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

        One gather per touched partition map, rows aligned with the input.
        """
        t0 = time.perf_counter()
        with self._query_guard():
            out = self.store.read_rows(self._check_ids(node_ids))
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
                embs = self.store.read_rows(
                    self._check_ids(np.concatenate([src, dst])))
                src_repr = Tensor(embs[: len(src)])
                dst_repr = Tensor(embs[len(src):])
            else:
                targets = np.unique(np.concatenate([src, dst]))
                reprs = self._encode_rows(targets, seed=None)
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
                     exact: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Best-``k`` destination nodes for ``(src, rel, ?)``, best first.

        The single-source form of :meth:`topk_targets_batch` (exactly its
        ``n = 1`` case — one implementation, no drift); see there for the
        sweep and the return-shape contract.
        """
        ids, scores = self.topk_targets_batch([int(src)], k, rel=rel,
                                              exclude=exclude)
        return ids[0], scores[0]

    def topk_targets_batch(self, srcs: Sequence[int], k: int,
                           rel=0, exclude: Sequence[int] = (),
                           exact: bool = True
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Best-``k`` destinations for *many* sources in one exact sweep.

        Every candidate is scored: the sweep reads each partition once, in
        place in its map, and scores it against all sources with one
        dense ``score_against`` (see :meth:`_sweep`). ``exact`` is accepted
        and ignored — every sweep is exact.

        ``rel`` is a scalar or a per-source array; ``exclude`` is a shared
        candidate blacklist applied to every source (excluded ids are
        removed, never returned).

        Return-shape contract: ``(ids, scores)`` of shape
        ``(len(srcs), k_eff)``, each row best-first with ties broken by
        ascending node id and NaN scores ranked after every other score,
        where ``k_eff = min(k, num_candidates)`` and ``num_candidates``
        counts the table's nodes *net of the excluded ids* — a large
        ``exclude`` list narrows the result instead of silently returning
        fewer than the clamped ``k``. Over a live view the candidate count
        is read from the dynamic scheme inside the query guard, so
        concurrent growth cannot leave the clamp and the sweep disagreeing.
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

        t0 = time.perf_counter()
        with self._query_guard(), no_grad():
            self._check_ids(srcs)
            total = int(self.scheme.num_nodes)
            valid = excluded[(excluded >= 0) & (excluded < total)]
            k_eff = min(k, total - len(valid))
            if k_eff > 0:
                best_ids, best_scores = self._sweep(
                    decoder, Tensor(self.store.read_rows(srcs)), rel_arr,
                    valid, k_eff)
            else:
                best_ids = np.empty((n, 0), dtype=np.int64)
                best_scores = np.empty((n, 0), dtype=np.float32)
        self.stats.requests += 1
        self.stats.topk_queries += n
        get_registry().histogram("serve.topk.latency_ms").observe(
            1000.0 * (time.perf_counter() - t0))
        return best_ids, best_scores

    def _sweep(self, decoder, src_t: Tensor, rel_arr: np.ndarray,
               excluded: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Score every candidate in chunks of partitions, keeping a best-k.

        A chunk is at most ``buffer_capacity`` consecutive partitions — one
        contiguous row range, the chunking encode-on-read uses. Each
        partition in it is one block of its map and one dense
        ``score_against``, written into a shared ``(n, chunk_rows)``
        float32 array: that array is the sweep's working set, whatever the
        table size. A source's chunk candidates are the columns at or
        above a threshold (ties included), folded into the running best-k
        by :func:`_fold_topk`: once the running best-k holds k non-NaN
        scores, its k-th best is the threshold, else one selection over
        the chunk finds it (:func:`_chunk_candidates`).
        """
        n = src_t.data.shape[0]
        bounds = self.scheme.boundaries
        num_parts = self.scheme.num_partitions
        best_ids = np.empty((n, 0), dtype=np.int64)
        best_scores = np.empty((n, 0), dtype=np.float32)
        for first in range(0, num_parts, self.buffer_capacity):
            last = min(first + self.buffer_capacity, num_parts)
            lo, hi = int(bounds[first]), int(bounds[last])
            scores = np.empty((n, hi - lo), dtype=np.float32)
            for part in range(first, last):
                a, b = int(bounds[part]) - lo, int(bounds[part + 1]) - lo
                if b > a:
                    scores[:, a:b] = decoder.score_against(
                        src_t, rel_arr,
                        Tensor(self.store.partition_block(part))).data
            self.stats.topk_parts_scanned += last - first
            self.stats.ann_rows_scored += hi - lo
            ids = np.arange(lo, hi)
            hit = excluded[(excluded >= lo) & (excluded < hi)]
            if len(hit):         # remove, don't mask: never return one
                keep = np.ones(hi - lo, dtype=bool)
                keep[hit - lo] = False
                ids, scores = ids[keep], scores[:, keep]
            floor = (best_scores[:, k - 1] if best_scores.shape[1] == k
                     else np.full(n, np.nan, dtype=np.float32))
            rows, cols = _chunk_candidates(scores, k, floor)
            best_ids, best_scores = _fold_topk(
                best_ids, best_scores, rows, ids[cols], scores[rows, cols], k)
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
            out = self._encode_rows(self._check_ids(node_ids), seed)
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


def _chunk_candidates(scores: np.ndarray, k: int, floor: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of every score that can reach its row's best-k.

    ``floor`` is each row's running k-th best score, NaN while the row
    holds fewer than ``k`` non-NaN scores. A lower score can never enter
    the best-k, so a row with a floor keeps the columns at or above it,
    ties included: the id tie-break happens in :func:`_fold_topk` over
    the whole set. Every other row takes one float32 selection over the
    chunk: its k-th best score there is the threshold. A selection sorts
    NaN last, so a NaN threshold means the row has fewer than ``k``
    non-NaN scores and keeps every column (NaN rows included: the width
    contract ranks them after every other score).
    """
    n, width = scores.shape
    kth = floor[:, None].copy()
    need = np.isnan(floor)
    if need.any() and width > k:
        neg = np.negative(scores if need.all() else scores[need])
        neg.partition(k - 1, axis=1)
        kth[need] = -neg[:, k - 1 : k]
    # flatnonzero + divmod: ~15x faster than a 2-d nonzero here.
    return np.divmod(np.flatnonzero((scores >= kth) | np.isnan(kth)), width)


def _fold_topk(best_ids: np.ndarray, best_scores: np.ndarray,
               rows: np.ndarray, ids: np.ndarray, scores: np.ndarray,
               k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merge one chunk's candidates into the running best-k.

    Rows stay sorted by the total order (score descending, NaN last, then
    node id ascending): ids are unique per row, so the kept set is a pure
    function of the candidate set, whatever the chunking. Every row keeps
    the same width, ``min(k, candidates seen)``.
    """
    n, w = best_ids.shape
    all_rows = np.concatenate([np.repeat(np.arange(n), w), rows])
    all_ids = np.concatenate([best_ids.ravel(), ids])
    all_scores = np.concatenate([best_scores.ravel(), scores])
    order = np.lexsort((all_ids, -all_scores, all_rows))
    counts = np.bincount(all_rows, minlength=n)
    width = min(k, int(counts.min()))
    starts = np.cumsum(counts) - counts
    sel = order[starts[:, None] + np.arange(width)]
    return all_ids[sel], all_scores[sel]

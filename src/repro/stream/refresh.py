"""Continual training: fine-tune embeddings for delta-touched partitions.

A streamed graph drifts away from the embeddings trained on its base
snapshot. :class:`ContinualTrainer` closes that gap incrementally between
compactions: each :meth:`refresh` takes the edge buckets touched by delta
events since the previous refresh, greedily packs their partition pairs
into resident sets that fit the partition buffer, and runs the standard
mini-batch lifecycle (the same :class:`~repro.train.link_prediction.
_BatchStep` the offline trainers use) over each set's touched buckets —
sampling neighborhoods from the *live* composed view, negatives restricted
to resident nodes, row-sparse Adagrad updates applied through the buffer.

Because the sampler index, the buffer, and the batch step are byte-for-byte
the machinery of :class:`~repro.train.link_prediction.
DiskLinkPredictionTrainer`, a refresh over a streamed graph is
bit-identical to the same refresh over an offline rebuild of the final
edge list given equal tables, parameters, and RNG streams — the property
``tests/test_streaming.py`` enforces.

Snapshots extend the crash-safe checkpoint subsystem: alongside model and
table state they record the **log position** (sequence / compaction /
refresh cursors), so a restarted stream knows exactly which events its
durable state already reflects and replays only the suffix.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api import registry as job_registry
from ..core.sampler import DenseSampler
from ..nn.optim import RowAdagrad
from ..storage.buffer import PartitionBuffer
from ..train.checkpoint import (SnapshotManager, _config_to_dict,
                                pack_model_state, resolve_snapshot,
                                restore_store_table, rng_state, set_rng_state,
                                unpack_model_state, validate_meta)
from ..train.evaluation import EpochRecord
from ..train.hooks import ListenerHooks, ProgressListener
from ..train.link_prediction import (LinkPredictionConfig,
                                     LinkPredictionModel, _BatchStep)
from ..train.negative_sampling import UniformNegativeSampler
from .live import LiveGraph


def pack_pairs(pairs: Sequence[Tuple[int, int]], capacity: int
               ) -> List[Tuple[List[int], List[Tuple[int, int]]]]:
    """Greedily pack partition pairs into resident sets of <= capacity.

    Returns ``(partitions, pairs)`` groups covering every input pair exactly
    once; each group's partitions fit the buffer together. Greedy first-fit
    over the sorted pairs — not optimal, but deterministic and linear.
    """
    if capacity < 2:
        for i, j in pairs:
            if i != j:
                raise ValueError("buffer capacity < 2 cannot co-locate a "
                                 f"cross-partition bucket {(i, j)}")
    remaining = sorted({(int(i), int(j)) for i, j in pairs})
    groups: List[Tuple[List[int], List[Tuple[int, int]]]] = []
    while remaining:
        parts: set = set()
        batch: List[Tuple[int, int]] = []
        rest: List[Tuple[int, int]] = []
        for i, j in remaining:
            need = {i, j} - parts
            if len(parts) + len(need) <= capacity:
                parts |= need
                batch.append((i, j))
            else:
                rest.append((i, j))
        groups.append((sorted(parts), batch))
        remaining = rest
    return groups


class ContinualTrainer(ListenerHooks):
    """Streams embedding updates into a live graph between compactions.

    Parameters
    ----------
    live:
        The :class:`LiveGraph` to follow. The trainer registers bucket /
        growth listeners so its buffer (and, with an encoder, its sampler
        index) stays coherent with every ingest.
    config:
        Standard :class:`LinkPredictionConfig` (model shape, batch size,
        learning rates, seed).
    num_relations:
        Relation vocabulary size for the decoder.
    buffer_capacity:
        Physical partitions resident during a refresh.
    checkpoint_dir / checkpoint_every:
        Snapshot root and auto-snapshot cadence in *refreshes* (0 = manual
        only). A save rewrites only the table partitions written since the
        previous one and links the rest.
    """

    KIND = job_registry.LP_STREAM

    def __init__(self, live: LiveGraph,
                 config: Optional[LinkPredictionConfig] = None,
                 num_relations: int = 1, buffer_capacity: int = 4,
                 checkpoint_dir: Optional[Path] = None,
                 checkpoint_every: int = 0,
                 listeners: Optional[Sequence[ProgressListener]] = None) -> None:
        self._init_hooks(listeners)
        self.live = live
        self.config = config or LinkPredictionConfig()
        cfg = self.config
        self.rng = np.random.default_rng(cfg.seed)
        self.model = LinkPredictionModel(cfg, num_relations, rng=self.rng)
        self.buffer = PartitionBuffer(live.node_store, buffer_capacity,
                                      optimizer=RowAdagrad(lr=cfg.embedding_lr))
        self.sampler = DenseSampler.from_partitions(
            live.scheme, live.bucket_endpoints, (), list(cfg.fanouts),
            directions=cfg.directions, rng=self.rng)
        if self.model.encoder is not None:
            # A decoder-only model never reads the neighbor index.
            self.buffer.add_swap_listener(
                lambda added, removed: self.sampler.update_graph(added, removed))
            live.add_bucket_listener(self.sampler.index.refresh_buckets)
        # The trainer's own touched-pair accumulator: unlike the log (which
        # forgets merged events at compaction), this survives compactions,
        # so a post-compaction refresh still knows what drifted. The
        # listener closes over the attribute, not the set object — resume()
        # replaces the contents and must not orphan the subscription.
        self._pending_pairs: set = set()
        live.add_bucket_listener(
            lambda pairs: self._pending_pairs.update(pairs))
        # Growth re-reads the grown partition. Compaction needs no
        # listener: it rewrites edge buckets only, never node rows.
        live.add_growth_listener(self._on_growth)
        self.negatives = UniformNegativeSampler(live.num_nodes,
                                                cfg.num_negatives, rng=self.rng)
        self.step_runner = _BatchStep(self.model, cfg, self.rng)
        self.snapshots = (SnapshotManager(checkpoint_dir)
                          if checkpoint_dir is not None else None)
        self.checkpoint_every = int(checkpoint_every)
        self.refreshes = 0
        self._refreshed_seq = live.log.compacted_seq

    # ------------------------------------------------------------------
    def _on_growth(self, new_scheme) -> None:
        self.sampler.index.extend_nodes(new_scheme)
        # Only the last partition's rows changed (the growth rule).
        self.buffer.refresh_from_store(parts=[new_scheme.num_partitions - 1])
        self.negatives.num_nodes = new_scheme.num_nodes

    @property
    def refreshed_seq(self) -> int:
        """Events below this sequence number have been trained on."""
        return self._refreshed_seq

    # ------------------------------------------------------------------
    def refresh(self, pairs: Optional[Sequence[Tuple[int, int]]] = None
                ) -> EpochRecord:
        """One fine-tuning pass over the delta-touched edge buckets.

        ``pairs`` defaults to every bucket with a delta event since the
        previous refresh (tracked across compactions). The refresh trains
        on those buckets' *entire composed content* (old and new edges —
        new edges are learned in the context of their surviving neighbors,
        not in isolation). Passing explicit ``pairs`` trains exactly those
        buckets and leaves the pending accumulator untouched.
        """
        live = self.live
        explicit = pairs is not None
        if not explicit:
            pairs = sorted(self._pending_pairs)
        t0 = time.perf_counter()
        record = EpochRecord(epoch=self.refreshes, loss=0.0, seconds=0.0,
                             metric=0.0)
        losses: List[float] = []
        for parts, group_pairs in pack_pairs(pairs, self.buffer.capacity):
            # The swap queues the previous group's dirty partitions for
            # write-back to the shared store; waiting for it inside the
            # exclusive side of ``rw`` keeps serving queries from reading a
            # half-written row. (Gradient application between swaps touches
            # only this trainer's private slab.)
            with live.lock, live.rw.exclusive():
                self.buffer.load_step(parts)
                self.buffer.wait()
            self.negatives.set_allowed(self.buffer.resident_nodes())
            edges = np.concatenate([live.bucket_edges(i, j)
                                    for i, j in group_pairs], axis=0)
            losses += self.step_runner.train_edges(
                edges, self.sampler, self.negatives, self.buffer.gather,
                self.buffer.apply_gradients, record)
        # Land the updates: the snapshot table and readers of the store
        # must reflect the refresh.
        with live.lock, live.rw.exclusive():
            self.buffer.finish()
        if not explicit:
            # The cursor only advances when the default full-coverage pass
            # ran; an explicit-pairs refresh may leave other touched
            # buckets untrained, and recording their events as refreshed
            # would let a resume skip them forever.
            self._pending_pairs.clear()
            self._refreshed_seq = live.log.seq
        self.refreshes += 1
        record.seconds = time.perf_counter() - t0
        record.loss = float(np.mean(losses)) if losses else 0.0
        self._emit("refresh", trainer=self.KIND, refreshes=self.refreshes,
                   loss=record.loss, seconds=record.seconds,
                   num_batches=record.num_batches)
        if (self.snapshots is not None and self.checkpoint_every
                and self.refreshes % self.checkpoint_every == 0):
            self.save_snapshot()
        return record

    # ------------------------------------------------------------------
    def _store_fingerprints(self) -> Dict[str, str]:
        return {"node": self.live.node_store.fingerprint(),
                "edge": self.live.edge_store.fingerprint()}

    def save_snapshot(self) -> Path:
        """Atomic snapshot of model, table, and the stream log position."""
        if self.snapshots is None:
            raise RuntimeError("trainer was built without a checkpoint_dir")
        arrays: Dict[str, np.ndarray] = {}
        self.buffer.flush()      # the snapshot reads the store's partitions
        pack_model_state(arrays, self.model, self.step_runner.gnn_optimizer)
        log = self.live.log
        meta = {"trainer": self.KIND,
                "stream": {"seq": int(log.seq),
                           "compacted_seq": int(log.compacted_seq),
                           "refreshed_seq": int(self._refreshed_seq),
                           "num_nodes": int(self.live.num_nodes),
                           "nodes_added": int(self.live.nodes_added),
                           "pending_pairs": sorted(
                               [int(i), int(j)]
                               for i, j in self._pending_pairs)},
                "rng": rng_state(self.rng),
                "stores": self._store_fingerprints(),
                "config": _config_to_dict(self.config)}
        path = self.snapshots.save(log.seq, meta, arrays,
                                   self.live.node_store)
        self._emit("snapshot", trainer=self.KIND, path=str(path),
                   seq=int(log.seq), linked=self.snapshots.linked)
        return path

    def resume(self, path: Optional[Path] = None) -> dict:
        """Restore a snapshot; the caller replays events from
        ``meta["stream"]["compacted_seq"]`` onward from its event source —
        events past the compaction horizon were still log-only at snapshot
        time and do not survive a process restart (the snapshot's store
        fingerprints pin exactly the compacted base that horizon refers
        to). In-process resumes keep the live log's own numbering; after a
        restart the fresh log is fast-forwarded to the horizon so stream
        cursors stay in one consistent numbering.
        """
        meta, arrays = resolve_snapshot(path, self.snapshots)
        validate_meta(meta, self.KIND, stores=self._store_fingerprints(),
                      config=self.config)
        stream = meta["stream"]
        self.buffer.reset()
        restore_store_table(arrays, self.live.node_store)
        unpack_model_state(arrays, self.model, self.step_runner.gnn_optimizer)
        set_rng_state(self.rng, meta["rng"])
        log = self.live.log
        horizon = int(stream["compacted_seq"])
        if log.seq < horizon:      # fresh log after a restart: align
            log.seq = horizon
            log.compacted_seq = horizon
        self._refreshed_seq = min(int(stream["refreshed_seq"]), log.seq)
        self._pending_pairs.clear()
        self._pending_pairs.update(
            (int(i), int(j)) for i, j in stream.get("pending_pairs", []))
        return meta

"""Continual training: fine-tune embeddings for delta-touched partitions.

A streamed graph drifts away from the embeddings trained on its base
snapshot. :class:`ContinualTrainer` closes that gap incrementally between
compactions: each :meth:`~ContinualTrainer.refresh` takes the edge buckets
touched by delta events since the previous refresh, greedily packs their
partition pairs into resident sets that fit the partition buffer, and runs
the standard mini-batch lifecycle (the same :class:`~repro.train.
link_prediction._BatchStep` the offline trainers use) over each set's
touched buckets — sampling neighborhoods from the *live* composed view,
negatives restricted to resident nodes, row-sparse Adagrad updates applied
through the buffer.

A refresh is one epoch of the one training loop (:mod:`repro.train.loop`),
with a one-step plan: timing, IO accounting, events, checkpoint cadence and
snapshot/resume are the loop's. Snapshots add the stream's **log
position** (sequence / compaction / refresh cursors), so a restarted
stream replays only the event suffix its durable state does not reflect.

Because the sampler index, the buffer, and the batch step are byte-for-byte
the machinery of :class:`~repro.train.link_prediction.
DiskLinkPredictionTrainer`, a refresh over a streamed graph is
bit-identical to the same refresh over an offline rebuild of the final
edge list given equal tables, parameters, and RNG streams — the property
``tests/test_streaming.py`` enforces.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..api import registry as job_registry
from ..core.sampler import DenseSampler
from ..nn.optim import RowAdagrad
from ..storage.buffer import PartitionBuffer
from ..train.evaluation import EpochRecord
from ..train.link_prediction import (LinkPredictionConfig,
                                     LinkPredictionModel, _BatchStep)
from ..train.loop import ProgressListener, _TrainingLoop
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


class ContinualTrainer(_TrainingLoop):
    """Streams embedding updates into a live graph between compactions.

    Parameters
    ----------
    live:
        The :class:`LiveGraph` to follow. The trainer registers bucket /
        growth listeners so its sampler index stays coherent with every
        ingest; its buffer follows node growth at the trainer's next
        locked window.
    config:
        Standard :class:`LinkPredictionConfig` (model shape, batch size,
        learning rates, seed).
    num_relations:
        Relation vocabulary size for the decoder.
    buffer_capacity:
        Physical partitions resident during a refresh.
    checkpoint_dir / checkpoint_every:
        Snapshot root and auto-snapshot cadence in *refreshes* (0 = manual
        only). A save hard-links the store's partition files.
    """

    KIND = job_registry.LP_STREAM
    EPOCH_EVENT = "refresh"

    def __init__(self, live: LiveGraph,
                 config: Optional[LinkPredictionConfig] = None,
                 num_relations: int = 1, buffer_capacity: int = 4,
                 checkpoint_dir: Optional[Path] = None,
                 checkpoint_every: int = 0,
                 listeners: Optional[Sequence[ProgressListener]] = None) -> None:
        super().__init__(config or LinkPredictionConfig(), checkpoint_dir,
                         checkpoint_every, listeners)
        self.live = live
        # A save holds the writer lock while it reads the stream cursors,
        # the fingerprint and the bounds and links the store's files, so no
        # growth, replay or write-back lands in between.
        self._store_writers = live.lock
        cfg = self.config
        self.io = live.node_store.stats
        self.model = LinkPredictionModel(cfg, num_relations, rng=self.rng)
        self.buffer = PartitionBuffer(live.node_store, buffer_capacity,
                                      optimizer=RowAdagrad(lr=cfg.embedding_lr))
        self.sampler = DenseSampler.from_partitions(
            live.scheme, live.bucket_endpoints, (), list(cfg.fanouts),
            directions=cfg.directions, rng=self.rng)
        if self.model.encoder is not None:
            # A decoder-only model never reads the neighbor index. The
            # listener holds the sampler, not the trainer (no reference
            # cycle), and looks ``update_graph`` up at call time.
            sampler = self.sampler
            self.buffer.add_swap_listener(
                lambda added, removed: sampler.update_graph(added, removed))
            live.add_bucket_listener(self.sampler.index.refresh_buckets)
        # The trainer's own touched-pair accumulator: unlike the log (which
        # forgets merged events at compaction), this survives compactions,
        # so a post-compaction refresh still knows what drifted. The
        # listener is the set's own ``update`` (no reference back to the
        # trainer), so the set is never rebound: resume() and a refresh
        # replace its contents.
        self._pending_pairs: set = set()
        live.add_bucket_listener(self._pending_pairs.update)
        # Growth extends the index synchronously: the bucket listeners that
        # fire after it index rows in the grown scheme. The buffer is left
        # to the trainer's own thread (_sync_growth); compaction needs no
        # listener, it rewrites edge buckets only, never node rows.
        live.add_growth_listener(self.sampler.index.extend_nodes)
        self.negatives = UniformNegativeSampler(live.num_nodes,
                                                cfg.num_negatives, rng=self.rng)
        self.step_runner = _BatchStep(self.model, cfg, self.rng)
        self._refreshed_seq = live.log.compacted_seq
        self._pairs: Optional[Sequence[Tuple[int, int]]] = None

    @property
    def refreshes(self) -> int:
        """Refreshes run so far: the loop's epoch cursor."""
        return self._epoch

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
        self._pairs = pairs
        record = self._run_epoch(self._epoch)
        self._epoch += 1
        return record

    def _plan_epoch(self, epoch: int) -> Sequence[Optional[Sequence]]:
        return (self._pairs,)

    def _run_step(self, steps, idx: int, record: EpochRecord) -> List[float]:
        live = self.live
        pairs = steps[idx]
        explicit = pairs is not None
        if not explicit:
            # The pairs and the cursor are taken together: an event logged
            # after this point lands in pending again and stays past the
            # cursor, whether or not its bucket is trained below.
            with live.lock:
                pairs = sorted(self._pending_pairs)
                self._pending_pairs.clear()
                seq = live.log.seq
        try:
            losses = self._train_pairs(pairs, record)
        except BaseException:
            if not explicit:
                self._pending_pairs.update(pairs)
            raise
        if not explicit:
            # The cursor only advances when the default full-coverage pass
            # ran; an explicit-pairs refresh may leave other touched
            # buckets untrained, and recording their events as refreshed
            # would let a resume skip them forever.
            self._refreshed_seq = seq
        return losses

    def _train_pairs(self, pairs: Sequence[Tuple[int, int]],
                     record: EpochRecord) -> List[float]:
        live = self.live
        losses: List[float] = []
        for parts, group_pairs in pack_pairs(pairs, self.buffer.capacity):
            # The swap queues the previous group's dirty partitions for
            # write-back to the shared store; waiting for it inside the
            # exclusive side of ``rw`` keeps serving queries from reading a
            # half-written row. (Gradient application between swaps touches
            # only this trainer's private slab.)
            with live.lock, live.rw.exclusive():
                self._sync_growth()
                self.buffer.load_step(parts)
                self.buffer.wait()
            self.negatives.set_allowed(self.buffer.resident_nodes())
            edges = np.concatenate([live.bucket_edges(i, j)
                                    for i, j in group_pairs], axis=0)
            losses += self.step_runner.train_edges(
                edges, self.sampler, self.negatives, self._gather,
                self.buffer.apply_gradients, record)
        # Land the updates: the snapshot table and readers of the store
        # must reflect the refresh.
        with live.lock, live.rw.exclusive():
            self._sync_growth()
            self.buffer.finish()
        return losses

    def _gather(self, node_ids: np.ndarray) -> np.ndarray:
        with self.live.lock, self.live.rw.exclusive():
            self._sync_growth()
        return self.buffer.gather(node_ids)

    def _sync_growth(self) -> None:
        """Re-sync the buffer after node growth; the caller holds
        ``live.lock`` and ``live.rw`` exclusively. Running only on the
        trainer's thread, between batches, it never remaps the slab under
        a batch's gather or gradient update."""
        live = self.live
        if self.buffer.num_nodes < live.num_nodes:
            # Only the last partition's rows changed (the growth rule).
            self.buffer.refresh_from_store(parts=[live.num_partitions - 1])
            self.negatives.num_nodes = live.num_nodes

    # ------------------------------------------------------------------
    @property
    def _gnn_optimizer(self):
        return self.step_runner.gnn_optimizer

    def _fingerprints(self) -> dict:
        return {"node": self.live.node_store.fingerprint(),
                "edge": self.live.edge_store.fingerprint()}

    def _pack_state(self, arrays: dict, meta: dict):
        live, log = self.live, self.live.log
        meta["stream"] = {"seq": int(log.seq),
                          "compacted_seq": int(log.compacted_seq),
                          "refreshed_seq": int(self._refreshed_seq),
                          "num_nodes": int(live.num_nodes),
                          "nodes_added": int(live.nodes_added),
                          "pending_pairs": sorted(
                              [int(i), int(j)]
                              for i, j in self._pending_pairs)}
        self.buffer.flush()      # the snapshot links the store's partitions
        return live.node_store

    def _restore_state(self, meta: dict, arrays) -> None:
        """The caller replays events from ``meta["stream"]
        ["compacted_seq"]`` on: later ones were log-only at snapshot time
        (the store fingerprints pin the compacted base). After a restart
        the fresh log is fast-forwarded to that horizon, so the stream
        cursors stay in one numbering."""
        stream = meta["stream"]
        self.buffer.reset()
        self.live.node_store.link_from(arrays.path)
        log = self.live.log
        horizon = int(stream["compacted_seq"])
        if log.seq < horizon:      # fresh log after a restart: align
            log.seq = horizon
            log.compacted_seq = horizon
        self._refreshed_seq = min(int(stream["refreshed_seq"]), log.seq)
        self._pending_pairs.clear()
        self._pending_pairs.update(
            (int(i), int(j)) for i, j in stream.get("pending_pairs", []))

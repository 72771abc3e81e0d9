"""Node classification training: in-memory and disk-based modes.

Node features are *fixed* base representations (Papers100M/Mag240M style), so
the disk store is read-only and the only learnable state is the GNN + head.
Disk-based training uses the Section 5.2 policy: training nodes are relabeled
into the first ``k`` partitions, those partitions are pinned in memory all
epoch, and the rest of the buffer is refilled with random partitions between
epochs — giving zero intra-epoch partition swaps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..api import registry as job_registry
from ..core.encoder import GNNEncoder
from ..core.sampler import DenseSampler
from ..graph.datasets import NodeClassificationDataset
from ..graph.edge_list import Graph
from ..graph.partition import PartitionScheme
from ..nn.decoders import ClassificationHead
from ..nn.loss import softmax_cross_entropy
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor, no_grad
from ..policies.node_cache import TrainingNodeCachePolicy
from ..storage.buffer import PartitionBuffer
from ..storage.edge_store import EdgeBucketStore
from ..storage.io_stats import IOStats
from ..storage.node_store import NodeStore
from .checkpoint import (SnapshotManager, _config_to_dict,
                         nc_dataset_fingerprint, pack_model, pack_optimizer,
                         resolve_snapshot, rng_state, set_rng_state,
                         unpack_model, unpack_optimizer, validate_meta)
from .evaluation import EpochRecord, multiclass_accuracy
from .hooks import ListenerHooks, ProgressListener


@dataclass
class NodeClassificationConfig:
    """Hyperparameters for node classification training."""

    encoder: str = "graphsage"
    hidden_dim: int = 64
    num_layers: int = 3
    fanouts: Tuple[int, ...] = (30, 20, 10)
    directions: str = "both"
    batch_size: int = 1000
    lr: float = 0.01
    dropout: float = 0.0
    num_epochs: int = 10
    eval_every: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.fanouts) != self.num_layers:
            raise ValueError("fanouts must have num_layers entries")


@dataclass
class NodeClassificationResult:
    epochs: List[EpochRecord]
    final_accuracy: float
    model_name: str

    @property
    def mean_epoch_seconds(self) -> float:
        if not self.epochs:
            return 0.0
        return float(np.mean([e.seconds for e in self.epochs]))


class NodeClassifier(Module):
    """GNN encoder + linear softmax head."""

    def __init__(self, config: NodeClassificationConfig, feat_dim: int,
                 num_classes: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        dims = [feat_dim] + [config.hidden_dim] * config.num_layers
        self.encoder = GNNEncoder(config.encoder, dims, final_activation="relu",
                                  dropout=config.dropout, rng=rng)
        self.head = ClassificationHead(config.hidden_dim, num_classes, rng=rng)

    def forward(self, h0: Tensor, batch) -> Tensor:
        return self.head(self.encoder(h0, batch))


class NodeClassificationTrainer(ListenerHooks):
    """In-memory trainer (M-GNN_Mem for Table 3).

    ``checkpoint_dir``/``checkpoint_every`` (in epochs) enable the atomic
    snapshot subsystem; :meth:`resume` restores the latest snapshot so a
    continued :meth:`train` is bit-identical to an uninterrupted run (the
    same epoch-granularity contract as :class:`LinkPredictionTrainer`).
    """

    KIND = job_registry.NC_MEM

    def __init__(self, dataset: NodeClassificationDataset,
                 config: Optional[NodeClassificationConfig] = None,
                 checkpoint_dir: Optional[Path] = None,
                 checkpoint_every: int = 0,
                 checkpoint_compress: bool = False,
                 listeners: Optional[Sequence[ProgressListener]] = None) -> None:
        self._init_hooks(listeners)
        self.dataset = dataset
        self.config = config or NodeClassificationConfig()
        cfg = self.config
        self.rng = np.random.default_rng(cfg.seed)
        graph = dataset.graph
        if graph.node_features is None or graph.node_labels is None:
            raise ValueError("node classification needs features and labels")
        self.model = NodeClassifier(cfg, graph.node_features.shape[1],
                                    dataset.num_classes, rng=self.rng)
        self.optimizer = Adam(self.model.parameters(), lr=cfg.lr)
        self.sampler = DenseSampler(graph, list(cfg.fanouts),
                                    directions=cfg.directions, rng=self.rng)
        self.snapshots = (SnapshotManager(checkpoint_dir,
                                          compress=checkpoint_compress)
                          if checkpoint_dir is not None else None)
        self.checkpoint_every = int(checkpoint_every)
        self._start_epoch = 0

    # ------------------------------------------------------------------
    def save_snapshot(self, next_epoch: int) -> Path:
        """Atomically snapshot model + optimizer + rng; resume at ``next_epoch``.

        Features and labels are immutable dataset state, so — like the disk
        NC trainer — the snapshot carries no table, only the dataset
        fingerprint to validate the data on resume.
        """
        if self.snapshots is None:
            raise RuntimeError("trainer was built without a checkpoint_dir")
        arrays: dict = {}
        pack_model(self.model, arrays)
        pack_optimizer("gnn_opt", self.optimizer, arrays)
        meta = {"trainer": self.KIND, "epoch": int(next_epoch),
                "rng": rng_state(self.rng),
                "stores": {"dataset": nc_dataset_fingerprint(self.dataset)},
                "config": _config_to_dict(self.config)}
        path = self.snapshots.save(next_epoch, meta, arrays)
        self._emit("snapshot", trainer=self.KIND, path=str(path),
                   epoch=int(next_epoch))
        return path

    def resume(self, path: Optional[Path] = None) -> dict:
        """Restore a snapshot (latest under the checkpoint dir by default)."""
        meta, arrays = resolve_snapshot(path, self.snapshots)
        validate_meta(meta, self.KIND, config=self.config,
                      stores={"dataset": nc_dataset_fingerprint(self.dataset)})
        unpack_model(self.model, arrays)
        unpack_optimizer("gnn_opt", self.optimizer, arrays)
        set_rng_state(self.rng, meta["rng"])
        self._start_epoch = int(meta["epoch"])
        return meta

    # ------------------------------------------------------------------
    def _train_batch(self, nodes: np.ndarray, sampler: DenseSampler,
                     features: np.ndarray, labels: np.ndarray,
                     record: EpochRecord) -> float:
        t0 = time.perf_counter()
        targets = np.unique(nodes)
        batch = sampler.sample(targets)
        t1 = time.perf_counter()
        h0 = Tensor(features[batch.node_ids])
        logits = self.model(h0, batch)
        loss = softmax_cross_entropy(logits, labels[targets])
        self.model.zero_grad()
        loss.backward()
        self.optimizer.step()
        record.sample_seconds += t1 - t0
        record.compute_seconds += time.perf_counter() - t1
        record.num_batches += 1
        return float(loss.data)

    def train(self, verbose: bool = False) -> NodeClassificationResult:
        cfg = self.config
        graph = self.dataset.graph
        records: List[EpochRecord] = []
        for epoch in range(self._start_epoch, cfg.num_epochs):
            t0 = time.perf_counter()
            record = EpochRecord(epoch=epoch, loss=0.0, seconds=0.0, metric=0.0)
            losses = []
            order = self.rng.permutation(self.dataset.train_nodes)
            for start in range(0, len(order), cfg.batch_size):
                nodes = order[start : start + cfg.batch_size]
                losses.append(self._train_batch(nodes, self.sampler,
                                                graph.node_features,
                                                graph.node_labels, record))
            record.seconds = time.perf_counter() - t0
            record.loss = float(np.mean(losses)) if losses else 0.0
            if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
                record.metric = self.evaluate(self.dataset.valid_nodes)
            records.append(record)
            self._emit("epoch", trainer=self.KIND, epoch=epoch,
                       loss=record.loss, seconds=record.seconds,
                       metric=record.metric)
            if (self.snapshots is not None and self.checkpoint_every
                    and (epoch + 1) % self.checkpoint_every == 0):
                self.save_snapshot(epoch + 1)
            if verbose:
                print(f"[epoch {epoch}] loss={record.loss:.4f} "
                      f"time={record.seconds:.1f}s acc={record.metric:.4f}")
        self._start_epoch = 0
        acc = self.evaluate(self.dataset.test_nodes)
        return NodeClassificationResult(epochs=records, final_accuracy=acc,
                                        model_name=f"{cfg.encoder}-mem")

    def evaluate(self, nodes: np.ndarray, batch_size: int = 1000) -> float:
        return evaluate_classifier(self.model, self.dataset.graph, nodes,
                                   self.config, batch_size=batch_size)


def evaluate_classifier(model: NodeClassifier, graph: Graph, nodes: np.ndarray,
                        config: NodeClassificationConfig,
                        batch_size: int = 1000, seed: int = 99) -> float:
    """Accuracy over ``nodes`` with full-graph neighborhood sampling."""
    rng = np.random.default_rng(seed)
    sampler = DenseSampler(graph, list(config.fanouts),
                           directions=config.directions, rng=rng)
    model.eval()
    preds = np.empty(len(nodes), dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    with no_grad():
        for start in range(0, len(nodes), batch_size):
            chunk = np.unique(nodes[start : start + batch_size])
            batch = sampler.sample(chunk)
            h0 = Tensor(graph.node_features[batch.node_ids])
            logits = model(h0, batch).data
            # chunk is sorted-unique; map back to the original positions
            pred_of = dict(zip(chunk.tolist(), logits.argmax(axis=1).tolist()))
            for offset, node in enumerate(nodes[start : start + batch_size]):
                preds[start + offset] = pred_of[int(node)]
    model.train()
    return multiclass_accuracy(preds, graph.node_labels[nodes])


# ---------------------------------------------------------------------------
# Disk-based node classification
# ---------------------------------------------------------------------------

def relabel_for_training_cache(dataset: NodeClassificationDataset,
                               num_partitions: int
                               ) -> Tuple[NodeClassificationDataset, np.ndarray, List[int]]:
    """Renumber nodes so training nodes fill the first partitions (Section 5.2).

    Returns ``(new_dataset, old_to_new, train_partitions)`` where
    ``train_partitions`` lists the partitions holding every training node.
    """
    graph = dataset.graph
    n = graph.num_nodes
    train = np.asarray(dataset.train_nodes, dtype=np.int64)
    is_train = np.zeros(n, dtype=bool)
    is_train[train] = True
    others = np.flatnonzero(~is_train)
    rng = np.random.default_rng(0)
    others = rng.permutation(others)
    new_order = np.concatenate([train, others])  # new id -> old id
    old_to_new = np.empty(n, dtype=np.int64)
    old_to_new[new_order] = np.arange(n, dtype=np.int64)

    new_graph = Graph(
        num_nodes=n,
        src=old_to_new[graph.src],
        dst=old_to_new[graph.dst],
        rel=graph.rel,
        num_relations=graph.num_relations,
        node_features=graph.node_features[new_order],
        node_labels=graph.node_labels[new_order],
        name=f"{graph.name}-cachelayout",
    )
    new_dataset = NodeClassificationDataset(
        graph=new_graph,
        train_nodes=old_to_new[dataset.train_nodes],
        valid_nodes=old_to_new[dataset.valid_nodes],
        test_nodes=old_to_new[dataset.test_nodes],
        stats=dataset.stats,
    )
    scheme = PartitionScheme.uniform(n, num_partitions)
    train_parts = sorted(set(int(x) for x in
                             scheme.partition_of(new_dataset.train_nodes)))
    return new_dataset, old_to_new, train_parts


@dataclass
class DiskNodeClassificationConfig:
    workdir: Path
    num_partitions: int = 16
    buffer_capacity: int = 8

    def __post_init__(self) -> None:
        self.workdir = Path(self.workdir)


class DiskNodeClassificationTrainer(ListenerHooks):
    """Out-of-core node classification with training-node caching.

    Sampling sees only the in-buffer subgraph, so neighborhoods can be
    smaller than in-memory training — the effect behind M-GNN_Disk's slight
    accuracy drop and faster epochs in Table 3.

    The feature store is immutable (``learnable=False``), so snapshots
    carry no table: every save is already rows-free and minimal.
    """

    KIND = job_registry.NC_DISK

    def __init__(self, dataset: NodeClassificationDataset,
                 config: Optional[NodeClassificationConfig] = None,
                 disk: Optional[DiskNodeClassificationConfig] = None,
                 checkpoint_dir: Optional[Path] = None,
                 checkpoint_every: int = 0,
                 checkpoint_compress: bool = False,
                 listeners: Optional[Sequence[ProgressListener]] = None) -> None:
        self._init_hooks(listeners)
        self.config = config or NodeClassificationConfig()
        self.disk = disk or DiskNodeClassificationConfig(workdir=Path("/tmp/repro-nc"))
        cfg, dsk = self.config, self.disk
        self.rng = np.random.default_rng(cfg.seed)
        self.dataset, self._old_to_new, train_parts = relabel_for_training_cache(
            dataset, dsk.num_partitions)
        graph = self.dataset.graph
        self.scheme = PartitionScheme.uniform(graph.num_nodes, dsk.num_partitions)
        self.io = IOStats()
        dsk.workdir.mkdir(parents=True, exist_ok=True)
        self.node_store = NodeStore(dsk.workdir / "features.bin", self.scheme,
                                    graph.node_features.shape[1], learnable=False,
                                    stats=self.io)
        self.node_store.initialize(values=graph.node_features)
        self.edge_store = EdgeBucketStore(dsk.workdir / "edges.bin", graph,
                                          self.scheme, stats=self.io)
        self.buffer = PartitionBuffer(self.node_store, dsk.buffer_capacity)
        # Swap listener keeps the partition-aware sampler index incremental:
        # only the buckets of partitions that entered the buffer are read.
        self.sampler = DenseSampler.from_partitions(
            self.scheme, self.edge_store.bucket_endpoints, (),
            list(cfg.fanouts), directions=cfg.directions, rng=self.rng)
        self.buffer.add_swap_listener(
            lambda added, removed: self.sampler.update_graph(added, removed))
        self.policy = TrainingNodeCachePolicy(dsk.num_partitions, dsk.buffer_capacity,
                                              train_parts, self.dataset.train_nodes,
                                              scheme=self.scheme)
        self.model = NodeClassifier(cfg, graph.node_features.shape[1],
                                    self.dataset.num_classes, rng=self.rng)
        self.optimizer = Adam(self.model.parameters(), lr=cfg.lr)
        self.snapshots = (SnapshotManager(checkpoint_dir,
                                          compress=checkpoint_compress)
                          if checkpoint_dir is not None else None)
        self.checkpoint_every = int(checkpoint_every)  # in epoch-plan steps
        self._start_epoch = 0
        self._start_step = 0
        self._steps_done = 0

    # ------------------------------------------------------------------
    def _store_fingerprints(self) -> dict:
        dsk = self.disk
        return {"node": self.node_store.fingerprint(),
                "edge": self.edge_store.fingerprint(),
                "plan": f"node-cache:p{dsk.num_partitions}"
                        f":c{dsk.buffer_capacity}"}

    def save_snapshot(self, epoch: int, next_step: int, num_steps: int) -> Path:
        """Atomic snapshot of the GNN + cursors; features are read-only.

        The feature store is immutable (``learnable=False``) and rebuilt
        bit-identically from the dataset on restart, so — unlike the link
        prediction trainers — the snapshot carries no table copy, only the
        store fingerprints to validate the layout on resume.
        """
        if self.snapshots is None:
            raise RuntimeError("trainer was built without a checkpoint_dir")
        if next_step >= num_steps:
            epoch, next_step = epoch + 1, 0
        arrays: dict = {}
        pack_model(self.model, arrays)
        pack_optimizer("gnn_opt", self.optimizer, arrays)
        meta = {"trainer": self.KIND, "epoch": int(epoch), "step": int(next_step),
                "resident": self.buffer.resident,
                "rng": rng_state(self.rng),
                "policy": self.policy.state_dict(),
                "stores": self._store_fingerprints(),
                "config": _config_to_dict(self.config)}
        path = self.snapshots.save(epoch * 1_000_000 + next_step, meta, arrays)
        self._emit("snapshot", trainer=self.KIND, path=str(path),
                   epoch=int(epoch), step=int(next_step))
        return path

    def resume(self, path: Optional[Path] = None) -> dict:
        """Restore the latest (or given) snapshot; next train() continues."""
        meta, arrays = resolve_snapshot(path, self.snapshots)
        validate_meta(meta, self.KIND, stores=self._store_fingerprints(),
                      config=self.config)
        unpack_model(self.model, arrays)
        unpack_optimizer("gnn_opt", self.optimizer, arrays)
        self.policy.load_state_dict(meta.get("policy", {}))
        self.buffer.drop_all()
        self.buffer.set_partitions(meta["resident"])
        set_rng_state(self.rng, meta["rng"])
        self._start_epoch = int(meta["epoch"])
        self._start_step = int(meta["step"])
        return meta

    # ------------------------------------------------------------------
    def train(self, verbose: bool = False) -> NodeClassificationResult:
        cfg = self.config
        records: List[EpochRecord] = []
        for epoch in range(self._start_epoch, cfg.num_epochs):
            start_step = self._start_step if epoch == self._start_epoch else 0
            record = self._train_epoch(epoch, start_step=start_step)
            if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
                record.metric = self.evaluate(self.dataset.valid_nodes)
            records.append(record)
            self._emit("epoch", trainer=self.KIND, epoch=epoch,
                       loss=record.loss, seconds=record.seconds,
                       metric=record.metric, io_bytes=record.io_bytes)
            if verbose:
                print(f"[epoch {epoch}] loss={record.loss:.4f} "
                      f"time={record.seconds:.1f}s io={record.io_bytes >> 20}MiB")
        self._start_epoch = 0
        self._start_step = 0
        acc = self.evaluate(self.dataset.test_nodes)
        return NodeClassificationResult(epochs=records, final_accuracy=acc,
                                        model_name=f"{cfg.encoder}-disk")

    def _train_epoch(self, epoch: int, start_step: int = 0) -> EpochRecord:
        cfg = self.config
        t0 = time.perf_counter()
        record = EpochRecord(epoch=epoch, loss=0.0, seconds=0.0, metric=0.0)
        io_before = self.io.snapshot()
        plan = self.policy.plan_epoch(epoch, rng=np.random.default_rng(epoch * 31 + 7))
        losses: List[float] = []
        for step_idx, step in enumerate(plan.steps):
            if step_idx < start_step:
                continue
            t_io = time.perf_counter()
            # The swap listener updates self.sampler's index incrementally.
            self.buffer.set_partitions(step.partitions)
            record.io_seconds += time.perf_counter() - t_io
            if len(step.train_nodes) > 0:
                order = self.rng.permutation(step.train_nodes)
                labels = self.dataset.graph.node_labels
                for start in range(0, len(order), cfg.batch_size):
                    nodes = np.unique(order[start : start + cfg.batch_size])
                    t1 = time.perf_counter()
                    batch = self.sampler.sample(nodes)
                    t2 = time.perf_counter()
                    h0 = Tensor(self.buffer.gather(batch.node_ids))
                    logits = self.model(h0, batch)
                    loss = softmax_cross_entropy(logits, labels[nodes])
                    self.model.zero_grad()
                    loss.backward()
                    self.optimizer.step()
                    record.sample_seconds += t2 - t1
                    record.compute_seconds += time.perf_counter() - t2
                    record.num_batches += 1
                    losses.append(float(loss.data))
            self._steps_done += 1
            if (self.snapshots is not None and self.checkpoint_every
                    and self._steps_done % self.checkpoint_every == 0):
                self.save_snapshot(epoch, step_idx + 1, len(plan.steps))
        io_epoch = self.io.diff(io_before)
        record.io_bytes = io_epoch.total_bytes
        record.partition_loads = io_epoch.partition_loads
        record.seconds = time.perf_counter() - t0
        record.loss = float(np.mean(losses)) if losses else 0.0
        return record

    def evaluate(self, nodes: np.ndarray, batch_size: int = 1000) -> float:
        """Full-graph in-memory evaluation (standard protocol)."""
        return evaluate_classifier(self.model, self.dataset.graph, nodes,
                                   self.config, batch_size=batch_size)

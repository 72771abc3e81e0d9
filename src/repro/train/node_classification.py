"""Node classification training: in-memory and disk-based modes.

Node features are *fixed* base representations (Papers100M/Mag240M style), so
the disk store is read-only and the only learnable state is the GNN + head.
Disk-based training uses the Section 5.2 policy: training nodes are relabeled
into the first ``k`` partitions, those partitions are pinned in memory all
epoch, and the rest of the buffer is refilled with random partitions between
epochs — giving zero intra-epoch partition swaps.
"""

from __future__ import annotations

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
from ..storage.node_store import NodeStore
from .checkpoint import Snapshot, nc_dataset_fingerprint
from .evaluation import EpochRecord, multiclass_accuracy
from .loop import ProgressListener, _TrainingLoop, _TrainingResult


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
class NodeClassificationResult(_TrainingResult):
    """Outcome of a node classification training run."""

    final_accuracy: float
    model_name: str


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


class _NodeClassificationLoop(_TrainingLoop):
    """What the two node classification trainers share around the loop:
    the NC batch step, evaluation and the result."""

    METRIC = "acc"

    @property
    def _gnn_optimizer(self) -> Adam:
        return self.optimizer

    def _train_nodes(self, nodes: np.ndarray, gather,
                     record: EpochRecord) -> List[float]:
        """Shuffled mini-batches over ``nodes``; ``gather(rows)`` returns
        the base representations of sampled node ids. The batch losses."""
        batch_size = self.config.batch_size
        labels = self.dataset.graph.node_labels
        order = self.rng.permutation(nodes)
        losses = []
        for start in range(0, len(order), batch_size):
            targets = np.unique(order[start : start + batch_size])
            batch = self.sampler.sample(targets)
            logits = self.model(Tensor(gather(batch.node_ids)), batch)
            loss = softmax_cross_entropy(logits, labels[targets])
            self.model.zero_grad()
            loss.backward()
            self.optimizer.step()
            record.num_batches += 1
            losses.append(float(loss.data))
        return losses

    def _epoch_metric(self) -> float:
        return self.evaluate(self.dataset.valid_nodes)

    def _result(self, records: List[EpochRecord]) -> NodeClassificationResult:
        return NodeClassificationResult(
            epochs=records, final_accuracy=self.evaluate(self.dataset.test_nodes),
            model_name=self._model_name())

    def evaluate(self, nodes: np.ndarray, batch_size: int = 1000) -> float:
        """Full-graph in-memory evaluation (standard protocol)."""
        return evaluate_classifier(self.model, self.dataset.graph, nodes,
                                   self.config, batch_size=batch_size)


class NodeClassificationTrainer(_NodeClassificationLoop):
    """In-memory trainer (M-GNN_Mem for Table 3).

    An epoch is one plan step over every training node. Snapshots carry
    no table — features and labels are immutable dataset state, pinned by
    the dataset fingerprint — and ``checkpoint_every`` counts epochs
    (:mod:`repro.train.loop`).
    """

    KIND = job_registry.NC_MEM

    def __init__(self, dataset: NodeClassificationDataset,
                 config: Optional[NodeClassificationConfig] = None,
                 checkpoint_dir: Optional[Path] = None,
                 checkpoint_every: int = 0,
                 listeners: Optional[Sequence[ProgressListener]] = None) -> None:
        super().__init__(config or NodeClassificationConfig(), checkpoint_dir,
                         checkpoint_every, listeners)
        self.dataset = dataset
        cfg = self.config
        graph = dataset.graph
        if graph.node_features is None or graph.node_labels is None:
            raise ValueError("node classification needs features and labels")
        self.model = NodeClassifier(cfg, graph.node_features.shape[1],
                                    dataset.num_classes, rng=self.rng)
        self.optimizer = Adam(self.model.parameters(), lr=cfg.lr)
        self.sampler = DenseSampler(graph, list(cfg.fanouts),
                                    directions=cfg.directions, rng=self.rng)

    def _run_step(self, steps, idx: int, record: EpochRecord) -> List[float]:
        features = self.dataset.graph.node_features
        return self._train_nodes(self.dataset.train_nodes,
                                 features.__getitem__, record)

    def _fingerprints(self) -> dict:
        return {"dataset": nc_dataset_fingerprint(self.dataset)}

    def _model_name(self) -> str:
        return f"{self.config.encoder}-mem"


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


class DiskNodeClassificationTrainer(_NodeClassificationLoop):
    """Out-of-core node classification with training-node caching.

    Sampling sees only the in-buffer subgraph, so neighborhoods can be
    smaller than in-memory training — the effect behind M-GNN_Disk's slight
    accuracy drop and faster epochs in Table 3. The batch step is the
    in-memory trainer's, gathering through the buffer, which swaps
    through the same :meth:`PartitionBuffer.load_step` as the disk link
    prediction trainer: when the training partitions do not fit, the
    fallback plan's next step is read ahead on the I/O thread.

    The feature store is immutable (``learnable=False``) and rebuilt
    bit-identically from the dataset on restart, so snapshots carry no
    table, only the store fingerprints plus buffer residency and policy
    state; ``checkpoint_every`` counts plan steps.
    """

    KIND = job_registry.NC_DISK

    def __init__(self, dataset: NodeClassificationDataset,
                 config: Optional[NodeClassificationConfig] = None,
                 disk: Optional[DiskNodeClassificationConfig] = None,
                 checkpoint_dir: Optional[Path] = None,
                 checkpoint_every: int = 0,
                 listeners: Optional[Sequence[ProgressListener]] = None) -> None:
        super().__init__(config or NodeClassificationConfig(), checkpoint_dir,
                         checkpoint_every, listeners)
        self.disk = disk or DiskNodeClassificationConfig(workdir=Path("/tmp/repro-nc"))
        cfg, dsk = self.config, self.disk
        self.dataset, self._old_to_new, train_parts = relabel_for_training_cache(
            dataset, dsk.num_partitions)
        graph = self.dataset.graph
        self.scheme = PartitionScheme.uniform(graph.num_nodes, dsk.num_partitions)
        dsk.workdir.mkdir(parents=True, exist_ok=True)
        self.node_store = NodeStore(dsk.workdir / "features", self.scheme,
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
        # Through the sampler, not the trainer: no reference cycle keeps a
        # dropped trainer's store files open, and a wrapper set on
        # ``sampler.update_graph`` later still sees every swap.
        sampler = self.sampler
        self.buffer.add_swap_listener(
            lambda added, removed: sampler.update_graph(added, removed))
        self.policy = TrainingNodeCachePolicy(dsk.num_partitions, dsk.buffer_capacity,
                                              train_parts, self.dataset.train_nodes,
                                              scheme=self.scheme)
        self.model = NodeClassifier(cfg, graph.node_features.shape[1],
                                    self.dataset.num_classes, rng=self.rng)
        self.optimizer = Adam(self.model.parameters(), lr=cfg.lr)

    # ------------------------------------------------------------------
    def _plan_epoch(self, epoch: int) -> list:
        return self.policy.plan_epoch(
            epoch, rng=np.random.default_rng(epoch * 31 + 7)).steps

    def _run_step(self, steps: list, idx: int,
                  record: EpochRecord) -> List[float]:
        step = steps[idx]
        next_parts = steps[idx + 1].partitions if idx + 1 < len(steps) else None
        # The swap listener updates self.sampler's index incrementally.
        self.buffer.load_step(step.partitions, next_parts)
        return self._train_nodes(step.train_nodes, self.buffer.gather, record)

    def _end_epoch(self) -> None:
        self.buffer.finish()

    def _fingerprints(self) -> dict:
        dsk = self.disk
        return {"node": self.node_store.fingerprint(),
                "edge": self.edge_store.fingerprint(),
                "plan": f"node-cache:p{dsk.num_partitions}"
                        f":c{dsk.buffer_capacity}"}

    def _pack_state(self, arrays: dict, meta: dict) -> None:
        meta["resident"] = self.buffer.resident
        meta["policy"] = self.policy.state_dict()

    def _restore_state(self, meta: dict, arrays: Snapshot) -> None:
        self.policy.load_state_dict(meta.get("policy", {}))
        self.buffer.reset()
        self.buffer.load_step(meta["resident"])

    def _model_name(self) -> str:
        return f"{self.config.encoder}-disk"

"""Link prediction training: in-memory and disk-based (COMET/BETA) modes.

The mini-batch lifecycle follows Figure 2 of the paper:

1. select training examples (edges) from X_i,
2. sample their multi-hop neighborhood into DENSE (CPU),
3. gather base representations and "transfer" to the compute device,
4. forward pass + loss + gradients,
5. update GNN parameters,
6. write base-representation updates back (to the table / partition buffer).

Both trainers share the same model, batch step and training loop
(:mod:`repro.train.loop`); the disk trainer layers a
:class:`~repro.storage.buffer.PartitionBuffer`, an epoch plan from the chosen
replacement policy, and in-buffer negative/neighbor restrictions on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.dense import DenseBatch
from ..core.encoder import GNNEncoder
from ..core.sampler import DenseSampler
from ..api import registry as job_registry
from ..graph.datasets import LinkPredictionDataset
from ..graph.edge_list import Graph
from ..graph.partition import PartitionScheme
from ..nn.decoders import make_decoder
from ..nn.loss import decoder_ranking_loss
from ..nn.module import Module
from ..nn.optim import Adam, RowAdagrad
from ..nn.tensor import Tensor, no_grad
from ..policies.base import EpochStep, PartitionPolicy
from ..storage.buffer import PartitionBuffer
from ..storage.edge_store import EdgeBucketStore
from ..storage.node_store import NodeStore
from .checkpoint import Snapshot, dataset_fingerprint
from .evaluation import EpochRecord, RankingMetrics, ranking_metrics, ranks_from_scores
from .loop import ProgressListener, _TrainingLoop, _TrainingResult
from .negative_sampling import UniformNegativeSampler


@dataclass
class LinkPredictionConfig:
    """Hyperparameters for link prediction training.

    ``encoder="none"`` gives the decoder-only knowledge-graph-embedding mode
    (Marius's DistMult rows in Table 8); otherwise a GNN encoder of
    ``num_layers`` layers with the given ``fanouts`` runs on top of the
    learnable base representations.
    """

    embedding_dim: int = 50
    encoder: str = "graphsage"          # none | graphsage | gcn | gat
    num_layers: int = 1
    fanouts: Tuple[int, ...] = (20,)
    directions: str = "both"
    decoder: str = "distmult"
    batch_size: int = 1000
    num_negatives: int = 100
    embedding_lr: float = 0.1
    gnn_lr: float = 0.01
    num_epochs: int = 5
    eval_negatives: int = 200
    eval_max_edges: int = 2000
    eval_every: int = 0                 # 0 = only at the end
    seed: int = 0

    def __post_init__(self) -> None:
        if self.encoder != "none" and len(self.fanouts) != self.num_layers:
            raise ValueError(
                f"fanouts {self.fanouts} must have num_layers={self.num_layers} entries"
            )
        if self.encoder == "none":
            self.num_layers = 0
            self.fanouts = ()


@dataclass
class TrainResult(_TrainingResult):
    """Outcome of a link prediction training run."""

    final_metrics: RankingMetrics
    model_name: str

    @property
    def final_mrr(self) -> float:
        return self.final_metrics.mrr


class LinkPredictionModel(Module):
    """Encoder (optional) + decoder over learnable base representations."""

    def __init__(self, config: LinkPredictionConfig, num_relations: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = config
        d = config.embedding_dim
        self.encoder: Optional[GNNEncoder] = None
        if config.encoder != "none":
            dims = [d] * (config.num_layers + 1)
            self.encoder = GNNEncoder(config.encoder, dims,
                                      final_activation=None, rng=rng)
        self.decoder = make_decoder(config.decoder, num_relations, d, rng=rng)

    def encode(self, h0: Tensor, batch: DenseBatch) -> Tensor:
        """Representations for ``batch.target_nodes()`` (h0 covers node_ids)."""
        if self.encoder is None:
            return h0
        return self.encoder(h0, batch)


class _EmbeddingTable:
    """In-memory learnable base representations with row Adagrad."""

    def __init__(self, num_nodes: int, dim: int, lr: float,
                 rng: np.random.Generator) -> None:
        scale = 1.0 / dim
        self.table = rng.uniform(-scale, scale, size=(num_nodes, dim)).astype(np.float32)
        self.state = np.zeros_like(self.table)
        self.optimizer = RowAdagrad(lr=lr)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        return self.table[rows]

    def apply(self, rows: np.ndarray, grads: np.ndarray) -> None:
        self.optimizer.update(self.table, self.state, rows, grads)


class _BatchStep:
    """The shared steps 1-6 of the mini-batch lifecycle."""

    def __init__(self, model: LinkPredictionModel, config: LinkPredictionConfig,
                 rng: np.random.Generator) -> None:
        self.model = model
        self.config = config
        self.rng = rng
        params = model.parameters()
        self.gnn_optimizer = Adam(params, lr=config.gnn_lr) if params else None

    def train_edges(self, edges: np.ndarray, sampler: DenseSampler,
                    negatives: UniformNegativeSampler, gather_fn, apply_fn,
                    record: EpochRecord) -> List[float]:
        """One pass over ``edges`` in shuffled mini-batches; their losses."""
        order = self.rng.permutation(len(edges))
        size = self.config.batch_size
        return [self.run(edges[order[start : start + size]], sampler,
                         negatives, gather_fn, apply_fn, record)
                for start in range(0, len(order), size)]

    def run(self, edges: np.ndarray, sampler: DenseSampler,
            negatives: UniformNegativeSampler, gather_fn, apply_fn,
            record: EpochRecord) -> float:
        src = edges[:, 0]
        dst = edges[:, -1]
        rel = edges[:, 1] if edges.shape[1] == 3 else np.zeros(len(edges), dtype=np.int64)

        neg_nodes = negatives.sample().nodes
        # One sort gives both the batch's target ids and each id's row.
        targets, rows = np.unique(np.concatenate([src, dst, neg_nodes]),
                                  return_inverse=True)
        if self.config.num_layers > 0:
            batch = sampler.sample(targets)
        else:
            batch = sampler.sample_no_neighbors(targets)

        h0 = Tensor(gather_fn(batch.node_ids), requires_grad=True)
        out = self.model.encode(h0, batch)
        loss = decoder_ranking_loss(
            self.model.decoder, out, rows[: len(src)],
            rows[len(src) : len(src) + len(dst)], rows[len(src) + len(dst) :],
            rel)

        self.model.zero_grad()
        loss.backward()
        if self.gnn_optimizer is not None:
            self.gnn_optimizer.step()
        if h0.grad is not None:
            apply_fn(batch.node_ids, h0.grad)
        record.num_batches += 1
        return float(loss.data)


class _LinkPredictionLoop(_TrainingLoop):
    """What the two link prediction trainers share around the loop."""

    METRIC = "mrr"

    @property
    def _gnn_optimizer(self) -> Optional[Adam]:
        return self.step_runner.gnn_optimizer

    def _epoch_metric(self) -> float:
        return self.evaluate().mrr

    def _result(self, records: List[EpochRecord]) -> TrainResult:
        return TrainResult(epochs=records, final_metrics=self.evaluate(),
                           model_name=self._model_name())

    def evaluate(self, edges: Optional[np.ndarray] = None,
                 seed: int = 1234) -> RankingMetrics:
        """Ranked MRR of test edges against sampled negative destinations,
        full-graph sampling over the trained table."""
        cfg = self.config
        if edges is None:
            edges = self.dataset.split.test
        if len(edges) > cfg.eval_max_edges:
            pick = np.random.default_rng(seed).choice(len(edges), cfg.eval_max_edges,
                                                      replace=False)
            edges = edges[pick]
        return evaluate_model(self.model, self._eval_gather(),
                              self.dataset.graph, edges, cfg, seed=seed)


class LinkPredictionTrainer(_LinkPredictionLoop):
    """Single-machine, full-graph-in-memory trainer (M-GNN_Mem).

    An epoch is one plan step: the whole training split in shuffled mini
    batches over an in-memory table. ``checkpoint_dir``/``checkpoint_every``
    (in epochs), :meth:`resume` and ``listeners`` are the shared loop's
    (:mod:`repro.train.loop`).
    """

    KIND = job_registry.LP_MEM

    def __init__(self, dataset: LinkPredictionDataset,
                 config: Optional[LinkPredictionConfig] = None,
                 checkpoint_dir: Optional[Path] = None,
                 checkpoint_every: int = 0,
                 listeners: Optional[Sequence[ProgressListener]] = None) -> None:
        super().__init__(config or LinkPredictionConfig(), checkpoint_dir,
                         checkpoint_every, listeners)
        self.dataset = dataset
        cfg = self.config
        graph = dataset.graph
        self.model = LinkPredictionModel(cfg, graph.num_relations, rng=self.rng)
        self.embeddings = _EmbeddingTable(graph.num_nodes, cfg.embedding_dim,
                                          cfg.embedding_lr, self.rng)
        self.sampler = DenseSampler(graph, list(cfg.fanouts),
                                    directions=cfg.directions, rng=self.rng)
        self.negatives = UniformNegativeSampler(graph.num_nodes, cfg.num_negatives,
                                                rng=self.rng)
        self.step_runner = _BatchStep(self.model, cfg, self.rng)

    @property
    def step(self) -> _BatchStep:
        """The batch step, the same object as ``step_runner``."""
        return self.step_runner

    def _run_step(self, steps, idx: int, record: EpochRecord) -> List[float]:
        return self.step_runner.train_edges(
            self.dataset.split.train, self.sampler, self.negatives,
            self.embeddings.gather, self.embeddings.apply, record)

    def _pack_state(self, arrays: dict, meta: dict) -> None:
        arrays["emb_table"] = self.embeddings.table
        arrays["emb_state"] = self.embeddings.state

    def _restore_state(self, meta: dict, arrays: Snapshot) -> None:
        self.embeddings.table[:] = arrays["emb_table"]
        self.embeddings.state[:] = arrays["emb_state"]

    def _fingerprints(self) -> dict:
        return {"dataset": dataset_fingerprint(self.dataset)}

    def _eval_gather(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.embeddings.gather

    def _model_name(self) -> str:
        return f"{self.config.encoder}-mem"


def evaluate_model(model: LinkPredictionModel,
                   gather: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
                   graph: Graph, edges: np.ndarray,
                   config: LinkPredictionConfig, seed: int = 1234,
                   batch_size: int = 512, all_candidates: bool = False,
                   triple_filter=None) -> RankingMetrics:
    """Shared MRR evaluation with full-graph sampling.

    ``gather(node_ids)`` returns the base representations of each batch's
    nodes (a table array is gathered by indexing): evaluation reads only
    the rows it scores.

    By default each positive is ranked against ``config.eval_negatives``
    sampled candidates (the OGB large-graph protocol). ``all_candidates=True``
    ranks against *every* graph node — the FB15k-237 protocol the paper uses
    in Table 8 ("all negatives for computing MRR"); practical only for small
    graphs. ``triple_filter`` (a :class:`~repro.train.evaluation.TripleFilter`)
    switches to filtered ranking.
    """
    if isinstance(gather, np.ndarray):
        gather = gather.__getitem__
    rng = np.random.default_rng(seed)
    sampler = DenseSampler(graph, list(config.fanouts),
                           directions=config.directions, rng=rng)
    model.eval()
    all_ranks = []
    with no_grad():
        for start in range(0, len(edges), batch_size):
            chunk = edges[start : start + batch_size]
            src = chunk[:, 0]
            dst = chunk[:, -1]
            rel = (chunk[:, 1] if chunk.shape[1] == 3
                   else np.zeros(len(chunk), dtype=np.int64))
            if all_candidates:
                negs = np.arange(graph.num_nodes, dtype=np.int64)
            else:
                negs = rng.integers(0, graph.num_nodes,
                                    size=config.eval_negatives, dtype=np.int64)
            targets, rows = np.unique(np.concatenate([src, dst, negs]),
                                      return_inverse=True)
            if config.num_layers > 0:
                batch = sampler.sample(targets)
            else:
                batch = sampler.sample_no_neighbors(targets)
            h0 = Tensor(gather(batch.node_ids))
            out = model.encode(h0, batch)
            src_repr = out.index_select(rows[: len(src)])
            dst_repr = out.index_select(rows[len(src) : len(src) + len(dst)])
            neg_repr = out.index_select(rows[len(src) + len(dst) :])
            pos = model.decoder.score_edges(src_repr, rel, dst_repr).data
            neg = model.decoder.score_against(src_repr, rel, neg_repr).data
            if all_candidates:
                # The true destination is among the candidates; exclude it
                # from its own comparison (it *is* the ranked positive).
                neg[np.arange(len(src)), dst] = -np.inf
            if triple_filter is not None:
                from .evaluation import filtered_ranks
                mask = triple_filter.mask(src, rel, negs)
                all_ranks.append(filtered_ranks(pos, neg, mask))
            else:
                all_ranks.append(ranks_from_scores(pos, neg))
    model.train()
    return ranking_metrics(np.concatenate(all_ranks) if all_ranks else np.empty(0))


def score_edges_offline(model: LinkPredictionModel, table: np.ndarray,
                        edges: np.ndarray, graph: Optional[Graph] = None,
                        seed: int = 1234) -> np.ndarray:
    """Offline decoder scores of ``edges`` against the full table.

    The scoring math of :func:`evaluate_model`'s positive edges, returned
    raw — the oracle the serving parity tests compare against. Decoder-only
    models need no graph; encoder models sample full-graph neighborhoods
    with a generator seeded by ``seed``.
    """
    edges = np.asarray(edges, dtype=np.int64)
    src = edges[:, 0]
    dst = edges[:, -1]
    rel = (edges[:, 1] if edges.shape[1] == 3
           else np.zeros(len(edges), dtype=np.int64))
    targets = np.unique(np.concatenate([src, dst]))
    was_training = model.training
    model.eval()
    with no_grad():
        if model.encoder is None:
            out = Tensor(table[targets])
        else:
            if graph is None:
                raise ValueError("encoder models need the graph to sample "
                                 "neighborhoods offline")
            sampler = DenseSampler(graph, list(model.config.fanouts),
                                   directions=model.config.directions,
                                   rng=np.random.default_rng(seed))
            batch = sampler.sample(targets)
            out = model.encode(Tensor(table[batch.node_ids]), batch)
        rows = np.searchsorted(targets, np.concatenate([src, dst]))
        src_repr = out.index_select(rows[: len(src)])
        dst_repr = out.index_select(rows[len(src):])
        scores = model.decoder.score_edges(src_repr, rel, dst_repr).data
    model.train(was_training)   # a serving engine's model stays in eval
    return scores


# ---------------------------------------------------------------------------
# Disk-based training
# ---------------------------------------------------------------------------

@dataclass
class DiskConfig:
    """Disk-based training setup (storage layout + replacement policy)."""

    workdir: Path
    num_partitions: int = 16
    num_logical: int = 8
    buffer_capacity: int = 4
    policy: str = "comet"               # comet | beta

    def __post_init__(self) -> None:
        self.workdir = Path(self.workdir)


class DiskLinkPredictionTrainer(_LinkPredictionLoop):
    """Out-of-core trainer: partition buffer + COMET/BETA epoch plans.

    Each epoch: the policy produces (S, X); for each step the buffer swaps to
    S_i (positional reads and writes of the partition files on an I/O thread:
    leaving partitions are written back and the next step's read into
    spare buffer slots meanwhile),
    the sampler re-indexes the in-buffer subgraph, and mini batches are
    drawn from X_i's buckets with negatives restricted to resident nodes.
    ``checkpoint_every`` counts plan steps, so snapshots land mid-epoch;
    each one hard-links the store's partition files
    (:mod:`repro.train.checkpoint`).
    """

    KIND = job_registry.LP_DISK

    def __init__(self, dataset: LinkPredictionDataset,
                 config: Optional[LinkPredictionConfig] = None,
                 disk: Optional[DiskConfig] = None,
                 checkpoint_dir: Optional[Path] = None,
                 checkpoint_every: int = 0,
                 listeners: Optional[Sequence[ProgressListener]] = None) -> None:
        super().__init__(config or LinkPredictionConfig(), checkpoint_dir,
                         checkpoint_every, listeners)
        self.dataset = dataset
        self.disk = disk or DiskConfig(workdir=Path("/tmp/repro-disk"))
        cfg, dsk = self.config, self.disk
        graph = self._train_graph()
        self.scheme = PartitionScheme.uniform(graph.num_nodes, dsk.num_partitions)
        dsk.workdir.mkdir(parents=True, exist_ok=True)
        self.node_store = NodeStore(dsk.workdir / "embeddings", self.scheme,
                                    cfg.embedding_dim, learnable=True, stats=self.io)
        self.node_store.initialize(rng=self.rng)
        self.edge_store = EdgeBucketStore(dsk.workdir / "edges.bin", graph,
                                          self.scheme, stats=self.io)
        self.buffer = PartitionBuffer(self.node_store, dsk.buffer_capacity,
                                      optimizer=RowAdagrad(lr=cfg.embedding_lr))
        # ``bench/training.py`` wraps ``buffer_manager.{load_step, finish}``.
        self.buffer_manager = self.buffer
        # Partition-aware sampler: buffer swaps report their diff and only
        # the new partitions' edge buckets are read + sorted (Section 6,
        # Quantity 2) instead of re-indexing the whole in-buffer subgraph.
        # A decoder-only model never samples neighbors, so its index is
        # never kept up to date.
        self.sampler = DenseSampler.from_partitions(
            self.scheme, self.edge_store.bucket_endpoints, (),
            list(cfg.fanouts), directions=cfg.directions, rng=self.rng)
        self.model = LinkPredictionModel(cfg, graph.num_relations, rng=self.rng)
        if self.model.encoder is not None:
            # Through the sampler, not the trainer: no reference cycle keeps a
            # dropped trainer's store files open, and a wrapper set on
            # ``sampler.update_graph`` later still sees every swap.
            sampler = self.sampler
            self.buffer.add_swap_listener(
                lambda added, removed: sampler.update_graph(added, removed))
        self.policy = self._make_policy()
        self.negatives = UniformNegativeSampler(graph.num_nodes, cfg.num_negatives,
                                                rng=self.rng)
        self.step_runner = _BatchStep(self.model, cfg, self.rng)

    # ------------------------------------------------------------------
    def _plan_epoch(self, epoch: int) -> List[EpochStep]:
        return self.policy.plan_epoch(
            epoch, rng=np.random.default_rng((epoch + 1) * 7919)).steps

    def _run_step(self, steps: List[EpochStep], idx: int,
                  record: EpochRecord) -> List[float]:
        step = steps[idx]
        next_parts = steps[idx + 1].partitions if idx + 1 < len(steps) else None
        # With an encoder, the swap listener updates self.sampler's index
        # incrementally.
        self.buffer.load_step(step.partitions, next_parts)
        self.negatives.set_allowed(self.buffer.resident_nodes())
        edges = self.edge_store.read_buckets(step.buckets)
        return self.step_runner.train_edges(
            edges, self.sampler, self.negatives, self.buffer.gather,
            self.buffer.apply_gradients, record)

    def _end_epoch(self) -> None:
        self.buffer.finish()

    # ------------------------------------------------------------------
    def _fingerprints(self) -> dict:
        # The plan entry pins everything the epoch-step cursor's meaning
        # depends on: a resume under a different policy or grouping would
        # skip steps of the WRONG plan.
        dsk = self.disk
        return {"node": self.node_store.fingerprint(),
                "edge": self.edge_store.fingerprint(),
                "plan": f"{dsk.policy}:p{dsk.num_partitions}"
                        f":l{dsk.num_logical}:c{dsk.buffer_capacity}"}

    def _pack_state(self, arrays: dict, meta: dict) -> NodeStore:
        meta["resident"] = self.buffer.resident
        meta["policy"] = self.policy.state_dict()
        # The snapshot links the store's files: flush the buffer's exact
        # values first (the same bytes an eviction would write later).
        self.buffer.flush()
        return self.node_store

    def _restore_state(self, meta: dict, arrays: Snapshot) -> None:
        self.buffer.reset()
        self.node_store.link_from(arrays.path)
        self.policy.load_state_dict(meta.get("policy", {}))
        self.buffer.load_step(meta["resident"])
        self.negatives.set_allowed(self.buffer.resident_nodes())

    # ------------------------------------------------------------------
    def _train_graph(self) -> Graph:
        """Training edges only, as a graph (disk stores what we train on)."""
        from ..graph.datasets import training_graph
        return training_graph(self.dataset)

    def _make_policy(self) -> PartitionPolicy:
        dsk = self.disk
        if dsk.policy == "comet":
            from ..policies.comet import CometPolicy
            return CometPolicy(dsk.num_partitions, dsk.num_logical, dsk.buffer_capacity)
        if dsk.policy == "beta":
            from ..policies.beta import BetaPolicy
            return BetaPolicy(dsk.num_partitions, dsk.buffer_capacity)
        raise ValueError(f"unknown policy {dsk.policy!r} (expected comet/beta)")

    def _eval_gather(self) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluation's row gather: the buffer flushed first, then
        positional reads of just the rows each batch scores."""
        self.buffer.flush()
        return self.node_store.gather_rows

    def _model_name(self) -> str:
        return f"{self.config.encoder}-disk-{self.disk.policy}"

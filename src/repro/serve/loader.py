"""Build serving engines from trained snapshots.

The restore path is the read-only one
(:func:`~repro.train.checkpoint.restore_for_inference`): only the model
parameter files and the node table's partition files are opened —
optimizer moments, policy state, RNG streams and training cursors are
never touched, so any snapshot a trainer can resume from can also be
served, and snapshots from a *finished* run (whose trainer state no longer
matters) serve equally well.

A disk snapshot's table files are the training store's own layout, so the
served :class:`NodeStore` opens them in place, read-only, after checking
each file's CRC: the serving workdir holds no table bytes. An lp-mem
snapshot's one ``emb_table.npy`` is written into a store under the serving
workdir, partitioned uniformly, and so is an NC job's feature table. A
disk snapshot's partition count, and an nc-disk snapshot's recorded store
fingerprint (ignoring the learnable flag — serving never carries
optimizer state), are checked against the served layout, so a
partition-count mismatch is rejected up front instead of silently
changing which rows a partition holds.
"""

from __future__ import annotations

import dataclasses
import os
import re
from pathlib import Path
from typing import Optional

import numpy as np

from ..api.registry import LP_SNAPSHOT_KINDS, NC_SNAPSHOT_KINDS
from ..graph.datasets import NodeClassificationDataset
from ..graph.edge_list import Graph
from ..graph.partition import PartitionScheme
from ..storage.edge_store import EdgeBucketStore
from ..storage.node_store import NodeStore
from ..train.checkpoint import (InferenceRestore, SnapshotError,
                                nc_dataset_fingerprint,
                                restore_for_inference)
from ..train.link_prediction import LinkPredictionConfig, LinkPredictionModel
from ..train.node_classification import (NodeClassificationConfig,
                                         NodeClassifier)
from .engine import ServingEngine

# Accepted snapshot kinds are owned by the job registry, so the serving
# loader cannot drift from the trainers' KIND strings.
LP_KINDS = LP_SNAPSHOT_KINDS
NC_KINDS = NC_SNAPSHOT_KINDS


def _config_from_meta(restore: InferenceRestore, config_cls):
    fields = {f.name for f in dataclasses.fields(config_cls)}
    kwargs = {k: v for k, v in restore.config.items() if k in fields}
    if "fanouts" in kwargs:
        kwargs["fanouts"] = tuple(kwargs["fanouts"])
    return config_cls(**kwargs)


def _partitions_from_meta(restore: InferenceRestore, num_nodes: int) -> int:
    """Partition count: the snapshot's plan fingerprint (``...:p16:...``)
    when the training store was partitioned, else a serving default."""
    plan = restore.store_fingerprint("plan") or ""
    match = re.search(r":p(\d+):", plan)
    if match:
        return int(match.group(1))
    return max(1, min(16, num_nodes))


def _check_store_fingerprint(restore: InferenceRestore, store: NodeStore) -> None:
    """Snapshot-recorded node layout vs the rebuilt serving store.

    Compares node count, dim, and the partition-boundary CRC; the learnable
    flag differs by design (training stores carry Adagrad state, serving
    stores never do).
    """
    recorded = restore.store_fingerprint("node")
    if recorded is None:
        return
    rec, new = recorded.split(":"), store.fingerprint().split(":")
    if (rec[1], rec[2], rec[4]) != (new[1], new[2], new[4]):
        raise SnapshotError(
            f"snapshot node store layout {recorded} does not match the "
            f"serving store {store.fingerprint()}; pass the training "
            f"partition count (num_partitions)")


def serve_link_prediction(snapshot: os.PathLike, workdir: os.PathLike,
                          num_partitions: Optional[int] = None,
                          buffer_capacity: int = 4,
                          graph: Optional[Graph] = None,
                          seed: int = 0) -> ServingEngine:
    """Serving engine over a link prediction snapshot (any LP trainer kind).

    ``graph`` (typically the training edge split) enables encode-on-read
    for encoder models: its edge buckets are written next to the served
    table and sampled through the sampler-resident subgraph. Decoder-only
    snapshots need no graph.
    """
    restore = restore_for_inference(snapshot)
    if restore.trainer_kind not in LP_KINDS:
        raise SnapshotError(
            f"snapshot was written by trainer {restore.trainer_kind!r}; "
            f"expected one of {LP_KINDS}")
    if restore.table_name is None:
        raise SnapshotError("snapshot carries no node table to serve")
    config = _config_from_meta(restore, LinkPredictionConfig)
    relations = restore.model_state.get("decoder.relations")
    num_relations = int(relations.shape[0]) if relations is not None else 1
    model = LinkPredictionModel(config, num_relations)
    model.load_state_dict(restore.model_state)

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    bounds = restore.tables.get(restore.table_name)
    if bounds is not None:      # the training store's own partition files
        if num_partitions not in (None, len(bounds) - 1):
            raise SnapshotError(
                f"snapshot node store layout has {len(bounds) - 1} "
                f"partitions, not {num_partitions}; pass the training "
                f"partition count (num_partitions)")
        restore.verify(f"{restore.table_name}/")
        scheme = PartitionScheme(bounds[-1], len(bounds) - 1,
                                 np.asarray(bounds, dtype=np.int64))
        store = NodeStore.open(restore.path, scheme, config.embedding_dim,
                               learnable=False, read_only=True)
    else:
        table = restore[restore.table_name]
        scheme = PartitionScheme.uniform(len(table), num_partitions or
                                         _partitions_from_meta(restore,
                                                               len(table)))
        store = NodeStore(workdir / "table", scheme, table.shape[1],
                          learnable=False)
        store.initialize(values=table)

    edge_source = None
    fanouts = ()
    if graph is not None and config.encoder != "none":
        edges = EdgeBucketStore(workdir / "serve-edges.bin", graph, scheme)
        edge_source = edges.bucket_endpoints
        fanouts = config.fanouts
    return ServingEngine(model, store, buffer_capacity,
                         edge_source=edge_source, fanouts=fanouts,
                         directions=config.directions, seed=seed)


def serve_node_classification(snapshot: os.PathLike,
                              dataset: NodeClassificationDataset,
                              workdir: os.PathLike,
                              num_partitions: Optional[int] = None,
                              buffer_capacity: int = 8,
                              seed: int = 0) -> ServingEngine:
    """Serving engine over a node classification snapshot.

    NC snapshots carry only the GNN + head (features are immutable), so the
    served table is the dataset's feature matrix, written to a read-only
    partitioned store. Queries use the dataset's node ids.
    """
    restore = restore_for_inference(snapshot)
    if restore.trainer_kind not in NC_KINDS:
        raise SnapshotError(
            f"snapshot was written by trainer {restore.trainer_kind!r}; "
            f"expected one of {NC_KINDS}")
    config = _config_from_meta(restore, NodeClassificationConfig)
    features = dataset.graph.node_features
    if features is None:
        raise ValueError("dataset has no node features to serve")
    # nc-mem snapshots record the dataset's content fingerprint (features,
    # labels, train split); a same-shape regeneration with different data
    # must be refused, not silently classified. (nc-disk snapshots pin
    # only the store layout — they were trained on a relabeled copy.)
    recorded = restore.store_fingerprint("dataset")
    if recorded is not None and recorded != nc_dataset_fingerprint(dataset):
        raise SnapshotError(
            f"snapshot was trained on a different dataset ({recorded} vs "
            f"{nc_dataset_fingerprint(dataset)}); regenerate the dataset "
            f"with the training parameters")
    model = NodeClassifier(config, features.shape[1], dataset.num_classes)
    model.load_state_dict(restore.model_state)

    num_nodes = dataset.graph.num_nodes
    p = num_partitions or _partitions_from_meta(restore, num_nodes)
    scheme = PartitionScheme.uniform(num_nodes, p)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    store = NodeStore(workdir / "serve-features", scheme,
                      features.shape[1], learnable=False)
    _check_store_fingerprint(restore, store)
    store.initialize(values=features)
    edges = EdgeBucketStore(workdir / "serve-edges.bin", dataset.graph, scheme)
    return ServingEngine(model, store, buffer_capacity,
                         edge_source=edges.bucket_endpoints,
                         fanouts=config.fanouts,
                         directions=config.directions, seed=seed)

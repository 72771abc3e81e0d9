"""Build serving engines from trained snapshots.

Serving opens the snapshot as a :class:`~repro.train.checkpoint.Snapshot`
and reads only its ``meta``, the ``model/*`` parameter files and the node
table's partition files, each CRC-checked: optimizer moments, policy
state, RNG streams and training cursors are never opened, so any snapshot
a trainer can resume from can also be served, and snapshots from a
*finished* run (whose trainer state no longer matters) serve equally well.

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
from typing import Optional, Sequence

import numpy as np

from ..api.registry import LP_SNAPSHOT_KINDS, NC_SNAPSHOT_KINDS
from ..graph.datasets import NodeClassificationDataset
from ..graph.edge_list import Graph
from ..graph.partition import PartitionScheme
from ..storage.edge_store import EdgeBucketStore
from ..storage.node_store import NodeStore
from ..train.checkpoint import (Snapshot, SnapshotError,
                                nc_dataset_fingerprint, unflatten_arrays)
from ..train.link_prediction import LinkPredictionConfig, LinkPredictionModel
from ..train.node_classification import (NodeClassificationConfig,
                                         NodeClassifier)
from .engine import ServingEngine

def _open(snapshot: Snapshot | os.PathLike, kinds: Sequence[str]) -> Snapshot:
    """The snapshot (opened here unless the caller already has), refused
    unless one of ``kinds`` wrote it. The accepted kinds are the job
    registry's, so the loader cannot drift from the trainers' strings."""
    snap = snapshot if isinstance(snapshot, Snapshot) else Snapshot(snapshot)
    kind = snap.meta.get("trainer", "")
    if kind not in kinds:
        raise SnapshotError(f"snapshot was written by trainer {kind!r}; "
                            f"expected one of {kinds}")
    return snap


def _config_from_meta(snap: Snapshot, config_cls):
    fields = {f.name for f in dataclasses.fields(config_cls)}
    kwargs = {k: v for k, v in snap.meta.get("config", {}).items()
              if k in fields}
    if "fanouts" in kwargs:
        kwargs["fanouts"] = tuple(kwargs["fanouts"])
    return config_cls(**kwargs)


def _partitions_from_meta(snap: Snapshot, num_nodes: int) -> int:
    """Partition count: the snapshot's plan fingerprint (``...:p16:...``)
    when the training store was partitioned, else a serving default."""
    plan = snap.meta.get("stores", {}).get("plan") or ""
    match = re.search(r":p(\d+):", plan)
    if match:
        return int(match.group(1))
    return max(1, min(16, num_nodes))


def _check_store_fingerprint(snap: Snapshot, store: NodeStore) -> None:
    """Snapshot-recorded node layout vs the rebuilt serving store.

    Compares node count, dim, and the partition-boundary CRC; the learnable
    flag differs by design (training stores carry Adagrad state, serving
    stores never do).
    """
    recorded = snap.meta.get("stores", {}).get("node")
    if recorded is None:
        return
    rec, new = recorded.split(":"), store.fingerprint().split(":")
    if (rec[1], rec[2], rec[4]) != (new[1], new[2], new[4]):
        raise SnapshotError(
            f"snapshot node store layout {recorded} does not match the "
            f"serving store {store.fingerprint()}; pass the training "
            f"partition count (num_partitions)")


def serve_link_prediction(snapshot: Snapshot | os.PathLike,
                          workdir: os.PathLike,
                          num_partitions: Optional[int] = None,
                          buffer_capacity: int = 4,
                          graph: Optional[Graph] = None,
                          seed: int = 0) -> ServingEngine:
    """Serving engine over a link prediction snapshot (any LP trainer kind):
    a ``snap-*`` directory, a checkpoint root, or an open :class:`Snapshot`.

    ``graph`` (typically the training edge split) enables encode-on-read
    for encoder models: its edge buckets are written next to the served
    table and sampled through the sampler-resident subgraph. Decoder-only
    snapshots need no graph.
    """
    snap = _open(snapshot, LP_SNAPSHOT_KINDS)
    table_name = next((name for name in ("node_table", "emb_table")
                       if name in snap), None)
    if table_name is None:
        raise SnapshotError("snapshot carries no node table to serve")
    config = _config_from_meta(snap, LinkPredictionConfig)
    state = unflatten_arrays("model", snap)
    relations = state.get("decoder.relations")
    num_relations = int(relations.shape[0]) if relations is not None else 1
    model = LinkPredictionModel(config, num_relations)
    model.load_state_dict(state)

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    bounds = snap.tables.get(table_name)
    if bounds is not None:      # the training store's own partition files
        if num_partitions not in (None, len(bounds) - 1):
            raise SnapshotError(
                f"snapshot node store layout has {len(bounds) - 1} "
                f"partitions, not {num_partitions}; pass the training "
                f"partition count (num_partitions)")
        snap.verify(f"{table_name}/")
        scheme = PartitionScheme(bounds[-1], len(bounds) - 1,
                                 np.asarray(bounds, dtype=np.int64))
        store = NodeStore.open(snap.path, scheme, config.embedding_dim,
                               learnable=False, read_only=True)
    else:
        table = snap[table_name]
        scheme = PartitionScheme.uniform(len(table), num_partitions or
                                         _partitions_from_meta(snap,
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


def serve_node_classification(snapshot: Snapshot | os.PathLike,
                              dataset: NodeClassificationDataset,
                              workdir: os.PathLike,
                              num_partitions: Optional[int] = None,
                              buffer_capacity: int = 8,
                              seed: int = 0) -> ServingEngine:
    """Serving engine over a node classification snapshot (a path or an
    open :class:`Snapshot`, as for :func:`serve_link_prediction`).

    NC snapshots carry only the GNN + head (features are immutable), so the
    served table is the dataset's feature matrix, written to a read-only
    partitioned store. Queries use the dataset's node ids.
    """
    snap = _open(snapshot, NC_SNAPSHOT_KINDS)
    config = _config_from_meta(snap, NodeClassificationConfig)
    features = dataset.graph.node_features
    if features is None:
        raise ValueError("dataset has no node features to serve")
    # nc-mem snapshots record the dataset's content fingerprint (features,
    # labels, train split); a same-shape regeneration with different data
    # must be refused, not silently classified. (nc-disk snapshots pin
    # only the store layout — they were trained on a relabeled copy.)
    recorded = snap.meta.get("stores", {}).get("dataset")
    if recorded is not None and recorded != nc_dataset_fingerprint(dataset):
        raise SnapshotError(
            f"snapshot was trained on a different dataset ({recorded} vs "
            f"{nc_dataset_fingerprint(dataset)}); regenerate the dataset "
            f"with the training parameters")
    model = NodeClassifier(config, features.shape[1], dataset.num_classes)
    model.load_state_dict(unflatten_arrays("model", snap))

    num_nodes = dataset.graph.num_nodes
    p = num_partitions or _partitions_from_meta(snap, num_nodes)
    scheme = PartitionScheme.uniform(num_nodes, p)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    store = NodeStore(workdir / "serve-features", scheme,
                      features.shape[1], learnable=False)
    _check_store_fingerprint(snap, store)
    store.initialize(values=features)
    edges = EdgeBucketStore(workdir / "serve-edges.bin", dataset.graph, scheme)
    return ServingEngine(model, store, buffer_capacity,
                         edge_source=edges.bucket_endpoints,
                         fanouts=config.fanouts,
                         directions=config.directions, seed=seed)

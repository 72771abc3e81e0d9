"""Serving subsystem tests: parity, in-place reads, encode, restore.

The load-bearing guarantees:

* **Golden parity** — scores served for held-out edges are bit-identical
  to offline scoring (`score_edges_offline`, the `evaluate_model` math) on
  the same snapshot.
* **In-place reads** — `get_embeddings` equals a full-table gather for
  arbitrary id sets, and lookups, scoring and top-k read the table map
  in place: no partition load, no swap.
* **Encode residency** — encode-on-read's resident set is a function of
  the query alone, so a seeded encode never depends on earlier queries.
* **Read-only restore** — a snapshot serves without its optimizer /
  policy / RNG state ever round-tripping through a trainer.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.graph import load_fb15k237, load_papers100m_mini
from repro.serve import (ServingEngine, serve_link_prediction,
                         serve_node_classification)
from repro.train import (DiskConfig, DiskLinkPredictionTrainer,
                         DiskNodeClassificationConfig,
                         DiskNodeClassificationTrainer, LinkPredictionConfig,
                         NodeClassificationConfig, Snapshot, SnapshotError,
                         score_edges_offline)
from repro.train.checkpoint import unflatten_arrays

LP_CFG = LinkPredictionConfig(embedding_dim=8, encoder="none",
                              decoder="distmult", batch_size=256,
                              num_negatives=16, num_epochs=1,
                              eval_negatives=16, eval_max_edges=50, seed=0)
NC_CFG = NodeClassificationConfig(hidden_dim=8, num_layers=1, fanouts=(4,),
                                  batch_size=128, num_epochs=1, seed=0)


@pytest.fixture(scope="module")
def lp_data():
    return load_fb15k237(scale=0.03, seed=0)


@pytest.fixture(scope="module")
def lp_snapshot(lp_data, tmp_path_factory):
    """One trained decoder-only disk snapshot shared by the module."""
    tmp = tmp_path_factory.mktemp("serve-lp")
    disk = DiskConfig(workdir=tmp / "work", num_partitions=8, num_logical=4,
                      buffer_capacity=4)
    trainer = DiskLinkPredictionTrainer(lp_data, LP_CFG, disk,
                                        checkpoint_dir=tmp / "ckpt")
    trainer.train()
    trainer.save_snapshot(1, 0, 1)
    return trainer.snapshots.latest(), trainer.node_store.read_all(), trainer


@pytest.fixture()
def lp_engine(lp_snapshot, tmp_path):
    snapshot, _, _ = lp_snapshot
    return serve_link_prediction(snapshot, tmp_path / "serve",
                                 buffer_capacity=2)


# ---------------------------------------------------------------------------
# In-place reads: served gather == full-table gather
# ---------------------------------------------------------------------------

def test_get_embeddings_matches_full_table(lp_snapshot, lp_engine):
    _, table, _ = lp_snapshot
    rng = np.random.default_rng(42)
    n = len(table)
    for size in (1, 7, 100, 1500):
        ids = rng.integers(0, n, size=size)      # dups, unordered
        got = lp_engine.get_embeddings(ids)
        np.testing.assert_array_equal(got, table[ids])
    # Read in place: no partition was loaded or swapped to serve them.
    assert lp_engine.buffer_capacity == 2
    assert lp_engine.store.stats.partition_loads == 0
    assert lp_engine.stats.swaps == 0


def test_queries_never_load_partitions(lp_data, lp_engine):
    """Embed, score and top-k (single and batched) leave the store's
    partition-load counter and the engine's swap counter exactly where
    they were."""
    io = lp_engine.store.stats
    loads = io.partition_loads
    lp_engine.get_embeddings(np.arange(0, lp_engine.store.num_nodes, 7))
    lp_engine.score_edges(lp_data.split.test[:50])
    lp_engine.topk_targets(3, 10)
    lp_engine.topk_targets_batch([3, 9, 27], 10)
    assert io.partition_loads == loads
    assert lp_engine.stats.swaps == 0
    assert io.bytes_read > 0          # in-place reads are still counted


def test_engine_validates_buffer_capacity(lp_engine):
    store = lp_engine.store
    with pytest.raises(ValueError, match="positive"):
        ServingEngine(lp_engine.model, store, 0)
    with pytest.raises(ValueError, match="exceeds partition count"):
        ServingEngine(lp_engine.model, store, store.num_partitions + 1)


def test_get_embeddings_edge_cases(lp_snapshot, lp_engine):
    _, table, _ = lp_snapshot
    assert lp_engine.get_embeddings(np.empty(0, dtype=np.int64)).shape == (0, 8)
    with pytest.raises(KeyError, match="out of range"):
        lp_engine.get_embeddings(np.array([len(table) + 5]))
    with pytest.raises(KeyError, match="out of range"):
        lp_engine.get_embeddings(np.array([-1]))


def test_disk_snapshot_is_served_in_place(lp_snapshot, lp_engine, tmp_path):
    """The served store is the snapshot's own partition files, opened
    read-only: the serving workdir holds no table bytes."""
    snapshot, _, _ = lp_snapshot
    store = lp_engine.store
    assert store.path == snapshot
    for part in range(store.num_partitions):
        rel = f"node_table/{part:05d}.npy"
        assert os.path.samefile(store.path / rel, snapshot / rel)
    assert sum(f.stat().st_size for f in (tmp_path / "serve").rglob("*")
               if f.is_file()) == 0


def test_lp_mem_snapshot_serves_the_trainers_table(lp_data, tmp_path):
    """An lp-mem snapshot (one ``emb_table.npy``) serves lookups and
    top-k answers over exactly the trainer's table."""
    from repro.train import LinkPredictionTrainer
    trainer = LinkPredictionTrainer(lp_data, LP_CFG,
                                    checkpoint_dir=tmp_path / "ckpt",
                                    checkpoint_every=1)
    trainer.train()
    table = trainer.embeddings.table
    engine = serve_link_prediction(trainer.snapshots.latest(),
                                   tmp_path / "serve", buffer_capacity=2)
    ids = np.random.default_rng(3).integers(0, len(table), 50)
    np.testing.assert_array_equal(engine.get_embeddings(ids), table[ids])
    n, src, k = len(table), 7, 10
    everything = np.stack([np.full(n, src), np.zeros(n, dtype=np.int64),
                           np.arange(n)], axis=1)
    full = score_edges_offline(trainer.model, table, everything)
    got, scores = engine.topk_targets(src, k)
    np.testing.assert_array_equal(full[got], scores)
    np.testing.assert_array_equal(scores, np.sort(full)[-k:][::-1])


# ---------------------------------------------------------------------------
# Golden parity: serve == offline evaluation scoring, bit for bit
# ---------------------------------------------------------------------------

def test_score_edges_bit_identical_to_offline(lp_data, lp_snapshot, lp_engine):
    snapshot, table, trainer = lp_snapshot
    held_out = lp_data.split.test[:300]
    served = lp_engine.score_edges(held_out)
    offline = score_edges_offline(trainer.model, table, held_out)
    np.testing.assert_array_equal(served, offline)


def test_scores_survive_restore_roundtrip(lp_data, lp_snapshot, tmp_path):
    """Parity holds for a model rebuilt purely from the snapshot (no live
    trainer objects involved on either side)."""
    snapshot, table, _ = lp_snapshot
    engine = serve_link_prediction(snapshot, tmp_path / "s2",
                                   buffer_capacity=3)
    held_out = lp_data.split.test[:100]
    offline = score_edges_offline(engine.model, table, held_out)
    np.testing.assert_array_equal(engine.score_edges(held_out), offline)


def test_topk_matches_full_scoring(lp_data, lp_snapshot, lp_engine):
    _, table, trainer = lp_snapshot
    n = len(table)
    src, rel, k = 5, 0, 10
    all_edges = np.stack([np.full(n, src), np.full(n, rel), np.arange(n)],
                         axis=1)
    full = score_edges_offline(trainer.model, table, all_edges)
    ids, scores = lp_engine.topk_targets(src, k, rel=rel)
    np.testing.assert_array_equal(np.sort(scores)[::-1],
                                  np.sort(full)[-k:][::-1])
    np.testing.assert_array_equal(full[ids], scores)
    # Excluded nodes never appear.
    ids_ex, _ = lp_engine.topk_targets(src, k, rel=rel,
                                       exclude=[int(ids[0]), src])
    assert int(ids[0]) not in ids_ex and src not in ids_ex
    # ... even when k covers the whole table: excluded candidates are
    # removed, not just masked, so the result shrinks instead.
    ids_all, scores_all = lp_engine.topk_targets(src, n, rel=rel,
                                                 exclude=[src])
    assert len(ids_all) == n - 1 and src not in ids_all
    assert np.isfinite(scores_all).all()


def test_relation_ids_are_range_checked(lp_engine):
    """A negative relation id used to wrap to the last relation and one
    past the table raised a raw IndexError; both are bad queries now."""
    num = lp_engine.decoder.num_relations
    for rel in (-1, num):
        with pytest.raises(KeyError, match="relation ids out of range"):
            lp_engine.topk_targets(3, 5, rel=rel)
        with pytest.raises(KeyError, match="relation ids out of range"):
            lp_engine.score_edges(np.array([[1, rel, 2]]))
    with pytest.raises(KeyError, match="relation ids out of range"):
        lp_engine.topk_targets_batch([1, 2], 5, rel=[0, num])
    lp_engine.topk_targets(3, 5, rel=num - 1)      # the last one is fine


def test_stats_count_each_query_once(lp_data, lp_engine):
    """Internal fetches (top-k source row, scoring endpoint gathers) must
    not inflate the request/lookup counters."""
    s = lp_engine.stats
    lp_engine.get_embeddings(np.array([0, 1, 2]))
    assert (s.requests, s.lookups) == (1, 3)
    lp_engine.topk_targets(0, 5)
    assert (s.requests, s.topk_queries, s.lookups) == (2, 1, 3)
    lp_engine.score_edges(lp_data.split.test[:4])
    assert (s.requests, s.edges_scored, s.lookups) == (3, 4, 3)


# ---------------------------------------------------------------------------
# Encode-on-read (GNN forward over the sampler-resident subgraph)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nc_snapshot(tmp_path_factory):
    data = load_papers100m_mini(num_nodes=600, num_edges=4800, feat_dim=8,
                                num_classes=5, seed=0)
    tmp = tmp_path_factory.mktemp("serve-nc")
    disk = DiskNodeClassificationConfig(workdir=tmp / "work",
                                        num_partitions=8, buffer_capacity=4)
    trainer = DiskNodeClassificationTrainer(data, NC_CFG, disk,
                                            checkpoint_dir=tmp / "ckpt")
    trainer.train()
    trainer.save_snapshot(1, 0, 1)
    return trainer.snapshots.latest(), data


def test_nc_classify_deterministic_and_paged(nc_snapshot, tmp_path):
    snapshot, data = nc_snapshot
    engine = serve_node_classification(snapshot, data, tmp_path / "serve",
                                       buffer_capacity=2)
    # Query nodes span all 8 partitions; capacity 2 forces chunked encoding.
    ids = np.arange(0, 600, 11)
    preds = engine.classify(ids, seed=7)
    assert preds.shape == ids.shape
    assert preds.min() >= 0 and preds.max() < 5
    np.testing.assert_array_equal(preds, engine.classify(ids, seed=7))
    assert engine.stats.nodes_encoded == 2 * len(ids)
    # Ascending chunks of 2: the last chunk stays resident.
    assert engine.sampler.index.partitions == [6, 7]
    # Empty queries keep the encoder's output width (hidden_dim, not the
    # feature dim), so downstream head matmuls stay well-shaped.
    assert engine.classify(np.empty(0, dtype=np.int64)).shape == (0,)
    assert engine.encode_nodes(np.empty(0, dtype=np.int64)).shape == (0, 8)


def test_seeded_encode_ignores_earlier_queries(nc_snapshot, tmp_path):
    """A seeded encode on an engine warmed by other queries equals the
    same call on a fresh engine: the sampler's resident set is the
    query's own partition chunk, whatever earlier queries left."""
    snapshot, data = nc_snapshot
    warm = serve_node_classification(snapshot, data, tmp_path / "warm",
                                     buffer_capacity=3)
    warm.encode_nodes(np.arange(500, 600, 3))           # partitions 6, 7
    warm.get_embeddings(np.arange(0, 600, 50))
    warm.classify(np.array([80, 160, 240]))             # unseeded
    ids = np.array([5, 90, 170, 333, 420, 599])
    got = warm.encode_nodes(ids, seed=11)
    fresh = serve_node_classification(snapshot, data, tmp_path / "fresh",
                                      buffer_capacity=3)
    np.testing.assert_array_equal(got, fresh.encode_nodes(ids, seed=11))
    # swaps counts partitions entering the sampler's resident set.
    assert fresh.stats.swaps == len(np.unique(fresh.scheme.partition_of(ids)))


def test_lp_encoder_serving(lp_data, tmp_path):
    """Encoder snapshots score through encode-on-read (sampled over the
    sampler-resident subgraph, reproducible under a fixed seed)."""
    cfg = LinkPredictionConfig(embedding_dim=8, encoder="graphsage",
                               num_layers=1, fanouts=(4,), batch_size=256,
                               num_negatives=16, num_epochs=1,
                               eval_negatives=16, eval_max_edges=50, seed=0)
    disk = DiskConfig(workdir=tmp_path / "work", num_partitions=8,
                      num_logical=4, buffer_capacity=4)
    trainer = DiskLinkPredictionTrainer(lp_data, cfg, disk,
                                        checkpoint_dir=tmp_path / "ckpt")
    trainer.train()
    trainer.save_snapshot(1, 0, 1)
    engine = serve_link_prediction(trainer.snapshots.latest(),
                                   tmp_path / "serve", buffer_capacity=4,
                                   graph=trainer._train_graph())
    targets = np.array([3, 10, 42])
    reprs = engine.encode_nodes(targets, seed=5)
    assert reprs.shape == (3, 8) and np.isfinite(reprs).all()
    np.testing.assert_array_equal(reprs, engine.encode_nodes(targets, seed=5))
    scores = engine.score_edges(lp_data.split.test[:20])
    assert scores.shape == (20,) and np.isfinite(scores).all()
    # top-k over raw table rows would rank inconsistently with the encoded
    # score_edges path; encoder snapshots must refuse it.
    with pytest.raises(RuntimeError, match="decoder-only"):
        engine.topk_targets(0, 5)


def test_decoder_only_encode_is_the_table_gather(lp_engine):
    # Decoder-only snapshots have no message passing: the node
    # representation IS the stored row, so encode-on-read degrades to the
    # row gather and every snapshot serves all four query families
    # (the serving-fleet endpoint contract). Classification still needs a
    # trained head.
    ids = np.array([1, 3, 2, 3])
    np.testing.assert_array_equal(lp_engine.encode_nodes(ids),
                                  lp_engine.get_embeddings(ids))
    with pytest.raises(RuntimeError, match="classification"):
        lp_engine.classify(np.array([1]))


# ---------------------------------------------------------------------------
# Inference-only restore
# ---------------------------------------------------------------------------

def test_restore_for_inference_reads_only_model_and_table(lp_snapshot,
                                                          tmp_path):
    """Serving opens the snapshot and CRC-checks only its ``model/`` and
    ``node_table/`` files: optimizer, policy and rng state stay untouched."""
    snapshot, table, _ = lp_snapshot
    snap = Snapshot(snapshot)
    assert snap.meta["trainer"] == "lp-disk"
    assert snap.meta["config"]["encoder"] == "none"
    engine = serve_link_prediction(snap, tmp_path / "serve")
    np.testing.assert_array_equal(engine.get_embeddings(np.arange(9)),
                                  table[:9])
    assert {rel.partition("/")[0] for rel in snap._checked} == {
        "model", "node_table"}
    state = unflatten_arrays("model", snap)
    assert "decoder.relations" in state
    assert not any(k.startswith("gnn_opt") for k in state)
    np.testing.assert_array_equal(snap["node_table"], table)
    engine.store.close()


def test_damaged_optimizer_state_still_serves_but_not_resumes(
        lp_data, lp_snapshot, tmp_path):
    """Serving opens only the model and node_table files: one flipped byte
    in a node_state partition file leaves the snapshot's table readable
    and a serve job answering, while a resume refuses the snapshot."""
    from repro import api
    snapshot, table, _ = lp_snapshot
    damaged = tmp_path / "ckpt" / snapshot.name
    shutil.copytree(snapshot, damaged)
    victim = damaged / "node_state" / "00003.npy"
    payload = bytearray(victim.read_bytes())
    payload[-1] ^= 0xFF
    victim.write_bytes(bytes(payload))

    np.testing.assert_array_equal(Snapshot(damaged)["node_table"], table)
    job = api.build_job(api.JobSpec(
        kind="serve", serve=api.ServeSpec(snapshot=str(damaged)),
        storage=api.StorageSpec(workdir=str(tmp_path / "serve"))))
    np.testing.assert_array_equal(job.engine.get_embeddings(np.arange(9)),
                                  table[:9])

    resumed = DiskLinkPredictionTrainer(
        lp_data, LP_CFG, DiskConfig(workdir=tmp_path / "w", num_partitions=8,
                                    num_logical=4, buffer_capacity=4))
    with pytest.raises(SnapshotError, match="CRC.*node_state/00003"):
        resumed.resume(damaged)


def test_serve_rejects_wrong_kind_and_layout(lp_snapshot, nc_snapshot,
                                             tmp_path):
    lp_snap, _, _ = lp_snapshot
    nc_snap, nc_data = nc_snapshot
    with pytest.raises(SnapshotError, match="expected one of"):
        serve_link_prediction(nc_snap, tmp_path / "a")
    with pytest.raises(SnapshotError, match="expected one of"):
        serve_node_classification(lp_snap, nc_data, tmp_path / "b")
    # Partition-count mismatch vs the snapshot's recorded layout.
    with pytest.raises(SnapshotError, match="layout"):
        serve_link_prediction(lp_snap, tmp_path / "c", num_partitions=5)


def test_nc_mem_snapshot_serves_and_pins_dataset(tmp_path):
    """nc-mem snapshots serve directly, and their recorded dataset
    fingerprint rejects a same-shape regeneration with different data."""
    from repro.train import NodeClassificationTrainer
    data = load_papers100m_mini(num_nodes=300, num_edges=2400, feat_dim=8,
                                num_classes=5, seed=0)
    cfg = NodeClassificationConfig(hidden_dim=16, num_layers=1, fanouts=(4,),
                                   batch_size=128, num_epochs=1, seed=0)
    trainer = NodeClassificationTrainer(data, cfg,
                                        checkpoint_dir=tmp_path / "ckpt",
                                        checkpoint_every=1)
    trainer.train()
    snapshot = trainer.snapshots.latest()
    engine = serve_node_classification(snapshot, data, tmp_path / "serve",
                                       buffer_capacity=2)
    preds = engine.classify(np.arange(20), seed=1)
    assert preds.shape == (20,)
    # hidden_dim (16) differs from feat_dim (8): empty queries must keep
    # the encoder's output width so the head matmul stays well-shaped.
    assert engine.encode_nodes(np.empty(0, dtype=np.int64)).shape == (0, 16)
    assert engine.classify(np.empty(0, dtype=np.int64)).shape == (0,)
    other = load_papers100m_mini(num_nodes=300, num_edges=2400, feat_dim=8,
                                 num_classes=5, seed=9)
    with pytest.raises(SnapshotError, match="different dataset"):
        serve_node_classification(snapshot, other, tmp_path / "serve2")


def test_serve_accepts_checkpoint_root(lp_snapshot, tmp_path):
    snapshot, table, _ = lp_snapshot
    engine = serve_link_prediction(snapshot.parent, tmp_path / "serve",
                                   buffer_capacity=2)
    np.testing.assert_array_equal(engine.get_embeddings(np.arange(5)),
                                  table[:5])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_serve_cli_smoke(lp_snapshot, tmp_path, capsys):
    from repro.cli import main
    snapshot, _, _ = lp_snapshot
    spec = tmp_path / "serve.json"
    spec.write_text(json.dumps({"kind": "serve",
                                "serve": {"snapshot": str(snapshot)}}))
    rc = main(["run", str(spec),
               "--set", f"storage.workdir={tmp_path / 'cli'}",
               "--set", "serve.embed=1,2", "--set", "serve.topk=[5,3]",
               "--set", 'serve.score=["5:10"]', "--set", "serve.bench=200",
               "--set", "serve.mix=zipf"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "top-3 targets" in out and "QPS" in out and "score(5:10)" in out

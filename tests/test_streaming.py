"""Streaming subsystem tests: the streamed-vs-rebuilt equivalence property.

The contract under test (docs/streaming.md): after **any** interleaving of
edge insertions, deletions, node additions, and compactions, the live view
must answer queries, sample neighborhoods, and train **bit-identically** to
an offline preprocess of the final edge list (bucketed with the same
partition scheme, including the last-partition growth rule). A python-side
reference edge list is maintained alongside every randomized stream and the
two worlds are compared structure-for-structure.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.sampler import DenseSampler
from repro.graph.edge_list import Graph
from repro.graph.partition import PartitionScheme
from repro.serve.engine import ServingEngine
from repro.storage.edge_store import EdgeBucketStore
from repro.storage.node_store import NodeStore
from repro.stream import (BackgroundCompactor, Compactor, ContinualTrainer,
                          GraphDeltaLog, LiveGraph, SharedExclusiveLock,
                          WriteAheadLog, pack_pairs)
from tests.faultinject import CrashPoint, FaultInjector, SimulatedCrash
from repro.train import LinkPredictionConfig
from repro.train.link_prediction import LinkPredictionModel

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def make_live(tmp_path, num_nodes=120, num_edges=600, p=6, dim=8,
              with_rel=False, seed=0, name="live", wal=False, fsync_every=1,
              wal_segment_bytes=4 << 20) -> LiveGraph:
    rng = np.random.default_rng(seed)
    graph = Graph(num_nodes=num_nodes,
                  src=rng.integers(0, num_nodes, num_edges),
                  dst=rng.integers(0, num_nodes, num_edges),
                  rel=rng.integers(0, 4, num_edges) if with_rel else None,
                  num_relations=4 if with_rel else 1)
    scheme = PartitionScheme.uniform(num_nodes, p)
    store = NodeStore(tmp_path / f"{name}-nodes.bin", scheme, dim,
                      learnable=True)
    store.initialize(rng=np.random.default_rng(seed + 1))
    edges = EdgeBucketStore(tmp_path / f"{name}-edges.bin", graph, scheme)
    return LiveGraph(store, edges, seed=seed + 7,
                     wal_dir=tmp_path / f"{name}-wal" if wal else None,
                     fsync_every=fsync_every,
                     wal_segment_bytes=wal_segment_bytes)


def takes_side(rw: SharedExclusiveLock, side: str,
               timeout: float = 1.0) -> bool:
    """Whether a fresh thread acquires ``rw``'s ``side`` ("shared" or
    "exclusive") within ``timeout`` seconds."""
    got = threading.Event()

    def take():
        with getattr(rw, side)():
            got.set()

    threading.Thread(target=take, daemon=True).start()
    return got.wait(timeout=timeout)


def recover_live(tmp_path, base_nodes, p=6, dim=8, seed=0,
                 name="live") -> LiveGraph:
    """The crash-recovery composition (mirrors StreamJob's build): reattach
    the durable stores at the *acknowledged* node count, restore the delta
    log from the WAL, replay the suffix."""
    wal_dir = tmp_path / f"{name}-wal"
    recovery = WriteAheadLog.scan(wal_dir)
    acked = max(base_nodes, recovery.num_nodes, recovery.max_nodes_recorded)
    nodes_path = tmp_path / f"{name}-nodes.bin"
    file_rows = NodeStore.stored_rows(nodes_path)
    attach = min(acked, file_rows)
    scheme = PartitionScheme.uniform(base_nodes, p).extended(
        attach - base_nodes)
    store = NodeStore.open(nodes_path, scheme, dim, learnable=True,
                           truncate=True)
    edges = EdgeBucketStore.open(tmp_path / f"{name}-edges.bin", scheme)
    live = LiveGraph(store, edges, seed=seed + 7)
    frames = live.log.restore(edges.compacted_seq, recovery, wal_dir=wal_dir)
    live.replay_wal(frames)
    return live


def base_order_edges(live: LiveGraph) -> np.ndarray:
    """The base file's bucket-major edge array — the reference list's seed."""
    p = live.num_partitions
    chunks = [live.edge_store.read_bucket(i, j, record_io=False)
              for i in range(p) for j in range(p)]
    return np.concatenate(chunks, axis=0)


def apply_delete(ref: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Reference deletion semantics: remove every matching occurrence."""
    keep = np.ones(len(ref), dtype=bool)
    for row in rows:
        keep &= ~(ref == row).all(axis=1)
    return ref[keep]


def drive_random_stream(live: LiveGraph, compactor: Compactor,
                        rng: np.random.Generator, steps: int,
                        compact_prob: float = 0.15) -> np.ndarray:
    """Random ingest/compact interleaving; returns the reference final edge
    list (maintained independently of the code under test)."""
    ref = base_order_edges(live)
    width = live.width
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.50:
            n = int(rng.integers(1, 40))
            ins = np.empty((n, width), dtype=np.int64)
            ins[:, 0] = rng.integers(0, live.num_nodes, n)
            ins[:, -1] = rng.integers(0, live.num_nodes, n)
            if width == 3:
                ins[:, 1] = rng.integers(0, 4, n)
            live.insert_edges(ins)
            ref = np.concatenate([ref, ins], axis=0)
        elif roll < 0.70 and len(ref):
            n = int(rng.integers(1, 10))
            rows = ref[rng.integers(0, len(ref), n)]
            live.delete_edges(rows)
            ref = apply_delete(ref, rows)
        elif roll < 0.70 + compact_prob:
            compactor.compact()
        else:
            live.add_nodes(int(rng.integers(1, 8)))
    return ref


def rebuild_offline(tmp_path, live: LiveGraph, ref: np.ndarray,
                    name="rebuilt") -> EdgeBucketStore:
    """Offline preprocess of the final edge list under the live scheme."""
    graph = Graph(num_nodes=live.num_nodes, src=ref[:, 0], dst=ref[:, -1],
                  rel=ref[:, 1] if live.width == 3 else None,
                  num_relations=live.edge_store.num_relations)
    return EdgeBucketStore(tmp_path / f"{name}-edges.bin", graph, live.scheme)


# ---------------------------------------------------------------------------
# Delta log
# ---------------------------------------------------------------------------

class TestDeltaLog:
    def test_spill_roundtrip(self, tmp_path):
        """Journal reads equal an independent filter of the appended
        events, across segment rotations and remaps of the active segment
        (reads interleave with appends)."""
        rng = np.random.default_rng(0)
        log = GraphDeltaLog(4, journal_dir=tmp_path / "journal",
                            wal_segment_bytes=600)
        ref = np.empty((0, 6), dtype=np.int64)   # op, src, dst, bi, bj, seq
        for step in range(30):
            n = int(rng.integers(1, 20))
            op = int(rng.integers(0, 2))
            src = rng.integers(0, 100, n)
            dst = rng.integers(0, 100, n)
            bi, bj = src % 4, dst % 4
            lo, hi = log.append(op, src, dst, None, bi, bj)
            assert (lo, hi) == (len(ref), len(ref) + n)
            # Seqs follow the batch's stable sort by bucket.
            seq = np.empty(n, dtype=np.int64)
            seq[np.argsort(bi * 4 + bj, kind="stable")] = np.arange(lo, hi)
            ref = np.concatenate([ref, np.stack(
                [np.full(n, op), src, dst, bi, bj, seq], axis=1)])
            if step % 3 == 0:
                i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
                self._check_bucket(log, ref, i, j,
                                   int(rng.integers(0, log.seq + 1)))
        assert log.wal.stats()["rotations"] > 0
        for i in range(4):
            for j in range(4):
                self._check_bucket(log, ref, i, j, log.seq)

    @staticmethod
    def _check_bucket(log, ref, i, j, upto):
        events = log.events_for_bucket(i, j, upto_seq=upto)
        want = ref[(ref[:, 3] == i) & (ref[:, 4] == j) & (ref[:, 5] < upto)]
        for col, k in (("op", 0), ("src", 1), ("dst", 2), ("seq", 5)):
            assert np.array_equal(events[col], want[:, k]), col

    def test_mark_compacted_forgets(self, tmp_path):
        log = GraphDeltaLog(4, journal_dir=tmp_path / "journal",
                            wal_segment_bytes=256)
        for k in range(5):
            ids = np.arange(4 * k, 4 * k + 4)
            log.append(0, ids, ids, None, ids % 4, ids % 4)
        segments = sorted((tmp_path / "journal").glob("wal-*.log"))
        assert len(segments) > 1 and log.pending_events == 20
        log.mark_compacted(log.seq)
        assert log.pending_events == 0
        # Every closed segment was covered, so only the active one is left.
        assert sorted((tmp_path / "journal").glob("wal-*.log")) == \
            segments[-1:]
        for i in range(4):
            assert len(log.events_for_bucket(i, i)["seq"]) == 0

    def test_reads_race_compaction_deleting_segments(self, tmp_path):
        """A bucket read racing compaction never trips over a deleted
        segment, and arrays it returned stay readable afterwards."""
        log = GraphDeltaLog(4, journal_dir=tmp_path / "journal",
                            wal_segment_bytes=256)
        ids = np.arange(8)
        kept = log.events_for_bucket(0, 0)
        stop, errors = threading.Event(), []

        def read():
            while not stop.is_set():
                try:
                    for i in range(4):
                        log.events_for_bucket(i, i)["src"].sum()
                except Exception as exc:   # noqa: BLE001 - reported below
                    errors.append(exc)
                    return

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for step in range(300):
                log.append(0, ids, ids, None, ids % 4, ids % 4)
                if step == 0:
                    kept = log.events_for_bucket(0, 0)
                if step % 5 == 4:
                    log.mark_compacted(log.seq - 8)
        finally:
            stop.set()
            reader.join(timeout=60)
        assert not errors
        assert kept["src"].tolist() == [0, 4]
        assert log.wal.stats()["truncated_segments"] > 0

    def test_scratch_journal_opens_empty_over_stale_segments(self, tmp_path):
        first = GraphDeltaLog(4, journal_dir=tmp_path / "journal")
        ids = np.arange(8)
        first.append(0, ids, ids, None, ids % 4, ids % 4)
        first.close()
        stale = sorted((tmp_path / "journal").glob("wal-*.log"))
        assert stale and stale[0].stat().st_size > 0
        second = GraphDeltaLog(4, journal_dir=tmp_path / "journal")
        assert second.wal is None                # opened on first append
        second.append(0, ids[:2], ids[:2], None, ids[:2] % 4, ids[:2] % 4)
        assert [len(second.events_for_bucket(i, i)["seq"])
                for i in range(4)] == [1, 1, 0, 0]
        assert second.wal.stats()["frames"] == 1
        assert WriteAheadLog.scan(tmp_path / "journal").max_seq == 2

    def test_one_frame_per_append(self, tmp_path):
        log = GraphDeltaLog(4, journal_dir=tmp_path / "journal")
        rng = np.random.default_rng(1)
        for _ in range(7):
            src = rng.integers(0, 40, 25)
            dst = rng.integers(0, 40, 25)
            log.append(0, src, dst, None, src % 4, dst % 4)
        log.append(0, np.empty(0), np.empty(0), None, np.empty(0),
                   np.empty(0))                  # empty batch: no frame
        assert log.wal.stats()["frames"] == 7

    def test_horizon_cannot_move_backwards(self):
        log = GraphDeltaLog(2)
        log.append(0, np.array([1]), np.array([1]), None,
                   np.array([0]), np.array([0]))
        log.mark_compacted(1)
        with pytest.raises(ValueError):
            log.mark_compacted(0)


# ---------------------------------------------------------------------------
# The equivalence property
# ---------------------------------------------------------------------------

class TestStreamedVsRebuilt:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("with_rel", [False, True])
    def test_buckets_match_offline_rebuild(self, tmp_path, seed, with_rel):
        """Property: every composed bucket equals the offline rebuild's,
        for random ingest/delete/add-node/compact interleavings."""
        live = make_live(tmp_path, with_rel=with_rel, seed=seed)
        rng = np.random.default_rng(100 + seed)
        ref = drive_random_stream(live, Compactor(live), rng, steps=40)
        rebuilt = rebuild_offline(tmp_path, live, ref)
        p = live.num_partitions
        for i in range(p):
            for j in range(p):
                assert np.array_equal(
                    live.bucket_edges(i, j, record_io=False),
                    rebuilt.read_bucket(i, j, record_io=False)), (i, j)
        assert live.num_live_edges() == len(ref)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sampling_bit_identical(self, tmp_path, seed):
        """The partition-aware index over the live view draws the same
        neighbors as one over the rebuild, bit for bit."""
        live = make_live(tmp_path, seed=seed)
        rng = np.random.default_rng(200 + seed)
        ref = drive_random_stream(live, Compactor(live), rng, steps=30)
        rebuilt = rebuild_offline(tmp_path, live, ref)
        parts = [0, 2, 5]
        for replace in (True, False):
            s_live = DenseSampler.from_partitions(
                live.scheme, live.bucket_endpoints, parts, [5, 3],
                rng=np.random.default_rng(42))
            s_built = DenseSampler.from_partitions(
                live.scheme, rebuilt.bucket_endpoints, parts, [5, 3],
                rng=np.random.default_rng(42))
            targets = np.unique(rng.integers(0, live.num_nodes, 40))
            nbrs_a, off_a = s_live.index.sample_one_hop(
                targets, 4, np.random.default_rng(7), replace=replace)
            nbrs_b, off_b = s_built.index.sample_one_hop(
                targets, 4, np.random.default_rng(7), replace=replace)
            assert np.array_equal(nbrs_a, nbrs_b)
            assert np.array_equal(off_a, off_b)
            a, b = s_live.sample(targets), s_built.sample(targets)
            assert np.array_equal(a.node_ids, b.node_ids)

    def test_compaction_preserves_view_and_updates_fingerprints(self, tmp_path):
        live = make_live(tmp_path, seed=3)
        rng = np.random.default_rng(33)
        drive_random_stream(live, Compactor(live), rng, steps=15,
                            compact_prob=0.0)
        p = live.num_partitions
        pre = [live.bucket_edges(i, j, record_io=False)
               for i in range(p) for j in range(p)]
        fp_before = live.edge_store.fingerprint()
        report = Compactor(live).compact()
        post = [live.bucket_edges(i, j, record_io=False)
                for i in range(p) for j in range(p)]
        for a, b in zip(pre, post):
            assert np.array_equal(a, b)
        assert live.log.pending_events == 0
        assert report.merged_events > 0
        assert report.fingerprints["edge"] != fp_before
        # Atomicity: no staging debris next to the bucket file.
        assert not live.edge_store.path.with_suffix(
            live.edge_store.path.suffix + ".tmp").exists()

    def test_index_follows_stream_while_resident(self, tmp_path):
        """An index attached before ingest (resident partitions) sees the
        same virtual runs as one built fresh afterwards."""
        live = make_live(tmp_path, seed=4)
        parts = [1, 3, 4]
        attached = DenseSampler.from_partitions(
            live.scheme, live.bucket_endpoints, parts, [4],
            rng=np.random.default_rng(0))
        live.add_bucket_listener(attached.index.refresh_buckets)
        live.add_growth_listener(attached.index.extend_nodes)
        rng = np.random.default_rng(44)
        drive_random_stream(live, Compactor(live), rng, steps=25)
        fresh = DenseSampler.from_partitions(
            live.scheme, live.bucket_endpoints, parts, [4],
            rng=np.random.default_rng(0))
        for node in range(live.num_nodes):
            assert np.array_equal(attached.index.neighbors_of(node),
                                  fresh.index.neighbors_of(node)), node
        all_nodes = np.arange(live.num_nodes)
        assert np.array_equal(attached.index.degrees(all_nodes),
                              fresh.index.degrees(all_nodes))


# ---------------------------------------------------------------------------
# Deletion / growth semantics
# ---------------------------------------------------------------------------

class TestSemantics:
    def test_delete_removes_all_occurrences_and_reinsert_readds(self, tmp_path):
        live = make_live(tmp_path, num_edges=0, seed=9)
        edge = np.array([[5, 17]])
        live.insert_edges(np.repeat(edge, 3, axis=0))   # three copies
        i, j = live.scheme.partition_of(np.array([5, 17]))
        assert len(live.bucket_edges(int(i), int(j), record_io=False)) == 3
        live.delete_edges(edge)
        assert len(live.bucket_edges(int(i), int(j), record_io=False)) == 0
        live.insert_edges(edge)                          # re-add after delete
        assert len(live.bucket_edges(int(i), int(j), record_io=False)) == 1

    def test_new_node_rows_are_batching_independent(self, tmp_path):
        a = make_live(tmp_path, seed=2, name="a")
        b = make_live(tmp_path, seed=2, name="b")
        a.add_nodes(5)
        a.add_nodes(3)
        b.add_nodes(8)
        assert a.num_nodes == b.num_nodes
        assert np.array_equal(a.node_store.read_all(), b.node_store.read_all())
        assert np.array_equal(a.scheme.boundaries, b.scheme.boundaries)

    def test_edge_to_unknown_node_rejected(self, tmp_path):
        live = make_live(tmp_path, seed=1)
        with pytest.raises(ValueError, match="node ID space"):
            live.insert_edges(np.array([[0, live.num_nodes]]))
        ids = live.add_nodes(1)
        live.insert_edges(np.array([[0, ids[0]]]))       # now legal

    def test_buffer_refresh_preserves_dirty_updates_across_growth(self, tmp_path):
        from repro.nn.optim import RowAdagrad
        from repro.storage.buffer import PartitionBuffer
        live = make_live(tmp_path, seed=6)
        buf = PartitionBuffer(live.node_store, 2, optimizer=RowAdagrad(lr=0.5))
        live.add_growth_listener(lambda scheme: buf.refresh_from_store())
        last = live.num_partitions - 1
        buf.set_partitions([0, last])
        rows = live.scheme.partition_nodes(last)[:4]
        grads = np.ones((4, live.node_store.dim), dtype=np.float32)
        before = buf.gather(rows).copy()
        buf.apply_gradients(rows, grads)
        updated = buf.gather(rows).copy()
        assert not np.array_equal(before, updated)
        ids = live.add_nodes(10)                 # grows the dirty partition
        assert buf.resident == [0, last]
        assert np.array_equal(buf.gather(rows), updated)   # update survived
        assert buf.gather(ids).shape == (10, live.node_store.dim)


# ---------------------------------------------------------------------------
# Serving over the live view
# ---------------------------------------------------------------------------

class TestLiveServing:
    def test_engine_queries_match_offline_engine(self, tmp_path):
        live = make_live(tmp_path, seed=11)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=5)
        model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(5))
        engine = ServingEngine.over_live(live, model, buffer_capacity=3)
        rng = np.random.default_rng(55)
        ref = drive_random_stream(live, Compactor(live), rng, steps=25)
        rebuilt = rebuild_offline(tmp_path, live, ref)

        # Offline engine: same table served from a separate read-only store.
        scheme = live.scheme
        store2 = NodeStore(tmp_path / "offline-nodes.bin", scheme,
                           live.node_store.dim, learnable=False)
        store2.initialize(values=live.node_store.read_all())
        offline = ServingEngine(model, store2, buffer_capacity=3,
                                edge_source=rebuilt.bucket_endpoints)

        ids = rng.integers(0, live.num_nodes, 50)
        assert np.array_equal(engine.get_embeddings(ids),
                              offline.get_embeddings(ids))
        pairs = np.stack([rng.integers(0, live.num_nodes, 30),
                          rng.integers(0, live.num_nodes, 30)], axis=1)
        assert np.array_equal(engine.score_edges(pairs),
                              offline.score_edges(pairs))
        ids_a, sc_a = engine.topk_targets(7, 5)
        ids_b, sc_b = offline.topk_targets(7, 5)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(sc_a, sc_b)

    def test_encode_on_read_matches_offline_engine(self, tmp_path):
        live = make_live(tmp_path, num_nodes=80, num_edges=400, p=4, seed=12)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="graphsage",
                                   num_layers=1, fanouts=(4,), seed=5)
        model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(5))
        engine = ServingEngine.over_live(live, model, buffer_capacity=2,
                                         fanouts=cfg.fanouts)
        rng = np.random.default_rng(66)
        ref = drive_random_stream(live, Compactor(live), rng, steps=15)
        rebuilt = rebuild_offline(tmp_path, live, ref)
        store2 = NodeStore(tmp_path / "offline-nodes.bin", live.scheme,
                           live.node_store.dim, learnable=False)
        store2.initialize(values=live.node_store.read_all())
        offline = ServingEngine(model, store2, buffer_capacity=2,
                                edge_source=rebuilt.bucket_endpoints,
                                fanouts=cfg.fanouts)
        ids = rng.integers(0, live.num_nodes, 20)
        assert np.array_equal(engine.encode_nodes(ids, seed=9),
                              offline.encode_nodes(ids, seed=9))

    def test_concurrent_ingest_and_batched_queries(self, tmp_path):
        """Ingest/compact/grow on one thread while the test thread queries
        the engine: the shared live lock must keep every result
        well-formed (no torn scheme/buffer views, no spurious errors)."""
        live = make_live(tmp_path, num_nodes=240, num_edges=1200, p=6,
                         seed=14)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=5)
        model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(5))
        engine = ServingEngine.over_live(live, model, buffer_capacity=3)
        errors = []

        def mutate():
            rng = np.random.default_rng(7)
            try:
                for step in range(30):
                    ins = np.stack([rng.integers(0, live.num_nodes, 40),
                                    rng.integers(0, live.num_nodes, 40)],
                                   axis=1)
                    live.insert_edges(ins)
                    if step % 7 == 3:
                        live.add_nodes(5)
                    if step % 10 == 9:
                        Compactor(live).compact()
            except Exception as exc:       # pragma: no cover - failure path
                errors.append(exc)

        writer = threading.Thread(target=mutate)
        writer.start()
        while writer.is_alive():
            rows = engine.get_embeddings(np.arange(0, 200, 5))
            assert rows.shape == (40, live.node_store.dim)
            assert np.isfinite(rows).all()
            ids, scores = engine.topk_targets(3, 5)
            assert len(ids) == 5
            assert (ids < live.num_nodes).all()
        writer.join()
        assert not errors

    def test_new_nodes_queryable_immediately(self, tmp_path):
        live = make_live(tmp_path, seed=13)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=5)
        model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(5))
        engine = ServingEngine.over_live(live, model, buffer_capacity=3)
        engine.get_embeddings(np.arange(40))             # warm the buffer
        ids = live.add_nodes(6)
        rows = engine.get_embeddings(ids)
        scale = 1.0 / live.node_store.dim
        for k, node in enumerate(ids):
            expected = np.random.default_rng(
                [live.seed, int(node)]).uniform(-scale, scale,
                                                live.node_store.dim)
            assert np.allclose(rows[k], expected.astype(np.float32))

    def test_grown_nodes_rankable_by_topk(self, tmp_path):
        """Regression: the top-k clamp used to read the node count outside
        the query guard, so a query racing growth could clamp from the old
        total while the sweep iterated the grown scheme. The clamp now
        reads the dynamic scheme inside the guard: immediately after
        growth, k = new total must be honored and the grown nodes must be
        rankable."""
        live = make_live(tmp_path, seed=15)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=5)
        model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(5))
        engine = ServingEngine.over_live(live, model, buffer_capacity=3)
        engine.topk_targets(0, 5)                # a sweep before growth
        before = live.num_nodes
        grown = live.add_nodes(7)
        total = live.num_nodes
        assert total == before + 7
        ids, scores = engine.topk_targets(2, total)
        assert ids.shape == scores.shape == (total,)
        assert np.isin(grown, ids).all()
        # Best-first with deterministic id tie-break: re-sorting by
        # (score desc, id asc) must be the identity.
        order = np.lexsort((ids, -scores))
        assert np.array_equal(order, np.arange(total))
        ids_10, sc_10 = engine.topk_targets(2, 10)
        assert np.array_equal(ids_10, ids[:10])
        assert sc_10.tobytes() == scores[:10].tobytes()


# ---------------------------------------------------------------------------
# Batched multi-source top-k (satellite)
# ---------------------------------------------------------------------------

class TestBatchedTopK:
    def _engine(self, tmp_path, seed=21):
        live = make_live(tmp_path, seed=seed)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=5)
        model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(5))
        return ServingEngine.over_live(live, model, buffer_capacity=3)

    def test_matches_per_source_queries(self, tmp_path):
        engine = self._engine(tmp_path)
        srcs = [3, 50, 99, 117]
        ids_b, sc_b = engine.topk_targets_batch(srcs, 6, exclude=srcs)
        assert ids_b.shape == sc_b.shape == (4, 6)
        for row, src in enumerate(srcs):
            ids_1, sc_1 = engine.topk_targets(src, 6, exclude=srcs)
            assert np.array_equal(ids_b[row], ids_1)
            assert np.allclose(sc_b[row], sc_1, rtol=1e-5)

    def test_one_sweep_for_many_sources(self, tmp_path):
        srcs = [1, 40, 80, 110]
        batch_engine = self._engine(tmp_path / "batch")
        batch_engine.topk_targets_batch(srcs, 5)
        batch_scanned = batch_engine.stats.topk_parts_scanned
        loop_engine = self._engine(tmp_path / "loop")
        for src in srcs:
            loop_engine.topk_targets(src, 5)
        # One shared sweep vs one sweep per query.
        p = batch_engine.scheme.num_partitions
        assert batch_scanned <= p
        assert batch_scanned < loop_engine.stats.topk_parts_scanned


# ---------------------------------------------------------------------------
# Continual refresh
# ---------------------------------------------------------------------------

class TestContinualTrainer:
    CFG = dict(embedding_dim=8, encoder="none", batch_size=64,
               num_negatives=16, seed=3)

    def test_refresh_bit_identical_to_offline(self, tmp_path):
        """A refresh over the streamed graph equals the same refresh over
        an offline rebuild of the final edge list, bit for bit."""
        cfg = LinkPredictionConfig(**self.CFG)
        live = make_live(tmp_path, seed=30, name="stream")
        trainer = ContinualTrainer(live, cfg, buffer_capacity=3)
        rng = np.random.default_rng(77)
        ref = drive_random_stream(live, Compactor(live), rng, steps=20)

        # Offline world: rebuilt stores seeded with the streamed table.
        rebuilt = rebuild_offline(tmp_path, live, ref)
        store2 = NodeStore(tmp_path / "off-nodes.bin", live.scheme,
                           live.node_store.dim, learnable=True)
        store2.write_span(0, live.node_store.read_all(),
                          live.node_store.read_all_state())
        off_live = LiveGraph(store2, rebuilt, seed=live.seed)
        off_trainer = ContinualTrainer(off_live, cfg, buffer_capacity=3)
        # Align: same model/optimizer/rng state on both sides.
        off_trainer.model.load_state_dict(trainer.model.state_dict())
        off_trainer.rng.bit_generator.state = trainer.rng.bit_generator.state

        pairs = [(0, 0), (1, 2), (3, 3), (4, 5), (2, 1)]
        trainer.refresh(pairs=pairs)
        off_trainer.refresh(pairs=pairs)
        trainer.buffer.flush()
        off_trainer.buffer.flush()
        assert np.array_equal(live.node_store.read_all(),
                              store2.read_all())
        assert np.array_equal(live.node_store.read_all_state(),
                              store2.read_all_state())
        sd_a, sd_b = trainer.model.state_dict(), off_trainer.model.state_dict()
        assert set(sd_a) == set(sd_b)
        for key in sd_a:
            assert np.array_equal(sd_a[key], sd_b[key]), key

    def test_refresh_covers_touched_buckets_across_compaction(self, tmp_path):
        cfg = LinkPredictionConfig(**self.CFG)
        live = make_live(tmp_path, seed=31)
        trainer = ContinualTrainer(live, cfg, buffer_capacity=3)
        rng = np.random.default_rng(88)
        ins = np.stack([rng.integers(0, live.num_nodes, 100),
                        rng.integers(0, live.num_nodes, 100)], axis=1)
        live.insert_edges(ins)
        touched = set(trainer._pending_pairs)
        assert touched
        Compactor(live).compact()                 # log forgets; trainer must not
        assert trainer._pending_pairs == touched
        record = trainer.refresh()
        assert record.num_batches > 0
        assert not trainer._pending_pairs

    def test_refresh_updates_are_served_immediately(self, tmp_path):
        """A serving engine over the same live graph must see post-refresh
        embeddings: refresh flushes and the engine's buffer re-reads the
        retrained partitions."""
        cfg = LinkPredictionConfig(**self.CFG)
        live = make_live(tmp_path, seed=34)
        trainer = ContinualTrainer(live, cfg, buffer_capacity=3)
        engine = ServingEngine.over_live(live, trainer.model,
                                         buffer_capacity=3)
        probe = np.arange(0, live.num_nodes, 7)
        before = engine.get_embeddings(probe).copy()   # warm + snapshot
        rng = np.random.default_rng(101)
        ins = np.stack([rng.integers(0, live.num_nodes, 200),
                        rng.integers(0, live.num_nodes, 200)], axis=1)
        live.insert_edges(ins)
        record = trainer.refresh()
        assert record.num_batches > 0
        served = engine.get_embeddings(probe)
        assert not np.array_equal(served, before)      # training moved rows
        assert np.array_equal(served, live.node_store.read_all()[probe])

    def test_explicit_pairs_refresh_keeps_cursor_and_pending(self, tmp_path):
        """refresh(pairs=[A]) must not record untouched buckets as trained:
        the seq cursor and the pending accumulator stay put."""
        cfg = LinkPredictionConfig(**self.CFG)
        live = make_live(tmp_path, seed=35)
        trainer = ContinualTrainer(live, cfg, buffer_capacity=3)
        rng = np.random.default_rng(102)
        ins = np.stack([rng.integers(0, live.num_nodes, 80),
                        rng.integers(0, live.num_nodes, 80)], axis=1)
        live.insert_edges(ins)
        pending_before = set(trainer._pending_pairs)
        cursor_before = trainer.refreshed_seq
        trainer.refresh(pairs=[sorted(pending_before)[0]])
        assert trainer.refreshed_seq == cursor_before
        assert trainer._pending_pairs == pending_before
        trainer.refresh()                              # full pass advances
        assert trainer.refreshed_seq == live.log.seq
        assert not trainer._pending_pairs

    def test_edges_ingested_mid_refresh_stay_pending(self, tmp_path):
        """An edge logged while a refresh of bucket (0, 0) runs lands in
        bucket (3, 3), which that refresh does not train: it stays pending
        and past the cursor."""
        cfg = LinkPredictionConfig(**self.CFG)
        live = make_live(tmp_path, seed=36)
        trainer = ContinualTrainer(live, cfg, buffer_capacity=3)
        first = live.scheme.boundaries
        live.insert_edges(np.array([[first[0], first[0] + 1]]))
        assert trainer._pending_pairs == {(0, 0)}
        gather, mid = trainer.buffer.gather, []

        def gather_and_ingest(node_ids):
            if not mid:
                mid.append(live.insert_edges(
                    np.array([[first[3], first[3] + 1]])))
            return gather(node_ids)

        trainer.buffer.gather = gather_and_ingest
        trainer.refresh()
        assert mid
        assert trainer._pending_pairs == {(3, 3)}
        assert trainer.refreshed_seq < live.log.seq

    def test_save_holds_the_writer_lock_only_to_link(self, tmp_path):
        """Another thread cannot take ``live.lock`` while a save links the
        store's files, and can while the save CRCs them and writes the
        rest, so ingest does not wait for those."""
        live = make_live(tmp_path, seed=37)
        trainer = ContinualTrainer(live, LinkPredictionConfig(**self.CFG),
                                   buffer_capacity=3,
                                   checkpoint_dir=tmp_path / "ckpt")
        free = {}

        def probe(point):
            def other_thread():
                free[point] = live.lock.acquire(timeout=0.2)
                if free[point]:
                    live.lock.release()
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=5)
            assert not thread.is_alive()

        trainer.snapshots.fault_hook = probe
        trainer.save_snapshot(0)
        assert free == {"snapshot-begin": False, "snapshot-mid-files": True,
                        "snapshot-pre-rename": True,
                        "snapshot-post-rename": True}

    def test_snapshot_records_log_position_and_resumes(self, tmp_path):
        cfg = LinkPredictionConfig(**self.CFG)
        live = make_live(tmp_path, seed=32)
        trainer = ContinualTrainer(live, cfg, buffer_capacity=3,
                                   checkpoint_dir=tmp_path / "ckpt")
        rng = np.random.default_rng(99)
        ins = np.stack([rng.integers(0, live.num_nodes, 50),
                        rng.integers(0, live.num_nodes, 50)], axis=1)
        live.insert_edges(ins)
        Compactor(live).compact()
        trainer.refresh()
        path = trainer.save_snapshot(trainer.refreshes)   # flushes the buffer
        table_at_snap = live.node_store.read_all()
        assert path.is_dir()
        # Damage the table, then resume: state comes back from the snapshot
        # and the recorded stream position tells the caller what to replay.
        live.node_store.write_span(
            0, np.full((live.num_nodes, live.node_store.dim), -1.0,
                       dtype=np.float32))
        meta = trainer.resume()
        assert np.array_equal(live.node_store.read_all(), table_at_snap)
        assert meta["stream"]["seq"] == live.log.seq
        assert meta["stream"]["compacted_seq"] == live.log.compacted_seq
        assert meta["stream"]["refreshed_seq"] == trainer.refreshed_seq
        # The bucket listener must keep feeding the accumulator after a
        # resume (resume replaces the contents, not the subscribed set).
        ins2 = np.stack([rng.integers(0, live.num_nodes, 20),
                         rng.integers(0, live.num_nodes, 20)], axis=1)
        live.insert_edges(ins2)
        assert trainer._pending_pairs

    def _ingested(self, tmp_path, name, seed, capacity=3, **kw):
        live = make_live(tmp_path, seed=seed, name=name)
        trainer = ContinualTrainer(live, LinkPredictionConfig(**self.CFG),
                                   buffer_capacity=capacity, **kw)
        rng = np.random.default_rng(seed + 100)
        live.insert_edges(np.stack([rng.integers(0, live.num_nodes, 150),
                                    rng.integers(0, live.num_nodes, 150)],
                                   axis=1))
        return live, trainer

    def _grown_refresh(self, tmp_path, name, threaded):
        """Ingest into the last partition's own bucket and refresh it, with
        ``live.add_nodes(5)`` landing at the batch loop's second gather:
        on the trainer's thread, or on another thread whose table
        write-backs (if it makes any) are held until the fifth gather."""
        live = make_live(tmp_path, seed=41, name=name)
        trainer = ContinualTrainer(
            live, LinkPredictionConfig(**{**self.CFG, "batch_size": 8}),
            buffer_capacity=2)
        last = live.num_partitions - 1
        lo, hi = live.scheme.boundaries[last:last + 2]
        rng = np.random.default_rng(141)
        live.insert_edges(np.stack([rng.integers(lo, hi, 80),
                                    rng.integers(lo, hi, 80)], axis=1))
        grower = threading.Thread(target=live.add_nodes, args=(5,))
        entered, release = threading.Event(), threading.Event()
        write_span = live.node_store.write_span

        def held_write_span(*args, **kw):
            if threading.current_thread() is grower:
                entered.set()
                release.wait(timeout=10)
            return write_span(*args, **kw)

        live.node_store.write_span = held_write_span
        gather = trainer.buffer.gather
        calls = []

        def growing_gather(ids):
            calls.append(len(ids))
            if len(calls) == 2 and not threaded:
                live.add_nodes(5)
            elif len(calls) == 2:
                grower.start()
                while grower.is_alive() and not entered.wait(0.01):
                    pass
            elif len(calls) == 5:
                release.set()
            return gather(ids)

        trainer.buffer.gather = growing_gather
        try:
            trainer.refresh()
        finally:
            release.set()
            if threaded:
                grower.join(timeout=30)
        assert len(calls) > 5 and not grower.is_alive()
        assert live.num_nodes == 125
        trainer.buffer.flush()
        return live

    def test_growth_during_refresh_batch_loop(self, tmp_path):
        """Node growth on another thread in the middle of a refresh's batch
        loop must not remap the refresh's buffer under its batches: the
        refresh lands the same table and optimizer state as one whose
        growth ran on the trainer's own thread."""
        inline = self._grown_refresh(tmp_path, "inline", threaded=False)
        raced = self._grown_refresh(tmp_path, "raced", threaded=True)
        assert np.array_equal(raced.node_store.read_all(),
                              inline.node_store.read_all())
        assert np.array_equal(raced.node_store.read_all_state(),
                              inline.node_store.read_all_state())

    def test_refresh_record_counts_partition_io(self, tmp_path):
        """A refresh is a loop epoch: its record and its ``refresh`` event
        carry the live store's IO delta, partition loads included."""
        live, trainer = self._ingested(tmp_path, "io", seed=42, capacity=2)
        events = []
        trainer.add_listener(lambda event, payload: events.append(
            (event, payload)))
        before = live.node_store.stats.snapshot()
        record = trainer.refresh()
        delta = live.node_store.stats.diff(before)
        assert record.partition_loads == delta.partition_loads > 0
        assert record.io_bytes == delta.total_bytes > 0
        assert [event for event, _ in events] == ["refresh"]
        payload = events[0][1]
        assert payload["epoch"] == 0 and payload["io_bytes"] == record.io_bytes

    def test_resumed_refresh_cadence_matches_uninterrupted(self, tmp_path):
        """With ``checkpoint_every=2`` a trainer restarted from a snapshot
        taken after refresh 3 snapshots after refreshes 4 and 6, as the
        uninterrupted run does, and lands the same table."""
        def world(name):
            live = make_live(tmp_path, seed=43, name=name)
            return live, np.random.default_rng(143)

        def trainer_over(live, name, cursors):
            trainer = ContinualTrainer(
                live, LinkPredictionConfig(**self.CFG), buffer_capacity=3,
                checkpoint_dir=tmp_path / f"{name}-ckpt", checkpoint_every=2)
            trainer.add_listener(lambda event, payload: cursors.append(
                payload["epoch"]) if event == "snapshot" else None)
            return trainer

        def ingest_and_refresh(live, rng, trainer):
            live.insert_edges(np.stack([rng.integers(0, live.num_nodes, 40),
                                        rng.integers(0, live.num_nodes, 40)],
                                       axis=1))
            trainer.refresh()

        straight_live, rng = world("straight")
        straight_cursors = []
        straight = trainer_over(straight_live, "straight", straight_cursors)
        for _ in range(6):
            ingest_and_refresh(straight_live, rng, straight)
        assert straight_cursors == [2, 4, 6]

        live, rng = world("restarted")
        first = trainer_over(live, "restarted", [])
        for _ in range(3):
            ingest_and_refresh(live, rng, first)
        first.save_snapshot(first.refreshes)
        cursors = []
        second = trainer_over(live, "restarted", cursors)
        second.resume()
        assert second.refreshes == 3
        for _ in range(3):
            ingest_and_refresh(live, rng, second)
        assert cursors == [4, 6] and second.refreshes == 6
        assert np.array_equal(live.node_store.read_all(),
                              straight_live.node_store.read_all())

    def test_manifest_without_cursor_resumes_at_refresh_zero(self, tmp_path):
        """A stream snapshot written before refreshes were loop epochs has
        no ``epoch``/``step``/``global_step``; it still resumes, at refresh
        0. (The manifest's CRCs cover only the array files.)"""
        live, trainer = self._ingested(tmp_path, "old", seed=44,
                                       checkpoint_dir=tmp_path / "ckpt")
        trainer.refresh()
        trainer.refresh()
        path = trainer.save_snapshot(trainer.refreshes)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["meta"]["epoch"] == 2
        for key in ("epoch", "step", "global_step"):
            del manifest["meta"][key]
        (path / "manifest.json").write_text(json.dumps(manifest))
        meta = trainer.resume(path)
        assert meta["stream"]["refreshed_seq"] == trainer.refreshed_seq
        assert trainer.refreshes == 0 and trainer._global_step == 0

    def test_compaction_racing_a_refresh_leaves_its_buffer_alone(
            self, tmp_path):
        """Compaction rewrites edge buckets only, so a compaction on
        another thread in the middle of a refresh's batch loop (no lock
        held there) must not touch the refresh's buffer: with the
        compactor thread's partition reads slowed, the refresh completes
        and lands the table of a refresh nothing raced."""
        import time
        quiet_live, quiet = self._ingested(tmp_path, "quiet", seed=37)
        quiet.refresh()
        live, trainer = self._ingested(tmp_path, "raced", seed=37)
        entered = threading.Event()
        compactor = threading.Thread(target=Compactor(live).compact)
        read = live.node_store.read_partition

        def slow_read(part, out=None):
            if threading.current_thread() is compactor:
                entered.set()
                time.sleep(0.2)
            return read(part, out=out)

        live.node_store.read_partition = slow_read
        gather = trainer.buffer.gather
        calls = []

        def racing_gather(ids):
            calls.append(len(ids))
            if len(calls) == 2:        # mid batch loop, rows already dirty
                compactor.start()
                while compactor.is_alive() and not entered.wait(0.01):
                    pass
            return gather(ids)

        trainer.buffer.gather = racing_gather
        trainer.refresh()
        compactor.join(timeout=60)
        assert len(calls) > 2 and not compactor.is_alive()
        assert live.log.compacted_seq == live.log.seq
        assert np.array_equal(live.node_store.read_all(),
                              quiet_live.node_store.read_all())
        assert np.array_equal(live.node_store.read_all_state(),
                              quiet_live.node_store.read_all_state())

    def test_concurrent_ingests_keep_the_trainer_index_whole(
            self, tmp_path, monkeypatch):
        """Two ingest threads touching different resident buckets must not
        lose either's refresh of the trainer's neighbor index. Thread A's
        publish is held until thread B's ingest returns (at most 0.5 s:
        with ingest serialized on ``live.lock``, B cannot return first);
        the index must then equal one built fresh from the live graph."""
        from repro.graph import csr
        live = make_live(tmp_path, p=4, seed=39)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="graphsage",
                                   num_layers=1, fanouts=(4,), batch_size=64,
                                   num_negatives=8, seed=3)
        trainer = ContinualTrainer(live, cfg, buffer_capacity=4)
        rng = np.random.default_rng(139)

        def edges_in(i, j, n=20):
            (lo_i, hi_i), (lo_j, hi_j) = (live.scheme.boundaries[i:i + 2],
                                          live.scheme.boundaries[j:j + 2])
            return np.stack([rng.integers(lo_i, hi_i, n),
                             rng.integers(lo_j, hi_j, n)], axis=1)

        for pair in ((0, 0), (1, 1), (0, 1)):
            live.insert_edges(edges_in(*pair))
        trainer.refresh()
        index = trainer.sampler.index
        assert index.partitions == [0, 1]
        batch_a, batch_b = edges_in(0, 0), edges_in(1, 1)
        a_publishing, b_done = threading.Event(), threading.Event()
        allocate = csr._FlatCSR.allocate

        def held_allocate(total_deg):
            if threading.current_thread() is thread_a:
                a_publishing.set()
                b_done.wait(timeout=0.5)
            return allocate(total_deg)

        def ingest_b():
            assert a_publishing.wait(timeout=10)
            live.insert_edges(batch_b)
            b_done.set()

        monkeypatch.setattr(csr._FlatCSR, "allocate", held_allocate)
        thread_a = threading.Thread(target=live.insert_edges,
                                    args=(batch_a,))
        thread_b = threading.Thread(target=ingest_b)
        for t in (thread_a, thread_b):
            t.start()
        for t in (thread_a, thread_b):
            t.join(timeout=30)
        assert not thread_a.is_alive() and b_done.is_set()
        fresh = csr.PartitionedAdjacencyIndex(live.scheme,
                                              live.bucket_endpoints,
                                              index.partitions)
        all_nodes = np.arange(live.num_nodes)
        assert np.array_equal(index.degrees(all_nodes),
                              fresh.degrees(all_nodes))

    def test_refresh_writes_only_inside_the_seqlock_window(self, tmp_path):
        """Every partition write a refresh makes — write-backs on the I/O
        thread between groups and the final flush — runs while the
        refreshing thread holds ``live.rw`` exclusively, so no query can
        read a half-written row; ``rw`` is free once the refresh returns."""
        live, trainer = self._ingested(tmp_path, "guard", seed=38, capacity=2)
        seen = []
        write = live.node_store.write_partition

        def guarded(part, data, state=None):
            seen.append((live.rw._writer,
                         threading.current_thread() is threading.main_thread()))
            write(part, data, state)

        live.node_store.write_partition = guarded
        trainer.refresh()
        main = threading.main_thread().ident
        assert seen and all(writer == main for writer, _ in seen)
        assert {on_main for _, on_main in seen} == {True, False}
        assert takes_side(live.rw, "exclusive")

    def test_refresh_writes_wait_for_in_flight_queries(self, tmp_path):
        """A refresh's write windows take the exclusive side of ``rw``:
        while a query holds the shared side no partition is written, and
        once it lets go the refresh finishes with its writes."""
        live, trainer = self._ingested(tmp_path, "wait", seed=40, capacity=2)
        writes = []
        write = live.node_store.write_partition

        def counted(part, data, state=None):
            writes.append(part)
            write(part, data, state)

        live.node_store.write_partition = counted
        in_query, release = threading.Event(), threading.Event()

        def query():
            with live.rw.shared():
                in_query.set()
                release.wait(timeout=30)

        reader = threading.Thread(target=query)
        reader.start()
        assert in_query.wait(timeout=5)
        refresher = threading.Thread(target=trainer.refresh)
        refresher.start()
        try:
            refresher.join(timeout=0.2)
            assert refresher.is_alive() and not writes
        finally:
            release.set()
        reader.join(timeout=5)
        refresher.join(timeout=60)
        assert not refresher.is_alive() and writes
        assert trainer.refreshes == 1

    @pytest.mark.slow
    def test_writeback_crash_in_refresh_resumes_bit_identically(
            self, tmp_path):
        """A write-back that dies on the I/O thread mid-refresh surfaces as
        PrefetchError, releases ``live.rw`` (a query gets the shared side at
        once), and a resume from the snapshot before the refresh followed
        by the same refresh lands the uninterrupted table, optimizer state
        and parameters."""
        from repro.storage import PrefetchError
        straight_live, straight = self._ingested(
            tmp_path, "straight", seed=39, capacity=2,
            checkpoint_dir=tmp_path / "straight-ckpt")
        straight.save_snapshot(straight.refreshes)
        straight.refresh()
        live, trainer = self._ingested(
            tmp_path, "crashed", seed=39, capacity=2,
            checkpoint_dir=tmp_path / "crashed-ckpt")
        trainer.save_snapshot(trainer.refreshes)
        injector = FaultInjector(CrashPoint.WRITEBACK_PENDING, after=1)
        trainer.buffer.fault_hook = injector.fire
        with pytest.raises(PrefetchError):
            trainer.refresh()
        assert injector.fired
        assert takes_side(live.rw, "shared")
        trainer.resume()
        trainer.refresh()
        assert np.array_equal(live.node_store.read_all(),
                              straight_live.node_store.read_all())
        assert np.array_equal(live.node_store.read_all_state(),
                              straight_live.node_store.read_all_state())
        sd_a, sd_b = trainer.model.state_dict(), straight.model.state_dict()
        assert set(sd_a) == set(sd_b)
        for key in sd_a:
            assert np.array_equal(sd_a[key], sd_b[key]), key

    def test_reopened_stores_match_originals(self, tmp_path):
        """NodeStore.open / EdgeBucketStore.open reattach to a compacted,
        grown workdir bit-for-bit (the checkpoint.resume_from path)."""
        live = make_live(tmp_path, seed=36, with_rel=True)
        rng = np.random.default_rng(103)
        drive_random_stream(live, Compactor(live), rng, steps=15)
        Compactor(live).compact()
        live.node_store.flush()
        node2 = NodeStore.open(live.node_store.path, live.scheme,
                               live.node_store.dim, learnable=True)
        edge2 = EdgeBucketStore.open(live.edge_store.path, live.scheme)
        assert np.array_equal(node2.read_all(), live.node_store.read_all())
        assert edge2.fingerprint() == live.edge_store.fingerprint()
        assert node2.fingerprint() == live.node_store.fingerprint()
        p = live.num_partitions
        for i in range(p):
            for j in range(p):
                assert np.array_equal(
                    edge2.read_bucket(i, j, record_io=False),
                    live.edge_store.read_bucket(i, j, record_io=False))

    def test_pack_pairs_covers_every_pair_within_capacity(self):
        rng = np.random.default_rng(5)
        pairs = {(int(i), int(j)) for i, j in rng.integers(0, 10, (30, 2))}
        for capacity in (2, 3, 5):
            groups = pack_pairs(sorted(pairs), capacity)
            seen = [pair for _, batch in groups for pair in batch]
            assert sorted(seen) == sorted(pairs)       # exactly once each
            for parts, batch in groups:
                assert len(parts) <= capacity
                assert all(i in parts and j in parts for i, j in batch)
        with pytest.raises(ValueError):
            pack_pairs([(0, 1)], 1)


# ---------------------------------------------------------------------------
# CLI driver (subprocess)
# ---------------------------------------------------------------------------

class TestStreamCLI:
    @staticmethod
    def _run(tmp_path, *overrides):
        """``repro run`` a small ``stream`` spec over ``tmp_path/wd``,
        each override passed as ``--set``."""
        spec = tmp_path / "stream.json"
        spec.write_text(json.dumps({
            "kind": "stream",
            "data": {"scale": 0.02},
            "model": {"dim": 8},
            "storage": {"partitions": 4, "buffer": 2,
                        "workdir": str(tmp_path / "wd")},
            "stream": {"event_batch": 200, "compact_every": 300,
                       "refresh": True}}))
        argv = [sys.executable, "-m", "repro", "run", str(spec)]
        for assignment in overrides:
            argv += ["--set", assignment]
        return subprocess.run(argv, capture_output=True, text=True,
                              timeout=300, cwd=REPO, env=_cli_env())

    def test_driver_with_verify(self, tmp_path):
        result = self._run(tmp_path, "stream.events=600",
                           "stream.verify=true")
        assert result.returncode == 0, result.stderr
        assert "verify OK" in result.stdout
        assert "compacted" in result.stdout
        assert "stream stats:" in result.stdout

    def test_resume_from_stream_snapshot(self, tmp_path):
        """The CLI can resume the snapshots it writes: the workdir's
        compacted, grown stores are reopened, not rebuilt."""
        ckpt = f"checkpoint.dir={tmp_path / 'ck'}"
        first = self._run(tmp_path, ckpt, "stream.events=600",
                          "checkpoint.every=1")
        assert first.returncode == 0, first.stderr
        second = self._run(tmp_path, ckpt, "stream.events=300",
                           "stream.verify=true",
                           f"checkpoint.resume_from={tmp_path / 'ck'}")
        assert second.returncode == 0, second.stderr
        assert "resumed at stream position" in second.stdout
        assert "verify OK" in second.stdout


def _cli_env():
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Write-ahead log (durability tentpole)
# ---------------------------------------------------------------------------

class TestWriteAheadLog:
    def _append_some(self, wal, count, start=0):
        rng = np.random.default_rng(3)
        seq = start
        for _ in range(count):
            n = int(rng.integers(1, 6))
            src = rng.integers(0, 50, n)
            wal.append_edges(seq, 0, src, rng.integers(0, 50, n),
                             np.zeros(n, dtype=np.int64), src % 4,
                             rng.integers(0, 4, n))
            seq += n
        return seq

    def test_scan_roundtrips_frames(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        end = self._append_some(wal, 7)
        wal.append_nodes(end, 50, 55)
        wal.close()
        rec = WriteAheadLog.scan(tmp_path / "wal")
        assert len(rec.frames) == 8
        assert rec.max_seq == end
        assert rec.max_nodes_recorded == 55
        assert rec.torn_frames == 0
        # Replaying front to back reproduces contiguous sequence numbers.
        seq = 0
        for frame in rec.frames[:-1]:
            assert frame.seq_lo == seq
            seq = frame.seq_end

    def test_torn_tail_dropped_and_file_truncated(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        self._append_some(wal, 5)
        wal.close()
        seg = sorted((tmp_path / "wal").glob("wal-*.log"))[-1]
        clean_size = seg.stat().st_size
        with open(seg, "ab") as fh:              # half a frame: torn write
            fh.write(b"WFRM\x01" + b"\x00" * 9)
        rec = WriteAheadLog.scan(tmp_path / "wal")
        assert len(rec.frames) == 5
        assert rec.torn_frames == 1 and rec.torn_bytes > 0
        assert seg.stat().st_size == clean_size  # physically truncated
        again = WriteAheadLog.scan(tmp_path / "wal")
        assert again.torn_frames == 0            # idempotent after repair

    def test_corruption_before_tail_raises(self, tmp_path):
        from repro.stream import WalCorruption
        wal = WriteAheadLog(tmp_path / "wal")
        self._append_some(wal, 5)
        wal.close()
        seg = sorted((tmp_path / "wal").glob("wal-*.log"))[0]
        blob = bytearray(seg.read_bytes())
        blob[25] ^= 0xFF                         # flip a byte mid-file
        seg.write_bytes(bytes(blob))
        with pytest.raises(WalCorruption):
            WriteAheadLog.scan(tmp_path / "wal")

    def test_group_commit_window(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync_every=4)
        self._append_some(wal, 10)
        assert wal.stats()["syncs"] == 2         # at frames 4 and 8
        wal.close()                              # flushes the remainder
        rec = WriteAheadLog.scan(tmp_path / "wal")
        assert len(rec.frames) == 10

    def test_rotation_and_selective_truncation(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_bytes=200)
        end = self._append_some(wal, 12)
        assert wal.stats()["rotations"] >= 2
        segs = sorted((tmp_path / "wal").glob("wal-*.log"))
        mid_cover = end // 2
        wal.truncate_covered(mid_cover)
        left = sorted((tmp_path / "wal").glob("wal-*.log"))
        assert 0 < len(left) <= len(segs)        # partial truncation only
        rec = WriteAheadLog.scan(tmp_path / "wal")
        assert rec.covered_seq == mid_cover
        # Truncation is whole-segment: every surviving *segment* still
        # guards something past the horizon (sub-horizon frames inside it
        # are filtered by the restore floor, not double-applied), and every
        # event past the horizon is still present.
        assert all(s.end_seq > mid_cover for s in rec.segments
                   if s.end_seq)                # closed, edge-bearing segs
        assert rec.max_seq == end
        wal.truncate_covered(end)
        rec2 = WriteAheadLog.scan(tmp_path / "wal")
        # Every *closed* covered segment is gone; only the active segment
        # (still open for appends) may linger below the horizon.
        assert all(s.end_seq > end for s in rec2.segments[:-1] if s.end_seq)
        wal.close()

    def test_node_frames_guard_segments_until_covered(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_bytes=64)
        wal.append_nodes(0, 50, 55)
        self._append_some(wal, 4)                # forces rotation past 64B
        end = wal.stats()["edge_events"]
        removed = wal.truncate_covered(end, num_nodes=50)
        rec = WriteAheadLog.scan(tmp_path / "wal")
        assert rec.max_nodes_recorded == 55      # growth record survived
        wal.truncate_covered(end, num_nodes=55)
        rec2 = WriteAheadLog.scan(tmp_path / "wal")
        assert rec2.num_nodes == 55              # now carried by the meta
        wal.close()


# ---------------------------------------------------------------------------
# Crash matrix: every journal/compaction boundary recovers bit-identically
# ---------------------------------------------------------------------------

CRASH_MATRIX = (CrashPoint.WAL_FRAME_MID, CrashPoint.WAL_TRUNCATE_PRE,
                CrashPoint.SPILL_POST_WRITE, CrashPoint.REWRITE_STAGED,
                CrashPoint.REWRITE_POST_RENAME)


class TestCrashMatrix:
    """Drive a seeded WAL-journaled stream into a simulated crash at each
    durability boundary, recover with the snapshot-free composition
    (reattach stores -> restore log -> replay WAL), and require the
    recovered view to be bit-identical to an offline rebuild of exactly
    the acknowledged events — then keep streaming to prove the resumed
    journal works."""

    BASE_NODES = 80

    def _wire(self, live, injector):
        live.log.fault_hook = injector.fire
        live.log.wal.fault_hook = injector.fire
        live.edge_store.fault_hook = injector.fire

    def _drive_to_crash(self, live, compactor, injector, rng):
        ref = base_order_edges(live)
        width = live.width
        # The op that crashes is durable iff its WAL write completed before
        # the crash point fired: true for the post-write and truncate
        # boundaries (the journal accepted the batch first), false for a
        # torn frame.
        durable = injector.crash_at in (CrashPoint.WAL_TRUNCATE_PRE,
                                        CrashPoint.SPILL_POST_WRITE)
        for step in range(400):
            roll = step % 11
            try:
                if roll == 8:
                    live.add_nodes(int(rng.integers(1, 5)))
                elif roll == 10:
                    compactor.compact()
                elif roll == 7 and len(ref):
                    n = int(rng.integers(1, 6))
                    rows = ref[rng.integers(0, len(ref), n)]
                    live.delete_edges(rows)
                    ref = apply_delete(ref, rows)
                else:
                    n = int(rng.integers(5, 30))
                    ins = np.empty((n, width), dtype=np.int64)
                    ins[:, 0] = rng.integers(0, live.num_nodes, n)
                    ins[:, -1] = rng.integers(0, live.num_nodes, n)
                    live.insert_edges(ins)
                    ref = np.concatenate([ref, ins], axis=0)
            except SimulatedCrash:
                if durable:
                    if roll == 7:
                        ref = apply_delete(ref, rows)
                    elif roll not in (8, 10):
                        ref = np.concatenate([ref, ins], axis=0)
                return ref
        raise AssertionError(
            f"crash point {injector.crash_at} never fired in 400 steps")

    def _assert_matches_rebuild(self, tmp_path, live, ref, name):
        rebuilt = rebuild_offline(tmp_path, live, ref, name=name)
        p = live.num_partitions
        for i in range(p):
            for j in range(p):
                assert np.array_equal(
                    live.bucket_edges(i, j, record_io=False),
                    rebuilt.read_bucket(i, j, record_io=False)), (i, j)
        rebuilt.close()

    @pytest.mark.parametrize("point", CRASH_MATRIX)
    @pytest.mark.parametrize("after", [0, 3])
    def test_recovers_bit_identical(self, tmp_path, point, after):
        seed = CRASH_MATRIX.index(point) * 10 + after
        live = make_live(tmp_path, num_nodes=self.BASE_NODES, num_edges=400,
                         p=4, seed=seed, wal=True,
                         wal_segment_bytes=2048)
        compactor = Compactor(live)
        injector = FaultInjector(point, after=after)
        self._wire(live, injector)
        rng = np.random.default_rng(seed + 100)
        ref = self._drive_to_crash(live, compactor, injector, rng)
        assert injector.fired
        nodes_acked = live.num_nodes if point != CrashPoint.WAL_FRAME_MID \
            else live.num_nodes    # torn op never mutated the live graph
        del live                   # "process death": in-memory state is gone

        live2 = recover_live(tmp_path, base_nodes=self.BASE_NODES, p=4,
                             seed=seed)
        assert live2.num_nodes == nodes_acked
        self._assert_matches_rebuild(tmp_path, live2, ref, "rebuilt-crash")

        # The service keeps going: the restored journal accepts new events
        # and a fresh compaction folds old + replayed + new together.
        width = live2.width
        for _ in range(5):
            n = int(rng.integers(5, 20))
            ins = np.empty((n, width), dtype=np.int64)
            ins[:, 0] = rng.integers(0, live2.num_nodes, n)
            ins[:, -1] = rng.integers(0, live2.num_nodes, n)
            live2.insert_edges(ins)
            ref = np.concatenate([ref, ins], axis=0)
        Compactor(live2).compact()
        self._assert_matches_rebuild(tmp_path, live2, ref, "rebuilt-after")

    def test_node_rows_regenerated_identically(self, tmp_path):
        """Recovered growth regenerates the same deterministic rows the
        original adds produced (acknowledged adds survive even when the
        store file never saw them)."""
        live = make_live(tmp_path, num_nodes=40, num_edges=100, p=4,
                         seed=3, wal=True)
        live.add_nodes(7)
        original, _ = live.node_store.read_partition(live.num_partitions - 1)
        original = original.copy()
        del live
        live2 = recover_live(tmp_path, base_nodes=40, p=4, seed=3)
        assert live2.num_nodes == 47
        recovered, _ = live2.node_store.read_partition(
            live2.num_partitions - 1)
        assert np.array_equal(original, recovered)

    def test_background_compaction_crash_recovers(self, tmp_path):
        """Crash while the *background* worker is mid-compaction: the main
        thread's acknowledged events survive recovery."""
        live = make_live(tmp_path, num_nodes=self.BASE_NODES, num_edges=300,
                         p=4, seed=9, wal=True)
        injector = FaultInjector(CrashPoint.REWRITE_STAGED)
        live.edge_store.fault_hook = injector.fire
        bg = BackgroundCompactor(Compactor(live), staleness_threshold=80,
                                 poll_interval=0.005, max_backoff=0.01,
                                 seed=9)
        ref = base_order_edges(live)
        rng = np.random.default_rng(42)
        with bg:
            for _ in range(40):
                n = int(rng.integers(5, 20))
                ins = np.empty((n, live.width), dtype=np.int64)
                ins[:, 0] = rng.integers(0, live.num_nodes, n)
                ins[:, -1] = rng.integers(0, live.num_nodes, n)
                live.insert_edges(ins)
                ref = np.concatenate([ref, ins], axis=0)
                if injector.fired:
                    break
        assert injector.fired                   # the worker hit the crash
        assert bg.failures >= 1                 # ... and degraded gracefully
        del live
        live2 = recover_live(tmp_path, base_nodes=self.BASE_NODES, p=4,
                             seed=9)
        self._assert_matches_rebuild(tmp_path, live2, ref, "rebuilt-bg")


# ---------------------------------------------------------------------------
# Background compactor: retry/backoff and graceful degradation
# ---------------------------------------------------------------------------

class TestBackgroundCompactor:
    def _fill(self, live, rng, events=200):
        n = events
        ins = np.empty((n, live.width), dtype=np.int64)
        ins[:, 0] = rng.integers(0, live.num_nodes, n)
        ins[:, -1] = rng.integers(0, live.num_nodes, n)
        live.insert_edges(ins)
        return ins

    def test_compacts_when_staleness_crosses_threshold(self, tmp_path):
        import time
        live = make_live(tmp_path, p=4, num_nodes=60, num_edges=200, seed=2)
        bg = BackgroundCompactor(Compactor(live), staleness_threshold=100,
                                 poll_interval=0.005, seed=2)
        events = []
        bg.add_listener(lambda e, info: events.append((e, info)))
        rng = np.random.default_rng(5)
        with bg:
            self._fill(live, rng, 150)
            bg.kick()
            deadline = time.monotonic() + 10
            while live.staleness() > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert live.staleness() == 0
        assert bg.runs >= 1 and bg.failures == 0
        assert any(e == "compaction-done" for e, _ in events)
        health = live.health()["compaction"]
        assert health["state"] == "idle" and health["runs"] >= 1

    def test_degrades_then_recovers_with_backoff(self, tmp_path):
        import time
        live = make_live(tmp_path, p=4, num_nodes=60, num_edges=200, seed=4)
        fails = {"left": 2}

        def flaky(point):
            if point == CrashPoint.REWRITE_STAGED and fails["left"] > 0:
                fails["left"] -= 1
                raise OSError("transient disk error")

        live.edge_store.fault_hook = flaky
        bg = BackgroundCompactor(Compactor(live), staleness_threshold=50,
                                 poll_interval=0.005, max_backoff=0.02,
                                 seed=4)
        events = []
        bg.add_listener(lambda e, info: events.append(e))
        rng = np.random.default_rng(6)
        with bg:
            self._fill(live, rng, 120)
            bg.kick()
            deadline = time.monotonic() + 10
            while ("compaction-done" not in events
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        assert events.count("compaction-failed") == 2
        assert "compaction-done" in events
        assert bg.failures == 2 and bg.runs >= 1
        assert live.staleness() == 0
        health = bg.health()
        assert health["consecutive_failures"] == 0    # success reset it
        assert health["failures"] == 2                # history is kept

    def test_degraded_service_keeps_serving(self, tmp_path):
        """While compaction is failing, ingest and queries proceed from the
        overlay — degradation, not an outage."""
        import time
        live = make_live(tmp_path, p=4, num_nodes=60, num_edges=200, seed=8)
        live.edge_store.fault_hook = lambda point: (_ for _ in ()).throw(
            OSError("disk gone")) if point == CrashPoint.REWRITE_STAGED \
            else None
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=5)
        model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(5))
        engine = ServingEngine.over_live(live, model, buffer_capacity=3)
        bg = BackgroundCompactor(Compactor(live), staleness_threshold=10,
                                 poll_interval=0.005, max_backoff=0.01,
                                 seed=8)
        rng = np.random.default_rng(11)
        ref = base_order_edges(live)
        with bg:
            deadline = time.monotonic() + 10
            while bg.failures < 2 and time.monotonic() < deadline:
                n = 20
                ins = np.empty((n, live.width), dtype=np.int64)
                ins[:, 0] = rng.integers(0, live.num_nodes, n)
                ins[:, -1] = rng.integers(0, live.num_nodes, n)
                live.insert_edges(ins)
                ref = np.concatenate([ref, ins], axis=0)
                rows = engine.get_embeddings(np.arange(20))
                assert np.isfinite(rows).all()
        assert bg.failures >= 2
        assert bg.health()["state"] == "degraded"
        assert live.staleness() > 0               # merges kept failing...
        rebuilt = rebuild_offline(tmp_path, live, ref, name="degraded")
        p = live.num_partitions
        for i in range(p):                        # ...but the view is exact
            for j in range(p):
                assert np.array_equal(
                    live.bucket_edges(i, j, record_io=False),
                    rebuilt.read_bucket(i, j, record_io=False))
        rebuilt.close()


# ---------------------------------------------------------------------------
# Lock primitives
# ---------------------------------------------------------------------------

class TestLockPrimitives:
    def test_shared_is_concurrent_exclusive_is_not(self):
        import time
        lock = SharedExclusiveLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.shared():
                inside.wait()                     # both readers in at once

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with lock.exclusive():
                acquired.set()
                release.wait(timeout=5)

        w = threading.Thread(target=writer)
        w.start()
        assert acquired.wait(timeout=5)
        got_shared = threading.Event()

        def late_reader():
            with lock.shared():
                got_shared.set()

        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.05)
        assert not got_shared.is_set()            # excluded while held
        release.set()
        assert got_shared.wait(timeout=5)
        w.join(timeout=5)
        r.join(timeout=5)

    def test_shared_reentrant_and_upgrade_refused(self):
        lock = SharedExclusiveLock()
        with lock.shared():
            with lock.shared():                   # reentrant
                with pytest.raises(RuntimeError):
                    lock.acquire_exclusive()      # upgrade would deadlock

    def test_exclusive_holder_may_read(self):
        lock = SharedExclusiveLock()
        with lock.exclusive():
            with lock.shared():
                pass


# ---------------------------------------------------------------------------
# Fleet worker admission gate: in-flight bound, one engine turn, deadline
# ---------------------------------------------------------------------------

class _StubEngine:
    """Minimal engine: optional gate event stalls execution; ``entered``
    is set once a call reaches the gate, and ``calls`` records each call's
    ids."""

    def __init__(self, gate=None, dim=4):
        self.gate = gate
        self.dim = dim
        self.entered = threading.Event()
        self.calls = []

    def get_embeddings(self, ids):
        self.calls.append(np.asarray(ids).tolist())
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=5)
        return np.zeros((len(np.asarray(ids)), self.dim), dtype=np.float32)


def _gated_dispatcher(tmp_path, engine, **gate_args):
    from repro.fleet.worker import WorkerConfig, _Dispatcher, _Gate
    from repro.serve import GracefulDrain
    cfg = WorkerConfig(index=0, spec={}, workdir=str(tmp_path))
    gate = _Gate(**gate_args)
    return gate, _Dispatcher(cfg, engine, gate,
                             GracefulDrain(exit_after=False))


def _embed(dispatcher, ids, replies):
    replies.append(dispatcher.handle({"op": "embed", "ids": ids}))


class TestBatcherBounds:
    def test_overload_raises_typed_error_and_counts(self, tmp_path):
        import time
        engine = _StubEngine(gate=threading.Event())
        max_queue = 3
        gate, dispatcher = _gated_dispatcher(tmp_path, engine,
                                             max_queue=max_queue)
        replies = []
        threads = [threading.Thread(target=_embed,
                                    args=(dispatcher, [0, 1], replies))
                   for _ in range(max_queue)]
        threads[0].start()
        assert engine.entered.wait(timeout=10)     # one in the engine
        for t in threads[1:]:
            t.start()
        deadline = time.monotonic() + 10
        while gate.stats()["in_flight"] < max_queue:  # two wait their turn
            assert time.monotonic() < deadline
            time.sleep(0.001)
        reply = dispatcher.handle({"op": "embed", "ids": [0, 1]})
        assert not reply["ok"] and reply["error"]["code"] == "overloaded"
        assert gate.stats()["overloads"] == 1
        engine.gate.set()
        for t in threads:
            t.join(timeout=10)
        assert [r["ok"] for r in replies] == [True] * max_queue
        assert all(len(r["embeddings"]) == 2 for r in replies)
        assert gate.stats()["requests"] == max_queue
        assert gate.stats()["in_flight"] == 0

    def test_timeout_delivered_and_counted(self, tmp_path):
        engine = _StubEngine(gate=threading.Event())
        gate, dispatcher = _gated_dispatcher(tmp_path, engine,
                                             timeout_ms=30.0)
        replies = []
        busy = threading.Thread(target=_embed,
                                args=(dispatcher, [0, 1, 2], replies))
        busy.start()
        assert engine.entered.wait(timeout=10)
        reply = dispatcher.handle({"op": "embed", "ids": [3]})
        assert not reply["ok"] and reply["error"]["code"] == "timeout"
        engine.gate.set()
        busy.join(timeout=10)
        assert replies[0]["ok"]
        assert gate.stats()["timeouts"] == 1

    def test_expired_requests_dropped_by_worker(self, tmp_path):
        engine = _StubEngine(gate=threading.Event())
        gate, dispatcher = _gated_dispatcher(tmp_path, engine,
                                             timeout_ms=20.0)
        replies = []
        slow = threading.Thread(target=_embed,
                                args=(dispatcher, [0, 1], replies))
        slow.start()                                   # occupies the engine
        assert engine.entered.wait(timeout=10)
        doomed = dispatcher.handle({"op": "embed", "ids": [7, 8]})
        engine.gate.set()
        slow.join(timeout=10)
        assert replies[0]["ok"] and len(replies[0]["embeddings"]) == 2
        assert doomed["error"]["code"] == "timeout"
        # The timed-out query never reached the engine, then or later.
        assert engine.calls == [[0, 1]]
        assert gate.stats()["requests"] == 1

    def test_one_engine_call_at_a_time_under_load(self, tmp_path):
        """More handler threads than cores, a short switch interval: the
        engine never runs two calls at once, and no count is lost."""
        import sys
        import time

        class _Overlap:
            def __init__(self):
                self.lock = threading.Lock()
                self.active = self.most = 0

            def get_embeddings(self, ids):
                with self.lock:
                    self.active += 1
                    self.most = max(self.most, self.active)
                time.sleep(0.0001)
                with self.lock:
                    self.active -= 1
                return np.zeros((len(ids), 2), dtype=np.float32)

        engine = _Overlap()
        gate, dispatcher = _gated_dispatcher(tmp_path, engine)
        replies = []
        workers, per_worker = 8, 50

        def client():
            for i in range(per_worker):
                _embed(dispatcher, [i], replies)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client)
                       for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert engine.most == 1
        assert len(replies) == workers * per_worker
        assert all(r["ok"] for r in replies)
        stats = gate.stats()
        assert stats["requests"] == workers * per_worker
        assert stats["in_flight"] == 0


# ---------------------------------------------------------------------------
# Concurrent ingest + serve: writers on live.lock, queries on the shared side
# ---------------------------------------------------------------------------

class TestConcurrentIngestServe:
    @pytest.mark.parametrize("seed", [32, 35])
    def test_parallel_writers_readers_and_background_compaction(
            self, tmp_path, seed):
        """Multiple ingest threads, multiple query threads, and the
        background compactor all running at once: no torn reads, no
        errors, and the final view is bit-identical to an offline rebuild
        of everything ingested."""
        live = make_live(tmp_path, num_nodes=200, num_edges=800, p=4,
                         seed=seed)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=5)
        model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(5))
        engine = ServingEngine.over_live(live, model, buffer_capacity=3)
        bg = BackgroundCompactor(Compactor(live), staleness_threshold=400,
                                 poll_interval=0.005, seed=1)
        base_ref = base_order_edges(live)
        errors = []
        chunks = [[] for _ in range(3)]

        def writer(k):
            rng = np.random.default_rng(100 + k)
            try:
                for _ in range(25):
                    n = int(rng.integers(10, 30))
                    ins = np.empty((n, 2), dtype=np.int64)
                    ins[:, 0] = rng.integers(0, 200, n)
                    ins[:, 1] = rng.integers(0, 200, n)
                    live.insert_edges(ins)
                    chunks[k].append(ins)
            except Exception as exc:    # pragma: no cover - failure path
                errors.append(exc)

        stop = threading.Event()

        def reader(k):
            rng = np.random.default_rng(200 + k)
            try:
                while not stop.is_set():
                    rows = engine.get_embeddings(rng.integers(0, 200, 16))
                    assert rows.shape == (16, 8)
                    assert np.isfinite(rows).all()
            except Exception as exc:    # pragma: no cover - failure path
                errors.append(exc)

        with bg:
            writers = [threading.Thread(target=writer, args=(k,))
                       for k in range(3)]
            readers = [threading.Thread(target=reader, args=(k,))
                       for k in range(2)]
            for t in writers + readers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            stop.set()
            for t in readers:
                t.join(timeout=60)
        assert not errors
        # Equivalence: streamed state == offline rebuild of base + all
        # inserted chunks (writer interleaving does not affect the set;
        # per-bucket order is seq order, which any serial reference with
        # the same per-bucket arrival order reproduces — compare sets).
        final = live.materialize()
        total = sum(len(c) for ch in chunks for c in ch)
        assert live.log.events_appended == total
        ref = np.concatenate(
            [base_ref] + [c for ch in chunks for c in ch])
        assert final.num_edges == len(ref)
        a = np.sort(np.stack([final.src, final.dst], axis=1).view(
            [("s", np.int64), ("d", np.int64)]).ravel())
        b = np.sort(ref.copy().view(
            [("s", np.int64), ("d", np.int64)]).ravel())
        assert np.array_equal(a, b)

    def test_refresh_writeback_overlaps_queries(self, tmp_path):
        """Queries running beside a refresh's table write-back always see
        finite, well-formed rows, and both keep making progress: the
        write windows wait for them and they for the windows, no retry."""
        import time
        live = make_live(tmp_path, num_nodes=160, num_edges=800, p=4,
                         seed=17)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="none",
                                   batch_size=64, num_negatives=8,
                                   num_epochs=1, seed=17)
        trainer = ContinualTrainer(live, cfg, num_relations=1,
                                   buffer_capacity=2)
        engine = ServingEngine.over_live(live, trainer.model,
                                         buffer_capacity=2)
        rng = np.random.default_rng(3)
        ins = np.empty((600, 2), dtype=np.int64)
        ins[:, 0] = rng.integers(0, 160, 600)
        ins[:, 1] = rng.integers(0, 160, 600)
        live.insert_edges(ins)
        Compactor(live).compact()
        errors = []
        answered = [0, 0]
        stop = threading.Event()

        def query(k):
            qrng = np.random.default_rng(5 + k)
            try:
                while not stop.is_set():
                    rows = engine.get_embeddings(qrng.integers(0, 160, 8))
                    assert np.isfinite(rows).all()
                    answered[k] += 1
            except Exception as exc:    # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=query, args=(k,))
                   for k in range(2)]
        for t in readers:
            t.start()
        try:
            for _ in range(3):
                trainer.refresh()
            deadline = time.monotonic() + 10
            while not all(answered) and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=60)
        assert not errors
        assert all(answered)
        assert takes_side(live.rw, "exclusive")


# ---------------------------------------------------------------------------
# Durable stream job: crash + resume through the API (satellite)
# ---------------------------------------------------------------------------

class TestDurableStreamJob:
    def test_wal_run_reattaches_and_resumes_service(self, tmp_path):
        from repro.api import (DataSpec, JobSpec, ModelSpec, StorageSpec,
                               StreamSpec)
        from repro.api import run as api_run

        def spec(events, compact_every):
            return JobSpec(
                kind="stream",
                data=DataSpec(dataset="fb15k237", scale=0.02),
                model=ModelSpec(dim=8),
                storage=StorageSpec(partitions=4, buffer=2,
                                    workdir=str(tmp_path / "wd")),
                stream=StreamSpec(events=events, event_batch=200,
                                  compact_every=compact_every, verify=True,
                                  wal=True, background_compaction=True))

        first = api_run(spec(600, 400))
        assert first["health"]["compaction"]["state"] in ("idle",
                                                          "compacting")
        assert (tmp_path / "wd" / "wal").is_dir()
        assert (tmp_path / "wd" / "stream-state.json").exists()
        # Second run over the same workdir: recovery reattaches the stores
        # and replays the journal instead of rebuilding from the dataset;
        # verify=True then proves the recovered view equals a rebuild.
        second = api_run(spec(300, 0))
        assert second["num_nodes"] >= first["num_nodes"]
        # Deletes can come up short when a sampled bucket is empty.
        assert 250 <= second["events_appended"] <= 300

    @staticmethod
    def _wal_spec(tmp_path, **stream):
        from repro.api import (DataSpec, JobSpec, ModelSpec, StorageSpec,
                               StreamSpec)
        return JobSpec(
            kind="stream", data=DataSpec(dataset="fb15k237", scale=0.02),
            model=ModelSpec(dim=8),
            storage=StorageSpec(partitions=4, buffer=2,
                                workdir=str(tmp_path / "wd")),
            stream=StreamSpec(event_batch=200, wal=True, **stream))

    def test_older_spill_workdir_is_refused(self, tmp_path):
        """Recovery over a workdir holding the older format's npz spill
        files fails loudly instead of replaying the journal without them."""
        from repro.api import JobError
        from repro.api import run as api_run
        api_run(self._wal_spec(tmp_path, events=400, compact_every=0))
        spill = tmp_path / "wd" / "edges.bin.spill" / "spill-00000000.npz"
        spill.parent.mkdir()
        np.savez(spill, **{"0:0:seq": np.arange(3)})
        with pytest.raises(JobError, match="spill-00000000.npz"):
            api_run(self._wal_spec(tmp_path, events=0))

    def test_wal_without_fsync_is_refused(self, tmp_path):
        from repro.api import run as api_run
        with pytest.raises(ValueError, match="fsync_every"):
            api_run(self._wal_spec(tmp_path, events=200, fsync_every=0))

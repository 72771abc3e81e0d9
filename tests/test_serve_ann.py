"""ANN top-k vs the exact oracle, plus the exact sweep's own contracts.

The load-bearing guarantees:

* **Recall property** — the pruned (IVF cluster bound) sweep reaches
  recall@k >= 0.95 against the exact oracle across table sizes, skewed
  and clustered embeddings, `exclude` lists, every shipped decoder, and
  post-growth live views (the bound is sound, so in practice recall is
  1.0; the floor is the asserted worst-case contract).
* **Exact oracle parity** — `exact=True` equals scoring every node
  offline, with ties broken deterministically by ascending node id.
* **Bit-equal to exact** — the ANN sweep scores a surviving partition as
  the same in-place block the exact sweep scores, so its ids and scores
  equal the exact sweep's bit for bit.
* **Visit-order determinism** — the same query returns the same ids
  whatever order partitions are visited in (regression for the unstable
  argpartition truncation).
* **Clamp contract** — the result width is `min(k, candidates)` where
  candidates excludes the `exclude` list; over a live view the clamp
  reads the dynamic scheme, so grown nodes are rankable immediately.
"""

import numpy as np
import pytest

from repro.graph.edge_list import Graph
from repro.graph.partition import PartitionScheme
from repro.nn.tensor import Tensor
from repro.serve import AnnIndex, RequestBatcher, ServingEngine
from repro.storage import NodeStore
from repro.storage.edge_store import EdgeBucketStore
from repro.stream import LiveGraph
from repro.train import LinkPredictionConfig, LinkPredictionModel


def make_table(num_nodes, dim, kind, seed=0):
    """Candidate tables the index must handle: uniform noise (clusters
    barely help — the worst case for pruning, recall must still hold) and
    a Gaussian mixture (the shape trained embeddings actually take)."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-1, 1, size=(num_nodes, dim)).astype(np.float32)
    if kind == "clustered":
        centers = rng.normal(0, 1.0, size=(12, dim))
        assign = rng.integers(0, len(centers), num_nodes)
        table = centers[assign] + rng.normal(0, 0.05, size=(num_nodes, dim))
        return table.astype(np.float32)
    if kind == "blocked":
        # Clusters contiguous in the id space — the shape partitioned
        # training produces (partition ~ community), where whole-partition
        # pruning pays off.
        centers = rng.normal(0, 1.0, size=(12, dim))
        assign = np.sort(rng.integers(0, len(centers), num_nodes))
        table = centers[assign] + rng.normal(0, 0.05, size=(num_nodes, dim))
        return table.astype(np.float32)
    if kind == "skewed":        # heavy-tailed row norms
        table = rng.normal(0, 1, size=(num_nodes, dim))
        table *= rng.pareto(2.0, size=(num_nodes, 1)) + 0.1
        return table.astype(np.float32)
    raise ValueError(kind)


def make_engine(tmp_path, table, p, capacity, decoder="distmult",
                num_relations=3, name="serve", **kw):
    num_nodes, dim = table.shape
    scheme = PartitionScheme.uniform(num_nodes, p)
    store = NodeStore(tmp_path / f"{name}.bin", scheme, dim, learnable=False)
    store.initialize(values=table)
    cfg = LinkPredictionConfig(embedding_dim=dim, encoder="none",
                               decoder=decoder, seed=0)
    model = LinkPredictionModel(cfg, num_relations,
                                rng=np.random.default_rng(3))
    return ServingEngine(model, store, capacity, **kw)


def oracle_topk(engine, table, src, k, rel=0, exclude=()):
    """Top-k by scoring the full table in one pass, ties broken by id —
    the independent definition both sweeps must reproduce."""
    decoder = engine.decoder
    scores = decoder.score_against(Tensor(table[[src]]),
                                   np.array([rel], dtype=np.int64),
                                   Tensor(table)).data[0]
    keep = np.ones(len(table), dtype=bool)
    for x in exclude:
        if 0 <= int(x) < len(table):
            keep[int(x)] = False
    ids = np.flatnonzero(keep)
    order = np.lexsort((ids, -scores[ids]))
    ids = ids[order][:k]
    return ids, scores[ids]


def recall_at_k(got_ids, want_ids):
    if len(want_ids) == 0:
        return 1.0
    return len(np.intersect1d(got_ids, want_ids)) / len(want_ids)


# ---------------------------------------------------------------------------
# Recall property: ANN vs exact across tables, decoders, excludes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["uniform", "clustered", "blocked", "skewed"])
@pytest.mark.parametrize("num_nodes,p", [(400, 4), (2000, 8)])
def test_ann_recall_floor_against_exact(tmp_path, kind, num_nodes, p):
    table = make_table(num_nodes, 16, kind, seed=num_nodes + p)
    engine = make_engine(tmp_path, table, p, capacity=2)
    rng = np.random.default_rng(9)
    srcs = rng.integers(0, num_nodes, 6)
    excludes = [(), tuple(int(x) for x in srcs),
                tuple(int(x) for x in rng.integers(0, num_nodes, 40))]
    for exclude in excludes:
        ids_x, sc_x = engine.topk_targets_batch(srcs, 10, rel=1,
                                                exclude=exclude, exact=True)
        ids_a, sc_a = engine.topk_targets_batch(srcs, 10, rel=1,
                                                exclude=exclude)
        for row in range(len(srcs)):
            assert recall_at_k(ids_a[row], ids_x[row]) >= 0.95
        # Score values agree even where a float tie might swap ids.
        np.testing.assert_allclose(sc_a, sc_x, atol=1e-5)
        for x in exclude:
            assert x not in ids_a


@pytest.mark.parametrize("decoder,num_relations",
                         [("distmult", 3), ("dot", 1), ("complex", 3)])
def test_ann_recall_every_decoder(tmp_path, decoder, num_relations):
    table = make_table(600, 16, "clustered", seed=5)
    engine = make_engine(tmp_path, table, 6, capacity=2, decoder=decoder,
                         num_relations=num_relations)
    srcs = [0, 99, 300, 599]
    ids_x, sc_x = engine.topk_targets_batch(srcs, 10, exact=True)
    ids_a, sc_a = engine.topk_targets_batch(srcs, 10)
    for row in range(len(srcs)):
        assert recall_at_k(ids_a[row], ids_x[row]) >= 0.95
    np.testing.assert_allclose(sc_a, sc_x, atol=1e-5)


@pytest.mark.parametrize("kind", ["uniform", "clustered", "blocked", "skewed"])
@pytest.mark.parametrize("decoder,num_relations",
                         [("distmult", 3), ("dot", 1), ("complex", 3)])
def test_ann_bit_equal_to_exact(tmp_path, kind, decoder, num_relations):
    table = make_table(1200, 16, kind, seed=17)
    engine = make_engine(tmp_path, table, 8, capacity=2, decoder=decoder,
                         num_relations=num_relations)
    srcs = [0, 7, 450, 1199]
    rel = [0, num_relations - 1, 0, num_relations - 1]
    for exclude in ((), (0, 7, 450, 1199, 3, 800)):
        ids_x, sc_x = engine.topk_targets_batch(srcs, 10, rel=rel,
                                                exclude=exclude, exact=True)
        ids_a, sc_a = engine.topk_targets_batch(srcs, 10, rel=rel,
                                                exclude=exclude)
        np.testing.assert_array_equal(ids_a, ids_x)
        assert sc_a.tobytes() == sc_x.tobytes()


def test_ann_prunes_partitions_on_clustered_data(tmp_path):
    """The point of the index: on clusterable tables whole partitions are
    skipped without being scored, and only a fraction of rows is ever
    kept as candidates. (Correctness is covered above; this pins the
    sublinearity.)"""
    table = make_table(4000, 16, "blocked", seed=11)
    engine = make_engine(tmp_path, table, 16, capacity=4)
    engine.topk_targets_batch([5, 1000], 10)
    s = engine.stats
    assert s.topk_parts_pruned > 0
    assert s.topk_parts_scanned < 16
    assert 0 < s.ann_rows_scored < 4000
    # Top-k reads the table in place: nothing is swapped or loaded.
    assert s.swaps == 0
    assert engine.store.stats.partition_loads == 0


def test_ann_index_rebuilds_lazily_and_on_invalidate(tmp_path):
    table = make_table(300, 8, "clustered", seed=2)
    engine = make_engine(tmp_path, table, 3, capacity=2)
    assert engine.ann_index is None            # no top-k yet -> no build
    engine.get_embeddings(np.arange(10))
    assert engine.ann_index is None
    engine.topk_targets(0, 5)
    index = engine.ann_index
    assert index is not None
    st = index.stats()
    assert st["partitions_built"] == 3 and st["partitions_stale"] == 0
    builds = st["builds"]
    index.invalidate([1])
    engine.topk_targets(0, 5)
    assert index.stats()["builds"] == builds + 1   # only the stale one


def test_ann_disabled_and_exact_flag_never_build(tmp_path):
    table = make_table(200, 8, "uniform", seed=3)
    off = make_engine(tmp_path, table, 2, capacity=2, name="off", ann=False)
    off.topk_targets(0, 5)
    assert off.ann_index is None and off.stats.topk_parts_pruned == 0
    on = make_engine(tmp_path, table, 2, capacity=2, name="on")
    on.topk_targets(0, 5, exact=True)
    assert on.ann_index is None                # escape hatch stays cheap


def test_empty_partitions_and_tiny_tables(tmp_path):
    # A scheme with an empty middle partition: the index must carry a
    # zero-cluster cell and both sweeps must skip it cleanly.
    table = make_table(10, 4, "uniform", seed=4)
    scheme = PartitionScheme(10, 3, np.array([0, 5, 5, 10], dtype=np.int64))
    store = NodeStore(tmp_path / "t.bin", scheme, 4, learnable=False)
    store.initialize(values=table)
    cfg = LinkPredictionConfig(embedding_dim=4, encoder="none", seed=0)
    model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(3))
    engine = ServingEngine(model, store, 2)
    ids_x, _ = engine.topk_targets(0, 5, exact=True)
    ids_a, _ = engine.topk_targets(0, 5)
    np.testing.assert_array_equal(ids_x, ids_a)
    assert len(ids_x) == 5


# ---------------------------------------------------------------------------
# Exact oracle parity + deterministic ties (satellite bugfixes)
# ---------------------------------------------------------------------------

def test_exact_matches_offline_oracle(tmp_path):
    table = make_table(500, 8, "uniform", seed=6)
    engine = make_engine(tmp_path, table, 5, capacity=2)
    for src, rel, exclude in [(0, 0, ()), (7, 2, (7, 123, 456)),
                              (42, 1, tuple(range(100)))]:
        want_ids, want_sc = oracle_topk(engine, table, src, 12, rel=rel,
                                        exclude=exclude)
        ids, sc = engine.topk_targets(src, 12, rel=rel, exclude=exclude,
                                      exact=True)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(sc, want_sc)


def test_tied_scores_break_by_node_id(tmp_path):
    """Duplicate rows produce exactly tied scores; the k boundary must
    prefer the smaller node id, on both sweeps."""
    base = make_table(4, 8, "uniform", seed=7)
    table = base[np.zeros(96, dtype=np.int64)].copy()   # 96 identical rows
    engine = make_engine(tmp_path, table, 8, capacity=2)
    ids_x, _ = engine.topk_targets(0, 10, exact=True)
    np.testing.assert_array_equal(ids_x, np.arange(10))
    ids_a, _ = engine.topk_targets(0, 10)
    np.testing.assert_array_equal(ids_a, np.arange(10))


def test_topk_deterministic_across_residency_states(tmp_path):
    """Regression (unstable argpartition truncation): which tied-score
    candidate survived the running best-k depended on partition visit
    order — the same query could answer differently depending on cache
    state, and the ANN sweep visits partitions in another order than the
    exact one."""
    rng = np.random.default_rng(8)
    distinct = rng.uniform(-1, 1, size=(3, 8)).astype(np.float32)
    table = distinct[rng.integers(0, 3, 120)]           # ties everywhere
    engine_cold = make_engine(tmp_path, table, 8, capacity=3, name="cold")
    ids_cold, sc_cold = engine_cold.topk_targets(0, 7, exact=True)

    engine_warm = make_engine(tmp_path, table, 8, capacity=3, name="warm")
    # Lookups in partitions 5 and 6 first: they leave nothing resident
    # that could reorder the sweep.
    warm_ids = np.concatenate([engine_warm.scheme.partition_nodes(5)[:2],
                               engine_warm.scheme.partition_nodes(6)[:2]])
    engine_warm.get_embeddings(warm_ids)
    assert engine_warm.stats.swaps == 0
    assert engine_warm.store.stats.partition_loads == 0
    ids_warm, sc_warm = engine_warm.topk_targets(0, 7, exact=True)

    np.testing.assert_array_equal(ids_cold, ids_warm)
    np.testing.assert_array_equal(sc_cold, sc_warm)
    # The ANN path ignores residency for its visit order entirely.
    ids_ann, _ = engine_warm.topk_targets(0, 7)
    np.testing.assert_array_equal(ids_ann, ids_cold)


def test_k_clamps_to_candidate_count_net_of_exclude(tmp_path):
    table = make_table(60, 8, "uniform", seed=9)
    engine = make_engine(tmp_path, table, 4, capacity=2)
    # k past the table: width is the candidate count, not num_nodes.
    exclude = list(range(10)) + [-5, 999, 4, 4]   # dups + out-of-range noise
    ids, sc = engine.topk_targets(0, 100, exclude=exclude, exact=True)
    assert ids.shape == sc.shape == (50,)
    assert not np.isin(ids, np.arange(10)).any()
    ids_a, _ = engine.topk_targets(0, 100, exclude=exclude)
    assert len(ids_a) == 50
    # Everything excluded -> empty result, not an error.
    ids, sc = engine.topk_targets(0, 5, exclude=range(60))
    assert ids.shape == sc.shape == (0,)
    # Batched form keeps the (n, k_eff) contract.
    ids, sc = engine.topk_targets_batch([0, 1, 2], 100, exclude=exclude)
    assert ids.shape == sc.shape == (3, 50)


# ---------------------------------------------------------------------------
# Live views: growth, refresh invalidation, dynamic clamp
# ---------------------------------------------------------------------------

def make_live(tmp_path, num_nodes=120, num_edges=600, p=6, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    graph = Graph(num_nodes=num_nodes,
                  src=rng.integers(0, num_nodes, num_edges),
                  dst=rng.integers(0, num_nodes, num_edges))
    scheme = PartitionScheme.uniform(num_nodes, p)
    store = NodeStore(tmp_path / "live-nodes.bin", scheme, dim,
                      learnable=True)
    store.initialize(rng=np.random.default_rng(seed + 1))
    edges = EdgeBucketStore(tmp_path / "live-edges.bin", graph, scheme)
    return LiveGraph(store, edges, seed=seed + 7)


def test_live_growth_reranks_and_reclamps(tmp_path):
    live = make_live(tmp_path, seed=10)
    cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=0)
    model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(3))
    engine = ServingEngine.over_live(live, model, buffer_capacity=3)
    engine.topk_targets(0, 5)                  # build the index pre-growth
    grown = live.add_nodes(9)
    total = live.num_nodes
    # Clamp reads the dynamic scheme: k = total-1 after excluding the src.
    for exact in (True, False):
        ids, sc = engine.topk_targets(0, total, exclude=[0], exact=exact)
        assert len(ids) == total - 1
        assert np.isin(grown, ids).all()       # grown nodes are candidates
    # Parity with an offline engine over the grown table.
    table = live.node_store.read_all()
    offline = make_engine(tmp_path, table, live.num_partitions, 3,
                          num_relations=1, name="off")
    ids_live, sc_live = engine.topk_targets(3, 12)
    ids_off, sc_off = offline.topk_targets(3, 12, exact=True)
    np.testing.assert_array_equal(ids_live, ids_off)
    np.testing.assert_allclose(sc_live, sc_off, atol=1e-5)


def test_live_refresh_invalidates_ann_partitions(tmp_path):
    live = make_live(tmp_path, seed=12)
    cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=0)
    model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(3))
    engine = ServingEngine.over_live(live, model, buffer_capacity=3)
    engine.topk_targets(0, 5)
    index = engine.ann_index
    assert index is not None and index.stats()["partitions_stale"] == 0
    # A refresh write-back announces touched partitions; their clusters
    # must go stale and rebuild before the next pruned sweep.
    with live.table_write():
        live.node_store.write_span(0, np.full(
            (live.scheme.partition_size(0), 8), 0.5, dtype=np.float32))
    live.notify_table_updated([0])
    assert index.stats()["partitions_stale"] == 1
    ids_a, sc_a = engine.topk_targets(1, 8)
    assert index.stats()["partitions_stale"] == 0
    ids_x, sc_x = engine.topk_targets(1, 8, exact=True)
    np.testing.assert_array_equal(ids_a, ids_x)
    np.testing.assert_array_equal(sc_a, sc_x)


# ---------------------------------------------------------------------------
# Batcher coalescing with the exact flag
# ---------------------------------------------------------------------------

def test_batcher_groups_exact_separately(tmp_path):
    table = make_table(300, 8, "clustered", seed=13)
    engine = make_engine(tmp_path, table, 6, capacity=2)
    with RequestBatcher(engine, max_batch=8) as batcher:
        reqs = [batcher.submit("topk",
                               np.array([s, 0, 5, ex], dtype=np.int64))
                for s, ex in ((2, 0), (30, 1), (60, 0), (90, 1))]
        results = [r.wait() for r in reqs]
    for (ids, sc), (s, ex) in zip(results, ((2, 0), (30, 1), (60, 0),
                                            (90, 1))):
        want_ids, want_sc = engine.topk_targets(s, 5, exact=bool(ex))
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_allclose(sc, want_sc, rtol=1e-5)


def test_batcher_legacy_payload_and_helper(tmp_path):
    table = make_table(200, 8, "uniform", seed=14)
    engine = make_engine(tmp_path, table, 4, capacity=2)
    with RequestBatcher(engine, max_batch=4) as batcher:
        legacy = batcher.submit("topk", np.array([7, 0, 4], dtype=np.int64))
        ids_new, _ = batcher.topk_targets(7, 4, exact=True)
        ids_old, _ = legacy.wait()
    want_ann, _ = engine.topk_targets(7, 4)
    want_exact, _ = engine.topk_targets(7, 4, exact=True)
    np.testing.assert_array_equal(ids_old, want_ann)   # 3-entry -> ann default
    np.testing.assert_array_equal(ids_new, want_exact)


# ---------------------------------------------------------------------------
# AnnIndex internals
# ---------------------------------------------------------------------------

def test_cluster_bounds_are_sound(tmp_path):
    """Every member's true dot-product score is below its cluster bound —
    the invariant every pruning decision rests on."""
    table = make_table(500, 12, "skewed", seed=15)
    scheme = PartitionScheme.uniform(500, 5)
    store = NodeStore(tmp_path / "t.bin", scheme, 12, learnable=False)
    store.initialize(values=table)
    index = AnnIndex(store, cluster_size=32)
    index.ensure_current()
    queries = make_table(8, 12, "uniform", seed=16)
    bounds = index.cluster_bounds(queries)
    for part in range(5):
        pc = index.partition(part)
        lo = int(scheme.boundaries[part])
        for j in range(pc.num_clusters):
            rows = pc.rows[pc.indptr[j]:pc.indptr[j + 1]]
            scores = queries.astype(np.float64) @ table[lo + rows].T.astype(
                np.float64)
            assert (scores.max(axis=1) <= bounds[part][:, j]).all()


def test_kmeans_cluster_shapes(tmp_path):
    table = make_table(130, 8, "clustered", seed=17)
    scheme = PartitionScheme.uniform(130, 2)
    store = NodeStore(tmp_path / "t.bin", scheme, 8, learnable=False)
    store.initialize(values=table)
    index = AnnIndex(store, cluster_size=16)
    index.ensure_current()
    for part in range(2):
        pc = index.partition(part)
        size = scheme.partition_size(part)
        assert pc.num_rows == size
        # Every local row appears exactly once across clusters.
        np.testing.assert_array_equal(np.sort(pc.rows), np.arange(size))
        assert pc.indptr[-1] == size
        assert (pc.radii >= 0).all()
        assert pc.centroids.shape == (pc.num_clusters, 8)
    with pytest.raises(ValueError, match="cluster_size"):
        AnnIndex(store, cluster_size=0)

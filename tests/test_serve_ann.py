"""The exact top-k sweep against an offline oracle, plus its contracts.

The load-bearing guarantees:

* **Oracle parity** — every top-k equals scoring the whole table offline
  in one pass, bit for bit, across table shapes, every linear decoder and
  ``exclude`` lists, with ties broken deterministically by ascending node
  id and NaN scores ranked after every other score; ``exact=True`` and
  the default return the same bytes.
* **Visit-order determinism** — the same query returns the same ids
  whatever the chunking or residency state (regression for the unstable
  argpartition truncation).
* **Clamp contract** — the result width is `min(k, candidates)` where
  candidates excludes the `exclude` list; over a live view the clamp
  reads the dynamic scheme, so grown nodes are rankable immediately.
* **Bounded working set** — the sweep holds one chunk of scores at a
  time, so its peak allocation does not grow with the table.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph.edge_list import Graph
from repro.graph.partition import PartitionScheme
from repro.nn.tensor import Tensor
from repro.serve import ServingEngine
from repro.storage import NodeStore
from repro.storage.edge_store import EdgeBucketStore
from repro.stream import LiveGraph
from repro.train import LinkPredictionConfig, LinkPredictionModel


def make_table(num_nodes, dim, kind, seed=0):
    """Candidate tables: uniform noise, a Gaussian mixture (the shape
    trained embeddings take), the mixture sorted by cluster (partition ~
    community, as partitioned training produces) and heavy-tailed norms."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-1, 1, size=(num_nodes, dim)).astype(np.float32)
    if kind == "clustered":
        centers = rng.normal(0, 1.0, size=(12, dim))
        assign = rng.integers(0, len(centers), num_nodes)
        table = centers[assign] + rng.normal(0, 0.05, size=(num_nodes, dim))
        return table.astype(np.float32)
    if kind == "blocked":
        # Clusters contiguous in the id space.
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
                num_relations=3, name="serve"):
    num_nodes, dim = table.shape
    scheme = PartitionScheme.uniform(num_nodes, p)
    store = NodeStore(tmp_path / f"{name}.bin", scheme, dim, learnable=False)
    store.initialize(values=table)
    cfg = LinkPredictionConfig(embedding_dim=dim, encoder="none",
                               decoder=decoder, seed=0)
    model = LinkPredictionModel(cfg, num_relations,
                                rng=np.random.default_rng(3))
    return ServingEngine(model, store, capacity)


def oracle_topk(engine, table, src, k, rel=0, exclude=()):
    """Top-k by scoring the full table in one pass — the independent
    definition the sweep must reproduce. Order: score descending, NaN
    scores after every other score, then ascending node id.

    A list of sources is scored as one batch, the shape the engine's
    batched sweep multiplies (BLAS may round a one-row product
    differently from a many-row one)."""
    srcs = np.atleast_1d(np.asarray(src, dtype=np.int64))
    rels = np.broadcast_to(np.asarray(rel, dtype=np.int64), srcs.shape)
    scores = engine.decoder.score_against(Tensor(table[srcs]), rels,
                                          Tensor(table)).data
    keep = np.ones(len(table), dtype=bool)
    for x in exclude:
        if 0 <= int(x) < len(table):
            keep[int(x)] = False
    cand = np.flatnonzero(keep)
    ids = np.empty((len(srcs), min(k, len(cand))), dtype=np.int64)
    for row, s in enumerate(scores[:, cand]):
        order = np.lexsort((cand, -s, np.isnan(s)))
        ids[row] = cand[order][:k]
    out_scores = np.take_along_axis(scores, ids, axis=1)
    if np.ndim(src) == 0:
        return ids[0], out_scores[0]
    return ids, out_scores


# ---------------------------------------------------------------------------
# Oracle parity, NaN and tie order, width clamp
# ---------------------------------------------------------------------------

def test_empty_partitions_and_tiny_tables(tmp_path):
    # A scheme with an empty middle partition: the sweep must skip it
    # cleanly.
    table = make_table(10, 4, "uniform", seed=4)
    scheme = PartitionScheme(10, 3, np.array([0, 5, 5, 10], dtype=np.int64))
    store = NodeStore(tmp_path / "t.bin", scheme, 4, learnable=False)
    store.initialize(values=table)
    cfg = LinkPredictionConfig(embedding_dim=4, encoder="none", seed=0)
    model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(3))
    for capacity in (1, 2, 3):
        engine = ServingEngine(model, store, capacity)
        ids, sc = engine.topk_targets(0, 5)
        want_ids, want_sc = oracle_topk(engine, table, 0, 5)
        np.testing.assert_array_equal(ids, want_ids)
        assert sc.tobytes() == want_sc.tobytes()


def test_exact_matches_offline_oracle(tmp_path):
    """Byte-equal to the one-pass oracle, single sources with and without
    an exclude list."""
    table = make_table(500, 8, "uniform", seed=6)
    engine = make_engine(tmp_path, table, 5, capacity=2)
    for src, rel, exclude in [(0, 0, ()), (7, 2, (7, 123, 456)),
                              (42, 1, tuple(range(100)))]:
        want_ids, want_sc = oracle_topk(engine, table, src, 12, rel=rel,
                                        exclude=exclude)
        ids, sc = engine.topk_targets(src, 12, rel=rel, exclude=exclude)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(sc, want_sc)


def test_nan_scores_rank_last_and_keep_the_width(tmp_path):
    """NaN rows are candidates like any other: the width stays
    ``min(k, candidates)`` and they rank after every finite score,
    ascending by id. A threshold select that drops NaN comparisons
    returns too few ids here."""
    table = make_table(40, 8, "uniform", seed=18)
    nan_rows = [5, 21, 33]
    table[nan_rows] = np.nan
    engine = make_engine(tmp_path, table, 2, capacity=2)
    for src in (0, 21):               # 21: every score is NaN
        for k, exclude in ((5, ()), (40, ()), (39, ()), (38, (0, 2))):
            ids, sc = engine.topk_targets(src, k, exclude=exclude)
            want_ids, want_sc = oracle_topk(engine, table, src, k,
                                            exclude=exclude)
            assert len(ids) == len(sc) == min(k, 40 - len(exclude))
            np.testing.assert_array_equal(ids, want_ids)
            assert sc.tobytes() == want_sc.tobytes()
    ids, _ = engine.topk_targets(0, 40)
    np.testing.assert_array_equal(ids[-3:], nan_rows)
    batch_ids, _ = engine.topk_targets_batch([0, 21], 39)
    assert batch_ids.shape == (2, 39)
    np.testing.assert_array_equal(batch_ids[1], np.arange(39))


def test_tied_scores_break_by_node_id(tmp_path):
    """Duplicate rows produce exactly tied scores; the k boundary must
    prefer the smaller node id."""
    base = make_table(4, 8, "uniform", seed=7)
    table = base[np.zeros(96, dtype=np.int64)].copy()   # 96 identical rows
    engine = make_engine(tmp_path, table, 8, capacity=2)
    ids, _ = engine.topk_targets(0, 10)
    np.testing.assert_array_equal(ids, np.arange(10))


def test_topk_deterministic_across_residency_states(tmp_path):
    """Regression (unstable argpartition truncation): which tied-score
    candidate survived the running best-k depended on partition visit
    order — the same query could answer differently depending on cache
    state or chunking."""
    rng = np.random.default_rng(8)
    distinct = rng.uniform(-1, 1, size=(3, 8)).astype(np.float32)
    table = distinct[rng.integers(0, 3, 120)]           # ties everywhere
    engine_cold = make_engine(tmp_path, table, 8, capacity=3, name="cold")
    ids_cold, sc_cold = engine_cold.topk_targets(0, 7)

    engine_warm = make_engine(tmp_path, table, 8, capacity=3, name="warm")
    # Lookups in partitions 5 and 6 first: they leave nothing resident
    # that could reorder the sweep.
    warm_ids = np.concatenate([engine_warm.scheme.partition_nodes(5)[:2],
                               engine_warm.scheme.partition_nodes(6)[:2]])
    engine_warm.get_embeddings(warm_ids)
    assert engine_warm.stats.swaps == 0
    assert engine_warm.store.stats.partition_loads == 0
    ids_warm, sc_warm = engine_warm.topk_targets(0, 7)

    np.testing.assert_array_equal(ids_cold, ids_warm)
    np.testing.assert_array_equal(sc_cold, sc_warm)
    # Another chunking scores the same candidates: the same answer.
    engine_wide = make_engine(tmp_path, table, 8, capacity=8, name="wide")
    ids_wide, _ = engine_wide.topk_targets(0, 7)
    np.testing.assert_array_equal(ids_wide, ids_cold)


def test_k_clamps_to_candidate_count_net_of_exclude(tmp_path):
    table = make_table(60, 8, "uniform", seed=9)
    engine = make_engine(tmp_path, table, 4, capacity=2)
    # k past the table: width is the candidate count, not num_nodes.
    exclude = list(range(10)) + [-5, 999, 4, 4]   # dups + out-of-range noise
    ids, sc = engine.topk_targets(0, 100, exclude=exclude)
    assert ids.shape == sc.shape == (50,)
    assert not np.isin(ids, np.arange(10)).any()
    # Everything excluded -> empty result, not an error.
    ids, sc = engine.topk_targets(0, 5, exclude=range(60))
    assert ids.shape == sc.shape == (0,)
    # Batched form keeps the (n, k_eff) contract.
    ids, sc = engine.topk_targets_batch([0, 1, 2], 100, exclude=exclude)
    assert ids.shape == sc.shape == (3, 50)


# ---------------------------------------------------------------------------
# The default path and ``exact=True`` against the oracle
#
# These tests keep the ``ann`` names of the approximate index the exact
# sweep replaced. ``exact=`` is accepted and ignored, so both spellings
# must return the oracle's ids and score bytes.
# ---------------------------------------------------------------------------

def assert_both_paths_match_oracle(engine, table, srcs, k, rel=0,
                                   exclude=()):
    want_ids, want_sc = oracle_topk(engine, table, srcs, k, rel=rel,
                                    exclude=exclude)
    for exact in (False, True):
        ids, sc = engine.topk_targets_batch(srcs, k, rel=rel,
                                            exclude=exclude, exact=exact)
        np.testing.assert_array_equal(ids, want_ids)
        assert sc.tobytes() == want_sc.tobytes()
    return want_ids


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
        ids = assert_both_paths_match_oracle(engine, table, srcs, 10, rel=1,
                                             exclude=exclude)
        assert ids.shape == (len(srcs), 10)
        assert not np.isin(ids, exclude).any()


@pytest.mark.parametrize("decoder,num_relations",
                         [("distmult", 3), ("dot", 1), ("complex", 3)])
def test_ann_recall_every_decoder(tmp_path, decoder, num_relations):
    table = make_table(600, 16, "clustered", seed=5)
    engine = make_engine(tmp_path, table, 6, capacity=2, decoder=decoder,
                         num_relations=num_relations)
    assert_both_paths_match_oracle(engine, table, [0, 99, 300, 599], 10)


@pytest.mark.parametrize("kind", ["uniform", "clustered", "blocked", "skewed"])
@pytest.mark.parametrize("decoder,num_relations",
                         [("distmult", 3), ("dot", 1), ("complex", 3)])
def test_ann_bit_equal_to_exact(tmp_path, kind, decoder, num_relations):
    """Per-source relations, uneven chunks (8 partitions, buffer 3)."""
    table = make_table(1200, 16, kind, seed=17)
    engine = make_engine(tmp_path, table, 8, capacity=3, decoder=decoder,
                         num_relations=num_relations)
    srcs = [0, 7, 450, 1199]
    rel = [0, num_relations - 1, 0, num_relations - 1]
    for exclude in ((), (0, 7, 450, 1199, 3, 800)):
        assert_both_paths_match_oracle(engine, table, srcs, 12, rel=rel,
                                       exclude=exclude)


# ---------------------------------------------------------------------------
# Counters and working set
# ---------------------------------------------------------------------------

def test_one_topk_scores_every_row_once(tmp_path):
    table = make_table(1000, 8, "uniform", seed=19)
    engine = make_engine(tmp_path, table, 10, capacity=3)
    engine.topk_targets(4, 10, exclude=[4, 5])
    s = engine.stats
    assert s.ann_rows_scored == 1000
    assert s.topk_parts_scanned == 10
    # Many sources share one sweep.
    engine.topk_targets_batch([1, 2, 3], 10)
    assert s.ann_rows_scored == 2000
    assert s.topk_parts_scanned == 20
    # Top-k reads the table in place: nothing is swapped or loaded.
    assert s.swaps == 0
    assert engine.store.stats.partition_loads == 0


def _peak_topk_bytes(tmp_path, num_nodes, rows_per_part, capacity):
    table = make_table(num_nodes, 16, "uniform", seed=20)
    engine = make_engine(tmp_path, table, num_nodes // rows_per_part,
                         capacity=capacity, name=f"ws-{num_nodes}")
    del table
    srcs = np.arange(64)
    engine.topk_targets_batch(srcs, 10)          # warm lazy state
    tracemalloc.start()
    try:
        engine.topk_targets_batch(srcs, 10)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_does_not_grow_with_the_table(tmp_path):
    """The sweep holds one (sources x chunk) score array, not the table's:
    4x the rows at the same partition size and buffer must not move the
    peak traced allocation by half."""
    small = _peak_topk_bytes(tmp_path, 4000, 500, capacity=2)
    large = _peak_topk_bytes(tmp_path, 16000, 500, capacity=2)
    assert large < 1.5 * small, (small, large)


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


def test_live_growth_reranks_and_reclamps(tmp_path, request):
    live = make_live(tmp_path, seed=10)
    # The live view's listeners keep it in a reference cycle: close its
    # stores here rather than leave their files to the cyclic collector.
    request.addfinalizer(live.edge_store.close)
    request.addfinalizer(live.node_store.close)
    cfg = LinkPredictionConfig(embedding_dim=8, encoder="none", seed=0)
    model = LinkPredictionModel(cfg, 1, rng=np.random.default_rng(3))
    engine = ServingEngine.over_live(live, model, buffer_capacity=3)
    engine.topk_targets(0, 5)                  # a sweep before growth
    grown = live.add_nodes(9)
    total = live.num_nodes
    # Clamp reads the dynamic scheme: k = total-1 after excluding the src.
    ids, sc = engine.topk_targets(0, total, exclude=[0])
    assert len(ids) == total - 1
    assert np.isin(grown, ids).all()           # grown nodes are candidates
    # Parity with an offline engine over the grown table.
    table = live.node_store.read_all()
    offline = make_engine(tmp_path, table, live.num_partitions, 3,
                          num_relations=1, name="off")
    ids_live, sc_live = engine.topk_targets(3, 12)
    ids_off, sc_off = offline.topk_targets(3, 12)
    np.testing.assert_array_equal(ids_live, ids_off)
    np.testing.assert_allclose(sc_live, sc_off, atol=1e-5)

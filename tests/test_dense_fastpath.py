"""Fast-path equivalence: allocation-lean DENSE build and the two-level index.

The perf work in ``core/dense.py`` and ``graph/csr.py`` must be *invisible*
semantically:

* :func:`build_dense` (membership-array dedup, single-pass assembly, scatter
  ``repr_map``) must produce batches bit-identical to
  :func:`build_dense_reference` (the direct Algorithm 1 transcription) under
  the same seeded generator — including stats and post-``advance`` layouts.
* :class:`PartitionedAdjacencyIndex` driven through arbitrary
  ``update_partitions`` admit/evict sequences must be sample-for-sample
  identical to a flat :class:`AdjacencyIndex` rebuilt from scratch over the
  bucket-major in-buffer subgraph.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dense import build_dense, build_dense_reference
from repro.core.sampler import DenseSampler
from repro.graph import (AdjacencyIndex, EdgeBuckets, Graph,
                         PartitionedAdjacencyIndex, PartitionScheme,
                         power_law_graph)
from repro.storage.buffer import PartitionBuffer
from repro.storage.node_store import NodeStore


def random_graph(num_nodes, num_edges, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, num_edges)
    dst = rng.integers(0, num_nodes, num_edges)
    return Graph(num_nodes=num_nodes, src=src, dst=dst)


def assert_batches_identical(a, b):
    np.testing.assert_array_equal(a.node_id_offsets, b.node_id_offsets)
    np.testing.assert_array_equal(a.node_ids, b.node_ids)
    np.testing.assert_array_equal(a.nbr_offsets, b.nbr_offsets)
    np.testing.assert_array_equal(a.nbrs, b.nbrs)
    if a.repr_map is not None or b.repr_map is not None:
        np.testing.assert_array_equal(a.repr_map, b.repr_map)
    assert a.num_layers == b.num_layers


class TestBuildDenseFastPath:
    @settings(max_examples=30, deadline=None)
    @given(num_nodes=st.integers(10, 120), num_edges=st.integers(5, 600),
           k=st.integers(1, 4), fanout=st.integers(1, 8),
           directions=st.sampled_from(["out", "in", "both"]),
           seed=st.integers(0, 1000))
    def test_bit_identical_to_reference(self, num_nodes, num_edges, k, fanout,
                                        directions, seed):
        g = random_graph(num_nodes, num_edges, seed)
        idx = AdjacencyIndex(g, directions)
        rng = np.random.default_rng(seed + 1)
        targets = rng.choice(num_nodes, size=min(8, num_nodes), replace=False)
        fanouts = [fanout] * k

        ref = build_dense_reference(targets, fanouts, idx,
                                    rng=np.random.default_rng(seed + 2))
        member = np.zeros(num_nodes, dtype=bool)
        fast = build_dense(targets, fanouts, idx,
                           rng=np.random.default_rng(seed + 2),
                           member=member)
        assert_batches_identical(ref, fast)
        assert not member.any()  # scratch restored
        # Stats must match too (they feed Table 6).
        assert ref.stats == fast.stats
        fast.validate()

        # repr_map: scatter path == sorted-search path.
        rows = np.empty(num_nodes, dtype=np.int64)
        ref.compute_repr_map()
        fast.compute_repr_map(row_scratch=rows)
        np.testing.assert_array_equal(ref.repr_map, fast.repr_map)

        # Algorithm 2: identical layouts at every advance step.
        while ref.num_deltas > 1:
            ref, fast = ref.advance(), fast.advance()
            assert_batches_identical(ref, fast)

    def test_advance_returns_views_where_offsets_allow(self):
        g = power_law_graph(200, 2000, seed=0)
        sampler = DenseSampler(g, [4, 4], rng=np.random.default_rng(0))
        batch = sampler.sample(np.arange(10))
        adv = batch.advance()
        assert np.shares_memory(adv.node_ids, batch.node_ids)
        assert np.shares_memory(adv.nbrs, batch.nbrs)
        # A delta-less advance (all shifts zero) keeps offset views too.
        empty = build_dense(np.arange(5), [3],
                            AdjacencyIndex(Graph(num_nodes=5,
                                                 src=np.empty(0, dtype=np.int64),
                                                 dst=np.empty(0, dtype=np.int64))))
        adv2 = empty.advance()
        assert np.shares_memory(adv2.node_id_offsets, empty.node_id_offsets)

    def test_sampler_batches_are_reference_identical(self):
        g = power_law_graph(500, 6000, num_relations=3, seed=2)
        idx = AdjacencyIndex(g, "both")
        sampler = DenseSampler(g, [5, 5], rng=np.random.default_rng(7), index=idx)
        targets = np.random.default_rng(0).choice(500, 64, replace=False)
        fast = sampler.sample(targets)
        ref = build_dense_reference(targets, [5, 5], idx,
                                    rng=np.random.default_rng(7))
        ref.compute_repr_map()
        assert_batches_identical(ref, fast)

    def test_without_replacement_vectorized_draw(self):
        g = power_law_graph(300, 9000, seed=4)
        idx = AdjacencyIndex(g, "both")
        nodes = np.arange(50)
        nbrs, offsets = idx.sample_one_hop(nodes, 6,
                                           rng=np.random.default_rng(3),
                                           replace=False)
        from collections import Counter
        bounds = np.concatenate([offsets, [len(nbrs)]])
        for i, node in enumerate(nodes):
            mine = Counter(nbrs[bounds[i]:bounds[i + 1]].tolist())
            # Distinct *positions*: each neighbor drawn at most as often as
            # it occurs in the full run (multi-edges occur more than once).
            run = Counter(idx.neighbors_of(int(node)).tolist())
            assert all(run[v] >= c for v, c in mine.items())


def reference_index(buckets, parts, directions):
    """Flat index over the bucket-major in-buffer subgraph (sorted parts)."""
    return AdjacencyIndex(buckets.subgraph_for_partitions(sorted(parts)),
                          directions)


class GrowingBuckets:
    """A bucket source over a graph that gains edges and nodes."""

    def __init__(self, graph, scheme):
        self.graph = graph
        self.scheme = scheme
        self.buckets = EdgeBuckets(graph, scheme)

    def bucket_endpoints(self, i, j):
        return self.buckets.bucket_endpoints(i, j)

    def add_edges(self, src, dst):
        """Append edges; returns the bucket pairs whose content changed."""
        g = self.graph
        self.graph = Graph(num_nodes=self.scheme.num_nodes,
                           src=np.concatenate([g.src, src]),
                           dst=np.concatenate([g.dst, dst]))
        self.buckets = EdgeBuckets(self.graph, self.scheme)
        return sorted(set(zip(self.scheme.partition_of(src).tolist(),
                              self.scheme.partition_of(dst).tolist())))

    def add_nodes(self, extra, rng):
        """Append ``extra`` nodes to the last partition, each with an edge
        to or from an old node."""
        old = self.scheme.num_nodes
        self.scheme = self.scheme.extended(extra)
        new = np.arange(old, old + extra)
        other = rng.integers(0, old, extra)
        out = rng.random(extra) < 0.5
        self.add_edges(np.where(out, new, other), np.where(out, other, new))


def assert_samples_match(index, ref, rng):
    num_nodes = ref.num_nodes
    assert index.num_nodes == num_nodes
    all_nodes = np.arange(num_nodes)
    np.testing.assert_array_equal(index.degrees(all_nodes),
                                  ref.degrees(all_nodes))
    for node in range(0, num_nodes, max(1, num_nodes // 7)):
        np.testing.assert_array_equal(index.neighbors_of(node),
                                      ref.neighbors_of(int(node)))
    probe = rng.choice(num_nodes, size=min(12, num_nodes), replace=False)
    for fanout, replace in ((3, True), (0, True), (2, False)):
        s = int(rng.integers(1 << 30))
        got = index.sample_one_hop(probe, fanout,
                                   rng=np.random.default_rng(s),
                                   replace=replace)
        want = ref.sample_one_hop(probe, fanout,
                                  rng=np.random.default_rng(s),
                                  replace=replace)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestPartitionedIndex:
    @settings(max_examples=20, deadline=None)
    @given(num_nodes=st.integers(16, 100), num_edges=st.integers(10, 500),
           p=st.integers(2, 6), directions=st.sampled_from(["out", "in", "both"]),
           seed=st.integers(0, 500))
    def test_update_equals_full_rebuild(self, num_nodes, num_edges, p,
                                        directions, seed):
        """Swaps, bucket refreshes and node growth in random order: after
        each, the index equals a flat index built from scratch."""
        source = GrowingBuckets(random_graph(num_nodes, num_edges, seed),
                                PartitionScheme.uniform(num_nodes, p))
        rng = np.random.default_rng(seed)

        resident = set()
        index = PartitionedAdjacencyIndex(source.scheme,
                                          source.bucket_endpoints,
                                          (), directions=directions)
        for step in range(9):
            action = "swap" if step < 2 else rng.choice(
                ["swap", "refresh", "extend"])
            n = source.scheme.num_nodes
            if action == "refresh":
                # Appended edges land in resident and absent buckets alike;
                # absent ones are fetched fresh on their next admit.
                k = int(rng.integers(1, 20))
                pairs = source.add_edges(rng.integers(0, n, k),
                                         rng.integers(0, n, k))
                index.refresh_buckets(pairs)
            elif action == "extend":
                source.add_nodes(int(rng.integers(1, 6)), rng)
                index.extend_nodes(source.scheme)
            else:
                # Arbitrary admit/evict diff keeping at least one partition.
                removed = ([int(x) for x in
                            rng.choice(sorted(resident),
                                       rng.integers(0, len(resident) + 1),
                                       replace=False)] if resident else [])
                candidates = [q for q in range(p) if q not in resident]
                added = [int(x) for x in
                         rng.choice(candidates,
                                    rng.integers(1 if not resident else 0,
                                                 len(candidates) + 1),
                                    replace=False)] if candidates else []
                if not (added or removed):
                    continue
                index.update_partitions(added, removed)
                resident = (resident - set(removed)) | set(added)
            assert_samples_match(
                index, reference_index(source.buckets, resident, directions),
                rng)

    def test_sampler_beside_refresh_sees_old_or_new_graph(self):
        """A sampler thread racing a refresh thread only ever sees a whole
        graph: every sample equals the pre- or the post-refresh one."""
        g = power_law_graph(400, 4000, seed=3)
        scheme = PartitionScheme.uniform(400, 4)
        extra = random_graph(400, 600, 5)
        before = EdgeBuckets(g, scheme)
        after = GrowingBuckets(g, scheme)
        pairs = after.add_edges(extra.src, extra.dst)
        parts = [0, 1, 3]
        current = {"buckets": before}
        index = PartitionedAdjacencyIndex(
            scheme, lambda i, j: current["buckets"].bucket_endpoints(i, j),
            parts)
        probe = np.random.default_rng(0).choice(400, 200, replace=False)

        def draw(idx):
            return idx.sample_one_hop(probe, 5, rng=np.random.default_rng(9))

        wants = [draw(reference_index(b, parts, "both"))
                 for b in (before, after.buckets)]
        stop = threading.Event()
        errors = []

        def refresher():
            try:
                for k in range(60):
                    current["buckets"] = (after.buckets, before)[k % 2]
                    index.refresh_buckets(pairs)
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread = threading.Thread(target=refresher)
            thread.start()
            seen = set()
            while not stop.is_set() or not seen:
                nbrs, offsets = draw(index)
                matches = [k for k, (w_nbrs, w_offsets) in enumerate(wants)
                           if np.array_equal(nbrs, w_nbrs)
                           and np.array_equal(offsets, w_offsets)]
                assert matches, "sample mixes the old and the new graph"
                seen.update(matches)
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and not errors, errors
        assert_samples_match(index, reference_index(before, parts, "both"),
                             np.random.default_rng(1))

    def test_build_dense_matches_reference_over_partitioned_index(self):
        g = power_law_graph(400, 5000, seed=9)
        scheme = PartitionScheme.uniform(400, 8)
        buckets = EdgeBuckets(g, scheme)
        parts = [1, 3, 4, 6]
        two_level = PartitionedAdjacencyIndex(scheme, buckets.bucket_endpoints,
                                              parts)
        flat = reference_index(buckets, parts, "both")
        targets = np.random.default_rng(1).choice(400, 50, replace=False)
        fast = build_dense(targets, [4, 4], two_level,
                           rng=np.random.default_rng(11))
        ref = build_dense_reference(targets, [4, 4], flat,
                                    rng=np.random.default_rng(11))
        assert_batches_identical(ref, fast)

    def test_memory_bytes_matches_flat_index(self):
        g = power_law_graph(200, 3000, seed=5)
        scheme = PartitionScheme.uniform(200, 4)
        buckets = EdgeBuckets(g, scheme)
        index = PartitionedAdjacencyIndex(scheme, buckets.bucket_endpoints,
                                          range(4))
        flat = reference_index(buckets, range(4), "both")
        # Level 1 is the flat CSR a flat index holds: offsets (n + 1),
        # degrees (n) and both sorted edge copies. Level 2 adds the bucket
        # sub-runs: a local offset array per bucket and direction (2 * p^2
        # of them), a second copy of both sorted edge lists, and each
        # entry's uint16 local key.
        level1 = 8 * (200 + 1) + 8 * 200 + 8 * 2 * g.num_edges
        level2 = (8 * 2 * (4 * 4) * (200 // 4 + 1) + 8 * 2 * g.num_edges
                  + 2 * 2 * g.num_edges)
        assert flat.memory_bytes() == level1
        assert index.memory_bytes() == level1 + level2
        assert index.memory_bytes() > 0

    def test_update_validates_removals(self):
        g = random_graph(40, 100, 0)
        scheme = PartitionScheme.uniform(40, 4)
        buckets = EdgeBuckets(g, scheme)
        index = PartitionedAdjacencyIndex(scheme, buckets.bucket_endpoints, [0])
        with pytest.raises(KeyError):
            index.update_partitions([], [2])


class TestBufferSwapListeners:
    def make(self, tmp_path, p=4, capacity=2):
        scheme = PartitionScheme.uniform(40, p)
        store = NodeStore(tmp_path / "n.bin", scheme, dim=4, learnable=True)
        store.initialize(rng=np.random.default_rng(0))
        return PartitionBuffer(store, capacity)

    def test_set_partitions_reports_diff(self, tmp_path):
        buf = self.make(tmp_path)
        events = []
        buf.add_swap_listener(lambda a, r: events.append((a, r)))
        buf.set_partitions([0, 1])
        buf.set_partitions([1, 2])
        buf.set_partitions([1, 2])   # no-op swap: no event
        assert events == [([0, 1], []), ([2], [0])]

    def test_prefetch_manager_reports_diff(self, tmp_path):
        buf = self.make(tmp_path)
        events = []
        buf.add_swap_listener(lambda a, r: events.append((a, r)))
        buf.load_step([0, 1], next_partitions=[1, 2])
        buf.load_step([1, 2], None)
        buf.finish()
        # A staged slot admitted at step 1 reports the same diff as a read.
        assert buf.hits == 1
        assert events == [([0, 1], []), ([2], [0])]

    def test_listener_keeps_sampler_in_sync(self, tmp_path):
        g = power_law_graph(40, 600, seed=8)
        scheme = PartitionScheme.uniform(40, 4)
        buckets = EdgeBuckets(g, scheme)
        buf = self.make(tmp_path)
        sampler = DenseSampler.from_partitions(scheme, buckets.bucket_endpoints,
                                               (), [3],
                                               rng=np.random.default_rng(0))
        buf.add_swap_listener(lambda a, r: sampler.update_graph(a, r))
        buf.set_partitions([0, 3])
        assert sampler.index.partitions == [0, 3]
        assert sampler.index_updates == 1
        ref = reference_index(buckets, [0, 3], "both")
        all_nodes = np.arange(40)
        np.testing.assert_array_equal(sampler.index.degrees(all_nodes),
                                      ref.degrees(all_nodes))

    def test_stateless_partition_rejects_gradients(self, tmp_path):
        from repro.nn.optim import RowAdagrad
        scheme = PartitionScheme.uniform(40, 4)
        store = NodeStore(tmp_path / "n.bin", scheme, dim=4, learnable=False)
        store.initialize(rng=np.random.default_rng(0))
        buf = PartitionBuffer(store, 2, optimizer=RowAdagrad(lr=0.1))
        buf.load_step([0], next_partitions=[0, 1])
        buf.load_step([0, 1])
        # Partitions read (or staged) from a store without optimizer state
        # must refuse updates rather than train against a stale slab slot.
        with pytest.raises(RuntimeError, match="no optimizer state"):
            buf.apply_gradients(np.array([12]), np.ones((1, 4), dtype=np.float32))
        buf.finish()

    def test_update_graph_requires_partitioned_index(self):
        g = power_law_graph(30, 200, seed=0)
        sampler = DenseSampler(g, [2])
        with pytest.raises(TypeError):
            sampler.update_graph([0], [])

    def test_directions_conflict_with_prebuilt_index(self):
        g = power_law_graph(30, 200, seed=0)
        idx = AdjacencyIndex(g, "both")
        with pytest.raises(ValueError):
            DenseSampler(None, [2], directions="in", index=idx)
        assert DenseSampler(None, [2], index=idx).directions == "both"

    def test_scratch_reset_after_failed_build(self):
        g = power_law_graph(50, 400, seed=0)
        sampler = DenseSampler(g, [3], rng=np.random.default_rng(0))
        with pytest.raises(IndexError):
            sampler.sample(np.array([1, 999]))   # out-of-range target
        # Scratches must come back clean so later batches are not corrupted.
        batch = sampler.sample(np.arange(20))
        clean = DenseSampler(g, [3], rng=np.random.default_rng(0))
        # Replay: consume one failed + one good draw on the clean sampler.
        with pytest.raises(IndexError):
            clean.sample(np.array([1, 999]))
        expect = clean.sample(np.arange(20))
        assert_batches_identical(expect, batch)
        assert not sampler._member.any()

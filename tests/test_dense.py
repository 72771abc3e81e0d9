"""DENSE structure tests: Algorithms 1 and 2, the paper's core data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DenseBatch, DenseSampler, build_dense, compute_next_delta
from repro.graph import AdjacencyIndex, Graph, power_law_graph


class TestBuildDense:
    def test_paper_figure3_example(self, tiny_graph):
        """Two-hop sample for targets {A, B} on the Figure 1 graph."""
        idx = AdjacencyIndex(tiny_graph, directions="in")
        batch = build_dense(np.array([0, 1]), [10, 10], idx,
                            rng=np.random.default_rng(0))
        batch.validate()
        assert batch.num_deltas == 3
        np.testing.assert_array_equal(batch.target_nodes(), [0, 1])
        # Delta 1 holds the new nodes among the targets' one-hop in-neighbors
        # (C, D, E, F in the fixture); targets never reappear in a delta.
        delta1 = set(batch.delta(1).tolist())
        assert delta1.issubset({2, 3, 4, 5})
        assert not delta1 & {0, 1}

    def test_deltas_disjoint_and_unique(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, directions="both")
        batch = build_dense(np.arange(50), [5, 5, 5], idx,
                            rng=np.random.default_rng(0))
        batch.validate()
        seen = set()
        for d in range(batch.num_deltas):
            nodes = set(batch.delta(d).tolist())
            assert not (nodes & seen)
            seen |= nodes
        assert len(seen) == batch.num_nodes

    def test_sample_reuse_no_node_sampled_twice(self, medium_kg):
        """The delta encoding means one-hop sampling runs once per node:
        one_hop_calls equals the nodes with neighbor runs in DENSE."""
        idx = AdjacencyIndex(medium_kg, directions="both")
        batch = build_dense(np.arange(100), [8, 8], idx,
                            rng=np.random.default_rng(1))
        nodes_with_nbrs = batch.num_nodes - len(batch.delta(0))
        assert batch.stats.one_hop_calls == nodes_with_nbrs
        assert len(batch.nbr_offsets) == nodes_with_nbrs

    def test_zero_layers(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, "both")
        batch = build_dense(np.arange(10), [], idx)
        assert batch.num_layers == 0
        assert batch.num_nodes == 10
        assert len(batch.nbrs) == 0

    def test_duplicate_targets_uniqued(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, "both")
        batch = build_dense(np.array([3, 3, 5, 5]), [4], idx)
        np.testing.assert_array_equal(batch.target_nodes(), [3, 5])

    def test_repr_map_points_at_rows(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, "both")
        batch = build_dense(np.arange(30), [6, 6], idx,
                            rng=np.random.default_rng(2))
        batch.compute_repr_map()
        np.testing.assert_array_equal(batch.node_ids[batch.repr_map], batch.nbrs)

    def test_fanout_respected(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, "both")
        batch = build_dense(np.arange(40), [7], idx, rng=np.random.default_rng(3))
        counts = np.diff(np.concatenate([batch.nbr_offsets, [len(batch.nbrs)]]))
        assert counts.max() <= 7

    def test_compute_next_delta(self):
        nbrs = np.array([5, 3, 5, 9, 1])
        node_ids = np.array([1, 2, 3])
        np.testing.assert_array_equal(compute_next_delta(nbrs, node_ids), [5, 9])


class TestAdvance:
    def test_advance_preserves_invariants(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, "both")
        batch = build_dense(np.arange(60), [6, 6, 6], idx,
                            rng=np.random.default_rng(4))
        batch.compute_repr_map()
        batch.validate()
        one = batch.advance()
        one.validate()
        two = one.advance()
        two.validate()
        # Final structure's node set is exactly the original minus Δ0, Δ1.
        removed = set(batch.delta(0).tolist()) | set(batch.delta(1).tolist())
        assert set(two.node_ids.tolist()) == set(batch.node_ids.tolist()) - removed
        np.testing.assert_array_equal(two.target_nodes(), batch.target_nodes())

    def test_advance_single_delta_raises(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, "both")
        batch = build_dense(np.arange(5), [], idx)
        with pytest.raises(ValueError):
            batch.advance()

    def test_advance_drops_consumed_neighbors(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, "both")
        batch = build_dense(np.arange(60), [6, 6], idx,
                            rng=np.random.default_rng(5))
        batch.compute_repr_map()
        after = batch.advance()
        delta1_size = len(batch.delta(1))
        dropped = int(batch.nbr_offsets[delta1_size]) if delta1_size < len(batch.nbr_offsets) else len(batch.nbrs)
        assert len(after.nbrs) == len(batch.nbrs) - dropped


class TestDenseSampler:
    def test_sampler_wraps_build(self, medium_kg):
        sampler = DenseSampler(medium_kg, [5, 5], rng=np.random.default_rng(0))
        batch = sampler.sample(np.arange(20))
        batch.validate()
        assert batch.repr_map is not None

    def test_rejects_non_integer_fanouts(self, medium_kg):
        with pytest.raises(TypeError):
            DenseSampler(medium_kg, [5.5])

    def test_dense_samples_fewer_than_layerwise(self, medium_kg):
        """The headline property (Table 6): DENSE materializes fewer nodes and
        edges than per-layer resampling at equal fanouts."""
        from repro.baselines import LayerwiseSampler
        rng = np.random.default_rng(0)
        dense = DenseSampler(medium_kg, [10, 10, 10], rng=rng)
        layer = LayerwiseSampler(medium_kg, [10, 10, 10],
                                 rng=np.random.default_rng(0))
        targets = np.arange(100)
        db = dense.sample(targets)
        lb = layer.sample(targets)
        assert db.stats.num_sampled_edges < lb.stats.num_sampled_edges
        assert db.stats.num_unique_nodes < lb.stats.num_unique_nodes


@settings(max_examples=20, deadline=None)
@given(num_targets=st.integers(1, 40), fanout=st.integers(1, 8),
       layers=st.integers(1, 4), seed=st.integers(0, 30))
def test_property_dense_invariants(num_targets, fanout, layers, seed):
    """Algorithm 1 output always satisfies the DENSE layout invariants and
    neighbor counts never exceed the fanout."""
    g = power_law_graph(150, 1200, seed=seed)
    idx = AdjacencyIndex(g, "both")
    rng = np.random.default_rng(seed)
    targets = rng.choice(150, size=num_targets, replace=False)
    batch = build_dense(targets, [fanout] * layers, idx, rng=rng)
    batch.compute_repr_map()
    batch.validate()
    counts = np.diff(np.concatenate([batch.nbr_offsets, [len(batch.nbrs)]]))
    assert (counts <= fanout).all()
    # Walk Algorithm 2 to the end; every step must stay valid.
    current = batch
    for _ in range(layers - 1):
        current = current.advance()
        current.validate()
    np.testing.assert_array_equal(np.sort(current.target_nodes()), np.sort(targets))

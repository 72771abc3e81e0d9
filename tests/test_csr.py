"""AdjacencyIndex tests: the dual-sorted one-hop sampler (Section 4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import AdjacencyIndex, Graph, chain_graph, power_law_graph, star_graph


class TestConstruction:
    def test_invalid_direction(self, tiny_graph):
        with pytest.raises(ValueError):
            AdjacencyIndex(tiny_graph, directions="sideways")

    def test_degrees_both(self, tiny_graph):
        idx = AdjacencyIndex(tiny_graph, directions="both")
        # node 0 (A): out edges 0->2... A has out {B? } — use manual counts:
        out_deg = tiny_graph.degree_out()
        in_deg = tiny_graph.degree_in()
        nodes = np.arange(6)
        np.testing.assert_array_equal(idx.degrees(nodes), out_deg + in_deg)

    def test_memory_bytes_two_copies(self, medium_kg):
        both = AdjacencyIndex(medium_kg, "both").memory_bytes()
        single = AdjacencyIndex(medium_kg, "out").memory_bytes()
        # One flat CSR: the neighbor payload doubles, while the per-node
        # offsets (num_nodes + 1) and degrees (num_nodes) are held once.
        per_node = 8 * (2 * medium_kg.num_nodes + 1)
        assert both - per_node == 2 * (single - per_node)

    def test_neighbors_of(self):
        g = chain_graph(4)  # 0->1->2->3
        idx = AdjacencyIndex(g, "both")
        assert set(idx.neighbors_of(1)) == {0, 2}
        assert set(idx.neighbors_of(0)) == {1}


class TestSampling:
    def test_all_neighbors_when_fanout_large(self):
        g = star_graph(5)  # leaves 1..5 -> hub 0
        idx = AdjacencyIndex(g, "in")
        nbrs, offsets = idx.sample_one_hop(np.array([0]), fanout=100)
        assert sorted(nbrs.tolist()) == [1, 2, 3, 4, 5]
        np.testing.assert_array_equal(offsets, [0])

    def test_fanout_zero_means_all(self):
        g = star_graph(5)
        idx = AdjacencyIndex(g, "in")
        nbrs, _ = idx.sample_one_hop(np.array([0]), fanout=0)
        assert len(nbrs) == 5

    def test_fanout_caps_high_degree(self):
        g = star_graph(50)
        idx = AdjacencyIndex(g, "in")
        nbrs, _ = idx.sample_one_hop(np.array([0]), fanout=7,
                                     rng=np.random.default_rng(0))
        assert len(nbrs) == 7
        assert set(nbrs).issubset(set(range(1, 51)))

    def test_isolated_node_empty(self):
        g = Graph(num_nodes=3, src=np.array([0]), dst=np.array([1]))
        idx = AdjacencyIndex(g, "both")
        nbrs, offsets = idx.sample_one_hop(np.array([2]), fanout=5)
        assert len(nbrs) == 0
        np.testing.assert_array_equal(offsets, [0])

    def test_empty_batch(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, "both")
        nbrs, offsets = idx.sample_one_hop(np.empty(0, dtype=np.int64), 5)
        assert len(nbrs) == 0 and len(offsets) == 0

    def test_offsets_align_with_counts(self, medium_kg):
        idx = AdjacencyIndex(medium_kg, "both")
        rng = np.random.default_rng(1)
        nodes = rng.choice(medium_kg.num_nodes, 50, replace=False)
        nbrs, offsets = idx.sample_one_hop(nodes, 8, rng=rng)
        bounds = np.concatenate([offsets, [len(nbrs)]])
        counts = np.diff(bounds)
        expected = np.minimum(idx.degrees(nodes), 8)
        np.testing.assert_array_equal(counts, expected)

    def test_without_replacement_distinct(self):
        g = star_graph(30)
        idx = AdjacencyIndex(g, "in")
        nbrs, _ = idx.sample_one_hop(np.array([0]), fanout=10,
                                     rng=np.random.default_rng(0), replace=False)
        assert len(set(nbrs.tolist())) == 10

    def test_direction_restriction(self):
        g = chain_graph(3)  # 0->1->2
        out_idx = AdjacencyIndex(g, "out")
        in_idx = AdjacencyIndex(g, "in")
        nbrs_out, _ = out_idx.sample_one_hop(np.array([1]), 5)
        nbrs_in, _ = in_idx.sample_one_hop(np.array([1]), 5)
        assert nbrs_out.tolist() == [2]
        assert nbrs_in.tolist() == [0]


@settings(max_examples=25, deadline=None)
@given(num_nodes=st.integers(5, 60), num_edges=st.integers(5, 300),
       fanout=st.integers(1, 12), seed=st.integers(0, 50))
def test_property_sampled_neighbors_are_real_edges(num_nodes, num_edges, fanout, seed):
    """Every sampled neighbor must be an actual graph neighbor, and counts
    must equal min(degree, fanout)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, num_edges)
    dst = (src + 1 + rng.integers(0, num_nodes - 1, num_edges)) % num_nodes
    g = Graph(num_nodes=num_nodes, src=src, dst=dst)
    idx = AdjacencyIndex(g, "both")
    nodes = rng.choice(num_nodes, size=min(10, num_nodes), replace=False)
    nbrs, offsets = idx.sample_one_hop(nodes, fanout, rng=rng)
    bounds = np.concatenate([offsets, [len(nbrs)]])
    for i, node in enumerate(nodes):
        mine = nbrs[bounds[i]:bounds[i + 1]]
        legal = set(g.dst[g.src == node]) | set(g.src[g.dst == node])
        assert set(mine.tolist()).issubset(legal)
        assert len(mine) == min(idx.degrees(np.array([node]))[0], fanout)

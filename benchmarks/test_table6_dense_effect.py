"""Table 6 — effect of DENSE: sampling time, compute time, batch sizes.

Runs this repository's *real* samplers (DENSE vs DGL/PyG-style layerwise)
on a Papers100M scale model for GraphSage depths 1-5, measuring per-batch
CPU sampling time, forward+backward compute time, and the number of unique
nodes / sampled edges per mini batch.

Paper reference (Papers100M, batch 1000, 10 in + 10 out per layer):
  sampling ms  : M-GNN 1.4/18/103/401/1.8k   DGL 5.7/28/376/5.4k/49k
  nodes/edges  : M-GNN 12k/13k ... 23M/91M    DGL 13k/20k ... 33M/222M
The *shape* to reproduce: the layerwise sampler's work compounds with depth
while DENSE's stays near-linear, and DENSE mini batches are ~2x smaller by
three layers.
"""

import time

import numpy as np
import pytest

from benchmarks import writing_baseline
from repro.baselines import LayerwiseSampler
from repro.core import DenseSampler, GNNEncoder
from repro.graph import load_papers100m_mini
from repro.nn import Tensor

BATCH = 512
DEPTHS = [1, 2, 3, 4]
PAPER = {
    "dense_ms": {1: 1.4, 2: 18, 3: 103, 4: 401, 5: 1800},
    "dgl_ms": {1: 5.7, 2: 28, 3: 376, 4: 5400, 5: 49000},
    "dense_nodes": {1: 12e3, 2: 136e3, 3: 1e6, 4: 6e6},
    "dgl_nodes": {1: 13e3, 2: 182e3, 3: 2e6, 4: 9e6},
}


@pytest.fixture(scope="module")
def graph():
    return load_papers100m_mini(num_nodes=60_000, num_edges=700_000,
                                feat_dim=32, seed=0).graph


def _measure(sampler_factory, graph, depth, rounds=3):
    rng = np.random.default_rng(0)
    sampler = sampler_factory([10] * depth)
    times, nodes, edges = [], [], []
    for r in range(rounds):
        targets = rng.choice(graph.num_nodes, BATCH, replace=False)
        t0 = time.perf_counter()
        batch = sampler.sample(targets)
        times.append(time.perf_counter() - t0)
        nodes.append(batch.stats.num_unique_nodes)
        edges.append(batch.stats.num_sampled_edges)
    return float(np.mean(times) * 1e3), float(np.mean(nodes)), float(np.mean(edges))


def test_table6_sampling_and_batch_sizes(graph, report, benchmark):
    rows = {}
    for depth in DEPTHS:
        d_ms, d_nodes, d_edges = _measure(
            lambda f: DenseSampler(graph, f, rng=np.random.default_rng(1)),
            graph, depth)
        l_ms, l_nodes, l_edges = _measure(
            lambda f: LayerwiseSampler(graph, f, rng=np.random.default_rng(1)),
            graph, depth)
        rows[depth] = (d_ms, l_ms, d_nodes, l_nodes, d_edges, l_edges)

    report.header("Table 6: CPU sampling time per batch (ms) and batch sizes")
    report.row("layers", "dense ms", "lw ms", "lw/dense",
               "dense nodes", "lw nodes", "dense edges", "lw edges",
               widths=[7, 10, 10, 9, 12, 12, 12, 12])
    for depth, (d_ms, l_ms, dn, ln, de, le) in rows.items():
        report.row(depth, f"{d_ms:.1f}", f"{l_ms:.1f}", f"{l_ms / d_ms:.1f}x",
                   f"{dn:,.0f}", f"{ln:,.0f}", f"{de:,.0f}", f"{le:,.0f}",
                   widths=[7, 10, 10, 9, 12, 12, 12, 12])
    report.line()
    report.line("Paper shape checks:")
    ratio3 = rows[3][1] / rows[3][0]
    ratio1 = rows[1][1] / rows[1][0]
    report.line(f"  layerwise/dense time ratio grows with depth: "
                f"{ratio1:.1f}x at 1 layer -> {ratio3:.1f}x at 3 layers "
                f"(paper: 4.1x -> 3.7x, 13x at 4)")
    report.line(f"  dense batch has fewer nodes at 3 layers: "
                f"{rows[3][2]:,.0f} vs {rows[3][3]:,.0f} "
                f"(paper: 1M vs 2M)")

    # Shape assertions: smaller batches always; who wins on time and the
    # growing gap only on a regeneration run (wall-clock comparisons).
    if writing_baseline():
        assert rows[3][0] < rows[3][1], "DENSE must sample faster at 3 layers"
        assert rows[4][1] / rows[4][0] > rows[1][1] / rows[1][0] * 0.8
    for depth in DEPTHS[1:]:
        assert rows[depth][2] < rows[depth][3]  # fewer nodes
        assert rows[depth][4] < rows[depth][5]  # fewer edges

    # pytest-benchmark anchor: 3-layer DENSE sampling.
    sampler = DenseSampler(graph, [10, 10, 10], rng=np.random.default_rng(2))
    targets = np.random.default_rng(3).choice(graph.num_nodes, BATCH, replace=False)
    benchmark(lambda: sampler.sample(targets))


def test_table6_forward_backward_compute(graph, report, benchmark):
    """GPU-column analogue: forward+backward time over DENSE vs MFG blocks
    using the same layer modules (our dense segment kernels vs per-layer
    block evaluation)."""
    from repro.baselines import LayerwiseEncoder
    dim = 32
    rows = {}
    for depth in [1, 2, 3]:
        rng = np.random.default_rng(0)
        dense_sampler = DenseSampler(graph, [10] * depth, rng=rng)
        layer_sampler = LayerwiseSampler(graph, [10] * depth,
                                         rng=np.random.default_rng(0))
        enc = GNNEncoder("graphsage", [dim] * (depth + 1),
                         rng=np.random.default_rng(1))
        lw_enc = LayerwiseEncoder(list(enc.layers))
        targets = rng.choice(graph.num_nodes, BATCH, replace=False)

        batch = dense_sampler.sample(targets)
        h0 = Tensor(np.random.default_rng(2).normal(
            size=(batch.num_nodes, dim)).astype(np.float32), requires_grad=True)
        t0 = time.perf_counter()
        enc(h0, batch).sum().backward()
        dense_s = time.perf_counter() - t0

        lw_batch = layer_sampler.sample(targets)
        h0l = Tensor(np.random.default_rng(2).normal(
            size=(len(lw_batch.input_nodes), dim)).astype(np.float32),
            requires_grad=True)
        t0 = time.perf_counter()
        lw_enc(h0l, lw_batch).sum().backward()
        lw_s = time.perf_counter() - t0
        rows[depth] = (dense_s * 1e3, lw_s * 1e3)

    report.header("Table 6 (GPU column analogue): forward+backward ms per batch")
    report.row("layers", "dense ms", "layerwise ms", widths=[7, 12, 14])
    for depth, (d, l) in rows.items():
        report.row(depth, f"{d:.1f}", f"{l:.1f}", widths=[7, 12, 14])
    report.line("paper (V100): M-GNN 4/6.1/21 ms vs DGL 4.7/29/215 ms")
    if writing_baseline():
        assert rows[3][0] < rows[3][1] * 1.5  # dense not slower (usually faster)

    sampler = DenseSampler(graph, [10, 10], rng=np.random.default_rng(4))
    batch = sampler.sample(np.arange(BATCH))
    enc = GNNEncoder("graphsage", [dim, dim, dim], rng=np.random.default_rng(5))
    h0 = np.random.default_rng(6).normal(size=(batch.num_nodes, dim)).astype(np.float32)

    def fwd_bwd():
        h = Tensor(h0, requires_grad=True)
        enc(h, batch).sum().backward()

    benchmark(fwd_bwd)

"""Sampling fast-path benchmark: swap preparation and DENSE construction.

Establishes the perf baseline (``BENCH_sampling.json`` at the repo root) for
the three hot paths the paper's throughput claims rest on:

* **Per-swap index preparation** (Section 6, Quantity 2): the old path
  re-reads all c^2 in-buffer edge buckets and re-sorts the whole subgraph
  into a fresh :class:`AdjacencyIndex` on every partition-buffer swap; the
  new two-level :class:`PartitionedAdjacencyIndex` sorts only the entering
  partition's buckets and copies the resident edges once into its flat
  level 1.
* **One-hop sampling** in the regime of disk-based GNN training (fanout 10,
  1k targets, 4 of 16 partitions resident): the partitioned index must
  sample about as fast as a flat index over the same resident subgraph,
  because both gather from the same flat layout.
* **build_dense** (Section 4, Algorithm 1): the reference transcription's
  per-hop prepend-concatenate chain and ``np.unique`` + ``np.isin`` dedup
  versus the allocation-lean membership-array fast path.

Run standalone with ``PYTHONPATH=src python -m benchmarks.test_sampling_fastpath``
or under pytest (uses the ``report`` fixture). Only a regeneration run
(the standalone entry point, or ``REPRO_WRITE_BASELINE=1``) writes
BENCH_sampling.json and asserts the speedup floors.
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks import enable_baseline_writes, writing_baseline
from repro.core.dense import build_dense, build_dense_reference
from repro.graph import (AdjacencyIndex, EdgeBuckets,
                         PartitionedAdjacencyIndex, PartitionScheme,
                         power_law_graph)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sampling.json"

SWAP_CFG = dict(num_nodes=60_000, num_edges=1_500_000, p=16, capacity=4,
                num_swaps=24, seed=0)
ONE_HOP_CFG = dict(num_nodes=60_000, num_edges=1_500_000, p=16, capacity=4,
                   num_targets=1000, fanout=10, num_calls=300, seed=0)
DENSE_CFG = dict(num_nodes=60_000, num_edges=1_200_000, fanouts=(30, 20, 10),
                 batch=1000, n_batches=12, seed=0)


def _swap_sequence(p, capacity, num_swaps):
    """Round-robin single-partition swaps (the BETA/COMET stepping shape)."""
    resident = list(range(capacity))
    nxt = capacity
    steps = []
    for _ in range(num_swaps):
        evict = resident.pop(0)
        while nxt % p in resident:
            nxt += 1
        admit = nxt % p
        nxt += 1
        resident.append(admit)
        steps.append((admit, evict, list(resident)))
    return steps


def bench_swap_preparation(num_nodes, num_edges, p, capacity, num_swaps, seed):
    graph = power_law_graph(num_nodes, num_edges, seed=seed)
    scheme = PartitionScheme.uniform(num_nodes, p)
    buckets = EdgeBuckets(graph, scheme)
    steps = _swap_sequence(p, capacity, num_swaps)
    initial = list(range(capacity))

    # Old path: full re-read + re-sort of the in-buffer subgraph per swap.
    t_old = 0.0
    flat = None
    for _, _, resident in steps:
        t0 = time.perf_counter()
        sub = buckets.subgraph_for_partitions(sorted(resident))
        flat = AdjacencyIndex(sub, "both")
        t_old += time.perf_counter() - t0

    index = PartitionedAdjacencyIndex(scheme, buckets.bucket_endpoints,
                                      initial)
    t_new = 0.0
    for admit, evict, _ in steps:
        t0 = time.perf_counter()
        index.update_partitions([admit], [evict])
        t_new += time.perf_counter() - t0

    # Correctness: final two-level state == flat rebuild, sample for sample.
    probe = np.random.default_rng(seed).choice(num_nodes, 2000, replace=False)
    s1 = index.sample_one_hop(probe, 10, rng=np.random.default_rng(1))
    s2 = flat.sample_one_hop(probe, 10, rng=np.random.default_rng(1))
    np.testing.assert_array_equal(s1[0], s2[0])
    np.testing.assert_array_equal(s1[1], s2[1])

    old, new = t_old / num_swaps, t_new / num_swaps
    return {
        "config": dict(num_nodes=num_nodes, num_edges=num_edges, p=p,
                       capacity=capacity, num_swaps=num_swaps),
        "full_rebuild_s_per_swap": old,
        "two_level_s_per_swap": new,
        "speedup": old / new,
    }


def bench_one_hop(num_nodes, num_edges, p, capacity, num_targets, fanout,
                  num_calls, seed):
    graph = power_law_graph(num_nodes, num_edges, seed=seed)
    scheme = PartitionScheme.uniform(num_nodes, p)
    buckets = EdgeBuckets(graph, scheme)
    resident = list(range(0, p, p // capacity))[:capacity]
    index = PartitionedAdjacencyIndex(scheme, buckets.bucket_endpoints,
                                      resident)
    flat = AdjacencyIndex(buckets.subgraph_for_partitions(resident), "both")
    resident_nodes = np.concatenate([scheme.partition_nodes(q) for q in resident])
    pick = np.random.default_rng(seed + 1)
    target_sets = [np.sort(pick.choice(resident_nodes, num_targets,
                                       replace=False))
                   for _ in range(num_calls)]

    # Alternate the two indexes call by call so box drift hits both alike.
    t_flat = t_part = 0.0
    for c, targets in enumerate(target_sets):
        t0 = time.perf_counter()
        want = flat.sample_one_hop(targets, fanout,
                                   rng=np.random.default_rng([seed, c]))
        t1 = time.perf_counter()
        got = index.sample_one_hop(targets, fanout,
                                   rng=np.random.default_rng([seed, c]))
        t2 = time.perf_counter()
        t_flat += t1 - t0
        t_part += t2 - t1
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    return {
        "config": dict(num_nodes=num_nodes, num_edges=num_edges, p=p,
                       capacity=capacity, num_targets=num_targets,
                       fanout=fanout, num_calls=num_calls),
        "flat_s_per_call": t_flat / num_calls,
        "partitioned_s_per_call": t_part / num_calls,
        "partitioned_over_flat": t_part / t_flat,
    }


def bench_build_dense(num_nodes, num_edges, fanouts, batch, n_batches, seed):
    graph = power_law_graph(num_nodes, num_edges, seed=seed)
    index = AdjacencyIndex(graph, "both")
    pick = np.random.default_rng(seed + 1)
    target_sets = [pick.choice(num_nodes, batch, replace=False)
                   for _ in range(n_batches)]
    member = np.zeros(num_nodes, dtype=bool)
    rows = np.empty(num_nodes, dtype=np.int64)

    def run_ref(warm):
        t = 0.0
        for b, targets in enumerate(target_sets):
            rng = np.random.default_rng([seed, b])
            t0 = time.perf_counter()
            ref = build_dense_reference(targets, fanouts, index, rng=rng)
            ref.compute_repr_map()
            t += time.perf_counter() - t0
            if warm:
                return ref
        return t

    def run_fast(warm):
        t = 0.0
        for b, targets in enumerate(target_sets):
            rng = np.random.default_rng([seed, b])
            t0 = time.perf_counter()
            fast = build_dense(targets, fanouts, index, rng=rng,
                               member=member)
            fast.compute_repr_map(row_scratch=rows)
            t += time.perf_counter() - t0
            if warm:
                return fast
        return t

    # Warm-up + correctness: batch 0 must be bit-identical.
    ref0, fast0 = run_ref(warm=True), run_fast(warm=True)
    for name in ("node_id_offsets", "node_ids", "nbr_offsets", "nbrs",
                 "repr_map"):
        np.testing.assert_array_equal(getattr(ref0, name), getattr(fast0, name))
    assert ref0.stats == fast0.stats

    t_ref = run_ref(warm=False)
    t_fast = run_fast(warm=False)
    return {
        "config": dict(num_nodes=num_nodes, num_edges=num_edges,
                       fanouts=list(fanouts), batch=batch,
                       n_batches=n_batches),
        "reference_batches_per_s": n_batches / t_ref,
        "fast_batches_per_s": n_batches / t_fast,
        "speedup": t_ref / t_fast,
        "nodes_per_batch": int(fast0.num_nodes),
        "edges_per_batch": int(len(fast0.nbrs)),
    }


def run_all():
    return {
        "bench": "sampling_fastpath",
        "swap_preparation": bench_swap_preparation(**SWAP_CFG),
        "one_hop": bench_one_hop(**ONE_HOP_CFG),
        "build_dense": bench_build_dense(**DENSE_CFG),
    }


def _write(results):
    if writing_baseline():
        BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_sampling_fastpath(report):
    results = run_all()
    _write(results)
    swap, dense = results["swap_preparation"], results["build_dense"]
    one_hop = results["one_hop"]

    report.header("Sampling fast path: per-swap index preparation "
                  f"(p={SWAP_CFG['p']}, c={SWAP_CFG['capacity']})")
    report.row("path", "s/swap", "speedup", widths=[22, 10, 8])
    report.row("full rebuild", f"{swap['full_rebuild_s_per_swap']*1e3:.1f}ms",
               "1.0x", widths=[22, 10, 8])
    report.row("two-level", f"{swap['two_level_s_per_swap']*1e3:.1f}ms",
               f"{swap['speedup']:.1f}x", widths=[22, 10, 8])

    report.header(f"one-hop sample: {ONE_HOP_CFG['num_targets']} targets, "
                  f"fanout {ONE_HOP_CFG['fanout']}, "
                  f"{ONE_HOP_CFG['capacity']} of {ONE_HOP_CFG['p']} resident")
    report.row("index", "s/call", "vs flat", widths=[22, 10, 8])
    report.row("flat", f"{one_hop['flat_s_per_call']*1e3:.2f}ms", "1.0x",
               widths=[22, 10, 8])
    report.row("partitioned", f"{one_hop['partitioned_s_per_call']*1e3:.2f}ms",
               f"{one_hop['partitioned_over_flat']:.2f}x", widths=[22, 10, 8])

    report.header("build_dense fanouts "
                  f"{DENSE_CFG['fanouts']} batch {DENSE_CFG['batch']}")
    report.row("path", "batches/s", "speedup", widths=[22, 10, 8])
    report.row("reference", f"{dense['reference_batches_per_s']:.2f}", "1.0x",
               widths=[22, 10, 8])
    report.row("fast", f"{dense['fast_batches_per_s']:.2f}",
               f"{dense['speedup']:.1f}x", widths=[22, 10, 8])
    report.line(f"written to {BENCH_PATH.name}")

    # Soft floors (the committed BENCH_sampling.json records the real gap);
    # bit-identity to the references is asserted inside the benches.
    if writing_baseline():
        assert swap["speedup"] > 1.5
        assert one_hop["partitioned_over_flat"] <= 1.25
        assert dense["speedup"] > 1.1


SMOKE_SWAP_CFG = dict(num_nodes=8_000, num_edges=120_000, p=8, capacity=4,
                      num_swaps=6, seed=0)
SMOKE_ONE_HOP_CFG = dict(num_nodes=8_000, num_edges=120_000, p=16, capacity=4,
                         num_targets=1000, fanout=10, num_calls=60, seed=0)
SMOKE_DENSE_CFG = dict(num_nodes=8_000, num_edges=100_000, fanouts=(10, 5),
                       batch=256, n_batches=4, seed=0)


def main(argv=None):
    """Regenerate BENCH_sampling.json, or sanity-check the hot path fast.

    ``--smoke`` runs a reduced configuration (seconds, not minutes) with the
    same bit-exactness correctness checks but does **not** overwrite the
    committed baseline — the hook for PRs touching the sampling hot path:
    run the smoke first; if it passes and the numbers moved, re-run without
    the flag to refresh BENCH_sampling.json.
    """
    import argparse
    parser = argparse.ArgumentParser(prog="benchmarks.test_sampling_fastpath")
    parser.add_argument("--smoke", action="store_true",
                        help="fast correctness + perf sanity run; leaves "
                             "BENCH_sampling.json untouched")
    args = parser.parse_args(argv)
    if args.smoke:
        results = {
            "bench": "sampling_fastpath (smoke; baseline NOT updated)",
            "swap_preparation": bench_swap_preparation(**SMOKE_SWAP_CFG),
            "one_hop": bench_one_hop(**SMOKE_ONE_HOP_CFG),
            "build_dense": bench_build_dense(**SMOKE_DENSE_CFG),
        }
        print(json.dumps(results, indent=2))
        assert results["swap_preparation"]["speedup"] > 1.0
        assert results["one_hop"]["partitioned_over_flat"] < 2.0
        assert results["build_dense"]["speedup"] > 1.0
        print("smoke ok: fast paths bit-identical to references and not slower")
        return
    enable_baseline_writes()
    results = run_all()
    _write(results)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()

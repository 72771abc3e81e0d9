#!/usr/bin/env python
"""Serve queries from a trained snapshot, out-of-core.

Trains a small decoder-only link prediction model on disk (the paper's
out-of-core setup) as an ``lp-disk`` job, snapshots it through the job
protocol, then serves three query families straight from the table's
memmap — a ``serve`` job over the same unified API:

* embedding lookups, gathered in place (bit-equal to the table),
* edge scoring, bit-identical to offline evaluation scoring,
* top-k link prediction, scoring candidate partitions blockwise,

then times a stream of single-node lookups against the engine, one call
per request, as a fleet worker answers them.

Run:  python examples/serving_queries.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import api
from repro.api import (DataSpec, JobSpec, ModelSpec, ServeSpec, StorageSpec,
                       TrainSpec)
from repro.train import score_edges_offline

P, C = 16, 4  # physical partitions; buffer capacity (training: 25% resident)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-example-") as name:
        _demo(Path(name))


def _demo(tmp: Path) -> None:
    """Train into ``tmp``, snapshot, then serve from the snapshot."""

    # --- train out-of-core and snapshot -------------------------------
    train_spec = JobSpec(
        kind="lp-disk",
        data=DataSpec(dataset="fb15k237", scale=0.25, seed=1),
        model=ModelSpec(dim=32, encoder="none", decoder="distmult"),
        train=TrainSpec(batch_size=512, negatives=64, epochs=2, eval_every=0,
                        seed=0),
        storage=StorageSpec(workdir=str(tmp / "train"), partitions=P,
                            logical=8, buffer=C))
    train_job = api.build_job(train_spec)
    data = train_job.dataset
    print(f"graph: {data.graph.num_nodes:,} nodes, "
          f"{data.graph.num_edges:,} edges")
    result = train_job.run()
    snapshot = train_job.snapshot()
    print(f"trained: MRR {result.final_mrr:.4f}; snapshot {snapshot.name}\n")

    # --- serve it ------------------------------------------------------
    serve_job = api.build_job(JobSpec(
        kind="serve",
        serve=ServeSpec(snapshot=str(snapshot)),
        storage=StorageSpec(workdir=str(tmp / "serve"), buffer=C)))
    engine = serve_job.engine
    print(f"serving {P} partitions in place from the table map")

    # 1. Embedding lookups equal the full table.
    ids = np.random.default_rng(0).integers(0, data.graph.num_nodes, 1000)
    embs = engine.get_embeddings(ids)
    table = train_job.trainer.node_store.read_all()
    assert np.array_equal(embs, table[ids])
    print(f"lookups: {len(ids)} rows served, bit-equal to the table")

    # 2. Served scores are bit-identical to offline evaluation scoring.
    held_out = data.split.test[:500]
    served = engine.score_edges(held_out)
    offline = score_edges_offline(train_job.trainer.model, table, held_out)
    assert np.array_equal(served, offline)
    print(f"scoring: {len(held_out)} held-out edges, "
          f"bit-identical to offline evaluation")

    # 3. Top-k link prediction, scored partition block by block.
    src, rel = int(held_out[0, 0]), int(held_out[0, 1])
    top_ids, top_scores = engine.topk_targets(src, 5, rel=rel, exclude=[src])
    print(f"top-5 targets for ({src}, rel {rel}): "
          + ", ".join(f"{i} ({s:.3f})" for i, s in zip(top_ids, top_scores)))

    # --- one engine call per request ----------------------------------
    print("\nsingle-node lookups, one engine call each:")
    queries = np.random.default_rng(1).zipf(1.3, size=2000)
    queries = np.minimum(queries, data.graph.num_nodes) - 1
    latency_ms = []
    for node in queries:
        t0 = time.perf_counter()
        engine.get_embeddings([node])
        latency_ms.append(1000.0 * (time.perf_counter() - t0))
    p50, p99 = np.percentile(latency_ms, [50, 99])
    print(f"  {len(queries)} requests, p50 {p50:.3f}ms, p99 {p99:.3f}ms")
    print(f"  engine totals: {engine.stats.lookups} lookups")


if __name__ == "__main__":
    main()

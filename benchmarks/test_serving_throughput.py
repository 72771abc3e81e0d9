"""Serving throughput benchmark: batched vs naive queries, top-k across
table sizes, and the multi-worker serving fleet.

Establishes the serving perf baseline (``BENCH_serving.json`` at the repo
root) for the `repro.serve` query engine. Three sections:

**Embedding lookups** against an out-of-core snapshot whose table the
engine reads in place from its memmap, under a uniform-random and a
skewed (Zipf) query mix:

* **naive** — one engine call per query, arrival order: every lookup
  pays the per-call overhead by itself.
* **batched** — ``max_batch`` arrival-ordered queries per engine call,
  one gather each: the per-call overhead amortized over the batch.

Lookups never swap a partition (``swaps_per_1k`` is 0 in every arm, and
asserted so): the counter only moves for encode-on-read.

**Top-k target queries** across growing table sizes: the engine's exact
chunked sweep scores every row once per sweep, so its cost is linear in
the table. One QPS row per size; the run asserts every query gets
``k`` ids and every sweep scores exactly the table's rows.

**Serving fleet** (`repro.fleet`): end-to-end HTTP lookups against 1/2/4
worker processes, uniform and Zipf mixes. The host hands each client
connection to one worker, which answers it; there is no routing policy
to compare (``fleet.affinity`` is ignored). No arm swaps (summed worker
swaps/1k is 0).

Run standalone with ``PYTHONPATH=src python -m
benchmarks.test_serving_throughput`` or under pytest (uses the ``report``
fixture). ``--smoke`` runs a reduced config without touching the
committed baseline. Only a regeneration run (the standalone entry point
without ``--smoke``, or ``REPRO_WRITE_BASELINE=1``) writes the baseline
and asserts the QPS comparisons; a plain pytest run checks swaps/1k and
the top-k row counts only.
"""

import http.client
import json
import socket
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from benchmarks import enable_baseline_writes, writing_baseline
from repro.graph import load_freebase86m_mini
from repro.graph.partition import PartitionScheme
from repro.serve import ServingEngine, make_query_stream, serve_link_prediction
from repro.storage import NodeStore
from repro.train import DiskConfig, DiskLinkPredictionTrainer, LinkPredictionConfig
from repro.train.link_prediction import LinkPredictionModel

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

SERVE_CFG = dict(num_nodes=40_000, num_edges=200_000, dim=32, p=16, capacity=4,
                 num_queries=2_000, max_batch=256, seed=0)
SMOKE_CFG = dict(num_nodes=5_000, num_edges=25_000, dim=16, p=8, capacity=2,
                 num_queries=300, max_batch=64, seed=0)

TOPK_CFG = dict(sizes=(10_000, 40_000, 160_000), dim=32, p=16, capacity=4,
                k=10, num_queries=64, batch=8, seed=0)
TOPK_SMOKE_CFG = dict(sizes=(2_000, 8_000), dim=16, p=8, capacity=2,
                      k=10, num_queries=16, batch=8, seed=0)

FLEET_CFG = dict(num_nodes=40_000, num_edges=50_000, dim=32, p=16, capacity=4,
                 num_queries=1_200, threads=8, workers=(1, 2, 4), seed=0)
FLEET_SMOKE_CFG = dict(num_nodes=5_000, num_edges=10_000, dim=16, p=8,
                       capacity=2, num_queries=240, threads=4, workers=(1, 2),
                       seed=0)

def make_snapshot(tmpdir: Path, num_nodes, num_edges, dim, p, capacity, seed):
    """An lp-disk snapshot to serve (random-init table; no training needed —
    the benchmark measures serving cost, not model quality)."""
    data = load_freebase86m_mini(num_nodes=num_nodes, num_edges=num_edges,
                                 seed=seed)
    config = LinkPredictionConfig(embedding_dim=dim, encoder="none",
                                  num_epochs=0, seed=seed)
    # num_logical=p: the training policy is irrelevant here (0 epochs), it
    # just has to be constructible at any capacity.
    disk = DiskConfig(workdir=tmpdir / "train", num_partitions=p,
                      num_logical=p, buffer_capacity=capacity)
    trainer = DiskLinkPredictionTrainer(data, config, disk,
                                        checkpoint_dir=tmpdir / "ckpt")
    trainer.save_snapshot(0, 0, 1)
    return trainer.snapshots.latest()


def run_mode(engine, queries, batch_size):
    """Serve the stream in arrival-ordered chunks of ``batch_size``
    (1 = naive); returns QPS, per-query latency percentiles, swaps/1k."""
    lat_ms = np.empty(len(queries))
    swaps0 = engine.stats.swaps
    t_total0 = time.perf_counter()
    for start in range(0, len(queries), batch_size):
        chunk = queries[start : start + batch_size]
        t0 = time.perf_counter()
        engine.get_embeddings(chunk)
        # Every query in a micro-batch completes when the batch does.
        lat_ms[start : start + len(chunk)] = 1000 * (time.perf_counter() - t0)
    seconds = time.perf_counter() - t_total0
    swaps = engine.stats.swaps - swaps0
    return {"qps": len(queries) / seconds,
            "p50_ms": float(np.percentile(lat_ms, 50)),
            "p99_ms": float(np.percentile(lat_ms, 99)),
            "swaps_per_1k": 1000.0 * swaps / len(queries)}


def bench_serving(tmpdir: Path, num_nodes, num_edges, dim, p, capacity,
                  num_queries, max_batch, seed):
    snapshot = make_snapshot(Path(tmpdir), num_nodes, num_edges, dim, p,
                             capacity, seed)
    results = {"config": dict(num_nodes=num_nodes, num_edges=num_edges,
                              dim=dim, p=p, capacity=capacity,
                              buffer_fraction=capacity / p,
                              num_queries=num_queries, max_batch=max_batch)}
    for mix in ("random", "zipf"):
        queries = make_query_stream(mix, num_queries, num_nodes, seed)
        per_mix = {}
        for mode, batch in (("naive", 1), ("batched", max_batch)):
            # Fresh engine per mode over its own table copy, so modes
            # don't share counters.
            engine = serve_link_prediction(
                snapshot, Path(tmpdir) / f"serve-{mix}-{mode}",
                buffer_capacity=capacity)
            per_mix[mode] = run_mode(engine, queries, batch)
        per_mix["speedup"] = per_mix["batched"]["qps"] / per_mix["naive"]["qps"]
        results[mix] = per_mix
    return results


# ---------------------------------------------------------------------------
# Top-k: the exact chunked sweep across table sizes
# ---------------------------------------------------------------------------

def make_clustered_table(num_nodes, dim, seed):
    """Gaussian-mixture rows with clusters contiguous in the id space —
    the shape trained partitioned embeddings take (partitions track graph
    communities, and community count grows with graph size)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1.0, size=(max(12, num_nodes // 2500), dim))
    assign = np.sort(rng.integers(0, len(centers), num_nodes))
    table = centers[assign] + rng.normal(0, 0.05, size=(num_nodes, dim))
    return table.astype(np.float32)


def make_topk_engine(workdir, table, p, capacity, seed):
    num_nodes, dim = table.shape
    workdir.mkdir(parents=True, exist_ok=True)
    scheme = PartitionScheme.uniform(num_nodes, p)
    store = NodeStore(workdir / "table.bin", scheme, dim, learnable=False)
    store.initialize(values=table)
    config = LinkPredictionConfig(embedding_dim=dim, encoder="none",
                                  seed=seed)
    model = LinkPredictionModel(config, 1, rng=np.random.default_rng(seed))
    return ServingEngine(model, store, capacity)


def run_topk_mode(engine, srcs, k, batch):
    """Serve the sources in batched sweeps; returns (ids, qps)."""
    all_ids = []
    t0 = time.perf_counter()
    for start in range(0, len(srcs), batch):
        ids, _ = engine.topk_targets_batch(srcs[start : start + batch], k)
        all_ids.append(ids)
    seconds = time.perf_counter() - t0
    return np.concatenate(all_ids, axis=0), len(srcs) / seconds


def bench_topk(tmpdir, sizes, dim, p, capacity, k, num_queries, batch, seed):
    out = {"config": dict(sizes=list(sizes), dim=dim, p=p, capacity=capacity,
                          k=k, num_queries=num_queries, batch=batch),
           "sizes": []}
    for num_nodes in sizes:
        table = make_clustered_table(num_nodes, dim, seed)
        srcs = np.random.default_rng(seed + 1).integers(0, num_nodes,
                                                        num_queries)
        engine = make_topk_engine(Path(tmpdir) / f"topk-{num_nodes}", table,
                                  p, capacity, seed)
        ids, qps = run_topk_mode(engine, srcs, k, batch)
        sweeps = -(-num_queries // batch)
        out["sizes"].append({
            "num_nodes": num_nodes,
            "exact": {"qps": qps,
                      "ids_per_query": ids.shape[1],
                      "rows_scored_per_sweep":
                          engine.stats.ann_rows_scored / sweeps},
        })
    return out


# ---------------------------------------------------------------------------
# Fleet: 1/2/4 HTTP workers
# ---------------------------------------------------------------------------

def _fleet_spec(snapshot, workdir, workers, capacity):
    from repro import api
    return api.JobSpec.from_dict({
        "kind": "serve-fleet",
        "serve": {"snapshot": str(snapshot)},
        "storage": {"workdir": str(workdir), "buffer": capacity},
        "fleet": {"workers": workers, "port": 0},
    }).resolve()


def _fleet_swaps(fleet):
    """Summed engine swap counter across live workers (from worker stats)."""
    return sum(entry.get("serve", {}).get("swaps", 0)
               for entry in fleet.worker_stats())


def run_fleet_clients(url, queries, threads):
    """Drive the fleet with persistent-connection client threads, each
    issuing single-id ``/v1/embeddings`` lookups; returns QPS + latency."""
    parts = urlsplit(url)
    lat = [[] for _ in range(threads)]
    errors = []

    def client(t):
        conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                          timeout=120)
        conn.connect()
        # Nagle off: a request's headers and body go out as separate
        # writes, and coalescing them behind delayed ACKs serializes the
        # whole benchmark at ~40ms per request.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for node in queries[t::threads]:
                body = json.dumps({"ids": [int(node)]})
                t0 = time.perf_counter()
                conn.request("POST", "/v1/embeddings", body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                data = resp.read()
                if resp.status != 200:
                    errors.append((resp.status, data[:200]))
                    return
                lat[t].append(1000.0 * (time.perf_counter() - t0))
        finally:
            conn.close()

    pool = [threading.Thread(target=client, args=(t,))
            for t in range(threads)]
    t_total0 = time.perf_counter()
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    seconds = time.perf_counter() - t_total0
    if errors:
        raise AssertionError(f"fleet clients saw errors: {errors[:3]}")
    lat_ms = np.concatenate([np.asarray(chunk) for chunk in lat])
    assert len(lat_ms) == len(queries)
    return {"qps": len(queries) / seconds,
            "p50_ms": float(np.percentile(lat_ms, 50)),
            "p99_ms": float(np.percentile(lat_ms, 99))}


def bench_fleet(tmpdir, num_nodes, num_edges, dim, p, capacity, num_queries,
                threads, workers, seed):
    """QPS/p99/swaps over worker count x query mix. Each client thread's
    connection stays on the worker the host handed it to."""
    from repro.fleet import Fleet
    tmpdir = Path(tmpdir)
    snapshot = make_snapshot(tmpdir / "fleet-snap", num_nodes, num_edges,
                             dim, p, capacity, seed)
    out = {"config": dict(num_nodes=num_nodes, dim=dim, p=p,
                          capacity=capacity, num_queries=num_queries,
                          threads=threads, workers=list(workers)),
           "runs": []}
    for n_workers in workers:
        for mix in ("random", "zipf"):
            queries = make_query_stream(mix, num_queries, num_nodes, seed)
            work = tmpdir / f"fleet-{n_workers}w-{mix}"
            spec = _fleet_spec(snapshot, work, n_workers, capacity)
            fleet = Fleet(spec.to_dict(), work)
            fleet.start()
            try:
                swaps0 = _fleet_swaps(fleet)
                run = run_fleet_clients(fleet.url, queries, threads)
                run["swaps_per_1k"] = (1000.0 * (_fleet_swaps(fleet) - swaps0)
                                       / len(queries))
            finally:
                fleet.stop()
            out["runs"].append({"workers": n_workers, "mix": mix, **run})
    return out


def assert_fleet_section(fleet):
    """No fleet arm swaps a partition: lookups read each worker's table
    in place."""
    assert any(run["workers"] > 1 for run in fleet["runs"]), \
        "fleet bench needs a multi-worker point"
    for run in fleet["runs"]:
        assert run["swaps_per_1k"] == 0, run


def run_all():
    import tempfile
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        return {"bench": "serving_throughput",
                "serving": bench_serving(Path(tmp), **SERVE_CFG),
                "topk": bench_topk(Path(tmp), **TOPK_CFG),
                "fleet": bench_fleet(Path(tmp), **FLEET_CFG)}


def _write(results):
    if writing_baseline():
        BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_serving_throughput(report):
    results = run_all()
    _write(results)
    serving = results["serving"]
    cfg = serving["config"]

    report.header(f"Serving throughput: p={cfg['p']}, "
                  f"{cfg['num_queries']} lookups, max_batch {cfg['max_batch']}")
    report.row("mix / mode", "QPS", "p50", "p99", "swaps/1k",
               widths=[18, 10, 9, 9, 9])
    for mix in ("random", "zipf"):
        for mode in ("naive", "batched"):
            r = serving[mix][mode]
            report.row(f"{mix} {mode}", f"{r['qps']:,.0f}",
                       f"{r['p50_ms']:.2f}ms", f"{r['p99_ms']:.2f}ms",
                       f"{r['swaps_per_1k']:.1f}", widths=[18, 10, 9, 9, 9])
        report.row(f"{mix} speedup", f"{serving[mix]['speedup']:.1f}x",
                   "", "", "", widths=[18, 10, 9, 9, 9])
    topk = results["topk"]
    report.header(f"Top-k targets: exact chunked sweep "
                  f"(k={topk['config']['k']}, p={topk['config']['p']}, "
                  f"buffer {topk['config']['capacity']}, "
                  f"batch {topk['config']['batch']})")
    report.row("table size", "exact QPS", widths=[12, 11])
    for entry in topk["sizes"]:
        report.row(f"{entry['num_nodes']:,}",
                   f"{entry['exact']['qps']:,.0f}", widths=[12, 11])
    fleet = results["fleet"]
    fcfg = fleet["config"]
    report.header(f"Serving fleet over HTTP "
                  f"(p={fcfg['p']}, buffer {fcfg['capacity']}, "
                  f"{fcfg['num_queries']} lookups, {fcfg['threads']} clients)")
    report.row("workers / mix", "QPS", "p99", "swaps/1k",
               widths=[24, 10, 9, 9])
    for run in fleet["runs"]:
        report.row(f"{run['workers']}w {run['mix']}",
                   f"{run['qps']:,.0f}", f"{run['p99_ms']:.2f}ms",
                   f"{run['swaps_per_1k']:.1f}", widths=[24, 10, 9, 9])
    report.line(f"written to {BENCH_PATH.name}")

    timing = writing_baseline()
    if timing:
        # The acceptance floor: batching must clearly beat per-query
        # execution.
        assert serving["zipf"]["speedup"] >= 3.0
        assert serving["random"]["speedup"] >= 3.0
    # Lookups read the table in place: no arm swaps a partition.
    for mix in ("random", "zipf"):
        for mode in ("naive", "batched"):
            assert serving[mix][mode]["swaps_per_1k"] == 0, (mix, mode)
    assert_topk_section(topk)
    assert_fleet_section(fleet)


def assert_topk_section(topk):
    """Shared by the full run and --smoke: every query gets ``k`` ids and
    every sweep scores each table row exactly once."""
    for entry in topk["sizes"]:
        assert entry["exact"]["ids_per_query"] == topk["config"]["k"], entry
        assert (entry["exact"]["rows_scored_per_sweep"]
                == entry["num_nodes"]), entry


def main(argv=None):
    """Regenerate BENCH_serving.json, or sanity-check the engine fast.

    ``--smoke`` runs a reduced configuration in seconds with the same
    speedup direction checks but does **not** overwrite the committed
    baseline (the hook for PRs touching the serving path: smoke first,
    re-run without the flag to refresh the baseline if numbers moved).
    """
    import argparse
    import tempfile
    parser = argparse.ArgumentParser(prog="benchmarks.test_serving_throughput")
    parser.add_argument("--smoke", action="store_true",
                        help="fast reduced run; leaves BENCH_serving.json "
                             "untouched")
    args = parser.parse_args(argv)
    if args.smoke:
        with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
            results = {"bench": "serving_throughput (smoke; baseline NOT "
                                "updated)",
                       "serving": bench_serving(Path(tmp), **SMOKE_CFG),
                       "topk": bench_topk(Path(tmp), **TOPK_SMOKE_CFG),
                       "fleet": bench_fleet(Path(tmp), **FLEET_SMOKE_CFG)}
        print(json.dumps(results, indent=2))
        assert results["serving"]["zipf"]["speedup"] > 1.0
        assert results["serving"]["random"]["speedup"] > 1.0
        assert_topk_section(results["topk"])
        assert_fleet_section(results["fleet"])
        print("smoke ok: batched serving beats naive on both mixes; "
              "top-k scores every row once per sweep; no fleet arm swaps "
              "a partition")
        return
    enable_baseline_writes()
    results = run_all()
    _write(results)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()

"""Streaming ingest benchmark: event throughput and staleness vs cadence.

Establishes the streaming perf baseline (``BENCH_streaming.json`` at the
repo root) for the `repro.stream` subsystem:

* **ingest throughput** — events/second appended to the live graph, both
  *raw* (delta log only, nothing attached) and *coherent* (a resident
  partition-aware sampler index and a serving engine follow the stream, so
  every ingest pays the refresh of the touched resident buckets — the
  realistic serving-while-ingesting cost).
* **staleness vs compaction cadence** — the same event stream run at
  several compact-every thresholds, recording mean/max staleness (pending
  un-compacted events a query observes), the number of compactions, and
  the time spent compacting. Frequent compaction buys low staleness with
  compaction CPU; the JSON records the trade-off curve.

The run finishes with a streamed-vs-rebuilt equivalence check, so the
committed numbers always come from a correct stream.

Run standalone with ``PYTHONPATH=src python -m
benchmarks.test_streaming_ingest`` or under pytest (uses the ``report``
fixture). Only a regeneration run (the standalone entry point without
``--smoke``, or ``REPRO_WRITE_BASELINE=1``) writes the baseline; a plain
pytest run skips the events/s floors.
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks import enable_baseline_writes, writing_baseline
from repro.core.sampler import DenseSampler
from repro.graph.edge_list import Graph
from repro.graph.partition import PartitionScheme
from repro.serve.engine import ServingEngine
from repro.storage.edge_store import EdgeBucketStore
from repro.storage.node_store import NodeStore
from repro.stream import Compactor, LiveGraph, synth_events
from repro.train.link_prediction import (LinkPredictionConfig,
                                         LinkPredictionModel)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"

STREAM_CFG = dict(num_nodes=20_000, num_edges=100_000, dim=16, p=16,
                  capacity=4, num_events=24_000, event_batch=500,
                  delete_fraction=0.1, cadences=(2_000, 8_000, 24_000),
                  reader_threads=(0, 2, 4), concurrent_events=12_000,
                  seed=0)
SMOKE_CFG = dict(num_nodes=3_000, num_edges=15_000, dim=8, p=8, capacity=2,
                 num_events=3_000, event_batch=250, delete_fraction=0.1,
                 cadences=(500, 3_000), reader_threads=(0, 2),
                 concurrent_events=2_000, seed=0)


def build_live(tmp: Path, num_nodes, num_edges, dim, p, seed,
               name) -> LiveGraph:
    rng = np.random.default_rng(seed)
    graph = Graph(num_nodes=num_nodes, src=rng.integers(0, num_nodes, num_edges),
                  dst=rng.integers(0, num_nodes, num_edges))
    scheme = PartitionScheme.uniform(num_nodes, p)
    store = NodeStore(tmp / f"{name}-nodes.bin", scheme, dim, learnable=True)
    store.initialize(rng=np.random.default_rng(seed + 1))
    edges = EdgeBucketStore(tmp / f"{name}-edges.bin", graph, scheme)
    return LiveGraph(store, edges, seed=seed)


def run_stream(live, rng, num_events, event_batch, delete_fraction,
               compact_every=0):
    """Ingest ~``num_events``; returns (appended, ingest_seconds,
    compact_seconds, staleness_samples, compactions). ``appended`` counts
    events the log actually took (a delete batch comes up short when its
    sampled bucket is empty) — throughput must divide by that, not by the
    requested total."""
    compactor = Compactor(live)
    t_ingest = t_compact = 0.0
    staleness = []
    appended = 0
    asked = 0
    while asked < num_events:
        count = min(event_batch, num_events - asked)
        ins, dels = synth_events(live, rng, count, delete_fraction)
        t0 = time.perf_counter()
        lo, hi = live.insert_edges(ins)
        appended += hi - lo
        if dels is not None:
            lo, hi = live.delete_edges(dels)
            appended += hi - lo
        t_ingest += time.perf_counter() - t0
        asked += count
        staleness.append(live.staleness())
        if compact_every and live.staleness() >= compact_every:
            t0 = time.perf_counter()
            compactor.compact()
            t_compact += time.perf_counter() - t0
    return appended, t_ingest, t_compact, staleness, compactor.compactions


def bench_ingest_throughput(tmp, cfg):
    """Raw (log only) vs coherent (index + engine attached) ingest rate."""
    rng = np.random.default_rng(cfg["seed"] + 11)
    out = {}
    for mode in ("raw", "coherent"):
        live = build_live(tmp, cfg["num_nodes"], cfg["num_edges"], cfg["dim"],
                          cfg["p"], cfg["seed"], f"ingest-{mode}")
        if mode == "coherent":
            model_cfg = LinkPredictionConfig(embedding_dim=cfg["dim"],
                                             encoder="none", seed=0)
            model = LinkPredictionModel(model_cfg, 1,
                                        rng=np.random.default_rng(0))
            engine = ServingEngine.over_live(live, model,
                                             buffer_capacity=cfg["capacity"])
            engine.get_embeddings(np.arange(64))       # warm residency
            sampler = DenseSampler.from_partitions(
                live.scheme, live.bucket_endpoints,
                range(cfg["capacity"]), [10],
                rng=np.random.default_rng(1))
            live.add_bucket_listener(sampler.index.refresh_buckets)
            live.add_growth_listener(sampler.index.extend_nodes)
        appended, t_ingest, _, _, _ = run_stream(live, rng,
                                                 cfg["num_events"],
                                                 cfg["event_batch"],
                                                 cfg["delete_fraction"])
        out[mode] = {"events": appended,
                     "seconds": t_ingest,
                     "events_per_sec": appended / max(t_ingest, 1e-9)}
    return out


def bench_staleness_vs_cadence(tmp, cfg):
    """The same stream at several compaction cadences."""
    out = {}
    for cadence in cfg["cadences"]:
        live = build_live(tmp, cfg["num_nodes"], cfg["num_edges"], cfg["dim"],
                          cfg["p"], cfg["seed"], f"cadence-{cadence}")
        rng = np.random.default_rng(cfg["seed"] + 29)   # identical stream
        _, t_ingest, t_compact, staleness, compactions = run_stream(
            live, rng, cfg["num_events"], cfg["event_batch"],
            cfg["delete_fraction"], compact_every=cadence)
        out[str(cadence)] = {
            "compactions": compactions,
            "mean_staleness": float(np.mean(staleness)),
            "max_staleness": int(max(staleness)),
            "ingest_seconds": t_ingest,
            "compact_seconds": t_compact,
        }
    return out


def bench_concurrent_ingest_serve(tmp, cfg):
    """Ingest+serve concurrency curve: two writer threads race reader
    threads against the same live graph. Writers take turns on the live
    graph's writer mutex while queries run on the shared side, so the
    events/s and query-QPS columns show what serving costs ingest (and
    vice versa) when both share the process."""
    import threading
    out = {}
    n_writers = 2
    for readers in cfg["reader_threads"]:
        live = build_live(tmp, cfg["num_nodes"], cfg["num_edges"],
                          cfg["dim"], cfg["p"], cfg["seed"],
                          f"conc-{readers}")
        model_cfg = LinkPredictionConfig(embedding_dim=cfg["dim"],
                                         encoder="none", seed=0)
        model = LinkPredictionModel(model_cfg, 1,
                                    rng=np.random.default_rng(0))
        engine = ServingEngine.over_live(live, model,
                                         buffer_capacity=cfg["capacity"])
        engine.get_embeddings(np.arange(64))       # warm residency
        per_writer = cfg["concurrent_events"] // n_writers
        batches = []
        for w in range(n_writers):
            rng = np.random.default_rng(cfg["seed"] + 51 + w)
            chunks = []
            for start in range(0, per_writer, cfg["event_batch"]):
                n = min(cfg["event_batch"], per_writer - start)
                chunks.append(np.stack(
                    [rng.integers(0, cfg["num_nodes"], n),
                     rng.integers(0, cfg["num_nodes"], n)], axis=1))
            batches.append(chunks)
        stop = threading.Event()
        counts = [0] * max(readers, 1)
        errors = []

        def write(w):
            try:
                for chunk in batches[w]:
                    live.insert_edges(chunk)
            except Exception as exc:   # pragma: no cover - failure path
                errors.append(exc)

        def read(k):
            rng = np.random.default_rng(cfg["seed"] + 91 + k)
            try:
                while not stop.is_set():
                    engine.get_embeddings(
                        rng.integers(0, cfg["num_nodes"], 64))
                    counts[k] += 1
            except Exception as exc:   # pragma: no cover - failure path
                errors.append(exc)

        writer_threads = [threading.Thread(target=write, args=(w,))
                          for w in range(n_writers)]
        reader_threads = [threading.Thread(target=read, args=(k,))
                          for k in range(readers)]
        t0 = time.perf_counter()
        for t in writer_threads + reader_threads:
            t.start()
        for t in writer_threads:
            t.join()
        seconds = time.perf_counter() - t0
        stop.set()
        for t in reader_threads:
            t.join()
        assert not errors, errors
        appended = live.log.events_appended
        out[str(readers)] = {
            "events": int(appended),
            "seconds": seconds,
            "events_per_sec": appended / max(seconds, 1e-9),
            "queries": int(sum(counts[:readers])),
            "query_qps": sum(counts[:readers]) / max(seconds, 1e-9),
        }
    return out


def verify_equivalence(tmp, cfg):
    """Streamed view == offline rebuild after a fresh interleaved run."""
    live = build_live(tmp, cfg["num_nodes"] // 2, cfg["num_edges"] // 2,
                      cfg["dim"], cfg["p"], cfg["seed"], "verify")
    rng = np.random.default_rng(cfg["seed"] + 43)
    compactor = Compactor(live)
    for step in range(8):
        ins, dels = synth_events(live, rng, cfg["event_batch"],
                                 cfg["delete_fraction"])
        live.insert_edges(ins)
        if dels is not None:
            live.delete_edges(dels)
        if step % 3 == 2:
            compactor.compact()
    final = live.materialize()
    rebuilt = EdgeBucketStore(tmp / "verify-rebuilt.bin", final, live.scheme)
    p = live.num_partitions
    for i in range(p):
        for j in range(p):
            assert np.array_equal(live.bucket_edges(i, j, record_io=False),
                                  rebuilt.read_bucket(i, j, record_io=False))
    return {"checked_buckets": p * p, "live_edges": int(final.num_edges)}


def bench_streaming(tmp: Path, cfg: dict) -> dict:
    return {"config": dict(cfg),
            "ingest": bench_ingest_throughput(tmp, cfg),
            "staleness_vs_cadence": bench_staleness_vs_cadence(tmp, cfg),
            "concurrency": bench_concurrent_ingest_serve(tmp, cfg),
            "equivalence": verify_equivalence(tmp, cfg)}


def run_all(cfg=STREAM_CFG):
    import tempfile
    with tempfile.TemporaryDirectory(prefix="repro-stream-bench-") as tmp:
        return {"bench": "streaming_ingest",
                "streaming": bench_streaming(Path(tmp), cfg)}


def _write(results):
    if writing_baseline():
        BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _check_directions(streaming, floors=True):
    """Structural checks always; the events/s floors only with ``floors``."""
    ingest = streaming["ingest"]
    if floors:
        assert ingest["raw"]["events_per_sec"] > 10_000
        assert ingest["coherent"]["events_per_sec"] > 1_000
    cadences = sorted(int(c) for c in streaming["staleness_vs_cadence"])
    rows = [streaming["staleness_vs_cadence"][str(c)] for c in cadences]
    # Tighter cadence => more compactions and lower observed staleness.
    assert rows[0]["compactions"] >= rows[-1]["compactions"]
    assert rows[0]["mean_staleness"] <= rows[-1]["mean_staleness"]
    for readers, r in streaming["concurrency"].items():
        # Ingest must still run at a sane clip beside the readers, every
        # event must land, and reader threads must make real progress.
        if floors:
            assert r["events_per_sec"] > 500, readers
        assert r["events"] == streaming["config"]["concurrent_events"]
        if int(readers):
            assert r["queries"] > 0, readers


def test_streaming_ingest(report):
    results = run_all()
    _write(results)
    streaming = results["streaming"]
    cfg = streaming["config"]

    report.header(f"Streaming ingest: {cfg['num_nodes']:,} nodes, "
                  f"{cfg['num_edges']:,} base edges, p={cfg['p']}, "
                  f"{cfg['num_events']:,} events "
                  f"({cfg['delete_fraction']:.0%} deletes)")
    for mode in ("raw", "coherent"):
        r = streaming["ingest"][mode]
        report.row(f"ingest {mode}", f"{r['events_per_sec']:,.0f} ev/s",
                   f"{r['seconds']:.2f}s", widths=[20, 18, 10])
    report.row("cadence", "compactions", "mean stale", "max stale",
               "compact s", widths=[12, 12, 12, 12, 10])
    for cadence in cfg["cadences"]:
        r = streaming["staleness_vs_cadence"][str(cadence)]
        report.row(str(cadence), r["compactions"],
                   f"{r['mean_staleness']:.0f}", r["max_staleness"],
                   f"{r['compact_seconds']:.2f}", widths=[12, 12, 12, 12, 10])
    report.row("concurrency", "readers", "events/s", "query QPS",
               widths=[12, 10, 14, 14])
    concurrency = streaming["concurrency"]
    for readers in sorted(concurrency, key=int):
        r = concurrency[readers]
        report.row("2 writers", readers, f"{r['events_per_sec']:,.0f}",
                   f"{r['query_qps']:,.0f}", widths=[12, 10, 14, 14])
    eq = streaming["equivalence"]
    report.line(f"equivalence: {eq['checked_buckets']} buckets vs offline "
                f"rebuild, {eq['live_edges']:,} live edges — identical")
    report.line(f"written to {BENCH_PATH.name}")
    _check_directions(streaming, floors=writing_baseline())


def main(argv=None):
    """Regenerate BENCH_streaming.json, or sanity-check the stream fast.

    ``--smoke`` runs a reduced configuration in seconds with the same
    direction checks but does **not** overwrite the committed baseline
    (the hook for PRs touching the streaming path: smoke first, re-run
    without the flag to refresh the baseline if numbers moved).
    """
    import argparse
    parser = argparse.ArgumentParser(prog="benchmarks.test_streaming_ingest")
    parser.add_argument("--smoke", action="store_true",
                        help="fast reduced run; leaves BENCH_streaming.json "
                             "untouched")
    args = parser.parse_args(argv)
    if args.smoke:
        results = run_all(SMOKE_CFG)
        print(json.dumps(results, indent=2))
        _check_directions(results["streaming"])
        print("smoke ok: ingest throughput floors hold, staleness falls "
              "with tighter compaction cadence, equivalence verified")
        return
    enable_baseline_writes()
    results = run_all()
    _write(results)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()

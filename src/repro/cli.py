"""Command-line interface: every subcommand is a thin shim over the
unified job API (:mod:`repro.api`) — flags build a typed
:class:`~repro.api.specs.JobSpec`, and ``repro.api.run`` executes it.

Usage (also via ``python -m repro``)::

    python -m repro info                      # dataset registry
    python -m repro info --jobs               # job kinds + spec schema
    python -m repro autotune --dataset freebase86m --memory-gb 61
    python -m repro train-lp --dataset fb15k237 --scale 0.1 --epochs 3
    python -m repro train-lp --dataset fb15k237 --disk --policy comet
    python -m repro train-nc --epochs 5
    python -m repro train-lp --config run.json   # flags beat config values
    python -m repro train-lp --dump-spec         # resolved JobSpec, no run
    python -m repro run job.json                 # execute any job kind
    python -m repro serve --snapshot ckpt/ --topk 5 10
    python -m repro serve --snapshot ckpt/ --bench 2000 --mix zipf
    python -m repro stream --events 20000 --compact-every 4000 --refresh
    python -m repro stream --repl --verify
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import api
from .api import (CheckpointSpec, DataSpec, FleetSpec, JobSpec, ModelSpec,
                  ServeSpec, StorageSpec, StreamSpec, TrainSpec)
from .api import registry as job_registry
from .graph import PAPER_DATASETS, paper_stats
from .policies import autotune_from_dataset


def cmd_info(args: argparse.Namespace) -> int:
    if args.jobs:
        print(f"{len(api.JOB_KINDS)} registered job kinds "
              f"(run any of them with `repro run <spec.json>`):\n")
        for kind in api.job_kinds():
            info = api.kind_info(kind)
            print(f"{kind:<14} {info.description}")
            for line in api.schema_lines(kind):
                print(f"  {line}")
            print()
        return 0
    print(f"{'dataset':<16} {'nodes':>14} {'edges':>16} {'feat':>5} "
          f"{'total GB':>9} {'task':>5}")
    for name, stats in sorted(PAPER_DATASETS.items()):
        print(f"{name:<16} {stats.num_nodes:>14,} {stats.num_edges:>16,} "
              f"{stats.feat_dim:>5} {stats.total_gb:>9.1f} {stats.task:>5}")
    return 0


def cmd_autotune(args: argparse.Namespace) -> int:
    stats = paper_stats(args.dataset)
    result = autotune_from_dataset(stats.num_nodes, stats.num_edges,
                                   args.dim or (stats.feat_dim or 50),
                                   args.memory_gb,
                                   max_physical=args.max_physical)
    print(f"dataset {stats.name}: {stats.num_nodes:,} nodes, "
          f"{stats.num_edges:,} edges, {args.memory_gb} GB CPU memory")
    print(f"  physical partitions p = {result.num_physical}")
    print(f"  logical partitions  l = {result.num_logical}")
    print(f"  buffer capacity     c = {result.buffer_capacity} "
          f"({result.buffer_fraction:.0%} resident)")
    print(f"  partition size        = {result.partition_bytes / (1 << 20):.0f} MiB")
    return 0


# ---------------------------------------------------------------------------
# Flag -> JobSpec shims (behaviour-preserving: same defaults as the legacy
# subcommands, resolved through the registry's per-kind defaults)
# ---------------------------------------------------------------------------

def _checkpoint_spec(args: argparse.Namespace,
                     workdir_fallback: bool = False) -> CheckpointSpec:
    """Checkpoint flags -> spec. ``workdir_fallback`` routes the legacy
    in-memory-trainer behaviour where ``--workdir`` (a flag without a
    storage section to live in) supplies the ``<workdir>/checkpoints``
    default; disk kinds resolve that from ``storage.workdir`` at build.
    The fallback applies only when checkpointing was actually requested
    (a cadence or an explicit dir) — bare ``--workdir`` must not enable
    the snapshot subsystem, exactly like the legacy commands."""
    ckpt_dir = args.checkpoint_dir
    if (ckpt_dir is None and workdir_fallback and args.checkpoint_every
            and getattr(args, "workdir", None)):
        ckpt_dir = api.default_checkpoint_dir(args.workdir)
    return CheckpointSpec(every=args.checkpoint_every, dir=ckpt_dir,
                          compress=args.checkpoint_compress,
                          resume_from=args.resume_from,
                          incremental=getattr(args, "checkpoint_incremental",
                                              False))


def _train_lp_spec(args: argparse.Namespace) -> JobSpec:
    kind = job_registry.LP_DISK if args.disk else job_registry.LP_MEM
    spec = JobSpec(
        kind=kind,
        data=DataSpec(dataset=args.dataset, scale=args.scale),
        model=ModelSpec(dim=args.dim, encoder=args.encoder,
                        decoder=args.decoder, fanouts=tuple(args.fanouts)),
        train=TrainSpec(batch_size=args.batch_size, negatives=args.negatives,
                        epochs=args.epochs, seed=args.seed),
        checkpoint=_checkpoint_spec(args, workdir_fallback=not args.disk))
    if args.disk:
        spec.storage = StorageSpec(workdir=args.workdir,
                                   partitions=args.partitions,
                                   logical=args.logical, buffer=args.buffer,
                                   policy=args.policy)
    return spec


def _train_nc_spec(args: argparse.Namespace) -> JobSpec:
    kind = job_registry.NC_DISK if args.disk else job_registry.NC_MEM
    spec = JobSpec(
        kind=kind,
        data=DataSpec(nodes=args.nodes),
        model=ModelSpec(dim=args.dim, fanouts=tuple(args.fanouts)),
        train=TrainSpec(batch_size=args.batch_size, epochs=args.epochs,
                        seed=args.seed),
        checkpoint=_checkpoint_spec(args, workdir_fallback=not args.disk))
    if args.disk:
        spec.storage = StorageSpec(workdir=args.workdir,
                                   partitions=args.partitions,
                                   buffer=args.buffer)
    return spec


def _serve_spec(args: argparse.Namespace) -> JobSpec:
    topk = None
    if args.topk:
        topk = (int(args.topk[0]), int(args.topk[1]))
    return JobSpec(
        kind=job_registry.SERVE,
        data=DataSpec(dataset=args.dataset, scale=args.scale,
                      nodes=args.nc_nodes, feat_dim=args.nc_dim,
                      seed=args.nc_seed),
        storage=StorageSpec(workdir=args.workdir, partitions=args.partitions,
                            buffer=args.buffer),
        serve=ServeSpec(snapshot=args.snapshot, embed=args.embed,
                        score=tuple(args.score) if args.score else (),
                        topk=topk, rel=args.rel,
                        ann=False if args.no_ann else None,
                        ann_cluster_size=args.ann_cluster_size,
                        exact=args.exact, classify=args.classify,
                        bench=args.bench, mix=args.mix,
                        max_batch=args.max_batch, seed=args.seed))


def _serve_fleet_spec(args: argparse.Namespace) -> JobSpec:
    return JobSpec(
        kind=job_registry.SERVE_FLEET,
        data=DataSpec(dataset=args.dataset, scale=args.scale,
                      nodes=args.nc_nodes, feat_dim=args.nc_dim,
                      seed=args.nc_seed),
        storage=StorageSpec(workdir=args.workdir, partitions=args.partitions,
                            buffer=args.buffer),
        serve=ServeSpec(snapshot=args.snapshot,
                        ann=False if args.no_ann else None,
                        ann_cluster_size=args.ann_cluster_size),
        fleet=FleetSpec(workers=args.workers, host=args.host, port=args.port,
                        affinity=args.affinity, max_batch=args.max_batch,
                        max_wait_ms=args.max_wait_ms,
                        max_queue=args.max_queue, timeout_ms=args.timeout_ms,
                        duration=args.duration))


def _stream_spec(args: argparse.Namespace) -> JobSpec:
    return JobSpec(
        kind=job_registry.STREAM,
        data=DataSpec(dataset=args.dataset, scale=args.scale),
        model=ModelSpec(dim=args.dim),
        train=TrainSpec(batch_size=args.batch_size, negatives=args.negatives,
                        seed=args.seed),
        storage=StorageSpec(workdir=args.workdir, partitions=args.partitions,
                            buffer=args.buffer,
                            spill_threshold=args.spill_threshold),
        stream=StreamSpec(events=args.events, event_batch=args.event_batch,
                          delete_fraction=args.delete_fraction,
                          add_nodes_every=args.add_nodes_every,
                          compact_every=args.compact_every,
                          refresh=args.refresh, verify=args.verify,
                          repl=args.repl, wal=args.wal,
                          fsync_every=args.fsync_every,
                          background_compaction=args.background_compaction),
        checkpoint=_checkpoint_spec(args))


def _execute(spec: JobSpec, args: argparse.Namespace) -> int:
    """Dump the resolved spec (``--dump-spec``) or run it verbosely.

    Only :class:`~repro.api.JobError` (user configuration errors) becomes
    a clean traceback-free exit; any other exception out of the run is a
    real defect and propagates with its stack."""
    try:
        resolved = spec.resolve()
        if getattr(args, "dump_spec", False):
            print(json.dumps(resolved.to_dict(), indent=2))
            return 0
        api.run(resolved, verbose=True)
    except api.JobError as exc:
        raise SystemExit(str(exc)) from exc
    return 0


def cmd_train_lp(args: argparse.Namespace) -> int:
    return _execute(_train_lp_spec(args), args)


def cmd_train_nc(args: argparse.Namespace) -> int:
    return _execute(_train_nc_spec(args), args)


def cmd_serve(args: argparse.Namespace) -> int:
    return _execute(_serve_spec(args), args)


def cmd_serve_fleet(args: argparse.Namespace) -> int:
    return _execute(_serve_fleet_spec(args), args)


def cmd_stream(args: argparse.Namespace) -> int:
    return _execute(_stream_spec(args), args)


def cmd_run(args: argparse.Namespace) -> int:
    """Execute any job kind from a JobSpec JSON file."""
    try:
        spec = api.load_spec(args.spec)
    except api.JobError as exc:
        raise SystemExit(str(exc)) from exc
    if args.telemetry is not None:
        # --telemetry forces a JSONL run log on top of whatever the spec
        # says; a non-empty value overrides the log path too.
        if spec.telemetry.sink == "none":
            spec.telemetry.sink = "jsonl"
        if args.telemetry:
            spec.telemetry.path = args.telemetry
    return _execute(spec, args)


def _last_metrics(records: List[dict]) -> Dict[str, Any]:
    """The metrics dict of the last metrics record (cumulative deltas)."""
    last = None
    for record in records:
        if record.get("type") == "metrics":
            last = record
    return {} if last is None else (last.get("metrics") or {})


def _span_rows(records: List[dict]) -> List[Tuple[str, dict]]:
    """(name, summary) histogram rows of the last metrics record."""
    return [(name, value)
            for name, value in sorted(_last_metrics(records).items())
            if isinstance(value, dict) and value.get("count")]


def _scalar_metrics(records: List[dict]) -> Dict[str, float]:
    """Numeric (counter / gauge / source) entries of the last metrics
    record."""
    return {name: value for name, value in _last_metrics(records).items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def _top_logs(raw: str) -> List[Path]:
    """Resolve a ``repro top`` target: a log file, a directory searched
    recursively, or a glob pattern (e.g. ``work/worker-*/telemetry.jsonl``)."""
    import glob as globlib
    target = Path(raw)
    if target.is_dir():
        logs = sorted(target.rglob("telemetry.jsonl"))
        if not logs:
            raise SystemExit(f"no telemetry.jsonl under {target} "
                             f"(run with --telemetry or telemetry.sink=jsonl)")
        return logs
    if target.is_file():
        return [target]
    if any(ch in raw for ch in "*?["):
        logs = sorted(Path(p) for p in globlib.glob(raw, recursive=True)
                      if Path(p).is_file())
        if not logs:
            raise SystemExit(f"no run logs match {raw!r}")
        return logs
    raise SystemExit(f"no such file or directory: {target}")


def _render_sections(header: str, seconds: float, record_count: int,
                     events: Dict[str, int], rows: List[Tuple[str, dict]],
                     scalars: Dict[str, float]) -> None:
    print(f"{header} — {record_count} records over {seconds:.1f}s")
    if events:
        line = ", ".join(f"{name} x{count}"
                         for name, count in sorted(events.items()))
        print(f"  events: {line}")
    if rows:
        print(f"  {'metric':<36} {'count':>7} {'total':>12} "
              f"{'p50':>10} {'p99':>10} {'max':>10}")
        for name, h in rows:
            print(f"  {name:<36} {h['count']:>7} {h['sum']:>12.1f} "
                  f"{h['p50']:>10.3f} {h['p99']:>10.3f} "
                  f"{h['max']:>10.3f}")
    if scalars:
        print(f"  {'counter':<36} {'value':>12} {'per sec':>10}")
        for name, value in sorted(scalars.items()):
            rate = value / seconds if seconds > 0 else 0.0
            print(f"  {name:<36} {value:>12,.0f} {rate:>10,.1f}")
    scanned = scalars.get("serve.topk_parts_scanned", 0)
    pruned = scalars.get("serve.topk_parts_pruned", 0)
    if scanned or pruned:
        ratio = pruned / (scanned + pruned)
        print(f"  ann prune ratio: {ratio:.1%} "
              f"({pruned:.0f} of {scanned + pruned:.0f} candidate "
              f"partitions skipped)")
    print()


def cmd_top(args: argparse.Namespace) -> int:
    """Render telemetry run logs: event counts, duration tails, counters.

    Multiple logs (a directory of per-worker fleet logs, or a glob) each
    render individually and then as one merged view — counters summed,
    histograms merged exactly by bucket addition."""
    from .obs import read_jsonl
    logs = _top_logs(args.run_dir)
    merged_events: Dict[str, int] = {}
    merged_scalars: Dict[str, float] = {}
    merged_hists: Dict[str, List[dict]] = {}
    merged_records = 0
    m_lo = m_hi = None
    for path in logs:
        try:
            records = read_jsonl(path)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        events: Dict[str, int] = {}
        t_lo = t_hi = None
        for record in records:
            ts = record.get("ts")
            if isinstance(ts, (int, float)):
                t_lo = ts if t_lo is None else min(t_lo, ts)
                t_hi = ts if t_hi is None else max(t_hi, ts)
            if record.get("type") == "event":
                name = record.get("event", "?")
                events[name] = events.get(name, 0) + 1
        seconds = (t_hi - t_lo) if (t_lo is not None and t_hi is not None) \
            else 0.0
        scalars = _scalar_metrics(records)
        _render_sections(str(path), seconds, len(records), events,
                         _span_rows(records), scalars)
        if len(logs) > 1:
            merged_records += len(records)
            if t_lo is not None:
                m_lo = t_lo if m_lo is None else min(m_lo, t_lo)
                m_hi = t_hi if m_hi is None else max(m_hi, t_hi)
            for name, count in events.items():
                merged_events[name] = merged_events.get(name, 0) + count
            for name, value in scalars.items():
                merged_scalars[name] = merged_scalars.get(name, 0) + value
            for name, state in _last_metrics(records).items():
                if isinstance(state, dict) and state.get("count"):
                    merged_hists.setdefault(name, []).append(state)
    if len(logs) > 1:
        from .obs import merge_histogram_states, summarize_histogram
        rows = [(name, summarize_histogram(merge_histogram_states(states)))
                for name, states in sorted(merged_hists.items())]
        seconds = (m_hi - m_lo) if (m_lo is not None and m_hi is not None) \
            else 0.0
        _render_sections(f"merged ({len(logs)} logs)", seconds,
                         merged_records, merged_events, rows, merged_scalars)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_checkpoint_flags(p: argparse.ArgumentParser, every_help: str) -> None:
    """The snapshot flags shared by every training-ish subcommand."""
    p.add_argument("--checkpoint-every", type=int, default=0, help=every_help)
    p.add_argument("--checkpoint-dir", default=None,
                   help="snapshot root (default: <workdir>/checkpoints)")
    p.add_argument("--checkpoint-compress", action="store_true",
                   help="zlib-compress snapshot array payloads")
    p.add_argument("--resume-from", default=None,
                   help="snapshot dir (or checkpoint root) to resume from")


def build_parser() -> Tuple[argparse.ArgumentParser,
                            Dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="repro", description="MariusGNN reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: Dict[str, argparse.ArgumentParser] = {}

    def subparser(name: str, **kwargs) -> argparse.ArgumentParser:
        subparsers[name] = sub.add_parser(name, **kwargs)
        return subparsers[name]

    p = subparser("info", help="list the paper dataset registry")
    p.add_argument("--jobs", action="store_true",
                   help="list registered job kinds with their spec schema")

    p = subparser("autotune", help="apply the Section 6 tuning rules")
    p.add_argument("--dataset", required=True)
    p.add_argument("--memory-gb", type=float, default=61.0)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--max-physical", type=int, default=4096)

    p = subparser("run", help="execute any job kind from a JobSpec file")
    p.add_argument("spec", help="JobSpec JSON file (see `repro info --jobs` "
                                "and docs/api.md)")
    p.add_argument("--dump-spec", action="store_true",
                   help="print the resolved spec and exit without running")
    p.add_argument("--telemetry", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="write a JSONL telemetry run log (optional PATH; "
                        "default <workdir>/telemetry.jsonl); overrides "
                        "the spec's telemetry.sink=none")

    p = subparser("top", help="render telemetry run logs (merging many)")
    p.add_argument("run_dir", help="run directory (searched recursively for "
                                   "telemetry.jsonl), a log file, or a glob; "
                                   "multiple logs also render a merged view")

    p = subparser("train-lp", help="train link prediction")
    p.add_argument("--config", help="JSON file of option defaults "
                                    "(explicit flags win)")
    p.add_argument("--dump-spec", action="store_true",
                   help="print the resolved JobSpec and exit")
    p.add_argument("--dataset", default="fb15k237")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--encoder", default="graphsage",
                   choices=["none", "graphsage", "gcn", "gat"])
    p.add_argument("--decoder", default="distmult",
                   choices=["distmult", "complex", "transe", "dot"])
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--fanouts", type=int, nargs="*", default=[10])
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--negatives", type=int, default=64)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--disk", action="store_true")
    p.add_argument("--policy", default="comet", choices=["comet", "beta"])
    p.add_argument("--partitions", type=int, default=16)
    p.add_argument("--logical", type=int, default=8)
    p.add_argument("--buffer", type=int, default=4)
    p.add_argument("--workdir", default=None)
    _add_checkpoint_flags(
        p, every_help="snapshot cadence: epochs (in-memory) or plan steps "
                      "(--disk); 0 = off")
    p.add_argument("--checkpoint-incremental", action="store_true",
                   help="dirty-partition-only snapshots chained to a full "
                        "base (--disk)")

    p = subparser("stream", help="live-graph streaming: ingest, "
                                 "compact, refresh, query")
    p.add_argument("--config", help="JSON file of option defaults "
                                    "(explicit flags win)")
    p.add_argument("--dump-spec", action="store_true",
                   help="print the resolved JobSpec and exit")
    p.add_argument("--dataset", default="freebase86m-mini")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--partitions", type=int, default=16)
    p.add_argument("--buffer", type=int, default=4)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--negatives", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workdir", default=None,
                   help="stream workdir for the live stores (default: temp)")
    p.add_argument("--events", type=int, default=0, metavar="N",
                   help="run the synthetic event-stream driver for N events")
    p.add_argument("--event-batch", type=int, default=500,
                   help="events ingested per driver batch")
    p.add_argument("--delete-fraction", type=float, default=0.1,
                   help="fraction of driver events that are deletions")
    p.add_argument("--add-nodes-every", type=int, default=8,
                   help="driver batches between node additions (0 = never)")
    p.add_argument("--compact-every", type=int, default=4000,
                   help="compact when this many events are pending (0 = never)")
    p.add_argument("--refresh", action="store_true",
                   help="fine-tune delta-touched partitions after each compaction")
    p.add_argument("--spill-threshold", type=int, default=1 << 20,
                   help="in-memory delta events before the log spills to disk")
    p.add_argument("--verify", action="store_true",
                   help="check the live view against an offline rebuild")
    p.add_argument("--repl", action="store_true",
                   help="interactive ingest/compact/query loop")
    p.add_argument("--wal", action="store_true",
                   help="journal appends to <workdir>/wal and recover "
                        "acknowledged events after a crash")
    p.add_argument("--fsync-every", type=int, default=1,
                   help="WAL group-commit window: fsync once per N frames")
    p.add_argument("--background-compaction", action="store_true",
                   help="compact on a worker thread with retry/backoff")
    _add_checkpoint_flags(p, every_help="snapshot cadence in refreshes; "
                                        "0 = off")

    p = subparser("serve", help="query a trained snapshot out-of-core")
    p.add_argument("--config", help="JSON file of option defaults "
                                    "(explicit flags win)")
    p.add_argument("--dump-spec", action="store_true",
                   help="print the resolved JobSpec and exit")
    p.add_argument("--snapshot", required=True,
                   help="snapshot dir (or checkpoint root; latest wins)")
    p.add_argument("--workdir", default=None,
                   help="serving workdir for the served table (default: temp)")
    p.add_argument("--dataset", default=None,
                   help="LP training dataset (required for encoder "
                        "snapshots: enables encode-on-read sampling)")
    p.add_argument("--scale", type=float, default=0.1,
                   help="dataset scale used at training time")
    p.add_argument("--partitions", type=int, default=None,
                   help="partition count (default: the snapshot's layout)")
    p.add_argument("--buffer", type=int, default=4,
                   help="partitions the encode sampler holds at once")
    p.add_argument("--embed", default=None, metavar="IDS",
                   help="comma-separated node ids to look up")
    p.add_argument("--score", nargs="*", default=None, metavar="S:D|S:R:D",
                   help="edges to score, e.g. 12:340 or 12:7:340")
    p.add_argument("--topk", nargs=2, default=None, metavar=("SRC", "K"),
                   help="best-K destinations for a source node")
    p.add_argument("--rel", type=int, default=0, help="relation for --topk")
    p.add_argument("--no-ann", action="store_true",
                   help="disable the per-partition ANN index for --topk "
                        "(every query runs the exact blockwise sweep)")
    p.add_argument("--ann-cluster-size", type=int, default=64,
                   help="target rows per ANN cluster")
    p.add_argument("--exact", action="store_true",
                   help="force the exact sweep for this --topk query "
                        "(the ANN path's correctness oracle)")
    p.add_argument("--classify", default=None, metavar="IDS",
                   help="comma-separated node ids to classify (NC snapshots)")
    p.add_argument("--bench", type=int, default=0, metavar="N",
                   help="run an N-query lookup throughput probe")
    p.add_argument("--mix", default="zipf", choices=["zipf", "random"],
                   help="query mix for --bench")
    p.add_argument("--max-batch", type=int, default=256,
                   help="micro-batch size for --bench")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nc-nodes", type=int, default=4000,
                   help="NC snapshots: dataset size to regenerate (must "
                        "match training)")
    p.add_argument("--nc-dim", type=int, default=32)
    p.add_argument("--nc-seed", type=int, default=0)

    p = subparser("serve-fleet", help="serve a snapshot over HTTP through "
                                      "N workers + affinity gateway")
    p.add_argument("--config", help="JSON file of option defaults "
                                    "(explicit flags win)")
    p.add_argument("--dump-spec", action="store_true",
                   help="print the resolved JobSpec and exit")
    p.add_argument("--snapshot", required=True,
                   help="snapshot dir (or checkpoint root; latest wins)")
    p.add_argument("--workdir", default=None,
                   help="fleet workdir: per-worker served tables and run "
                        "logs land in worker-<i>/ (default: temp)")
    p.add_argument("--dataset", default=None,
                   help="LP training dataset (required for encoder "
                        "snapshots: enables encode-on-read sampling)")
    p.add_argument("--scale", type=float, default=0.1,
                   help="dataset scale used at training time")
    p.add_argument("--partitions", type=int, default=None,
                   help="partition count (default: the snapshot's layout)")
    p.add_argument("--buffer", type=int, default=4,
                   help="partitions the encode sampler holds at once, "
                        "per worker")
    p.add_argument("--workers", type=int, default=2,
                   help="serving worker processes")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for gateway and workers")
    p.add_argument("--port", type=int, default=0,
                   help="gateway HTTP port (0 = ephemeral, printed at start)")
    p.add_argument("--affinity", default="range",
                   choices=["range", "random"],
                   help="request routing: partition ownership or round-robin")
    p.add_argument("--max-batch", type=int, default=256,
                   help="per-worker micro-batch size")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="ignored: batches dispatch as soon as the worker is "
                        "idle and never wait")
    p.add_argument("--max-queue", type=int, default=1024,
                   help="per-worker admission bound (0 = unbounded)")
    p.add_argument("--timeout-ms", type=float, default=0.0,
                   help="per-request queue deadline (0 = none)")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds to serve before draining "
                        "(0 = until SIGINT/SIGTERM)")
    p.add_argument("--no-ann", action="store_true",
                   help="disable the per-partition ANN index for top-k")
    p.add_argument("--ann-cluster-size", type=int, default=64,
                   help="target rows per ANN cluster")
    p.add_argument("--nc-nodes", type=int, default=4000,
                   help="NC snapshots: dataset size to regenerate (must "
                        "match training)")
    p.add_argument("--nc-dim", type=int, default=32)
    p.add_argument("--nc-seed", type=int, default=0)

    p = subparser("train-nc", help="train node classification")
    p.add_argument("--config", help="JSON file of option defaults "
                                    "(explicit flags win)")
    p.add_argument("--dump-spec", action="store_true",
                   help="print the resolved JobSpec and exit")
    p.add_argument("--nodes", type=int, default=4000)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--fanouts", type=int, nargs="*", default=[10, 5])
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--disk", action="store_true")
    p.add_argument("--partitions", type=int, default=16)
    p.add_argument("--buffer", type=int, default=8)
    p.add_argument("--workdir", default=None)
    _add_checkpoint_flags(
        p, every_help="snapshot cadence: epochs (in-memory) or epoch-plan "
                      "steps (--disk); 0 = off")

    return parser, subparsers


COMMANDS = {"info": cmd_info, "autotune": cmd_autotune,
            "run": cmd_run, "top": cmd_top,
            "train-lp": cmd_train_lp, "train-nc": cmd_train_nc,
            "serve": cmd_serve, "serve-fleet": cmd_serve_fleet,
            "stream": cmd_stream}


def main(argv: Optional[List[str]] = None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # A config file supplies *defaults*: install its values on the
        # subcommand's parser and re-parse, so any flag given explicitly on
        # the command line wins over the file (the old behaviour let the
        # file silently overwrite explicit flags).
        overrides = json.loads(Path(args.config).read_text())
        for key in overrides:
            if not hasattr(args, key):
                raise SystemExit(f"unknown config key: {key}")
        subparsers[args.command].set_defaults(**overrides)
        args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface over the unified job API (:mod:`repro.api`).

Every job runs from a :class:`~repro.api.specs.JobSpec` file; ``--set
section.field=value`` overrides one spec field for this run (later
overrides win over the file and over earlier ones).

Usage (also via ``python -m repro``)::

    python -m repro info                      # dataset registry
    python -m repro info --jobs               # job kinds + spec schema
    python -m repro autotune --dataset freebase86m --memory-gb 61
    python -m repro run job.json              # execute any job kind
    python -m repro run job.json --set train.epochs=1 --set model.fanouts=[5]
    python -m repro run serve.json --set serve.topk=[0,5] --set serve.rel=1
    python -m repro run job.json --dump-spec  # resolved JobSpec, no run
    python -m repro top run-dir/              # render telemetry run logs
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import api
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


def cmd_run(args: argparse.Namespace) -> int:
    """Execute any job kind from a JobSpec JSON file plus ``--set``
    overrides, or print the resolved spec (``--dump-spec``).

    Only :class:`~repro.api.JobError` (user configuration errors) becomes
    a clean traceback-free exit; any other exception out of the run is a
    real defect and propagates with its stack."""
    try:
        spec = api.apply_overrides(api.load_spec(args.spec), args.set)
        resolved = spec.resolve()
        if args.dump_spec:
            print(json.dumps(resolved.to_dict(), indent=2))
            return 0
        api.run(resolved, verbose=True)
    except api.JobError as exc:
        raise SystemExit(str(exc)) from exc
    return 0


#: Pull-source fields that are settings or gauges, not counters: ``top``
#: shows their last value, neither summed across logs nor rated.
_GAUGES = ("max_queue", "timeout_ms", "in_flight", "smallest_read")


def _last_metrics(records: List[dict]) -> Dict[str, Any]:
    """The metrics dict of the last metrics record (cumulative deltas)."""
    last = None
    for record in records:
        if record.get("type") == "metrics":
            last = record
    return {} if last is None else (last.get("metrics") or {})


def _last_run(records: List[dict]) -> Tuple[List[dict], int]:
    """``(the records of a log's last run, how many runs it holds)``: a
    run ends with its ``final`` metrics record, and a rerun over the same
    workdir appends a new run to the same log."""
    starts = [0] + [i + 1 for i, r in enumerate(records[:-1])
                    if (r.get("type"), r.get("label")) == ("metrics", "final")]
    return records[starts[-1]:], len(starts)


def _span_rows(records: List[dict]) -> List[Tuple[str, dict]]:
    """(name, summary) histogram rows of the last metrics record."""
    return [(name, value)
            for name, value in sorted(_last_metrics(records).items())
            if isinstance(value, dict) and value.get("count")]


def _scalar_metrics(records: List[dict]
                    ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Numeric entries of the last metrics record: ``(counters,
    gauges)``, a gauge being a field named in :data:`_GAUGES`."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    for name, value in _last_metrics(records).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            kind = gauges if name.rsplit(".", 1)[-1] in _GAUGES else counters
            kind[name] = value
    return counters, gauges


def _top_logs(raw: str) -> List[Path]:
    """Resolve a ``repro top`` target: a log file, a directory searched
    recursively, or a glob pattern (e.g. ``work/worker-*/telemetry.jsonl``)."""
    import glob as globlib
    target = Path(raw)
    if target.is_dir():
        logs = sorted(target.rglob("telemetry.jsonl"))
        if not logs:
            raise SystemExit(f"no telemetry.jsonl under {target} "
                             f"(run with --set telemetry.sink=jsonl)")
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
                     scalars: Dict[str, float],
                     gauges: Dict[str, float]) -> None:
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
    if gauges:
        print(f"  {'gauge':<36} {'last':>12}")
        for name, value in sorted(gauges.items()):
            print(f"  {name:<36} {value:>12,}")
    print()


def cmd_top(args: argparse.Namespace) -> int:
    """Render telemetry run logs: event counts, duration tails, counters.

    Multiple logs (a directory of per-worker fleet logs, or a glob) each
    render individually and then as one merged view — counters summed,
    histograms merged exactly by bucket addition, gauges at the value of
    the log that ends last. A log holding several runs (a fleet rerun
    over the same workdir) shows only its last one, so counters are rated
    over that run's span."""
    from .obs import read_jsonl
    logs = _top_logs(args.run_dir)
    merged_events: Dict[str, int] = {}
    merged_scalars: Dict[str, float] = {}
    merged_gauges: Dict[str, Tuple[float, float]] = {}   # name -> (ts, v)
    merged_hists: Dict[str, List[dict]] = {}
    merged_records = 0
    m_lo = m_hi = None
    for path in logs:
        try:
            records, runs = _last_run(read_jsonl(path))
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
        scalars, gauges = _scalar_metrics(records)
        header = f"{path} (last of {runs} runs)" if runs > 1 else str(path)
        _render_sections(header, seconds, len(records), events,
                         _span_rows(records), scalars, gauges)
        if len(logs) > 1:
            merged_records += len(records)
            if t_lo is not None:
                m_lo = t_lo if m_lo is None else min(m_lo, t_lo)
                m_hi = t_hi if m_hi is None else max(m_hi, t_hi)
            for name, count in events.items():
                merged_events[name] = merged_events.get(name, 0) + count
            for name, value in scalars.items():
                merged_scalars[name] = merged_scalars.get(name, 0) + value
            end = t_hi or 0.0
            for name, value in gauges.items():
                if end >= merged_gauges.get(name, (end, value))[0]:
                    merged_gauges[name] = (end, value)
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
                         merged_records, merged_events, rows, merged_scalars,
                         {name: v for name, (_, v) in merged_gauges.items()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MariusGNN reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="list the paper dataset registry")
    p.add_argument("--jobs", action="store_true",
                   help="list registered job kinds with their spec schema")

    p = sub.add_parser("autotune", help="apply the Section 6 tuning rules")
    p.add_argument("--dataset", required=True)
    p.add_argument("--memory-gb", type=float, default=61.0)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--max-physical", type=int, default=4096)

    p = sub.add_parser("run", help="execute any job kind from a JobSpec file")
    p.add_argument("spec", help="JobSpec JSON file (see `repro info --jobs` "
                                "and docs/api.md)")
    p.add_argument("--set", action="append", default=[],
                   metavar="SECTION.FIELD=VALUE",
                   help="override one spec field (repeatable; later wins). "
                        "A str field takes VALUE verbatim, any other "
                        "field parses it as JSON: train.epochs=2, "
                        "model.fanouts=[5], serve.topk=[0,5], "
                        "checkpoint.dir=null")
    p.add_argument("--dump-spec", action="store_true",
                   help="print the resolved spec and exit without running")

    p = sub.add_parser("top", help="render telemetry run logs (merging many)")
    p.add_argument("run_dir", help="run directory (searched recursively for "
                                   "telemetry.jsonl), a log file, or a glob; "
                                   "multiple logs also render a merged view")
    return parser


COMMANDS = {"info": cmd_info, "autotune": cmd_autotune,
            "run": cmd_run, "top": cmd_top}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

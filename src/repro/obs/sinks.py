"""Run-log sinks and the :class:`Recorder` that drives them.

A sink persists timestamped records for one run. Two record shapes,
one JSON object per line in the :class:`JsonlSink` form::

    {"ts": 1722.5, "type": "event", "event": "epoch", "payload": {...}}
    {"ts": 1724.1, "type": "metrics", "label": "periodic", "metrics": {...}}

Event records mirror the trainer listener hook
(:mod:`repro.train.loop`) verbatim; metrics records carry the registry
delta since the recorder started (counters as numbers, histograms as
tail summaries) merged with any registered pull *sources* (e.g. a
serving engine's :class:`~repro.serve.stats.ServeStats`).

Durability follows the storage layer's discipline scaled to an
append-only log: each flush appends complete lines and fsyncs (the
parent directory is fsynced once at creation, via
:func:`~repro.storage.atomic.fsync_dir`). A crash mid-flush can tear at
most the trailing line, which :func:`read_jsonl` detects and drops — the
prefix is always a valid record sequence. The ``sink-flush-mid`` crash
point (see ``tests/faultinject.py``) lands half a flush on disk to prove
exactly that.

:class:`NullSink` is the Comet-style silent default: telemetry off means
zero records and zero files.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..storage.atomic import fsync_dir
from .registry import MetricsRegistry, get_registry

__all__ = ["Sink", "NullSink", "JsonlSink", "Recorder", "make_sink",
           "read_jsonl", "SINK_KINDS", "CRASH_FLUSH_MID"]

#: Crash point fired between the two halves of a flush's bytes.
CRASH_FLUSH_MID = "sink-flush-mid"

SINK_KINDS = ("none", "jsonl")


def _json_default(obj: Any) -> Any:
    if hasattr(obj, "item"):                 # numpy scalars
        return obj.item()
    return str(obj)                          # paths and friends


def _flatten(payload: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    """``{"a": {"b": 1}} -> {"a.b": 1}`` — nested dicts join with dots."""
    out: Dict[str, Any] = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, prefix=name + "."))
        else:
            out[name] = value
    return out


class Sink:
    """Record sink protocol: :meth:`emit` buffers one record in memory;
    :meth:`flush` makes the buffered records durable; :meth:`close`
    flushes a final time."""

    path: Optional[Path] = None

    def emit(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.flush()


class NullSink(Sink):
    """Telemetry disabled: drops everything, touches no files."""

    def emit(self, record: Dict[str, Any]) -> None:
        pass


class JsonlSink(Sink):
    """One JSON object per line, appended and fsynced per flush."""

    def __init__(self, path: os.PathLike,
                 fault_hook: Optional[Callable[[str], None]] = None) -> None:
        self.path = Path(path)
        self.fault_hook = fault_hook
        self._lock = threading.Lock()
        self._buffer: List[Dict[str, Any]] = []
        self._synced_dir = False

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._buffer.append(record)

    def flush(self) -> None:
        with self._lock:
            records, self._buffer = self._buffer, []
        if not records:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = "".join(json.dumps(r, default=_json_default) + "\n"
                       for r in records).encode("utf-8")
        with open(self.path, "ab") as fh:
            if self.fault_hook is not None and len(data) > 1:
                # Crash-injection path: land the first half so the
                # torn-tail reader has a real partial record to drop.
                half = len(data) // 2
                fh.write(data[:half])
                fh.flush()
                os.fsync(fh.fileno())
                self.fault_hook(CRASH_FLUSH_MID)
                fh.write(data[half:])
            else:
                fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        if not self._synced_dir:
            fsync_dir(self.path.parent)
            self._synced_dir = True


def make_sink(kind: Optional[str], path: Optional[os.PathLike] = None,
              fault_hook: Optional[Callable[[str], None]] = None) -> Sink:
    """Build a sink from its spec spelling (``none`` | ``jsonl``)."""
    if kind in (None, "none"):
        return NullSink()
    if kind not in SINK_KINDS:
        raise ValueError(f"unknown telemetry sink {kind!r} "
                         f"(expected one of {list(SINK_KINDS)})")
    if path is None:
        raise ValueError(f"telemetry sink {kind!r} needs a path")
    return JsonlSink(path, fault_hook=fault_hook)


def read_jsonl(path: os.PathLike) -> List[Dict[str, Any]]:
    """Parse a JSONL run log, dropping at most one torn trailing line.

    A crash mid-flush leaves the durable prefix plus possibly a partial
    final line; that tail is silently dropped. A malformed record
    anywhere *else* is real corruption and raises ``ValueError``.
    """
    raw = Path(path).read_bytes().decode("utf-8", errors="replace")
    lines = raw.split("\n")
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break                        # torn tail from a crash
            raise ValueError(f"{path}: corrupt record at line {i + 1}")
    return records


class Recorder:
    """One run's telemetry pump: listener events in, records out.

    Attach :meth:`listener` wherever a ``fn(event, payload)`` progress
    hook is accepted (every trainer, via the training loop,
    :mod:`repro.train.loop`); each event becomes an
    event record, and every ``flush_every`` events a metrics record is
    written alongside — the registry's delta since the recorder was
    created, merged with the registered pull sources. :meth:`close`
    writes a final metrics record and flushes. All entry points are
    thread-safe and swallow nothing: a sink error propagates, a *source*
    error is skipped (a dead stats object must not kill the run).
    """

    def __init__(self, sink: Sink,
                 registry: Optional[MetricsRegistry] = None,
                 flush_every: int = 25) -> None:
        self.sink = sink
        self.registry = registry if registry is not None else get_registry()
        self.flush_every = max(1, int(flush_every))
        self._baseline = self.registry.snapshot()
        self._sources: Dict[str, Callable[[], Dict[str, Any]]] = {}
        self._lock = threading.Lock()
        self._events = 0
        self._closed = False

    def add_source(self, name: str,
                   fn: Callable[[], Dict[str, Any]]) -> None:
        """Register a pull feeder: ``fn()`` returns a (possibly nested)
        dict sampled into every metrics record under ``<name>.`` keys."""
        self._sources[name] = fn

    # ------------------------------------------------------------------
    def listener(self, event: str, payload: Dict[str, Any]) -> None:
        """The trainer hook shape (:mod:`repro.train.loop`)."""
        self.sink.emit({"ts": time.time(), "type": "event", "event": event,
                        "payload": payload})
        with self._lock:
            self._events += 1
            due = self._events % self.flush_every == 0
        if due:
            self.record_metrics("periodic")

    @property
    def events(self) -> int:
        return self._events

    def _metrics(self) -> Dict[str, Any]:
        # buckets=True: the raw sparse buckets ride along in every JSONL
        # metrics record so per-worker logs can be merged exactly by
        # bucket addition (`repro top <dir of worker logs>`).
        metrics = self.registry.delta(self._baseline, buckets=True)
        for name, fn in list(self._sources.items()):
            try:
                values = fn()
            except Exception:
                continue
            for key, value in _flatten(values).items():
                metrics[f"{name}.{key}"] = value
        return metrics

    def record_metrics(self, label: str = "periodic") -> None:
        """Write one metrics record and flush the sink."""
        self.sink.emit({"ts": time.time(), "type": "metrics",
                        "label": label, "metrics": self._metrics()})
        self.sink.flush()

    def close(self) -> None:
        """Final metrics record + flush; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.record_metrics("final")
        self.sink.close()

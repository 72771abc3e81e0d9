"""Typed job specifications: the declarative layer under ``repro run``.

A :class:`JobSpec` is one validated, JSON-serializable description of a
workload: a job ``kind`` (see :mod:`~repro.api.registry`) plus the
sections that kind reads — :class:`DataSpec`, :class:`ModelSpec`,
:class:`TrainSpec`, :class:`StorageSpec`, :class:`CheckpointSpec`,
:class:`ServeSpec`, :class:`StreamSpec`. Fields defaulting to ``None``
are *kind-resolved*: :meth:`JobSpec.resolve` fills them from the
registry's per-kind defaults (e.g. ``model.fanouts`` becomes ``(10,)``
for ``lp-mem`` but ``(10, 5)`` for ``nc-mem``); ``repro run --dump-spec``
prints the resolved form, and ``repro run --set section.field=value``
overrides one field through :func:`apply_overrides`.

Round-trip contract (property-tested): ``from_dict(to_dict(spec)) ==
spec`` for every kind, and unknown sections or fields, or values that do
not match a field's annotation, are rejected instead of silently ignored.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (Any, Dict, Iterable, Optional, Tuple, Union, get_args,
                    get_origin, get_type_hints)

from . import registry
from .registry import JobError


def _f(default: Any, help_text: str) -> Any:
    """A dataclass field with schema help metadata."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class DataSpec:
    """Which graph the job runs over (regenerated deterministically)."""

    dataset: Optional[str] = _f(None, "dataset name (kind default: fb15k237 "
                                      "for LP, papers100m-mini for NC, "
                                      "freebase86m-mini for streaming)")
    scale: float = _f(0.1, "LP dataset scale factor")
    nodes: int = _f(4000, "NC synthetic dataset node count")
    edges: Optional[int] = _f(None, "NC edge count (default: nodes * 9)")
    feat_dim: Optional[int] = _f(None, "NC feature dim (default: model.dim; "
                                       "serve: 32)")
    classes: Optional[int] = _f(None, "NC class count (default: loader's)")
    seed: Optional[int] = _f(None, "dataset regeneration seed (default: "
                                   "train.seed for NC trainers, else 0)")


@dataclass
class ModelSpec:
    """Model shape: base representations, encoder, decoder."""

    dim: int = _f(32, "base representation / hidden dimension")
    encoder: Optional[str] = _f(None, "none | graphsage | gcn | gat "
                                      "(kind default: graphsage; stream: none)")
    decoder: str = _f("distmult", "distmult | complex | transe | dot (LP)")
    fanouts: Optional[Tuple[int, ...]] = _f(None, "neighbors sampled per hop "
                                                  "(kind default: [10] LP, "
                                                  "[10, 5] NC)")


@dataclass
class TrainSpec:
    """Optimization loop parameters."""

    batch_size: Optional[int] = _f(None, "edges/nodes per mini batch "
                                         "(kind default: 512 LP, 256 NC)")
    negatives: int = _f(64, "negative samples per batch (LP)")
    epochs: Optional[int] = _f(None, "training epochs (kind default: "
                                     "3 LP, 5 NC, 1 stream)")
    seed: int = _f(0, "training RNG seed")
    eval_every: Optional[int] = _f(None, "epochs between ranked evaluations "
                                         "(kind default: 1; stream: 0)")
    eval_negatives: int = _f(200, "negatives per ranked eval edge (LP)")
    eval_max_edges: int = _f(2000, "eval edge-sample cap (LP)")


@dataclass
class StorageSpec:
    """Out-of-core layout: partitions, buffer, replacement policy."""

    workdir: Optional[str] = _f(None, "memmap store directory (default: temp)")
    partitions: Optional[int] = _f(None, "physical partitions (kind default: "
                                         "16; serve: the snapshot's layout)")
    logical: int = _f(8, "logical partitions for COMET (lp-disk)")
    buffer: Optional[int] = _f(None, "partitions resident in memory "
                                     "(kind default: 4; nc-disk: 8)")
    policy: str = _f("comet", "replacement policy: comet | beta (lp-disk)")


@dataclass
class CheckpointSpec:
    """Crash-safe snapshot cadence and resume source."""

    every: int = _f(0, "snapshot cadence in plan steps (an in-memory "
                       "epoch is one) or refreshes (streaming); 0 = off")
    dir: Optional[str] = _f(None, "snapshot root (default: "
                                  "<workdir>/checkpoints or a temp dir)")
    resume_from: Optional[str] = _f(None, "snapshot dir (or checkpoint root) "
                                         "to resume from")


@dataclass
class ServeSpec:
    """Queries to run against a trained snapshot."""

    snapshot: Optional[str] = _f(None, "snapshot dir or checkpoint root "
                                       "(required; latest snapshot wins)")
    embed: Optional[str] = _f(None, "comma-separated node ids to look up")
    score: Tuple[str, ...] = _f((), "edges to score: 'S:D' or 'S:R:D'")
    topk: Optional[Tuple[int, int]] = _f(None, "[source, k] best-K targets")
    rel: int = _f(0, "relation for topk")
    classify: Optional[str] = _f(None, "comma-separated node ids to classify")
    bench: int = _f(0, "N-query lookup throughput probe (0 = off)")
    mix: str = _f("zipf", "bench query mix: zipf | random")
    max_batch: int = _f(256, "bench lookups per engine call")
    seed: int = _f(0, "bench query-stream seed")


@dataclass
class StreamSpec:
    """Synthetic event-stream driver cadence."""

    events: int = _f(0, "events to ingest through the driver (0 = none)")
    event_batch: int = _f(500, "events ingested per driver batch")
    delete_fraction: float = _f(0.1, "fraction of events that are deletions")
    add_nodes_every: int = _f(8, "driver batches between node adds (0 = never)")
    compact_every: int = _f(4000, "compact at this many pending events "
                                  "(0 = never)")
    refresh: Optional[bool] = _f(None, "fine-tune delta-touched partitions "
                                       "after each compaction (lp-stream: on)")
    verify: bool = _f(False, "check the live view against an offline rebuild")
    wal: bool = _f(False, "journal appends to a write-ahead log in "
                          "<workdir>/wal and recover acknowledged events "
                          "after a crash")
    fsync_every: int = _f(1, "WAL group-commit window: fsync once per N "
                             "appended frames (1 = every append is durable "
                             "at acknowledgment)")
    background_compaction: bool = _f(False, "compact on a worker thread "
                                            "with retry/backoff instead of "
                                            "inline on the ingest path")


@dataclass
class FleetSpec:
    """Serving-fleet topology: workers, gateway, routing, admission."""

    workers: int = _f(2, "serving worker processes (each owns a full "
                         "read-only engine over the snapshot)")
    host: str = _f("127.0.0.1", "bind address for gateway and workers")
    port: int = _f(0, "gateway HTTP port (0 = ephemeral; printed at start)")
    affinity: str = _f("range", "ignored: the host hands each connection "
                                "to the next live worker (range | random)")
    max_batch: int = _f(256, "ignored: a worker calls the engine once "
                             "per request")
    max_wait_ms: float = _f(2.0, "ignored: a worker calls the engine once "
                                 "per request")
    max_queue: int = _f(1024, "per-worker bound on queries in flight "
                              "(0 = unbounded)")
    timeout_ms: float = _f(0.0, "longest a query waits for its engine call "
                                "to start (0 = no limit)")
    duration: float = _f(0.0, "seconds to serve before draining "
                              "(0 = until SIGINT/SIGTERM)")


@dataclass
class ObsSpec:
    """Telemetry sink configuration (every kind reads it; off by default)."""

    sink: str = _f("none", "run-log sink: none | jsonl")
    path: Optional[str] = _f(None, "run-log path (default: "
                                   "<workdir>/telemetry.jsonl when the kind "
                                   "has storage.workdir, else "
                                   "./telemetry.jsonl)")
    flush_every: int = _f(25, "emit a metrics record every N events")


_SECTION_TYPES = {"data": DataSpec, "model": ModelSpec, "train": TrainSpec,
                  "storage": StorageSpec, "checkpoint": CheckpointSpec,
                  "serve": ServeSpec, "stream": StreamSpec,
                  "fleet": FleetSpec, "telemetry": ObsSpec}

# Resolved field annotations per section: what from_dict checks values
# against, and what tells --set whether a field takes its text verbatim.
_FIELD_TYPES = {name: get_type_hints(cls)
                for name, cls in _SECTION_TYPES.items()}


def _optional_arg(hint: Any) -> Any:
    """``X`` for ``Optional[X]``, else ``None``."""
    if get_origin(hint) is Union:
        return next(arg for arg in get_args(hint) if arg is not type(None))
    return None


def _conforms(value: Any, hint: Any) -> bool:
    """Whether a parsed JSON value fits a field annotation: an int is a
    float, a bool is not an int, and a fixed tuple checks its length."""
    inner = _optional_arg(hint)
    if inner is not None:
        return value is None or _conforms(value, inner)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            return all(_conforms(item, args[0]) for item in value)
        return (len(value) == len(args)
                and all(map(_conforms, value, args)))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


@dataclass
class JobSpec:
    """One declarative, validated description of a runnable job."""

    kind: str
    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)
    checkpoint: CheckpointSpec = field(default_factory=CheckpointSpec)
    serve: ServeSpec = field(default_factory=ServeSpec)
    stream: StreamSpec = field(default_factory=StreamSpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    telemetry: ObsSpec = field(default_factory=ObsSpec)

    # ------------------------------------------------------------------
    @property
    def sections(self) -> Tuple[str, ...]:
        return registry.kind_info(self.kind).sections

    def resolve(self) -> "JobSpec":
        """Kind defaults applied to every ``None`` field, then validated.

        Returns a new, fully-determined spec (idempotent: resolving a
        resolved spec is the identity). This is what ``--dump-spec``
        prints.
        """
        info = registry.kind_info(self.kind)
        out = JobSpec(kind=self.kind,
                      **{name: dataclasses.replace(getattr(self, name))
                         for name in _SECTION_TYPES})
        for dotted, value in info.defaults.items():
            section, name = dotted.split(".")
            if getattr(getattr(out, section), name) is None:
                setattr(getattr(out, section), name, value)
        # Derived NC regeneration parameters: the NC trainers tie the
        # feature dim and dataset seed to the model dim and training
        # seed; explicit spec values win.
        if self.kind in (registry.NC_MEM, registry.NC_DISK):
            if out.data.feat_dim is None:
                out.data.feat_dim = out.model.dim
            if out.data.seed is None:
                out.data.seed = out.train.seed
        if "stream" in info.sections and out.stream.refresh is None:
            out.stream.refresh = False
        out._validate()
        return out

    def _validate(self) -> None:
        info = registry.kind_info(self.kind)
        if (self.kind in (registry.SERVE, registry.SERVE_FLEET)
                and not self.serve.snapshot):
            raise JobError(f"{self.kind} jobs need serve.snapshot (a "
                             "snapshot dir or checkpoint root)")
        if self.kind == registry.SERVE_FLEET:
            fleet = self.fleet
            if fleet.workers < 1:
                raise JobError("fleet.workers must be at least 1")
            if fleet.affinity not in ("range", "random"):
                raise JobError("fleet.affinity must be 'range' or "
                               f"'random', not {fleet.affinity!r}")
            if fleet.max_batch < 1:
                raise JobError("fleet.max_batch must be positive")
            if fleet.max_wait_ms < 0 or fleet.timeout_ms < 0:
                raise JobError("fleet.max_wait_ms and fleet.timeout_ms "
                               "must be non-negative")
            if fleet.max_queue < 0 or fleet.duration < 0:
                raise JobError("fleet.max_queue and fleet.duration "
                               "must be non-negative")
            if not 0 <= fleet.port < 65536:
                raise JobError("fleet.port must be in [0, 65535]")
        if "storage" in info.sections:
            storage = self.storage
            if storage.buffer is not None and storage.buffer <= 0:
                raise JobError("storage.buffer must be positive")
            if storage.partitions is not None and storage.partitions <= 0:
                raise JobError("storage.partitions must be positive")
        if "stream" in info.sections and self.train.eval_every > 0:
            raise JobError(f"{self.kind} jobs need train.eval_every=0: a "
                           "live graph has no evaluation split")
        from ..obs.sinks import SINK_KINDS
        if self.telemetry.sink not in SINK_KINDS:
            raise JobError(f"telemetry.sink must be one of "
                           f"{list(SINK_KINDS)}, not {self.telemetry.sink!r}")
        if self.telemetry.flush_every <= 0:
            raise JobError("telemetry.flush_every must be positive")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-able dict holding the kind and its relevant sections.

        A section the kind does not read but which holds non-default
        values is rejected rather than silently dropped — the symmetric
        counterpart of :meth:`from_dict`'s unknown-section rejection, so
        round-trip identity can never lose data."""
        for name, section_cls in _SECTION_TYPES.items():
            if name not in self.sections and getattr(self, name) != section_cls():
                raise JobError(
                    f"section {name!r} holds non-default values but kind "
                    f"{self.kind!r} does not read it (it reads "
                    f"{list(self.sections)})")
        out: Dict[str, Any] = {"kind": self.kind}
        for name in self.sections:
            section = getattr(self, name)
            block = {}
            for fld in fields(section):
                value = getattr(section, fld.name)
                if isinstance(value, tuple):
                    value = list(value)
                block[fld.name] = value
            out[name] = block
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Parse a spec dict, rejecting unknown sections and fields and
        values that do not match their field's annotation."""
        if not isinstance(payload, dict):
            raise JobError(f"spec must be a JSON object, got {type(payload).__name__}")
        if "kind" not in payload:
            raise JobError("spec is missing the required 'kind' field")
        kind = payload["kind"]
        info = registry.kind_info(kind)
        unknown = sorted(set(payload) - {"kind"} - set(info.sections))
        if unknown:
            raise JobError(f"unknown spec section(s) {unknown} for kind "
                             f"{kind!r} (it reads {list(info.sections)})")
        spec = cls(kind=kind)
        for name in info.sections:
            block = payload.get(name)
            if block is None:
                continue
            if not isinstance(block, dict):
                raise JobError(f"section {name!r} must be an object")
            section = getattr(spec, name)
            known = {fld.name for fld in fields(section)}
            bad = sorted(set(block) - known)
            if bad:
                raise JobError(f"unknown field(s) {bad} in section "
                                 f"{name!r} (known: {sorted(known)})")
            for key, value in block.items():
                hint = _FIELD_TYPES[name][key]
                if isinstance(value, list):
                    value = tuple(value)
                if not _conforms(value, hint):
                    raise JobError(f"{name}.{key} must be "
                                   f"{_type_name(hint)}, got {value!r}")
                setattr(section, key, value)
        return spec

    # ------------------------------------------------------------------
    def save(self, path: os.PathLike) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: os.PathLike) -> "JobSpec":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise JobError(f"cannot read spec file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise JobError(f"spec file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def load_spec(path: os.PathLike) -> JobSpec:
    """Load a :class:`JobSpec` from a JSON file."""
    return JobSpec.load(path)


def save_spec(spec: JobSpec, path: os.PathLike) -> Path:
    """Write ``spec`` to a JSON file; returns the path."""
    return spec.save(path)


def apply_overrides(spec: JobSpec, assignments: Iterable[str]) -> JobSpec:
    """``spec`` with ``section.field=value`` assignments applied in order
    (a later one wins), parsed back through :meth:`JobSpec.from_dict` so
    unknown names and mistyped values fail exactly as in a spec file.

    A ``str`` field takes the text verbatim (``serve.embed=1,2,3``); any
    other field parses it as JSON (``train.epochs=2``,
    ``model.fanouts=[5]``, ``serve.topk=[0,5]``), and ``null`` clears an
    Optional field."""
    payload = spec.to_dict()
    for text in assignments:
        key, eq, raw = text.partition("=")
        section, dot, name = key.partition(".")
        if not (eq and dot and section and name):
            raise JobError(f"--set wants section.field=value, got {text!r}")
        block = payload.setdefault(section, {})
        if not isinstance(block, dict):
            raise JobError(f"--set {key}: {section!r} is not a spec section")
        hint = _FIELD_TYPES.get(section, {}).get(name)
        if hint is None or (str in (hint, _optional_arg(hint))
                            and raw != "null"):
            block[name] = raw     # unknown names fail by name in from_dict
            continue
        try:
            block[name] = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise JobError(f"--set {key}: {raw!r} is not a JSON value "
                           f"({exc.msg})") from exc
    return JobSpec.from_dict(payload)


# ---------------------------------------------------------------------------
# Schema rendering (``repro info --jobs``) — generated from the dataclasses
# and the registry defaults, so the listing cannot drift from the code.
# ---------------------------------------------------------------------------

def _type_name(hint: Any) -> str:
    text = str(hint)
    for token, name in (("Tuple[int, int]", "[int,int]"),
                        ("Tuple[int, ...]", "[int...]"),
                        ("Tuple[str, ...]", "[str...]")):
        if token in text:
            return name
    for token in ("str", "int", "float", "bool"):
        if token in text:
            return token
    return text


def schema_lines(kind: str) -> Tuple[str, ...]:
    """One line per spec field of ``kind``: name, type, default, help."""
    info = registry.kind_info(kind)
    lines = []
    for name in info.sections:
        section_cls = _SECTION_TYPES[name]
        for fld in fields(section_cls):
            default = info.defaults.get(f"{name}.{fld.name}", fld.default)
            shown = "-" if default is None else (
                list(default) if isinstance(default, tuple) else default)
            lines.append(f"{name + '.' + fld.name:<26} "
                         f"{_type_name(fld.type):<9} {str(shown):<10} "
                         f"{fld.metadata.get('help', '')}")
    return tuple(lines)

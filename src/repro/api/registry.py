"""The job-kind registry: the single authority for job and snapshot kinds.

Every runnable workload in the reproduction — the four trainers, the
serving engine, and the streaming driver — is a *job kind*. This module
owns the kind strings (trainer ``KIND`` attributes and the serving
loader's accepted snapshot kinds reference them, so they cannot drift),
the per-kind metadata (which :mod:`~repro.api.specs` sections a kind
reads and which defaults it resolves ``None`` fields to), and the
factory table mapping a kind to the :class:`~repro.api.jobs.Job`
implementation that executes it.

The module is deliberately import-light (stdlib only): trainers import
their ``KIND`` constants from here, and :mod:`repro.api.specs` reads the
kind table for validation/resolution, without either pulling in the
other's dependencies. Factories are *bound* by :mod:`repro.api.jobs` at
its import time; :func:`get_factory` imports that module lazily on first
use so ``import repro.api`` stays cheap.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

class JobError(ValueError):
    """A user-facing job configuration error: bad spec, unknown kind or
    dataset, missing snapshot, malformed query. The CLI converts these to
    clean exits; anything else (a real defect) propagates with a
    traceback."""


# ---------------------------------------------------------------------------
# Kind strings (also the snapshot ``meta["trainer"]`` strings)
# ---------------------------------------------------------------------------

LP_MEM = "lp-mem"
LP_DISK = "lp-disk"
NC_MEM = "nc-mem"
NC_DISK = "nc-disk"
LP_STREAM = "lp-stream"
SERVE = "serve"
SERVE_FLEET = "serve-fleet"
STREAM = "stream"

#: Snapshot kinds the link prediction serving loader accepts.
LP_SNAPSHOT_KINDS: Tuple[str, ...] = (LP_MEM, LP_DISK)
#: Snapshot kinds the node classification serving loader accepts.
NC_SNAPSHOT_KINDS: Tuple[str, ...] = (NC_MEM, NC_DISK)


@dataclass(frozen=True)
class KindInfo:
    """Registry metadata for one job kind."""

    kind: str
    description: str
    #: Spec sections this kind reads (in schema/display order).
    sections: Tuple[str, ...]
    #: ``"section.field" -> value`` fills for fields left ``None``.
    defaults: Dict[str, Any]


_LP_TRAIN_DEFAULTS = {
    "data.dataset": "fb15k237",
    "data.seed": 0,
    "model.encoder": "graphsage",
    "model.fanouts": (10,),
    "train.batch_size": 512,
    "train.epochs": 3,
    "train.eval_every": 1,
}

_NC_TRAIN_DEFAULTS = {
    "data.dataset": "papers100m-mini",
    "model.encoder": "graphsage",
    "model.fanouts": (10, 5),
    "train.batch_size": 256,
    "train.epochs": 5,
    "train.eval_every": 1,
}

_STREAM_DEFAULTS = {
    "data.dataset": "freebase86m-mini",
    "data.seed": 0,
    "model.encoder": "none",
    "model.fanouts": (),
    "train.batch_size": 512,
    "train.epochs": 1,
    "train.eval_every": 0,
    "storage.partitions": 16,
    "storage.buffer": 4,
}

REGISTRY: Dict[str, KindInfo] = {}


def _declare(info: KindInfo) -> None:
    REGISTRY[info.kind] = info


_declare(KindInfo(
    kind=LP_MEM,
    description="in-memory link prediction trainer (M-GNN_Mem)",
    sections=("data", "model", "train", "checkpoint", "telemetry"),
    defaults=dict(_LP_TRAIN_DEFAULTS)))
_declare(KindInfo(
    kind=LP_DISK,
    description="out-of-core link prediction (partition buffer + COMET/BETA)",
    sections=("data", "model", "train", "storage", "checkpoint", "telemetry"),
    defaults={**_LP_TRAIN_DEFAULTS,
              "storage.partitions": 16, "storage.buffer": 4}))
_declare(KindInfo(
    kind=NC_MEM,
    description="in-memory node classification trainer",
    sections=("data", "model", "train", "checkpoint", "telemetry"),
    defaults=dict(_NC_TRAIN_DEFAULTS)))
_declare(KindInfo(
    kind=NC_DISK,
    description="out-of-core node classification (training-node caching)",
    sections=("data", "model", "train", "storage", "checkpoint", "telemetry"),
    defaults={**_NC_TRAIN_DEFAULTS,
              "storage.partitions": 16, "storage.buffer": 8}))
_declare(KindInfo(
    kind=LP_STREAM,
    description="continual training over a live stream (refresh on compact)",
    sections=("data", "model", "train", "storage", "stream", "checkpoint",
              "telemetry"),
    defaults={**_STREAM_DEFAULTS, "stream.refresh": True}))
_declare(KindInfo(
    kind=SERVE,
    description="out-of-core query serving over a trained snapshot",
    sections=("data", "storage", "serve", "telemetry"),
    defaults={"storage.buffer": 4, "data.feat_dim": 32, "data.seed": 0}))
_declare(KindInfo(
    kind=SERVE_FLEET,
    description="multi-worker serving fleet: each worker answers the "
                "HTTP connections the host hands it",
    sections=("data", "storage", "serve", "fleet", "telemetry"),
    defaults={"storage.buffer": 4, "data.feat_dim": 32, "data.seed": 0}))
_declare(KindInfo(
    kind=STREAM,
    description="live-graph streaming driver (ingest, compact, query)",
    sections=("data", "model", "train", "storage", "stream", "checkpoint",
              "telemetry"),
    defaults=dict(_STREAM_DEFAULTS)))

#: Every runnable job kind, in display order.
JOB_KINDS: Tuple[str, ...] = tuple(REGISTRY)


def kind_info(kind: str) -> KindInfo:
    try:
        return REGISTRY[kind]
    except KeyError:
        raise JobError(f"unknown job kind {kind!r}; "
                       f"choose from {list(JOB_KINDS)}") from None


def job_kinds() -> Tuple[str, ...]:
    return JOB_KINDS


# ---------------------------------------------------------------------------
# Factory binding (populated by repro.api.jobs)
# ---------------------------------------------------------------------------

JobFactory = Callable[..., Any]

_FACTORIES: Dict[str, JobFactory] = {}


def bind(kind: str, factory: JobFactory) -> JobFactory:
    """Attach the factory that builds ``kind``'s Job (used by jobs.py)."""
    kind_info(kind)   # unknown kinds fail loudly at bind time
    _FACTORIES[kind] = factory
    return factory


def get_factory(kind: str) -> JobFactory:
    """The Job factory for ``kind`` (loads the implementations on demand)."""
    kind_info(kind)
    if kind not in _FACTORIES:
        importlib.import_module("repro.api.jobs")
    if kind not in _FACTORIES:
        raise JobError(f"job kind {kind!r} is declared but no factory is "
                       f"bound for it (missing registry.bind in jobs.py)")
    return _FACTORIES[kind]

"""The unified job API: typed specs, a kind registry, one ``run()``.

Every workload in the reproduction — four trainers, the serving engine,
the streaming driver — is described by a declarative, JSON-serializable
:class:`~repro.api.specs.JobSpec` and executed through one entrypoint::

    from repro.api import JobSpec, DataSpec, ModelSpec, TrainSpec, run

    spec = JobSpec(kind="lp-mem",
                   data=DataSpec(dataset="fb15k237", scale=0.2),
                   model=ModelSpec(dim=50, fanouts=(20,)),
                   train=TrainSpec(epochs=5))
    result = run(spec)             # TrainResult
    print(result.final_mrr)

``repro run spec.json [--set section.field=value ...]`` is the CLI face
of the same call. See ``docs/api.md`` for the spec schema and the
registry.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

from . import registry
from .registry import (JOB_KINDS, JobError, KindInfo, get_factory,
                       job_kinds, kind_info)
from .specs import (CheckpointSpec, DataSpec, FleetSpec, JobSpec, ModelSpec,
                    ObsSpec, ServeSpec, StorageSpec, StreamSpec, TrainSpec,
                    apply_overrides, load_spec, save_spec, schema_lines)

__all__ = [
    "JobSpec", "DataSpec", "ModelSpec", "TrainSpec", "StorageSpec",
    "CheckpointSpec", "ServeSpec", "StreamSpec", "FleetSpec", "ObsSpec",
    "load_spec", "save_spec", "apply_overrides", "schema_lines",
    "JOB_KINDS", "JobError", "KindInfo", "job_kinds", "kind_info",
    "get_factory",
    "build_job", "run", "registry",
]


def _telemetry_recorder(spec: JobSpec):
    """A :class:`~repro.obs.sinks.Recorder` for a resolved spec, or
    ``None`` when telemetry is off. The default log path lands next to
    the job's data (``<storage.workdir>/telemetry.jsonl``) when the kind
    has a workdir, else in the current directory."""
    tele = spec.telemetry
    if tele.sink == "none":
        return None
    from ..obs.sinks import Recorder, make_sink
    if tele.path:
        path = Path(tele.path)
    elif "storage" in spec.sections and spec.storage.workdir:
        path = Path(spec.storage.workdir) / "telemetry.jsonl"
    else:
        path = Path("telemetry.jsonl")
    return Recorder(make_sink(tele.sink, path),
                    flush_every=tele.flush_every)


def build_job(spec: JobSpec, verbose: bool = False, on_event=None):
    """Resolve ``spec`` and construct (but not run) its job.

    Returns the built :class:`~repro.api.jobs.Job`, whose underlying
    trainer/engine is reachable (``job.trainer`` / ``job.engine``) for
    callers that need more than :func:`run`'s result object. ``on_event``
    is an optional ``fn(event, payload)`` progress/checkpoint listener
    (see :mod:`repro.train.loop`). With ``spec.telemetry.sink`` set, a
    :class:`~repro.obs.sinks.Recorder` rides the same listener hook and
    is reachable as ``job.recorder`` (closed by :func:`run`; direct
    ``build_job`` callers close it themselves).
    """
    spec = spec.resolve()
    recorder = _telemetry_recorder(spec)
    listeners = [on_event] if on_event is not None else []
    if recorder is not None:
        listeners.append(recorder.listener)
    job = get_factory(spec.kind)(spec)
    job.build(verbose=verbose, listeners=listeners)
    if recorder is not None:
        job.recorder = recorder
        for name, fn in job.telemetry_sources().items():
            recorder.add_source(name, fn)
    return job


def run(spec: JobSpec, verbose: bool = False, on_event=None) -> Any:
    """The single programmatic entrypoint: build, resume, run ``spec``.

    Resolves and validates the spec, builds the job, restores
    ``checkpoint.resume_from`` when set, and executes the job — returning
    the kind's result object (a ``TrainResult``,
    ``NodeClassificationResult``, or a results dict for serve/stream
    jobs). ``verbose=True`` prints the progress ``repro run`` shows.
    """
    job = build_job(spec, verbose=verbose, on_event=on_event)
    try:
        if ("checkpoint" in job.spec.sections
                and job.spec.checkpoint.resume_from):
            job.resume(verbose=verbose)
        return job.run(verbose=verbose)
    finally:
        if job.recorder is not None:
            job.recorder.close()

"""Training workloads (``lp_disk_gnn``, ``lp_disk_kge``, ``lp_mem_gnn``).

:func:`measure` is the body of one measuring process: it builds the job
through ``repro.api.build_job`` (timed: ``setup_s``), trains it, and
returns everything the runner reports. Two modes share it:

* untraced — the end-to-end numbers. The only instrumentation is one
  clock read per batch (a timestamp list the batch-interval percentiles
  come from) and the trainer's own ``epoch`` listener event.
* traced — :func:`install_wrappers` times calls into each layer's public
  functions. Epoch 0 warms up untraced, then epochs alternate traced /
  untraced, so one run yields the per-layer self times *and* the cost of
  tracing (``bench.trace_overhead_share``).
"""

from __future__ import annotations

import resource
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import common
from .trace import Patches, Tracer

#: span name -> the per-layer metric its self time is reported as.
SPAN_METRICS = {
    "core.sample": "core.sample_s",
    "nn.encode": "nn.encode_s",
    "nn.decode": "nn.decode_s",
    "nn.backward": "nn.backward_s",
    "nn.optim": "nn.optim_s",
    "storage.swap": "storage.swap_s",
    "storage.read_buckets": "storage.read_buckets_s",
    "storage.gather": "storage.gather_s",
    "storage.apply": "storage.apply_s",
    "graph.index_update": "graph.index_update_s",
    "policies.plan": "policies.plan_s",
    "train.negatives": "train.negatives_s",
    "train.batch": "train.batch_glue_s",
    "train.table_gather": "train.table_gather_s",
    "train.table_apply": "train.table_apply_s",
    "train.eval": "train.eval_s",
}

#: MRR a per-epoch evaluation must reach for ``train.time_to_mrr_s``.
MRR_TARGET = 0.45


def install_wrappers(tracer: Tracer, trainer, counts: Dict[str, list],
                     patches: Patches) -> None:
    """Wrap the public functions the batch lifecycle calls, as instance
    attributes on the trainer's collaborators (plus ``Tensor.backward`` on
    the class); ``patches.restore()`` undoes all of it. ``counts``
    receives sizes read off return values."""
    from repro.nn.tensor import Tensor
    wrap = lambda owner, attr, name, **kw: patches.wrap(
        tracer, owner, attr, name, **kw)
    note_nodes = lambda batch: counts["nodes_per_batch"].append(
        len(batch.node_ids))
    sampler = trainer.sampler
    wrap(sampler, "sample", "core.sample", on_result=note_nodes)
    wrap(sampler, "sample_no_neighbors", "core.sample", on_result=note_nodes)
    wrap(trainer.negatives, "sample", "train.negatives")
    model = trainer.model
    wrap(model, "encode", "nn.encode")
    wrap(model.decoder, "score_edges", "nn.decode")
    wrap(model.decoder, "score_against", "nn.decode")
    wrap(Tensor, "backward", "nn.backward")
    step = getattr(trainer, "step_runner", None) or trainer.step
    wrap(step, "run", "train.batch")
    if step.gnn_optimizer is not None:
        wrap(step.gnn_optimizer, "step", "nn.optim")
    # Evaluation builds its own sampler and calls the model too; its time
    # is reported whole, not smeared over the training layers.
    wrap(trainer, "evaluate", "train.eval", mute_children=True)
    if hasattr(trainer, "buffer_manager"):          # lp-disk
        wrap(sampler, "update_graph", "graph.index_update")
        wrap(trainer.buffer_manager, "load_step", "storage.swap")
        wrap(trainer.buffer_manager, "finish", "storage.swap")
        wrap(trainer.edge_store, "read_buckets", "storage.read_buckets")
        wrap(trainer.buffer, "gather", "storage.gather")
        wrap(trainer.buffer, "apply_gradients", "storage.apply")
        wrap(trainer.policy, "plan_epoch", "policies.plan",
             on_result=lambda plan: counts["plan_steps"].append(
                 len(plan.steps)))
    else:                                           # lp-mem
        wrap(trainer.embeddings, "gather", "train.table_gather")
        wrap(trainer.embeddings, "apply", "train.table_apply")


class _EpochClock:
    """Per-batch completion times, cut into epochs by the trainer's
    ``epoch`` event. An interval is the time from one batch's completion
    to the next — it includes whatever the trainer did in between (a
    partition swap, reading edge buckets), which is the stall a progress
    bar would show. Evaluation and epoch bookkeeping are cut out."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.edges: List[int] = []                 # this epoch's batch sizes
        self.losses: List[float] = []              # every batch of the run
        self.intervals: List[List[float]] = []     # one list per epoch
        self.batch_edges: List[List[int]] = []     # parallel to intervals
        self.last_event = time.perf_counter()

    def wrap_step(self, run):
        """The batch step with one clock read after it. The step's first
        argument is the batch's edges and it returns the batch's loss,
        which is kept for the finite-loss check."""
        stamps, edges, losses = self.stamps, self.edges, self.losses
        clock = time.perf_counter

        def timed(batch, *args, **kwargs):
            loss = run(batch, *args, **kwargs)
            stamps.append(clock())
            edges.append(len(batch))
            losses.append(loss)
            return loss
        return timed

    def on_epoch(self) -> None:
        # An epoch's body starts right after the previous `epoch` event
        # (or at the start of training), so its first interval runs from
        # there: it holds the epoch plan and the first partition loads.
        self.intervals.append(
            [b - a for a, b in zip([self.last_event] + self.stamps,
                                   self.stamps)])
        self.batch_edges.append(list(self.edges))
        self.stamps.clear()
        self.edges.clear()
        self.last_event = time.perf_counter()


def measure(workload: str, seed: int, epochs: int, workdir: Path,
            traced: bool = False, smoke: bool = False,
            setup_only: bool = False,
            trace_path: Optional[Path] = None) -> Dict[str, Any]:
    """Build and train one workload in this process; returns plain data."""
    common.use_repo_source()
    from repro import api

    spec = api.JobSpec.from_dict(
        common.training_spec(workload, seed, epochs, workdir, smoke=smoke))
    events: List[Dict[str, Any]] = []
    tracer = Tracer()
    tracer.enabled = False
    counts: Dict[str, list] = {"nodes_per_batch": [], "plan_steps": []}
    clock = _EpochClock()
    patches = Patches()
    state = {"epoch_root": None, "t_train": 0.0}

    def on_event(event: str, payload: Dict[str, Any]) -> None:
        if event != "epoch":
            return
        now = time.perf_counter()
        events.append(dict(payload, at=now - state["t_train"]))
        clock.on_epoch()
        if traced:
            # Epoch 0 warms up; odd epochs are traced, even ones are not.
            tracer.end(state["epoch_root"])
            tracer.enabled = (payload["epoch"] + 1) % 2 == 1
            tracer.run = payload["epoch"] + 1
            state["epoch_root"] = tracer.begin("train.epoch")

    t0 = time.perf_counter()
    job = api.build_job(spec, on_event=on_event)
    setup_s = time.perf_counter() - t0
    out: Dict[str, Any] = {"workload": workload, "seed": seed,
                           "epochs": epochs, "setup_s": setup_s,
                           "spec": spec.to_dict()}
    if setup_only:
        return out

    trainer = job.trainer
    step = getattr(trainer, "step_runner", None) or trainer.step
    try:
        patches.set(step, "run", clock.wrap_step(step.run))
        if traced:
            install_wrappers(tracer, trainer, counts, patches)
        state["t_train"] = clock.last_event = time.perf_counter()
        result = job.run()
        train_s = time.perf_counter() - state["t_train"]
        tracer.end(state["epoch_root"])
    finally:
        patches.restore()
        tracer.enabled = False

    records = result.epochs
    out.update(
        train_s=train_s,
        epoch_s=[r.seconds for r in records],
        epoch_loss=[r.loss for r in records],
        epoch_mrr=[r.metric for r in records],
        epoch_batches=[r.num_batches for r in records],
        epoch_io_bytes=[r.io_bytes for r in records],
        epoch_partition_loads=[r.partition_loads for r in records],
        epoch_at=[e["at"] for e in events],
        final_mrr=result.final_mrr,
        train_edges=int(len(job.dataset.split.train)),
        batch_intervals_ms=[[1000.0 * v for v in epoch]
                            for epoch in clock.intervals],
        batch_edges=clock.batch_edges,
        batch_losses=clock.losses,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0)
    if traced:
        out["layers"] = layer_metrics(tracer, out, counts)
        if trace_path is not None:
            tracer.dump(trace_path, meta={"workload": workload, "seed": seed,
                                          "epochs": epochs})
    return out


def layer_metrics(tracer: Tracer, run: Dict[str, Any],
                  counts: Dict[str, list]) -> Dict[str, float]:
    """Per-layer numbers of one traced run: span self seconds per epoch
    (median over traced epochs), counts, and the residual."""
    self_times = tracer.self_times()
    traced_epochs = sorted(e for e in self_times
                           if isinstance(e, int) and e % 2 == 1
                           and e < len(run["epoch_s"]))
    plain_epochs = [e for e in range(2, len(run["epoch_s"]), 2)]
    out: Dict[str, float] = {}
    for span, metric in SPAN_METRICS.items():
        out[metric] = common.median(
            [self_times[e].get(span, 0.0) for e in traced_epochs])
    # The root span of an epoch runs from one `epoch` event to the next:
    # body + evaluation. Its self time is what no wrapper accounts for.
    roots = tracer.durations("train.epoch")
    residual = [self_times[e].get("train.epoch", 0.0) for e in traced_epochs]
    walls = [sum(roots.get(e, [0.0])) for e in traced_epochs]
    out["train.residual_share"] = common.median(
        [r / w for r, w in zip(residual, walls) if w])
    out["train.epoch_s"] = common.median(
        [run["epoch_s"][e] for e in traced_epochs])
    out["train.batches"] = common.median(
        [run["epoch_batches"][e] for e in traced_epochs])
    out["train.final_loss"] = run["epoch_loss"][-1]
    reached = [at for at, mrr in zip(run["epoch_at"], run["epoch_mrr"])
               if mrr >= MRR_TARGET]
    out["train.time_to_mrr_s"] = reached[0] if reached else 0.0
    out["core.nodes_per_batch"] = (
        sum(counts["nodes_per_batch"]) / len(counts["nodes_per_batch"])
        if counts["nodes_per_batch"] else 0.0)
    out["storage.io_mb"] = common.median(
        [run["epoch_io_bytes"][e] / 2**20 for e in traced_epochs])
    out["storage.partition_loads"] = common.median(
        [run["epoch_partition_loads"][e] for e in traced_epochs])
    out["policies.plan_steps"] = common.median(counts["plan_steps"])
    traced_s = common.median([run["epoch_s"][e] for e in traced_epochs])
    plain_s = common.median([run["epoch_s"][e] for e in plain_epochs])
    out["bench.trace_overhead_share"] = (
        traced_s / plain_s - 1.0 if plain_s else 0.0)
    return out

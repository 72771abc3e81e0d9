"""The one training loop every trainer kind runs.

The paper has one mini-batch lifecycle (Figure 2: select, sample into
DENSE, gather, forward/backward, update, write back); only the data
organisation around it changes — a table in memory, or a partition buffer
driven by an epoch plan (COMET/BETA for link prediction, Section 5.1;
training-node caching for node classification, Section 5.2; the touched
edge buckets of a live graph for the streaming kind, where one refresh is
one epoch). :class:`_TrainingLoop` owns everything around the lifecycle:
``for epoch -> for step in plan -> run step -> maybe snapshot``, evaluation
every ``eval_every`` epochs, the listener events, the verbose line,
per-epoch timing and IO accounting, and the one snapshot/resume path. A
trainer kind supplies only its seams:

* ``_plan_epoch(epoch)`` — the steps of an epoch (default: one step, the
  in-memory kinds' plan);
* ``_run_step(steps, idx, record)`` — train plan step ``idx``, return its
  batch losses;
* ``_end_epoch()`` — work after an epoch's last step (default: none);
* ``_pack_state`` / ``_restore_state`` — the kind's snapshot state beyond
  model, optimizer, RNG and cursors (table, buffer residency, policy
  state, stream cursors);
* ``_fingerprints()``, ``_gnn_optimizer``, ``_epoch_metric()`` and
  ``_result(records)``.

**Listeners.** The job API (:mod:`repro.api`) observes training through
one callback shape, ``listener(event, payload)`` with a short event name
and a JSON-able payload, run synchronously on the training thread between
steps (cheap, and never mutating trainer state). The loop emits:

* ``EPOCH_EVENT`` after each epoch — ``"epoch"``, or ``"refresh"`` for the
  streaming kind (``epoch``, ``loss``, ``seconds``, ``metric``,
  ``io_bytes``);
* ``"snapshot"`` after each atomic snapshot lands (``path``, ``epoch``,
  ``step``, ``linked``).

**Checkpoint cadence, one rule for every kind.** The loop counts *global
plan steps*: plan steps completed since epoch 0, step 0. After a step, when
that count is a multiple of ``checkpoint_every``, it snapshots the cursor of
the next step. The count is stored in the snapshot (``global_step``), so a
resumed run snapshots at exactly the cursors the uninterrupted run would
have. The in-memory and streaming kinds have one plan step per epoch, so
for them ``checkpoint_every`` counts epochs (refreshes).

Collaborators are always looked up through their attribute at call time
(``self.step_runner.run``, ``self.evaluate``, ``self.policy.plan_epoch``),
never cached as bound methods, so instance-level wrappers see every call.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..storage.io_stats import IOStats
from ..storage.node_store import NodeStore
from .checkpoint import (Snapshot, SnapshotManager, _config_to_dict,
                         pack_model_state, unpack_model_state, validate_meta)
from .evaluation import EpochRecord

ProgressListener = Callable[[str, Dict[str, Any]], None]


@dataclass
class _TrainingResult:
    """What every trainer's result holds: the per-epoch records."""

    epochs: List[EpochRecord]

    @property
    def mean_epoch_seconds(self) -> float:
        if not self.epochs:
            return 0.0
        return float(np.mean([e.seconds for e in self.epochs]))


class _TrainingLoop:
    """Epoch/step loop, listeners, checkpoint cadence, snapshot and resume."""

    KIND = ""
    METRIC = ""      # name of the per-epoch metric in the verbose line
    EPOCH_EVENT = "epoch"
    # Held while a save reads the node store's state and links its files:
    # the lock of any writer that runs beside the trainer.
    _store_writers = contextlib.nullcontext()

    def __init__(self, config: Any, checkpoint_dir: Optional[Path],
                 checkpoint_every: int,
                 listeners: Optional[Sequence[ProgressListener]]) -> None:
        self.listeners: List[ProgressListener] = list(listeners or [])
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.io = IOStats()      # stays zero for the in-memory kinds
        self.snapshots = (SnapshotManager(checkpoint_dir)
                          if checkpoint_dir is not None else None)
        self.checkpoint_every = int(checkpoint_every)  # in global plan steps
        # The cursor train() starts at, and the plan steps done before it.
        self._epoch = self._step = self._global_step = 0

    def add_listener(self, fn: ProgressListener) -> None:
        """Register ``fn(event, payload)`` for progress/snapshot events."""
        self.listeners.append(fn)

    def _emit(self, event: str, **payload: Any) -> None:
        for fn in list(self.listeners):
            fn(event, dict(payload))

    # Seams with a default (the rest are listed in the module docstring).
    def _plan_epoch(self, epoch: int) -> Sequence[Any]:
        return (None,)

    def _end_epoch(self) -> None:
        pass

    def _pack_state(self, arrays: Dict[str, np.ndarray],
                    meta: Dict[str, Any]) -> Optional[NodeStore]:
        """Add the kind's state to a snapshot; returns the node store whose
        table the snapshot carries partition by partition, if any."""
        return None

    def _restore_state(self, meta: Dict[str, Any], arrays: Snapshot) -> None:
        pass

    # ------------------------------------------------------------------
    def train(self, verbose: bool = False) -> Any:
        records = [self._run_epoch(epoch, verbose)
                   for epoch in range(self._epoch, self.config.num_epochs)]
        self._epoch = 0          # a later train() starts over at epoch 0
        return self._result(records)

    def _run_epoch(self, epoch: int, verbose: bool = False) -> EpochRecord:
        cfg = self.config
        t0 = time.perf_counter()
        record = EpochRecord(epoch=epoch, loss=0.0, seconds=0.0, metric=0.0)
        io_before = self.io.snapshot()
        steps = self._plan_epoch(epoch)
        losses: List[float] = []
        # Steps before a resumed cursor were trained before the
        # snapshot; its rng state and residency account for them.
        for idx in range(self._step, len(steps)):
            losses += self._run_step(steps, idx, record)
            self._global_step += 1
            if (self.snapshots is not None and self.checkpoint_every
                    and self._global_step % self.checkpoint_every == 0):
                self.save_snapshot(epoch, idx + 1, len(steps))
        self._step = 0
        self._end_epoch()
        io_epoch = self.io.diff(io_before)
        record.io_bytes = io_epoch.total_bytes
        record.partition_loads = io_epoch.partition_loads
        record.seconds = time.perf_counter() - t0
        record.loss = float(np.mean(losses)) if losses else 0.0
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            record.metric = self._epoch_metric()
        self._emit(self.EPOCH_EVENT, trainer=self.KIND, epoch=epoch,
                   loss=record.loss, seconds=record.seconds,
                   metric=record.metric, io_bytes=record.io_bytes)
        if verbose:
            print(f"[epoch {epoch}] loss={record.loss:.4f} "
                  f"time={record.seconds:.1f}s "
                  f"io={record.io_bytes >> 20}MiB "
                  f"loads={record.partition_loads} "
                  f"{self.METRIC}={record.metric:.4f}")
        return record

    # ------------------------------------------------------------------
    def save_snapshot(self, epoch: int, next_step: int = 0,
                      num_steps: int = 1) -> Path:
        """Atomically snapshot the full training state; resume at plan
        step ``next_step`` of ``epoch``.

        A cursor past the epoch's last step (``next_step >= num_steps``)
        normalizes to the next epoch's step 0; ``save_snapshot(e)`` resumes
        at the start of epoch ``e``.
        """
        if self.snapshots is None:
            raise RuntimeError("trainer was built without a checkpoint_dir")
        if next_step >= num_steps:
            epoch, next_step = epoch + 1, 0
        arrays: Dict[str, np.ndarray] = {}
        with self._store_writers:   # the store's state and links agree
            meta = {"trainer": self.KIND, "epoch": int(epoch),
                    "step": int(next_step), "global_step": self._global_step,
                    "rng": self.rng.bit_generator.state,
                    "stores": self._fingerprints(),
                    "config": _config_to_dict(self.config)}
            store = self._pack_state(arrays, meta)
            staged = self.snapshots.stage(self._global_step, store)
        pack_model_state(arrays, self.model, self._gnn_optimizer)
        path = self.snapshots.publish(staged, meta, arrays)
        self._emit("snapshot", trainer=self.KIND, path=str(path),
                   epoch=int(epoch), step=int(next_step),
                   linked=self.snapshots.linked)
        return path

    def resume(self, path: Optional[Path] = None) -> dict:
        """Restore the latest (or given) snapshot; the next :meth:`train`
        continues from its cursor bit-identically."""
        if path is None and self.snapshots is None:
            raise RuntimeError(
                "no checkpoint_dir and no explicit snapshot path")
        meta, arrays = (self.snapshots or SnapshotManager(path)).load(path)
        validate_meta(meta, self.KIND, stores=self._fingerprints(),
                      config=self.config)
        self._restore_state(meta, arrays)
        unpack_model_state(arrays, self.model, self._gnn_optimizer)
        self.rng.bit_generator.state = meta["rng"]
        # An older snapshot may lack the epoch cursor (a streaming one
        # resumes at refresh 0), the step cursor (in-memory kinds) or the
        # global count; it resumes at step 0 counting one step per epoch —
        # exact for one-step plans, and for a disk kind it only shifts
        # which later cursors the cadence picks.
        self._epoch = int(meta.get("epoch", 0))
        self._step = int(meta.get("step", 0))
        self._global_step = int(meta.get("global_step", self._epoch))
        return meta

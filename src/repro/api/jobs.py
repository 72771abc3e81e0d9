"""Job implementations: one factory per registered kind.

A *job* wraps one workload behind the common protocol the unified API
promises::

    job = build_job(spec)     # construct trainers / engines / stores
    job.resume(path)          # optional: restore a snapshot
    result = job.run()        # execute; returns the kind's result object
    job.snapshot()            # optional: persist the final state

Every factory here consumes a **resolved** :class:`~repro.api.specs.
JobSpec` and is the single place the spec's declarative fields meet the
constructors of the underlying subsystems, so programmatic
``repro.api.run(spec)`` and ``repro run spec.json`` execute identical
code. User-facing configuration errors raise
:class:`~repro.api.registry.JobError` (a ``ValueError`` subclass the CLI
converts to clean exits — anything else propagates with a traceback);
``verbose=True`` prints the progress output ``repro run`` shows.
"""

from __future__ import annotations

import contextlib
import json
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional

import numpy as np

from ..graph import (load_fb15k237, load_freebase86m_mini,
                     load_papers100m_mini, load_wikikg90m_mini,
                     training_graph)
from ..train import (DiskConfig, DiskLinkPredictionTrainer,
                     DiskNodeClassificationConfig,
                     DiskNodeClassificationTrainer, LinkPredictionConfig,
                     LinkPredictionTrainer, NodeClassificationConfig,
                     NodeClassificationTrainer, SnapshotManager)
from ..train.checkpoint import Snapshot, SnapshotError
from ..train.loop import ProgressListener
from . import registry
from .registry import JobError
from .specs import JobSpec

LP_DATASETS = {
    "fb15k237": lambda scale, seed=0: load_fb15k237(scale=scale, seed=seed),
    "freebase86m-mini": lambda scale, seed=0: load_freebase86m_mini(
        num_nodes=max(500, int(20000 * scale * 5)), seed=seed),
    "wikikg90m-mini": lambda scale, seed=0: load_wikikg90m_mini(
        num_nodes=max(500, int(24000 * scale * 5)), seed=seed),
}


def _lp_dataset(spec: JobSpec):
    name = spec.data.dataset
    if name not in LP_DATASETS:
        raise JobError(f"unknown LP dataset {name!r}; "
                         f"choose from {sorted(LP_DATASETS)}")
    return LP_DATASETS[name](spec.data.scale, spec.data.seed or 0)


def _nc_dataset(spec: JobSpec):
    data = spec.data
    if data.dataset not in (None, "papers100m-mini"):
        raise JobError(f"unknown NC dataset {data.dataset!r}; the NC kinds "
                       f"regenerate 'papers100m-mini' (sized by data.nodes/"
                       f"edges/feat_dim/classes)")
    kwargs: Dict[str, Any] = {}
    if data.classes is not None:
        kwargs["num_classes"] = data.classes
    return load_papers100m_mini(
        num_nodes=data.nodes,
        num_edges=data.edges if data.edges is not None else data.nodes * 9,
        feat_dim=data.feat_dim, seed=data.seed, **kwargs)


def _parse_ids(text: str) -> np.ndarray:
    return np.array([int(x) for x in text.split(",") if x], dtype=np.int64)


def _checkpoint_root(spec: JobSpec) -> Path:
    """The one snapshot-root rule, for a configured cadence and for an
    on-demand ``job.snapshot()`` alike: ``checkpoint.dir``, else
    ``<storage.workdir>/checkpoints``, else a temp dir."""
    workdir = spec.storage.workdir if "storage" in spec.sections else None
    if spec.checkpoint.dir:
        return Path(spec.checkpoint.dir)
    if workdir:
        return Path(workdir) / "checkpoints"
    return Path(tempfile.mkdtemp(prefix="repro-ckpt-"))


def _checkpoint_kwargs(spec: JobSpec, verbose: bool) -> Dict[str, Any]:
    """Shared checkpoint plumbing for every trainer kind: a cadence or an
    explicit dir enables the snapshot subsystem at :func:`_checkpoint_root`."""
    ck = spec.checkpoint
    if not ck.every and not ck.dir:
        return {}
    checkpoint_dir = _checkpoint_root(spec)
    if verbose:
        if ck.every:
            print(f"checkpointing every {ck.every} to {checkpoint_dir}")
        else:
            print(f"checkpoint dir {checkpoint_dir} (no checkpoint.every: "
                  f"snapshots are read for resume but none will be written)")
    return {"checkpoint_dir": checkpoint_dir,
            "checkpoint_every": ck.every}


@contextlib.contextmanager
def _snapshot_errors() -> Iterator[None]:
    """Surface a missing, unreadable or damaged snapshot as the job layer's
    clean configuration error instead of a traceback."""
    try:
        yield
    except SnapshotError as exc:
        raise JobError(str(exc)) from exc


class Job:
    """Common protocol every job kind implements.

    Subclasses fill in :meth:`build` (construct the underlying trainer /
    engine from the resolved spec), :meth:`run`, and — where the kind
    supports snapshots — :meth:`snapshot` / :meth:`resume`.
    """

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.recorder = None     # attached by build_job when telemetry is on

    @property
    def kind(self) -> str:
        return self.spec.kind

    def telemetry_sources(self) -> Dict[str, Any]:
        """``name -> zero-arg callable`` pull sources the telemetry
        recorder polls on every metrics flush (flat numeric dicts)."""
        return {}

    def build(self, verbose: bool = False,
              listeners: Iterable[ProgressListener] = ()) -> "Job":
        raise NotImplementedError

    def run(self, verbose: bool = False) -> Any:
        raise NotImplementedError

    def snapshot(self) -> Path:
        raise JobError(f"{self.kind} jobs do not write snapshots")

    def _ensure_snapshot_manager(self) -> None:
        """``job.snapshot()`` always works: a trainer built without a
        checkpoint dir (no cadence requested) gets a manager on demand, at
        the root a cadence would have used."""
        if self.trainer.snapshots is None:
            root = _checkpoint_root(self.spec)
            self.trainer.snapshots = SnapshotManager(root)

    def resume(self, path: Optional[Path] = None,
               verbose: bool = False) -> dict:
        raise JobError(f"{self.kind} jobs cannot resume from a snapshot")

    def _resume_path(self, path: Optional[Path]) -> Optional[Path]:
        """An explicit path wins over the spec's ``checkpoint.resume_from``
        (``None`` = the trainer's own latest snapshot)."""
        path = path if path is not None else self.spec.checkpoint.resume_from
        return Path(path) if path else None


# ---------------------------------------------------------------------------
# Training jobs
# ---------------------------------------------------------------------------

class TrainingJob(Job):
    """``lp-mem`` / ``lp-disk`` / ``nc-mem`` / ``nc-disk``: one trainer
    behind the shared training loop (:mod:`repro.train.loop`)."""

    TRAINERS = {registry.LP_MEM: LinkPredictionTrainer,
                registry.LP_DISK: DiskLinkPredictionTrainer,
                registry.NC_MEM: NodeClassificationTrainer,
                registry.NC_DISK: DiskNodeClassificationTrainer}

    def build(self, verbose: bool = False,
              listeners: Iterable[ProgressListener] = ()) -> "TrainingJob":
        spec = self.spec
        model, train, storage = spec.model, spec.train, spec.storage
        workdir = storage.workdir if "storage" in spec.sections else None
        kwargs: Dict[str, Any] = dict(listeners=listeners,
                                      **_checkpoint_kwargs(spec, verbose))
        if spec.kind in registry.LP_SNAPSHOT_KINDS:
            self.dataset = _lp_dataset(spec)
            fanouts = tuple(model.fanouts) if model.encoder != "none" else ()
            self.config = LinkPredictionConfig(
                embedding_dim=model.dim, encoder=model.encoder,
                num_layers=len(fanouts), fanouts=fanouts, decoder=model.decoder,
                batch_size=train.batch_size, num_negatives=train.negatives,
                num_epochs=train.epochs, eval_negatives=train.eval_negatives,
                eval_max_edges=train.eval_max_edges,
                eval_every=train.eval_every, seed=train.seed)
            if spec.kind == registry.LP_DISK:
                kwargs["disk"] = DiskConfig(
                    workdir=Path(workdir) if workdir else Path(
                        tempfile.mkdtemp(prefix="repro-disk-")),
                    num_partitions=storage.partitions,
                    num_logical=storage.logical,
                    buffer_capacity=storage.buffer, policy=storage.policy)
        else:
            self.dataset = _nc_dataset(spec)
            fanouts = tuple(model.fanouts)
            self.config = NodeClassificationConfig(
                encoder=model.encoder, hidden_dim=model.dim,
                num_layers=len(fanouts), fanouts=fanouts,
                batch_size=train.batch_size, num_epochs=train.epochs,
                eval_every=train.eval_every, seed=train.seed)
            if spec.kind == registry.NC_DISK:
                kwargs["disk"] = DiskNodeClassificationConfig(
                    workdir=Path(workdir) if workdir else Path(
                        tempfile.mkdtemp(prefix="repro-nc-")),
                    num_partitions=storage.partitions,
                    buffer_capacity=storage.buffer)
        self.trainer = self.TRAINERS[spec.kind](self.dataset, self.config,
                                                **kwargs)
        return self

    def telemetry_sources(self) -> Dict[str, Any]:
        return {"storage": self.trainer.io.as_dict}

    def run(self, verbose: bool = False):
        result = self.trainer.train(verbose=verbose)
        if verbose:
            if self.spec.kind in registry.LP_SNAPSHOT_KINDS:
                print(f"\nfinal MRR {result.final_mrr:.4f} "
                      f"(hits@10 {result.final_metrics.hits_at_10:.4f}) "
                      f"mean epoch {result.mean_epoch_seconds:.2f}s")
            else:
                print(f"\nfinal accuracy {result.final_accuracy:.4f} "
                      f"mean epoch {result.mean_epoch_seconds:.2f}s")
        return result

    def snapshot(self) -> Path:
        self._ensure_snapshot_manager()
        return self.trainer.save_snapshot(self.config.num_epochs)

    @_snapshot_errors()
    def resume(self, path: Optional[Path] = None,
               verbose: bool = False) -> dict:
        meta = self.trainer.resume(self._resume_path(path))
        if verbose:
            print(f"resumed from snapshot at epoch {meta['epoch']}, "
                  f"step {meta.get('step', 0)}")
        return meta


# ---------------------------------------------------------------------------
# Serving job
# ---------------------------------------------------------------------------

@_snapshot_errors()
def build_serving_engine(spec: JobSpec, workdir: Optional[Path] = None):
    """Build the serving engine a resolved serve/serve-fleet spec asks for.

    Returns ``(snapshot_path, snapshot_kind, engine)``. This is the one
    snapshot->engine path, shared by :class:`ServeJob` and each fleet
    worker process (every worker calls it against its own private
    workdir, so N workers map the same snapshot independently).
    """
    from ..serve import serve_link_prediction, serve_node_classification
    storage = spec.storage
    snap = Snapshot(spec.serve.snapshot)
    kind = snap.meta["trainer"]
    if workdir is None:
        workdir = Path(storage.workdir) if storage.workdir else Path(
            tempfile.mkdtemp(prefix="repro-serve-"))
    if kind in registry.NC_SNAPSHOT_KINDS:
        dataset = _nc_dataset(spec)
        engine = serve_node_classification(
            snap, dataset, workdir, num_partitions=storage.partitions,
            buffer_capacity=storage.buffer)
    else:
        graph = None
        if snap.meta.get("config", {}).get("encoder", "none") != "none":
            # Encoder snapshots sample neighborhoods on read; the job
            # regenerates the training graph the same way the LP trainers do.
            if not spec.data.dataset:
                raise JobError(
                    "this snapshot has a GNN encoder: pass data.dataset/"
                    "scale (the training data) so encode-on-read can "
                    "sample neighborhoods")
            graph = training_graph(_lp_dataset(spec))
        engine = serve_link_prediction(snap, workdir,
                                       num_partitions=storage.partitions,
                                       buffer_capacity=storage.buffer,
                                       graph=graph)
    return snap.path, kind, engine


class ServeJob(Job):
    """``serve``: query a trained snapshot out-of-core (docs/serving.md)."""

    def build(self, verbose: bool = False,
              listeners: Iterable[ProgressListener] = ()) -> "ServeJob":
        snap, kind, engine = build_serving_engine(self.spec)
        self.snapshot_path, self.snapshot_kind, self.engine = snap, kind, engine
        if verbose:
            print(f"serving {kind} snapshot {snap.name}: "
                  f"{engine.store.num_nodes:,} nodes x {engine.store.dim}, "
                  f"{engine.scheme.num_partitions} partitions, "
                  f"buffer {engine.buffer_capacity}")
        return self

    def telemetry_sources(self) -> Dict[str, Any]:
        return {"serve": self.engine.stats.as_dict,
                "storage": self.engine.store.stats.as_dict}

    # ------------------------------------------------------------------
    def run(self, verbose: bool = False) -> Dict[str, Any]:
        serve = self.spec.serve
        engine = self.engine
        results: Dict[str, Any] = {}
        if serve.embed or serve.score or serve.topk:
            # The queries call the engine on this thread under a drain
            # guard: SIGINT/SIGTERM exits 128+signum (docs/serving.md).
            from ..serve import GracefulDrain
            with GracefulDrain():
                self._run_queries(results, verbose)
        if serve.classify:
            preds = engine.classify(_parse_ids(serve.classify), seed=0)
            results["classify"] = preds
            if verbose:
                print("  predicted classes:", preds.tolist())
        if serve.bench:
            results["bench"] = self._bench(verbose)
        if verbose:
            s = engine.stats
            print(f"engine stats: {s.lookups} lookups, "
                  f"{s.edges_scored} edges scored, "
                  f"{s.topk_queries} topk "
                  f"({s.topk_parts_scanned} parts scanned), "
                  f"{s.swaps} partition swaps")
        results["stats"] = engine.stats
        return results

    def _run_queries(self, results: Dict[str, Any], verbose: bool) -> None:
        serve = self.spec.serve
        engine = self.engine
        if serve.embed:
            ids = _parse_ids(serve.embed)
            rows = engine.get_embeddings(ids)
            results["embed"] = (ids, rows)   # parallel arrays, duplicates kept
            if verbose:
                for node, row in zip(ids, rows):
                    head = ", ".join(f"{v:+.4f}" for v in row[:6])
                    more = ", ..." if len(row) > 6 else ""
                    print(f"  node {node}: [{head}{more}]")
        if serve.score:
            rows = []
            for edge_spec in serve.score:
                fields = [int(x) for x in edge_spec.split(":")]
                if len(fields) == 2:            # S:D — relation 0
                    fields = [fields[0], 0, fields[1]]
                elif len(fields) != 3:
                    raise JobError(f"bad serve.score entry {edge_spec!r}: "
                                     f"expected SRC:DST or SRC:REL:DST")
                rows.append(fields)
            pairs = np.array(rows, dtype=np.int64)
            scores = engine.score_edges(pairs)
            results["score"] = scores        # aligned with serve.score order
            if verbose:
                for edge_spec, score in zip(serve.score, scores):
                    print(f"  score({edge_spec}) = {score:.6f}")
        if serve.topk:
            src, k = int(serve.topk[0]), int(serve.topk[1])
            try:
                ids, scores = engine.topk_targets(src, k, rel=serve.rel,
                                                  exclude=[src])
            except RuntimeError as exc:  # e.g. encoder snapshots refuse top-k
                raise JobError(f"serve.topk: {exc}") from exc
            results["topk"] = (ids, scores)
            if verbose:
                print(f"  top-{k} targets for source {src} "
                      f"(rel {serve.rel}):")
                for rank, (node, score) in enumerate(zip(ids, scores), 1):
                    print(f"    #{rank:<3} node {node:<10} score {score:.6f}")

    def _bench(self, verbose: bool) -> Dict[str, float]:
        """Quick QPS probe over a random or Zipf-skewed single-lookup stream
        (the same workload definition the committed benchmark baseline
        uses)."""
        from ..serve import make_query_stream
        serve = self.spec.serve
        engine = self.engine
        queries = make_query_stream(serve.mix, serve.bench,
                                    engine.store.num_nodes, seed=serve.seed)
        t0 = time.perf_counter()
        for start in range(0, len(queries), serve.max_batch):
            engine.get_embeddings(queries[start : start + serve.max_batch])
        seconds = time.perf_counter() - t0
        if verbose:
            print(f"  bench: {len(queries)} {serve.mix} lookups in "
                  f"{seconds:.2f}s = {len(queries) / seconds:,.0f} QPS "
                  f"(batch {serve.max_batch})")
        return {"queries": len(queries), "seconds": seconds,
                "qps": len(queries) / seconds}


class ServeFleetJob(Job):
    """``serve-fleet``: N engine workers, each answering the HTTP
    connections the fleet host hands it (docs/serving.md, "Serving
    fleet")."""

    def build(self, verbose: bool = False,
              listeners: Iterable[ProgressListener] = ()) -> "ServeFleetJob":
        from ..fleet import Fleet
        spec = self.spec
        # The snapshot is opened eagerly so a bad path fails here, not
        # in N spawned children.
        with _snapshot_errors():
            self.snapshot_path = Snapshot(spec.serve.snapshot).path
        workdir = Path(spec.storage.workdir) if spec.storage.workdir else Path(
            tempfile.mkdtemp(prefix="repro-fleet-"))
        self.workdir = workdir
        self.fleet = Fleet(spec.to_dict(), workdir)
        return self

    def telemetry_sources(self) -> Dict[str, Any]:
        # Engines live in the worker processes; each worker writes its
        # own run log (worker-<i>/telemetry.jsonl), merged by `repro top`.
        return {}

    def run(self, verbose: bool = False) -> Dict[str, Any]:
        from ..serve import GracefulDrain
        fleet = self.fleet
        duration = float(self.spec.fleet.duration)
        with GracefulDrain(exit_after=False) as drain:
            fleet.start()
            try:
                if verbose:
                    info = fleet.worker_info[0]
                    print(f"serving fleet: {fleet.num_workers} workers x "
                          f"({info['num_nodes']:,} nodes x {info['dim']}, "
                          f"{info['num_partitions']} partitions, "
                          f"{info['kind']} snapshot)")
                    print(f"gateway listening on {fleet.url}; "
                          f"Ctrl-C drains")
                if duration > 0:
                    drain.wait(duration)
                else:
                    while not drain.wait(1.0):
                        pass
                stats = fleet.worker_stats()
            finally:
                exitcodes = fleet.stop()
        if verbose:
            for entry in stats:
                serve = entry.get("serve", {})
                print(f"  worker {entry.get('worker')}: "
                      f"{serve.get('requests', 0)} requests, "
                      f"{serve.get('lookups', 0)} lookups, "
                      f"{serve.get('swaps', 0)} swaps")
            print(f"fleet drained; worker exit codes {exitcodes}")
        return {"url": fleet.url, "workers": fleet.num_workers,
                "exitcodes": exitcodes, "worker_stats": stats}


# ---------------------------------------------------------------------------
# Streaming jobs (``stream`` driver and ``lp-stream`` continual training)
# ---------------------------------------------------------------------------

class StreamJob(Job):
    """``stream`` / ``lp-stream``: live-graph ingestion with optional
    continual refresh training (docs/streaming.md). ``lp-stream`` is the
    same machinery with refresh-on-compaction resolved on by default."""

    def build(self, verbose: bool = False,
              listeners: Iterable[ProgressListener] = ()) -> "StreamJob":
        from ..graph.partition import PartitionScheme
        from ..serve.engine import ServingEngine
        from ..storage.atomic import atomic_write_json
        from ..storage.edge_store import EdgeBucketStore
        from ..storage.node_store import NodeStore
        from ..stream import (BackgroundCompactor, Compactor,
                              ContinualTrainer, LiveGraph, WriteAheadLog)

        spec = self.spec
        model, train, storage, stream = (spec.model, spec.train, spec.storage,
                                         spec.stream)
        workdir = Path(storage.workdir) if storage.workdir else Path(
            tempfile.mkdtemp(prefix="repro-stream-"))
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        nodes_path, edges_path = workdir / "nodes", workdir / "edges.bin"
        state_path = workdir / "stream-state.json"
        wal_dir = workdir / "wal" if stream.wal else None
        recovery = None
        recovered_nodes_added = None
        base_nodes = None   # set when reattaching to the workdir's stores
        self._wal_replay: list = []
        if spec.checkpoint.resume_from:
            # Reattach to the workdir's existing stores: the snapshot's
            # fingerprints pin the *compacted, grown* layout, which a rebuild
            # from the dataset could never reproduce.
            if not (nodes_path.exists() and edges_path.exists()):
                raise JobError(
                    "checkpoint.resume_from needs the original workdir: its "
                    "nodes/ and edges.bin hold the compacted base state the "
                    "snapshot pins")
            with _snapshot_errors():
                snap = Snapshot(spec.checkpoint.resume_from)
            if "stream" not in snap.meta:
                raise JobError(
                    f"snapshot {snap.path.name} was not written by the "
                    f"streaming trainer (trainer={snap.meta.get('trainer')!r})")
            added = snap.meta["stream"]["nodes_added"]
            base_nodes = snap.meta["stream"]["num_nodes"] - added
            if wal_dir is not None:
                recovery = WriteAheadLog.scan(wal_dir)
        elif (stream.wal and state_path.exists()
              and nodes_path.exists() and edges_path.exists()):
            # Crash recovery without a snapshot: the workdir's stores plus
            # the WAL are the durable state. The node count to reattach at
            # is the *acknowledged* total (WAL meta and NODES frames), never
            # more — growth that reached the store file but not the journal
            # was never acknowledged and is cut back; growth journaled but
            # not yet in the file is re-grown by replay.
            state = json.loads(state_path.read_text())
            if state["partitions"] != storage.partitions or \
                    state["dim"] != model.dim:
                raise JobError(
                    f"stream.wal recovery: workdir {workdir} was built with "
                    f"p={state['partitions']}, dim={state['dim']} — the spec "
                    f"says p={storage.partitions}, dim={model.dim}")
            recovery = WriteAheadLog.scan(wal_dir)
            base_nodes = int(state["base_nodes"])
            acked = max(base_nodes, recovery.num_nodes,
                        recovery.max_nodes_recorded)
            added = recovered_nodes_added = min(
                acked, NodeStore.stored_rows(nodes_path)) - base_nodes
        if base_nodes is not None:
            scheme = PartitionScheme.uniform(
                base_nodes, storage.partitions).extended(added)
            # truncate=True: nodes appended past the reattach point are
            # discarded (growth is append-only) — with the WAL on they come
            # back via replay. Edge-bucket drift past a snapshot (a later
            # compaction) is caught by the resume's fingerprint check.
            store = NodeStore.open(nodes_path, scheme, model.dim,
                                   learnable=True, truncate=True)
            edge_store = EdgeBucketStore.open(edges_path, scheme)
            num_relations = edge_store.num_relations
        else:
            graph = training_graph(_lp_dataset(spec))
            scheme = PartitionScheme.uniform(graph.num_nodes,
                                             storage.partitions)
            store = NodeStore(nodes_path, scheme, model.dim, learnable=True)
            store.initialize(rng=np.random.default_rng(train.seed))
            store.flush()     # WAL recovery reattaches to these files
            edge_store = EdgeBucketStore(edges_path, graph, scheme)
            num_relations = graph.num_relations
            atomic_write_json(state_path,
                              {"base_nodes": graph.num_nodes,
                               "partitions": storage.partitions,
                               "dim": model.dim,
                               "num_relations": num_relations,
                               "dataset": spec.data.dataset})
        spills = sorted(workdir.glob("edges.bin.spill/spill-*.npz"))
        if recovery is not None and spills:
            # The older delta-log format raised the journal's covered_seq
            # past events it kept only in these files: replaying the
            # journal alone would silently lose them.
            raise JobError(
                f"stream.wal recovery: {spills[0]} is a spill file of an "
                f"older delta-log format, which this version cannot "
                f"recover; start from a fresh storage.workdir")
        self.live = LiveGraph(store, edge_store, seed=train.seed,
                              wal_dir=None if recovery is not None else wal_dir,
                              fsync_every=stream.fsync_every)
        if recovery is not None:
            # Rebuild the acknowledged overlay: queue the WAL suffix past
            # the compaction horizon for replay — after resume() when a
            # snapshot is being restored (its fingerprints must see the
            # pre-replay stores), else right here.
            self._wal_replay = self.live.log.restore(
                edge_store.compacted_seq, recovery, wal_dir=wal_dir)
            if recovered_nodes_added is not None:
                self.live.nodes_added = recovered_nodes_added
        self.config = LinkPredictionConfig(
            embedding_dim=model.dim, encoder="none",
            batch_size=train.batch_size, num_negatives=train.negatives,
            num_epochs=1, seed=train.seed)
        ckpt = _checkpoint_kwargs(spec, verbose)
        self.trainer = ContinualTrainer(self.live, self.config,
                                        num_relations=num_relations,
                                        buffer_capacity=storage.buffer,
                                        listeners=listeners, **ckpt)
        self.engine = ServingEngine.over_live(self.live, self.trainer.model,
                                              buffer_capacity=storage.buffer)
        self.compactor = Compactor(self.live)
        self.background = None
        if stream.background_compaction:
            threshold = stream.compact_every if stream.compact_every else 1024
            self.background = BackgroundCompactor(
                self.compactor, staleness_threshold=threshold,
                seed=train.seed)
        if recovery is not None and not spec.checkpoint.resume_from:
            replayed = self.live.replay_wal(self._wal_replay)
            self._wal_replay = []
            if verbose and (replayed["frames"] or recovery.torn_frames):
                print(f"WAL recovery: replayed {replayed['edge_events']} "
                      f"edge events / {replayed['nodes']} node adds from "
                      f"{replayed['frames']} frames "
                      f"({recovery.torn_frames} torn frame(s) dropped)")
        if verbose:
            print(f"streaming over {spec.data.dataset}: "
                  f"{self.live.num_nodes:,} nodes, "
                  f"{edge_store.num_edges:,} base edges, "
                  f"p={storage.partitions}, buffer {storage.buffer}, "
                  f"workdir {workdir}")
        return self

    def telemetry_sources(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"stream": self.live.stats}
        if self.background is not None:
            out["compactor"] = self.background.health
        return out

    # ------------------------------------------------------------------
    @_snapshot_errors()
    def resume(self, path: Optional[Path] = None,
               verbose: bool = False) -> dict:
        meta = self.trainer.resume(self._resume_path(path))
        self.live.nodes_added = int(meta["stream"]["nodes_added"])
        if self._wal_replay:
            # Snapshot restore + WAL replay compose: the snapshot pinned the
            # compacted base and model state; the journal holds everything
            # acknowledged after it. Replay re-grows truncated node adds and
            # re-enters log-only events, so nothing acknowledged is lost.
            replayed = self.live.replay_wal(self._wal_replay)
            self._wal_replay = []
            if verbose:
                print(f"WAL replay after snapshot: "
                      f"{replayed['edge_events']} edge events, "
                      f"{replayed['nodes']} node adds")
        if verbose:
            print(f"resumed at stream position {meta['stream']}")
        return meta

    def snapshot(self) -> Path:
        self._ensure_snapshot_manager()
        return self.trainer.save_snapshot(self.trainer.refreshes)

    # ------------------------------------------------------------------
    def run(self, verbose: bool = False) -> Dict[str, Any]:
        stream = self.spec.stream
        driver_stats = None
        if self.background is not None:
            self.background.start()
        try:
            if stream.events:
                driver_stats = self._driver(verbose)
        finally:
            if self.background is not None:
                # Drain: the worker's last merge plus a synchronous sweep of
                # whatever arrived after it, so verify sees a settled view.
                self.background.stop(final_compact=True)
        if stream.verify:
            self.verify(self.workdir, verbose=verbose)
        s = self.live.stats()
        wal = s.get("wal", {})
        if verbose:
            print(f"stream stats: {s['events_appended']} events "
                  f"({s['edges_inserted']} ins / {s['edges_deleted']} del), "
                  f"{s['nodes_added']} nodes added, {s['pending']} pending, "
                  f"{self.compactor.compactions} compactions, "
                  f"{self.trainer.refreshes} refreshes, journal "
                  f"{wal.get('frames', 0)} frames / "
                  f"{wal.get('bytes_written', 0):,} bytes")
        s["compactions"] = self.compactor.compactions
        s["refreshes"] = self.trainer.refreshes
        if stream.wal or stream.background_compaction:
            s["health"] = self.live.health()
        if driver_stats:
            s["driver"] = driver_stats
        return s

    def _driver(self, verbose: bool) -> Dict[str, Any]:
        """Synthetic event-stream driver: ingest on a cadence of compactions
        and refreshes, reporting throughput and staleness."""
        from ..stream import synth_events
        spec = self.spec.stream
        live, compactor, trainer = self.live, self.compactor, self.trainer
        rng = np.random.default_rng(self.spec.train.seed + 23)
        done = 0          # events actually appended (deletes can come up
        asked = 0         # short when the sampled bucket is empty)
        t_ingest = 0.0
        staleness = []
        batch_no = 0
        while asked < spec.events:
            count = min(spec.event_batch, spec.events - asked)
            if spec.add_nodes_every and batch_no % spec.add_nodes_every == 0:
                live.add_nodes(max(1, count // 50))
            ins, dels = synth_events(live, rng, count, spec.delete_fraction)
            t0 = time.perf_counter()
            lo, hi = live.insert_edges(ins)
            done += hi - lo
            if dels is not None and len(dels):
                lo, hi = live.delete_edges(dels)
                done += hi - lo
            t_ingest += time.perf_counter() - t0
            asked += count
            batch_no += 1
            staleness.append(live.staleness())
            if spec.compact_every and live.staleness() >= spec.compact_every:
                if self.background is not None:
                    # Background mode: nudge the worker and keep ingesting —
                    # the merge overlaps the next batches instead of
                    # stalling them.
                    self.background.kick()
                else:
                    report = compactor.compact()
                    if verbose:
                        print(f"  [{done:>8} events] compacted "
                              f"{report.merged_events} events in "
                              f"{report.seconds * 1000:.0f}ms "
                              f"-> {report.num_edges:,} base edges")
                if spec.refresh:
                    record = trainer.refresh()
                    if verbose:
                        print(f"  [{done:>8} events] refresh "
                              f"loss={record.loss:.4f} "
                              f"({record.num_batches} batches, "
                              f"{record.seconds:.2f}s)")
        qps_ids = np.arange(min(64, live.num_nodes))
        t0 = time.perf_counter()
        self.engine.get_embeddings(qps_ids)
        q_ms = 1000 * (time.perf_counter() - t0)
        if verbose:
            print(f"driver: {done} events in {t_ingest:.2f}s ingest time = "
                  f"{done / max(t_ingest, 1e-9):,.0f} events/s; staleness "
                  f"mean {np.mean(staleness):.0f} max {max(staleness)}; "
                  f"64-row lookup {q_ms:.1f}ms")
        return {"events": done, "ingest_seconds": t_ingest,
                "events_per_sec": done / max(t_ingest, 1e-9),
                "staleness_mean": float(np.mean(staleness)),
                "staleness_max": int(max(staleness))}

    def verify(self, workdir, verbose: bool = True) -> None:
        """Streamed-vs-rebuilt equivalence check over the current live
        state; raises ``ValueError`` on any divergence."""
        from ..core.sampler import DenseSampler
        from ..storage.edge_store import EdgeBucketStore
        live = self.live
        final = live.materialize()
        rebuilt = EdgeBucketStore(Path(workdir) / "verify-edges.bin", final,
                                  live.scheme)
        p = live.num_partitions
        for i in range(p):
            for j in range(p):
                a = live.bucket_edges(i, j, record_io=False)
                b = rebuilt.read_bucket(i, j, record_io=False)
                if not np.array_equal(a, b):
                    raise JobError(
                        f"verify FAILED: bucket ({i}, {j}) of the live view "
                        f"differs from the offline rebuild")
        parts = list(range(min(4, p)))
        s_live = DenseSampler.from_partitions(live.scheme,
                                              live.bucket_endpoints, parts,
                                              [5],
                                              rng=np.random.default_rng(99))
        s_built = DenseSampler.from_partitions(live.scheme,
                                               rebuilt.bucket_endpoints,
                                               parts, [5],
                                               rng=np.random.default_rng(99))
        targets = np.arange(0, live.num_nodes,
                            max(1, live.num_nodes // 64))
        a, b = s_live.sample(targets), s_built.sample(targets)
        if not np.array_equal(a.node_ids, b.node_ids):
            raise JobError("verify FAILED: sampling diverged from the "
                             "rebuild")
        rebuilt.close()
        if verbose:
            print(f"verify OK: {final.num_edges:,} live edges match an "
                  f"offline rebuild bucket-for-bucket; seeded sampling "
                  f"identical")


# ---------------------------------------------------------------------------
# Factory bindings — the registry's executable half
# ---------------------------------------------------------------------------

for _kind in TrainingJob.TRAINERS:
    registry.bind(_kind, TrainingJob)
registry.bind(registry.SERVE, ServeJob)
registry.bind(registry.SERVE_FLEET, ServeFleetJob)
registry.bind(registry.STREAM, StreamJob)
registry.bind(registry.LP_STREAM, StreamJob)

"""One snapshot reader: :class:`~repro.train.checkpoint.Snapshot` opens a
``snap-*`` directory or a checkpoint root (its latest complete snapshot),
and every entry point opens snapshots through it.

* **Dir or root** — trainer resume, the ``serve`` job and a stream job's
  ``checkpoint.resume_from`` open the same snapshot whether they are given
  the root or its latest ``snap-*`` directory.
* **No snapshot** — a root whose only ``snap-*`` lacks its
  ``manifest.json`` (a save that never published) holds no snapshots, at
  every entry point.
* **One root rule** — ``job.snapshot()`` without ``checkpoint.dir`` writes
  under ``<storage.workdir>/checkpoints``, like a configured cadence.
"""

import shutil

import pytest

from repro import api
from repro.api import (CheckpointSpec, DataSpec, JobSpec, ModelSpec,
                       ServeSpec, StorageSpec, StreamSpec, TrainSpec)
from repro.api.jobs import build_serving_engine
from repro.api.registry import JobError
from repro.train import Snapshot, SnapshotError, SnapshotManager

FORMS = ("root", "dir")


def _lp_disk_spec(workdir, **checkpoint):
    return JobSpec(kind="lp-disk",
                   data=DataSpec(dataset="fb15k237", scale=0.03),
                   model=ModelSpec(dim=8, encoder="none"),
                   train=TrainSpec(batch_size=256, negatives=16, epochs=1,
                                   eval_negatives=16, eval_max_edges=50),
                   storage=StorageSpec(workdir=str(workdir), partitions=8,
                                       logical=4, buffer=4),
                   checkpoint=CheckpointSpec(**checkpoint))


def _stream_spec(workdir, **checkpoint):
    return JobSpec(kind="stream",
                   data=DataSpec(dataset="freebase86m-mini", scale=0.02),
                   model=ModelSpec(dim=8),
                   train=TrainSpec(batch_size=128, negatives=8),
                   storage=StorageSpec(workdir=str(workdir), partitions=4,
                                       buffer=2),
                   stream=StreamSpec(events=400, event_batch=100,
                                     compact_every=150, add_nodes_every=2,
                                     refresh=True),
                   checkpoint=CheckpointSpec(**checkpoint))


def _close(job):
    """Close the node store a training or stream job holds open."""
    store = job.live.node_store if hasattr(job, "live") else (
        job.trainer.node_store)
    store.close()


def _arg(root, form):
    return root if form == "root" else SnapshotManager(root).latest()


@pytest.fixture(scope="module")
def lp_root(tmp_path_factory):
    """An lp-disk run that saved after every plan step; the root keeps
    the two newest snapshots, so its latest is not its only one."""
    tmp = tmp_path_factory.mktemp("lp-open")
    job = api.build_job(_lp_disk_spec(tmp / "w", every=1,
                                      dir=str(tmp / "ckpt")))
    job.run()
    _close(job)
    assert len(SnapshotManager(tmp / "ckpt").list()) == 2
    return tmp / "ckpt"


@pytest.fixture(scope="module")
def stream_run(tmp_path_factory):
    """A stream job that snapshotted after every refresh: its workdir
    (whose stores a ``checkpoint.resume_from`` reattaches to) and root."""
    tmp = tmp_path_factory.mktemp("stream-open")
    job = api.build_job(_stream_spec(tmp / "w", every=1,
                                     dir=str(tmp / "ckpt")))
    job.run()
    _close(job)
    assert len(SnapshotManager(tmp / "ckpt").list()) == 2
    return tmp / "w", tmp / "ckpt"


# ---------------------------------------------------------------------------
# Dir or root: every entry point opens the same snapshot
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("form", FORMS)
def test_snapshot_opens_a_dir_or_a_root(lp_root, form):
    latest = SnapshotManager(lp_root).latest()
    assert Snapshot(_arg(lp_root, form)).path == latest
    older = SnapshotManager(lp_root).list()[0]
    assert Snapshot(older).path == older        # a dir is never re-resolved


@pytest.mark.parametrize("form", FORMS)
def test_trainer_resume_opens_the_latest(lp_root, form, tmp_path):
    job = api.build_job(_lp_disk_spec(tmp_path / "w"))
    meta = job.trainer.resume(_arg(lp_root, form))
    _close(job)
    assert meta == Snapshot(SnapshotManager(lp_root).latest()).meta


@pytest.mark.parametrize("form", FORMS)
def test_serve_opens_the_latest(lp_root, form, tmp_path):
    spec = JobSpec(kind="serve",
                   serve=ServeSpec(snapshot=str(_arg(lp_root, form))),
                   storage=StorageSpec(workdir=str(tmp_path / "serve")))
    path, kind, engine = build_serving_engine(spec.resolve())
    engine.store.close()
    assert (path, kind) == (SnapshotManager(lp_root).latest(), "lp-disk")


@pytest.mark.parametrize("form", FORMS)
def test_stream_resume_from_opens_the_latest(stream_run, form):
    workdir, root = stream_run
    job = api.build_job(_stream_spec(workdir,
                                     resume_from=str(_arg(root, form))))
    meta = job.resume()
    _close(job)
    assert meta == Snapshot(SnapshotManager(root).latest()).meta


# ---------------------------------------------------------------------------
# A root with no published snapshot
# ---------------------------------------------------------------------------

@pytest.fixture()
def unpublished_root(lp_root, tmp_path):
    """A root whose only ``snap-*`` has every file but ``manifest.json``."""
    root = tmp_path / "ckpt"
    snap = root / SnapshotManager(lp_root).latest().name
    shutil.copytree(SnapshotManager(lp_root).latest(), snap)
    (snap / "manifest.json").unlink()
    return root


def test_unpublished_snapshot_is_no_snapshot(unpublished_root):
    with pytest.raises(SnapshotError, match="no snapshots under"):
        Snapshot(unpublished_root)


def test_trainer_resume_finds_no_snapshot(unpublished_root, tmp_path):
    job = api.build_job(_lp_disk_spec(tmp_path / "w"))
    with pytest.raises(SnapshotError, match="no snapshots under"):
        job.trainer.resume(unpublished_root)
    _close(job)


def test_serve_finds_no_snapshot(unpublished_root, tmp_path):
    spec = JobSpec(kind="serve",
                   serve=ServeSpec(snapshot=str(unpublished_root)),
                   storage=StorageSpec(workdir=str(tmp_path / "serve")))
    with pytest.raises(JobError, match="no snapshots under"):
        api.build_job(spec)


def test_stream_resume_from_finds_no_snapshot(stream_run, unpublished_root):
    workdir, _ = stream_run
    with pytest.raises(JobError, match="no snapshots under"):
        api.build_job(_stream_spec(workdir,
                                   resume_from=str(unpublished_root)))


def test_stream_refuses_an_lp_disk_snapshot(stream_run, lp_root):
    workdir, _ = stream_run
    with pytest.raises(JobError,
                       match="was not written by the streaming trainer"):
        api.build_job(_stream_spec(workdir, resume_from=str(lp_root)))


# ---------------------------------------------------------------------------
# job.snapshot() without checkpoint.dir: under the workdir
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_spec", [_lp_disk_spec, _stream_spec],
                         ids=["lp-disk", "stream"])
def test_job_snapshot_lands_under_the_workdir(make_spec, tmp_path):
    job = api.build_job(make_spec(tmp_path / "w"))
    job.run()
    path = job.snapshot()
    _close(job)
    assert path.parent == tmp_path / "w" / "checkpoints"
    assert Snapshot(tmp_path / "w" / "checkpoints").path == path
    assert Snapshot(path).meta["trainer"] == job.trainer.KIND

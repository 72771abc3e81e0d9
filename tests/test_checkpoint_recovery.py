"""Crash-injection and bit-exact resume tests for the snapshot subsystem.

The contract under test (docs/checkpointing.md): a training run killed at
*any* registered :class:`~tests.faultinject.CrashPoint` and resumed from
the latest complete snapshot produces **bit-identical** final parameters to
an uninterrupted run — for the disk and in-memory link prediction and node
classification trainers.

The crash-matrix tests are marked ``slow`` (each runs a crashed training,
a recovery training, and shares a module-scoped uninterrupted baseline).
"""

import dataclasses
import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.graph import load_fb15k237, load_papers100m_mini
from repro.storage import NodeStore, PrefetchError
from repro.train import (DiskConfig, DiskLinkPredictionTrainer,
                         DiskNodeClassificationConfig,
                         DiskNodeClassificationTrainer, LinkPredictionConfig,
                         LinkPredictionTrainer, NodeClassificationConfig,
                         NodeClassificationTrainer, SnapshotError,
                         SnapshotManager)
from tests.faultinject import (CrashPoint, FaultInjector, FaultyStorage,
                               SimulatedCrash)

CRASHES = (SimulatedCrash, PrefetchError)


@pytest.fixture(autouse=True)
def close_stores(monkeypatch):
    """Close every node store a test opens, at its teardown. A crashed
    trainer (its store wrapped by ``FaultyStorage``) or a hook closing over
    its store sits in a reference cycle, which would otherwise keep the
    partition files open until a cyclic collection."""
    opened = []
    attach = NodeStore._attach

    def tracked(store, *args, **kwargs):
        attach(store, *args, **kwargs)
        opened.append(store)

    monkeypatch.setattr(NodeStore, "_attach", tracked)
    yield
    for store in opened:
        store.close()

LP_CFG = LinkPredictionConfig(embedding_dim=8, num_layers=1, fanouts=(4,),
                              batch_size=256, num_negatives=16, num_epochs=2,
                              eval_negatives=32, eval_max_edges=100, seed=0)
NC_CFG = NodeClassificationConfig(hidden_dim=8, num_layers=1, fanouts=(4,),
                                  batch_size=128, num_epochs=3, seed=0)


def _models_equal(a, b) -> bool:
    sa, sb = a.state_dict(), b.state_dict()
    return set(sa) == set(sb) and all(np.array_equal(sa[k], sb[k]) for k in sa)


# ---------------------------------------------------------------------------
# Snapshot format + atomicity protocol
# ---------------------------------------------------------------------------

class TestSnapshotManager:
    def _payload(self):
        return ({"epoch": 1, "note": "x"},
                {"a": np.arange(6, dtype=np.float32).reshape(2, 3)})

    def test_roundtrip_and_latest(self, tmp_path):
        mgr = SnapshotManager(tmp_path, keep=2)
        meta, arrays = self._payload()
        mgr.save(3, meta, arrays)
        mgr.save(7, {"epoch": 2}, arrays)
        got_meta, got_arrays = mgr.load()
        assert got_meta == {"epoch": 2}
        np.testing.assert_array_equal(got_arrays["a"], arrays["a"])
        assert mgr.latest().name == "snap-000000000007"
        assert [p.name for p in mgr.list()] == ["snap-000000000003",
                                                "snap-000000000007"]

    def test_keep_prunes_oldest(self, tmp_path):
        mgr = SnapshotManager(tmp_path, keep=2)
        meta, arrays = self._payload()
        for step in (1, 2, 3):
            mgr.save(step, meta, arrays)
        assert [p.name for p in mgr.list()] == ["snap-000000000002",
                                                "snap-000000000003"]

    def test_crc_rejects_torn_payload(self, tmp_path):
        mgr = SnapshotManager(tmp_path)
        meta, arrays = self._payload()
        snap = mgr.save(1, meta, arrays)
        payload = bytearray((snap / "a.npy").read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        (snap / "a.npy").write_bytes(bytes(payload))
        with pytest.raises(SnapshotError, match="CRC"):
            mgr.load()

    def test_version_mismatch_rejected(self, tmp_path):
        import json
        mgr = SnapshotManager(tmp_path)
        meta, arrays = self._payload()
        snap = mgr.save(1, meta, arrays)
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["version"] = 999
        (snap / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version"):
            mgr.load()

    @pytest.mark.parametrize("point", [CrashPoint.SNAPSHOT_BEGIN,
                                       CrashPoint.SNAPSHOT_PRE_RENAME])
    def test_crash_before_rename_preserves_previous(self, tmp_path, point):
        """A save killed before the atomic rename leaves only a tmp- dir;
        the previous snapshot stays the loadable latest and the debris is
        swept by the next successful save."""
        meta, arrays = self._payload()
        mgr = SnapshotManager(tmp_path)
        mgr.save(1, meta, arrays)
        inj = FaultInjector(point)
        mgr.fault_hook = inj.fire
        with pytest.raises(SimulatedCrash):
            mgr.save(2, {"epoch": 9}, arrays)
        assert mgr.latest().name == "snap-000000000001"
        assert mgr.load()[0] == meta
        mgr.fault_hook = None
        mgr.save(3, {"epoch": 10}, arrays)
        assert not list(tmp_path.glob("tmp-*"))

    def test_numeric_order_beyond_name_padding(self, tmp_path):
        """Step ids wider than the 12-digit zero padding must still sort
        newest-last (lexicographic order would prune the newest)."""
        meta, arrays = self._payload()
        mgr = SnapshotManager(tmp_path, keep=2)
        mgr.save(999_999_999_999, {"which": "padded"}, arrays)
        mgr.save(1_000_000_000_000, {"which": "wide"}, arrays)
        assert mgr.load()[0] == {"which": "wide"}
        mgr.save(1_000_000_000_001, {"which": "wider"}, arrays)
        assert [mgr._step_of(p) for p in mgr.list()] == [1_000_000_000_000,
                                                         1_000_000_000_001]

    def test_save_supersedes_stale_same_id(self, tmp_path):
        """A resumed run that re-reaches (or trails) step ids left by a
        crashed run must become latest() without touching the old
        directories (no replace window): its saves take fresh ordinals past
        everything on disk, and the stale timeline ages out via keep."""
        meta, arrays = self._payload()
        mgr = SnapshotManager(tmp_path, keep=2)
        mgr.save(5, {"run": "crashed"}, arrays)
        mgr.save(5, {"run": "resumed"}, arrays)
        assert mgr.load()[0] == {"run": "resumed"}
        mgr.save(3, {"run": "resumed-later"}, arrays)   # cursor behind old id
        assert mgr.load()[0] == {"run": "resumed-later"}
        assert len(mgr.list()) == 2


# ---------------------------------------------------------------------------
# Disk link prediction: crash matrix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lp_data():
    return load_fb15k237(scale=0.03, seed=0)


def make_disk_lp(data, workdir, **kw):
    disk = DiskConfig(workdir=workdir, num_partitions=8, num_logical=4,
                      buffer_capacity=4)
    return DiskLinkPredictionTrainer(data, LP_CFG, disk, **kw)


@pytest.fixture(scope="module")
def lp_baseline(lp_data, tmp_path_factory):
    """Uninterrupted run: final node table + trained model."""
    trainer = make_disk_lp(lp_data, tmp_path_factory.mktemp("lp-base"))
    trainer.train()
    return trainer.node_store.read_all(), trainer.model


def _checkpoint_every(point):
    """Plan steps between snapshots in a crash-matrix run. Every snapshot
    flushes the buffer, so with one after each step no swap would have a
    dirty partition waiting for write-back."""
    return 2 if point == CrashPoint.WRITEBACK_PENDING else 1


def _recover(make_trainer):
    """Resume from the latest snapshot; restart from scratch if the crash
    landed before the first checkpoint (both are valid recoveries)."""
    trainer = make_trainer()
    try:
        trainer.resume()
    except SnapshotError:
        pass
    trainer.train()
    return trainer


@pytest.mark.slow
@pytest.mark.parametrize("point,after", [
    (CrashPoint.NODE_READ, 10),
    (CrashPoint.NODE_WRITE, 6),
    (CrashPoint.SWAP_EVICTED, 3),
    (CrashPoint.PREFETCH_STAGED, 2),
    (CrashPoint.WRITEBACK_PENDING, 5),
    (CrashPoint.SNAPSHOT_BEGIN, 1),
    (CrashPoint.SNAPSHOT_PRE_RENAME, 1),
    (CrashPoint.SNAPSHOT_POST_RENAME, 1),
    # The third save links the partitions untouched since the second.
    (CrashPoint.SNAPSHOT_PRE_RENAME, 2),
    (CrashPoint.SNAPSHOT_POST_RENAME, 2),
    (CrashPoint.SNAPSHOT_MID_FILES, 2),
])
def test_disk_lp_crash_matrix(lp_data, lp_baseline, tmp_path, point, after):
    """Kill mid-swap / mid-snapshot / between attaching a staged slot and
    completing the swap / between detaching a dirty partition and its
    write-back on the I/O thread; the resumed run must reach bit-identical
    final parameters."""
    injector = FaultInjector(point, after=after)
    every = _checkpoint_every(point)
    crashed = make_disk_lp(lp_data, tmp_path / "crashed",
                           checkpoint_dir=tmp_path / "ckpt",
                           checkpoint_every=every)
    FaultyStorage(crashed.node_store, injector)
    crashed.buffer.fault_hook = injector.fire
    crashed.snapshots.fault_hook = injector.fire
    with pytest.raises(CRASHES):
        crashed.train()
    assert injector.fired, f"crash point {point} never hit"

    resumed = _recover(lambda: make_disk_lp(
        lp_data, tmp_path / "resumed", checkpoint_dir=tmp_path / "ckpt",
        checkpoint_every=every))
    ref_table, ref_model = lp_baseline
    np.testing.assert_array_equal(resumed.node_store.read_all(), ref_table)
    assert _models_equal(resumed.model, ref_model)


@pytest.mark.slow
def test_disk_lp_torn_write_not_restored(lp_data, tmp_path):
    """A write-back torn by the crash leaves NaNs in the workdir memmap;
    resume() rewrites the store wholesale from the snapshot, so no NaN can
    survive into the recovered table."""
    injector = FaultInjector(CrashPoint.NODE_WRITE, after=4)
    crashed = make_disk_lp(lp_data, tmp_path / "w", checkpoint_dir=tmp_path / "c",
                           checkpoint_every=1)
    FaultyStorage(crashed.node_store, injector)
    with pytest.raises(CRASHES):
        crashed.train()
    assert np.isnan(crashed.node_store.read_all()).any()

    resumed = make_disk_lp(lp_data, tmp_path / "w2",
                           checkpoint_dir=tmp_path / "c")
    resumed.resume()
    assert not np.isnan(resumed.node_store.read_all()).any()
    assert not np.isnan(resumed.buffer.gather(
        resumed.buffer.resident_nodes())).any()


# ---------------------------------------------------------------------------
# Disk node classification: crash + resume
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nc_data():
    return load_papers100m_mini(num_nodes=800, num_edges=6400, feat_dim=8,
                                num_classes=5, seed=0)


def make_disk_nc(data, workdir, capacity=4, **kw):
    disk = DiskNodeClassificationConfig(workdir=workdir, num_partitions=8,
                                        buffer_capacity=capacity)
    return DiskNodeClassificationTrainer(data, NC_CFG, disk, **kw)


@pytest.fixture(scope="module")
def nc_baselines(nc_data, tmp_path_factory):
    """Uninterrupted models by buffer capacity: 4 holds the training
    partitions (one cached plan step per epoch, nothing to stage); 1 does
    not, so the fallback plan swaps and stages every step."""
    models = {}
    for capacity in (4, 1):
        trainer = make_disk_nc(nc_data, tmp_path_factory.mktemp("nc-base"),
                               capacity=capacity)
        trainer.train()
        models[capacity] = trainer.model
    return models


@pytest.mark.slow
@pytest.mark.parametrize("point,after,capacity", [
    # 4 reads fill the buffer in epoch 0; the 5th is a later epoch's swap.
    pytest.param(CrashPoint.NODE_READ, 4, 4, id="node-read-4"),
    pytest.param(CrashPoint.SNAPSHOT_PRE_RENAME, 1, 4,
                 id="snapshot-pre-rename-1"),
    pytest.param(CrashPoint.SNAPSHOT_POST_RENAME, 1, 4,
                 id="snapshot-post-rename-1"),
    pytest.param(CrashPoint.SWAP_EVICTED, 3, 1, id="fallback-swap-evicted-3"),
    pytest.param(CrashPoint.PREFETCH_STAGED, 2, 1,
                 id="fallback-prefetch-staged-2"),
    pytest.param(CrashPoint.NODE_READ, 5, 1, id="fallback-node-read-5"),
])
def test_disk_nc_crash_matrix(nc_data, nc_baselines, tmp_path, point, after,
                              capacity):
    """Kill nc-disk mid-read, mid-swap, after admitting a staged slot or
    mid-snapshot; the resumed run must reach bit-identical parameters."""
    injector = FaultInjector(point, after=after)
    crashed = make_disk_nc(nc_data, tmp_path / "crashed", capacity=capacity,
                           checkpoint_dir=tmp_path / "ckpt",
                           checkpoint_every=1)
    FaultyStorage(crashed.node_store, injector)
    crashed.buffer.fault_hook = injector.fire
    crashed.snapshots.fault_hook = injector.fire
    with pytest.raises(CRASHES):
        crashed.train()
    assert injector.fired, f"crash point {point} never hit"

    resumed = _recover(lambda: make_disk_nc(
        nc_data, tmp_path / "resumed", capacity=capacity,
        checkpoint_dir=tmp_path / "ckpt", checkpoint_every=1))
    assert _models_equal(resumed.model, nc_baselines[capacity])


# ---------------------------------------------------------------------------
# Determinism golden tests: checkpoint at epoch 1 of 3, resume, compare
# ---------------------------------------------------------------------------

def _three_epochs(cfg):
    return dataclasses.replace(cfg, num_epochs=3)


def _one_epoch(cfg):
    return dataclasses.replace(cfg, num_epochs=1)


@pytest.mark.slow
def test_golden_disk_lp_epoch_boundary(lp_data, tmp_path):
    cfg3, cfg1 = _three_epochs(LP_CFG), _one_epoch(LP_CFG)
    disk = lambda d: DiskConfig(workdir=tmp_path / d, num_partitions=8,
                                num_logical=4, buffer_capacity=4)
    straight = DiskLinkPredictionTrainer(lp_data, cfg3, disk("a"))
    straight.train()

    first = DiskLinkPredictionTrainer(lp_data, cfg1, disk("b"),
                                      checkpoint_dir=tmp_path / "ckpt")
    first.train()
    first.save_snapshot(1, 0, 1)

    second = DiskLinkPredictionTrainer(lp_data, cfg3, disk("c"),
                                       checkpoint_dir=tmp_path / "ckpt")
    meta = second.resume()
    assert (meta["epoch"], meta["step"]) == (1, 0)
    second.train()
    np.testing.assert_array_equal(second.node_store.read_all(),
                                  straight.node_store.read_all())
    assert _models_equal(second.model, straight.model)


@pytest.mark.slow
def test_golden_disk_nc_epoch_boundary(nc_data, tmp_path):
    cfg3, cfg1 = _three_epochs(NC_CFG), _one_epoch(NC_CFG)
    disk = lambda d: DiskNodeClassificationConfig(workdir=tmp_path / d,
                                                  num_partitions=8,
                                                  buffer_capacity=4)
    straight = DiskNodeClassificationTrainer(nc_data, cfg3, disk("a"))
    straight.train()

    first = DiskNodeClassificationTrainer(nc_data, cfg1, disk("b"),
                                          checkpoint_dir=tmp_path / "ckpt")
    first.train()
    first.save_snapshot(1, 0, 1)

    second = DiskNodeClassificationTrainer(nc_data, cfg3, disk("c"),
                                           checkpoint_dir=tmp_path / "ckpt")
    meta = second.resume()
    assert (meta["epoch"], meta["step"]) == (1, 0)
    second.train()
    assert _models_equal(second.model, straight.model)


# In-memory trainers by kind: (dataset fixture, constructor).
IN_MEMORY_TRAINERS = {
    "nc-mem": ("nc_data", lambda data, **kw: NodeClassificationTrainer(
        data, NC_CFG, **kw)),
    "lp-mem": ("lp_data", lambda data, **kw: LinkPredictionTrainer(
        data, LP_CFG, **kw)),
}


@pytest.fixture(scope="module")
def nc_mem_baseline(nc_data):
    trainer = NodeClassificationTrainer(nc_data, NC_CFG)
    trainer.train()
    return trainer


@pytest.fixture(scope="module")
def lp_mem_baseline(lp_data):
    trainer = LinkPredictionTrainer(lp_data, LP_CFG)
    trainer.train()
    return trainer


@pytest.mark.slow
@pytest.mark.parametrize("kind,point", [
    # nc-mem cases use the bare crash-point id so their test ids stay
    # stable.
    pytest.param(kind, point,
                 id=point if kind == "nc-mem" else f"{kind}-{point}")
    for kind in IN_MEMORY_TRAINERS
    for point in (CrashPoint.SNAPSHOT_BEGIN, CrashPoint.SNAPSHOT_PRE_RENAME,
                  CrashPoint.SNAPSHOT_POST_RENAME)])
def test_in_memory_nc_crash_matrix(request, tmp_path, kind, point):
    """The in-memory trainers (epoch-granularity snapshots) killed
    mid-save must recover bit-identically: either from the surviving
    snapshot or — when the crash landed before the first complete save —
    from scratch. For lp-mem that includes the embedding table."""
    data_fixture, make = IN_MEMORY_TRAINERS[kind]
    data = request.getfixturevalue(data_fixture)
    baseline = request.getfixturevalue(f"{kind.replace('-', '_')}_baseline")
    injector = FaultInjector(point, after=1)
    crashed = make(data, checkpoint_dir=tmp_path / "ckpt", checkpoint_every=1)
    crashed.snapshots.fault_hook = injector.fire
    with pytest.raises(SimulatedCrash):
        crashed.train()
    assert injector.fired, f"crash point {point} never hit"

    resumed = _recover(lambda: make(data, checkpoint_dir=tmp_path / "ckpt",
                                    checkpoint_every=1))
    if kind == "lp-mem":
        np.testing.assert_array_equal(resumed.embeddings.table,
                                      baseline.embeddings.table)
    assert _models_equal(resumed.model, baseline.model)


def test_golden_in_memory_nc(nc_data, tmp_path):
    """Epoch-boundary resume of the in-memory NC trainer is bit-identical
    to the uninterrupted run (closes the ROADMAP NC-resume item)."""
    cfg3, cfg1 = _three_epochs(NC_CFG), _one_epoch(NC_CFG)
    straight = NodeClassificationTrainer(nc_data, cfg3)
    straight.train()

    first = NodeClassificationTrainer(nc_data, cfg1,
                                      checkpoint_dir=tmp_path / "ckpt",
                                      checkpoint_every=1)
    first.train()
    second = NodeClassificationTrainer(nc_data, cfg3,
                                       checkpoint_dir=tmp_path / "ckpt")
    assert second.resume()["epoch"] == 1
    second.train()
    assert _models_equal(second.model, straight.model)


def test_nc_mem_resume_rejects_changed_dataset(nc_data, tmp_path):
    first = NodeClassificationTrainer(nc_data, _one_epoch(NC_CFG),
                                      checkpoint_dir=tmp_path / "ckpt",
                                      checkpoint_every=1)
    first.train()
    other = load_papers100m_mini(num_nodes=800, num_edges=6400, feat_dim=8,
                                 num_classes=5, seed=3)
    second = NodeClassificationTrainer(other, _one_epoch(NC_CFG),
                                       checkpoint_dir=tmp_path / "ckpt")
    with pytest.raises(SnapshotError, match="dataset"):
        second.resume()


def test_golden_in_memory_lp(lp_data, tmp_path):
    """The in-memory trainer shares the subsystem (epoch cadence)."""
    cfg3, cfg1 = _three_epochs(LP_CFG), _one_epoch(LP_CFG)
    straight = LinkPredictionTrainer(lp_data, cfg3)
    straight.train()

    first = LinkPredictionTrainer(lp_data, cfg1,
                                  checkpoint_dir=tmp_path / "ckpt",
                                  checkpoint_every=1)
    first.train()
    second = LinkPredictionTrainer(lp_data, cfg3,
                                   checkpoint_dir=tmp_path / "ckpt")
    assert second.resume()["epoch"] == 1
    second.train()
    np.testing.assert_array_equal(second.embeddings.table,
                                  straight.embeddings.table)
    assert _models_equal(second.model, straight.model)


# ---------------------------------------------------------------------------
# Snapshot hygiene: wrong-trainer / wrong-layout snapshots are rejected
# ---------------------------------------------------------------------------

def test_resume_rejects_wrong_trainer(lp_data, tmp_path):
    cfg1 = _one_epoch(LP_CFG)
    mem = LinkPredictionTrainer(lp_data, cfg1, checkpoint_dir=tmp_path / "ckpt",
                                checkpoint_every=1)
    mem.train()
    disk = make_disk_lp(lp_data, tmp_path / "w", checkpoint_dir=tmp_path / "ckpt")
    with pytest.raises(SnapshotError, match="trainer"):
        disk.resume()


def test_resume_rejects_changed_config(lp_data, tmp_path):
    """Cursors and rng states are only meaningful under the config that
    produced them: resuming with a different batch size would re-train some
    edges and desync the seeds, so it must be refused up front. Fields that
    only extend or re-report the run (num_epochs, eval cadence) may change."""
    cfg1 = _one_epoch(LP_CFG)
    first = LinkPredictionTrainer(lp_data, cfg1,
                                  checkpoint_dir=tmp_path / "ckpt",
                                  checkpoint_every=1)
    first.train()
    smaller_batches = dataclasses.replace(cfg1, num_epochs=3, batch_size=128)
    second = LinkPredictionTrainer(lp_data, smaller_batches,
                                   checkpoint_dir=tmp_path / "ckpt")
    with pytest.raises(SnapshotError, match="batch_size"):
        second.resume()
    longer = dataclasses.replace(cfg1, num_epochs=3, eval_max_edges=50)
    third = LinkPredictionTrainer(lp_data, longer,
                                  checkpoint_dir=tmp_path / "ckpt")
    assert third.resume()["epoch"] == 1


def test_resume_rejects_changed_dataset(lp_data, tmp_path):
    """The in-memory trainers have no store fingerprints; the dataset
    fingerprint must keep a resume from silently continuing on different
    training data of compatible shape."""
    cfg1 = _one_epoch(LP_CFG)
    first = LinkPredictionTrainer(lp_data, cfg1,
                                  checkpoint_dir=tmp_path / "ckpt",
                                  checkpoint_every=1)
    first.train()
    other_data = load_fb15k237(scale=0.03, seed=7)
    second = LinkPredictionTrainer(other_data, cfg1,
                                   checkpoint_dir=tmp_path / "ckpt")
    with pytest.raises(SnapshotError, match="dataset"):
        second.resume()


def test_resume_rejects_changed_partitioning(lp_data, tmp_path):
    cfg1 = _one_epoch(LP_CFG)
    a = make_disk_lp(lp_data, tmp_path / "a", checkpoint_dir=tmp_path / "ckpt",
                     checkpoint_every=1)
    a.train()
    other = DiskLinkPredictionTrainer(
        lp_data, cfg1,
        DiskConfig(workdir=tmp_path / "b", num_partitions=4, num_logical=2,
                   buffer_capacity=4),
        checkpoint_dir=tmp_path / "ckpt")
    with pytest.raises(SnapshotError, match="layout"):
        other.resume()


# ---------------------------------------------------------------------------
# Linked snapshots: a save rewrites only the partitions written since the
# previous save and hard-links the rest — disk LP trainer
# ---------------------------------------------------------------------------

def _inode(snap, name, part):
    return (snap / name / f"{part:05d}.npy").stat().st_ino


@pytest.fixture(scope="module")
def linked_run(lp_data, tmp_path_factory):
    """One lp-disk run snapshotting after every plan step, every snapshot
    retained. Per save it records, independently of the store's own write
    stamps: the store's table and state at the save, the partitions
    written through ``write_partition``/``write_span`` since the previous
    save, and the event's ``linked`` count."""
    tmp = tmp_path_factory.mktemp("linked")
    trainer = make_disk_lp(lp_data, tmp / "w", checkpoint_dir=tmp / "c",
                           checkpoint_every=1)
    trainer.snapshots.keep = 1000
    store, written, saves = trainer.node_store, set(), []
    write_partition, write_span = store.write_partition, store.write_span

    def on_partition(part, data, state=None):
        written.add(int(part))
        write_partition(part, data, state)

    def on_span(start, data, state=None):
        bounds = store.scheme.boundaries
        written.update(p for p in range(store.num_partitions)
                       if bounds[p] < start + len(data)
                       and bounds[p + 1] > start)
        write_span(start, data, state)

    def on_event(event, payload):
        if event == "snapshot":
            saves.append((Path(payload["path"]), store.read_all(),
                          store.read_all_state(), set(written),
                          payload["linked"]))
            written.clear()

    store.write_partition, store.write_span = on_partition, on_span
    trainer.add_listener(on_event)
    trainer.train()
    yield trainer, saves
    store.close()


class TestLinkedSnapshots:
    """Every lp-disk save after the first in a process links exactly the
    partition files the store did not write since the previous save, and
    every snapshot stays complete on its own."""

    def test_every_snapshot_loads_bit_equal_to_the_store_at_its_save(
            self, linked_run):
        trainer, saves = linked_run
        assert len(saves) >= 3
        for path, table, state, _, _ in saves:
            _, arrays = trainer.snapshots.load(path)
            np.testing.assert_array_equal(arrays["node_table"], table)
            np.testing.assert_array_equal(arrays["node_state"], state)

    def test_links_exactly_the_partitions_not_written_since(self,
                                                           linked_run):
        trainer, saves = linked_run
        parts = set(range(trainer.scheme.num_partitions))
        assert saves[0][4] == 0              # nothing to link from yet
        linked_any = rewrote_any = False
        for prev, cur in zip(saves, saves[1:]):
            path, written, linked_count = cur[0], cur[3], cur[4]
            for name in ("node_table", "node_state"):
                linked = {p for p in parts
                          if _inode(path, name, p) == _inode(prev[0], name, p)}
                assert linked == parts - written, (path.name, name)
            assert linked_count == 2 * len(parts - written)
            linked_any |= bool(parts - written)
            rewrote_any |= bool(written)
        assert linked_any and rewrote_any    # both halves on one run

    def test_later_saves_write_fewer_bytes_than_the_first(self, linked_run):
        _, saves = linked_run

        def new_bytes(path, prev):
            return sum(f.stat().st_size for f in path.rglob("*.npy")
                       if prev is None
                       or f.stat().st_ino != (prev / f.relative_to(path))
                       .stat().st_ino)

        paths = [save[0] for save in saves]
        sizes = [new_bytes(p, q) for p, q in zip(paths, [None] + paths)]
        assert min(sizes[1:]) < sizes[0]

    def test_restore_for_inference_reads_a_linked_snapshot(self, linked_run):
        from repro.train import Snapshot
        _, saves = linked_run
        path, table, _, _, linked = next(s for s in reversed(saves) if s[4])
        np.testing.assert_array_equal(Snapshot(path)["node_table"], table)

    def test_keep_one_survives_pruning_its_link_source(self, lp_data,
                                                      tmp_path):
        trainer = make_disk_lp(lp_data, tmp_path / "w",
                               checkpoint_dir=tmp_path / "c",
                               checkpoint_every=1)
        trainer.snapshots.keep = 1
        trainer.train()
        assert len(trainer.snapshots.list()) == 1
        assert trainer.snapshots.linked > 0   # its link source is gone
        meta, arrays = trainer.snapshots.load()   # every CRC checked
        np.testing.assert_array_equal(arrays["node_table"],
                                      trainer.node_store.read_all())

    def test_in_process_resume_links_every_partition(self, lp_data,
                                                     tmp_path):
        """A resume links the snapshot's files back into the store, so the
        next save finds the same files again and reuses every CRC."""
        trainer = make_disk_lp(lp_data, tmp_path / "w",
                               checkpoint_dir=tmp_path / "c",
                               checkpoint_every=2)
        trainer.train()
        trainer.save_snapshot(LP_CFG.num_epochs)
        trainer.save_snapshot(LP_CFG.num_epochs)
        assert trainer.snapshots.linked == 16    # nothing written since
        trainer.resume()
        latest, store = trainer.snapshots.latest(), trainer.node_store
        assert all(os.path.samefile(store.path / rel, latest / rel)
                   for rel in store.files())
        path = trainer.save_snapshot(LP_CFG.num_epochs)
        assert trainer.snapshots.linked == 16
        trainer.snapshots.load(path)             # every reused CRC holds


class TestStoreLayoutIsTheSnapshotLayout:
    """The store's partition files are the snapshot's: a save links them,
    a resume links them back, and a write to a linked file replaces it."""

    def test_save_links_every_file_and_moves_no_table_bytes(self, lp_data,
                                                            tmp_path):
        trainer = make_disk_lp(lp_data, tmp_path / "w",
                               checkpoint_dir=tmp_path / "c")
        trainer.train()
        trainer.buffer.flush()
        before = trainer.node_store.stats.snapshot()
        path = trainer.save_snapshot(LP_CFG.num_epochs)
        saved = trainer.node_store.stats.diff(before)
        assert (saved.bytes_read, saved.bytes_written) == (0, 0)
        files = sorted(path.glob("node_*/*.npy"))
        assert len(files) == 16
        assert all(f.stat().st_nlink >= 2 for f in files)

    def test_writes_after_a_save_leave_the_snapshot_unchanged(self, lp_data,
                                                              tmp_path):
        """Copy-on-write: training on until every partition has been
        written back replaces the store's files, never the snapshot's."""
        trainer = make_disk_lp(lp_data, tmp_path / "w",
                               checkpoint_dir=tmp_path / "c")
        trainer.train()
        path = trainer.save_snapshot(LP_CFG.num_epochs)
        store = trainer.node_store
        table, state = store.read_all(), store.read_all_state()
        saved_bytes = {f: f.read_bytes() for f in path.rglob("node_*/*.npy")}
        written = set()
        write_partition = store.write_partition

        def on_partition(part, data, state=None):
            written.add(int(part))
            write_partition(part, data, state)

        store.write_partition = on_partition
        trainer.train()
        assert written == set(range(store.num_partitions))
        assert not np.array_equal(store.read_all(), table)
        _, arrays = trainer.snapshots.load(path)        # every CRC holds
        np.testing.assert_array_equal(arrays["node_table"], table)
        np.testing.assert_array_equal(arrays["node_state"], state)
        assert all(f.read_bytes() == data for f, data in saved_bytes.items())

    def test_restore_moves_no_table_bytes(self, lp_data, tmp_path):
        trainer = make_disk_lp(lp_data, tmp_path / "w",
                               checkpoint_dir=tmp_path / "c")
        trainer.train()
        path = trainer.save_snapshot(LP_CFG.num_epochs)
        table = trainer.node_store.read_all()
        other = make_disk_lp(lp_data, tmp_path / "w2")
        _, arrays = trainer.snapshots.load(path)
        before = other.node_store.stats.snapshot()
        other.node_store.link_from(arrays.path)
        moved = other.node_store.stats.diff(before)
        assert (moved.bytes_read, moved.bytes_written) == (0, 0)
        np.testing.assert_array_equal(other.node_store.read_all(), table)

    def test_link_failure_falls_back_to_copies(self, lp_data, lp_baseline,
                                               tmp_path, monkeypatch):
        """With ``os.link`` failing as across filesystems (EXDEV), saves
        copy the store's files and a resume copies them back: every
        snapshot verifies and the resumed run is bit-identical."""
        def no_link(src, dst, *args, **kwargs):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", no_link)
        first = make_disk_lp(lp_data, tmp_path / "w",
                             checkpoint_dir=tmp_path / "c",
                             checkpoint_every=2)
        first.snapshots.keep = 100
        first.train()
        snaps = first.snapshots.list()
        assert len(snaps) >= 2 and first.snapshots.linked == 0
        for snap in snaps:
            first.snapshots.load(snap)
            assert all(f.stat().st_nlink == 1
                       for f in snap.glob("node_*/*.npy"))
        resumed = make_disk_lp(lp_data, tmp_path / "w2")
        resumed.resume(snaps[0])
        resumed.train()
        ref_table, ref_model = lp_baseline
        np.testing.assert_array_equal(resumed.node_store.read_all(),
                                      ref_table)
        assert _models_equal(resumed.model, ref_model)

    @pytest.mark.parametrize("failing", ["node_state", "node_table"])
    def test_crash_during_growth_leaves_the_old_file(self, tmp_path,
                                                     monkeypatch, failing):
        """A fault between the temp write and the rename of a grown last
        partition leaves its old file intact plus a ``.tmp``, which the
        next open sweeps; the store reopens at its old size."""
        from repro.graph.partition import PartitionScheme
        from repro.storage import NodeStore
        scheme = PartitionScheme.uniform(40, 4)
        store = NodeStore(tmp_path / "s", scheme, dim=4, learnable=True)
        store.initialize(rng=np.random.default_rng(0))
        table = store.read_all()
        last = {name: (tmp_path / "s" / name / "00003.npy").read_bytes()
                for name in store.tables}
        real_replace = os.replace

        def crash(src, dst):
            if Path(src).parent.name == failing:
                raise SimulatedCrash(f"crash before renaming {src}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(SimulatedCrash):
            store.grow(scheme.extended(3), np.ones((3, 4), dtype=np.float32))
        monkeypatch.undo()
        assert (tmp_path / "s" / failing / "00003.npy.tmp").exists()
        assert (tmp_path / "s" / failing / "00003.npy").read_bytes() == \
            last[failing]
        reopened = NodeStore.open(tmp_path / "s", scheme, dim=4,
                                  truncate=True)
        assert not list((tmp_path / "s").rglob("*.tmp"))
        np.testing.assert_array_equal(reopened.read_all(), table)
        assert all((tmp_path / "s" / name / "00003.npy").read_bytes()
                   == data for name, data in last.items())


class TestIncrementalSnapshots:
    """Saves stay incremental across a resume: the first save after it
    writes every partition, since the manager has no previous save of its
    own to link from, and later saves link again."""

    def test_resume_from_delta_continues_the_chain(self, lp_data, tmp_path):
        first = make_disk_lp(lp_data, tmp_path / "w",
                             checkpoint_dir=tmp_path / "c",
                             checkpoint_every=2)
        first.train()
        assert first.snapshots.linked > 0    # the resumed snapshot links
        linked = []
        second = DiskLinkPredictionTrainer(
            lp_data, _three_epochs(LP_CFG),
            DiskConfig(workdir=tmp_path / "w2", num_partitions=8,
                       num_logical=4, buffer_capacity=4),
            checkpoint_dir=tmp_path / "c", checkpoint_every=1,
            listeners=[lambda event, payload: linked.append(
                payload["linked"]) if event == "snapshot" else None])
        second.resume()
        second.train()
        assert linked[0] == 0 and max(linked[1:]) > 0
        _, arrays = second.snapshots.load()
        np.testing.assert_array_equal(arrays["node_table"],
                                      second.node_store.read_all())

    def test_foreign_resume_falls_back_to_a_full_save(self, lp_data,
                                                      tmp_path):
        """A snapshot outside the trainer's own checkpoint root is never a
        link source: the next save writes every partition."""
        first = make_disk_lp(lp_data, tmp_path / "w",
                             checkpoint_dir=tmp_path / "foreign",
                             checkpoint_every=0)
        first.train()
        first.save_snapshot(LP_CFG.num_epochs)

        second = make_disk_lp(lp_data, tmp_path / "w2",
                              checkpoint_dir=tmp_path / "own",
                              checkpoint_every=0)
        second.resume(first.snapshots.latest())
        second.save_snapshot(LP_CFG.num_epochs)
        assert second.snapshots.linked == 0
        second.save_snapshot(LP_CFG.num_epochs)   # ...and it links from now
        assert second.snapshots.linked == 16


@pytest.mark.slow
@pytest.mark.parametrize("point,after", [
    (CrashPoint.NODE_WRITE, 6),
    (CrashPoint.SWAP_EVICTED, 3),
    (CrashPoint.WRITEBACK_PENDING, 7),
])
def test_disk_lp_incremental_crash_matrix(lp_data, lp_baseline, tmp_path,
                                          point, after):
    """The crash matrix holds when only one snapshot is kept, so saves
    link partition files from snapshots pruned right after: a killed run
    resumed this way reaches bit-identical final parameters."""
    injector = FaultInjector(point, after=after)
    every = _checkpoint_every(point)
    crashed = make_disk_lp(lp_data, tmp_path / "crashed",
                           checkpoint_dir=tmp_path / "ckpt",
                           checkpoint_every=every)
    crashed.snapshots.keep = 1
    linked = []

    def on_event(event, payload):
        if event == "snapshot":
            linked.append(payload["linked"])

    crashed.add_listener(on_event)
    FaultyStorage(crashed.node_store, injector)
    crashed.buffer.fault_hook = injector.fire
    crashed.snapshots.fault_hook = injector.fire
    with pytest.raises(CRASHES):
        crashed.train()
    assert injector.fired, f"crash point {point} never hit"
    assert len(crashed.snapshots.list()) == 1

    def make_resumed():
        trainer = make_disk_lp(lp_data, tmp_path / "resumed",
                               checkpoint_dir=tmp_path / "ckpt",
                               checkpoint_every=every, listeners=[on_event])
        trainer.snapshots.keep = 1
        return trainer

    resumed = _recover(make_resumed)
    assert max(linked) > 0
    assert len(resumed.snapshots.list()) == 1
    ref_table, ref_model = lp_baseline
    np.testing.assert_array_equal(resumed.node_store.read_all(), ref_table)
    assert _models_equal(resumed.model, ref_model)


# ---------------------------------------------------------------------------
# The one training loop: snapshot/resume and cadence contract of every kind
# ---------------------------------------------------------------------------

def _job_spec(kind, tmp_path, epochs, ckpt):
    from repro.api import JobSpec
    lp = kind.startswith("lp")
    spec = {"kind": kind, "checkpoint": {"dir": str(ckpt)},
            "data": ({"dataset": "fb15k237", "scale": 0.03} if lp else
                     {"nodes": 800, "edges": 6400, "feat_dim": 8,
                      "classes": 5, "seed": 0}),
            "model": {"dim": 8, "fanouts": [4]},
            "train": {"epochs": epochs, "batch_size": 256 if lp else 128,
                      "seed": 0, "eval_every": 0}}
    if lp:
        spec["train"].update(negatives=16, eval_negatives=32,
                             eval_max_edges=100)
    if kind.endswith("disk"):
        spec["storage"] = {"workdir": str(tmp_path), "partitions": 8,
                           "buffer": 4}
        if lp:
            spec["storage"]["logical"] = 4
    return JobSpec.from_dict(spec)


def _trained_state(trainer):
    state = dict(trainer.model.state_dict())
    if trainer.KIND == "lp-mem":
        state["table"] = trainer.embeddings.table
    elif trainer.KIND == "lp-disk":
        state["table"] = trainer.node_store.read_all()
    return state


@pytest.mark.parametrize("kind", ["lp-mem", "lp-disk", "nc-mem", "nc-disk"])
def test_job_snapshot_resumes_bit_identically(kind, tmp_path):
    """Every kind's job.snapshot() writes the same (epoch, step) cursor,
    and training on from it matches an uninterrupted run bit for bit."""
    from repro import api
    first = api.build_job(_job_spec(kind, tmp_path / "a", 1, tmp_path / "ck"))
    first.run()
    meta = json.loads((first.snapshot() / "manifest.json").read_text())["meta"]
    assert (meta["epoch"], meta["step"]) == (1, 0)

    resumed = api.build_job(_job_spec(kind, tmp_path / "b", 2,
                                      tmp_path / "ck"))
    resumed.resume()
    resumed.run()
    straight = api.build_job(_job_spec(kind, tmp_path / "c", 2,
                                       tmp_path / "ck-c"))
    straight.run()
    got, want = _trained_state(resumed.trainer), _trained_state(
        straight.trainer)
    assert set(got) == set(want)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_in_memory_snapshot_without_step_still_resumes(lp_data, tmp_path):
    """Snapshots written before the step cursor existed carry only
    ``epoch``; they resume at that epoch's start, counting one plan step
    per epoch for the cadence."""
    first = LinkPredictionTrainer(lp_data, _one_epoch(LP_CFG),
                                  checkpoint_dir=tmp_path / "ckpt",
                                  checkpoint_every=1)
    first.train()
    manifest_path = first.snapshots.latest() / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["meta"]["step"], manifest["meta"]["global_step"]
    manifest_path.write_text(json.dumps(manifest))   # the CRC covers arrays

    cursors = []
    second = LinkPredictionTrainer(
        lp_data, _three_epochs(LP_CFG), checkpoint_dir=tmp_path / "ckpt",
        checkpoint_every=2, listeners=[
            lambda e, p: e == "snapshot" and cursors.append(
                (p["epoch"], p["step"]))])
    assert second.resume()["epoch"] == 1
    second.train()
    assert cursors == [(2, 0)]
    straight = LinkPredictionTrainer(lp_data, _three_epochs(LP_CFG))
    straight.train()
    np.testing.assert_array_equal(second.embeddings.table,
                                  straight.embeddings.table)
    assert _models_equal(second.model, straight.model)


def _snapshot_cursors(make, **kw):
    cursors = []
    trainer = make(listeners=[lambda e, p: e == "snapshot" and cursors.append(
        (p["epoch"], p["step"]))], **kw)
    return trainer, cursors


def test_cadence_after_resume_counts_global_plan_steps(lp_data, tmp_path):
    """checkpoint_every counts plan steps since epoch 0 step 0, so a run
    resumed from a snapshot off the cadence still snapshots exactly where
    the uninterrupted run does (the count travels in the snapshot)."""
    cfg2 = dataclasses.replace(LP_CFG, num_epochs=2)
    make = lambda name, cfg, **kw: DiskLinkPredictionTrainer(
        lp_data, cfg, DiskConfig(workdir=tmp_path / name, num_partitions=8,
                                 num_logical=4, buffer_capacity=4), **kw)
    # Epoch 0 alone, a snapshot after every step: its last is (1, 0).
    first, epoch0 = _snapshot_cursors(
        lambda **kw: make("a", _one_epoch(LP_CFG), **kw),
        checkpoint_dir=tmp_path / "ckpt", checkpoint_every=1)
    first.train()
    steps = len(epoch0)
    assert steps >= 3 and epoch0[-1] == (1, 0)
    every = steps - 1                  # off the epoch boundary

    straight, want = _snapshot_cursors(
        lambda **kw: make("b", cfg2, **kw),
        checkpoint_dir=tmp_path / "ckpt-b", checkpoint_every=every)
    straight.train()
    resumed, got = _snapshot_cursors(
        lambda **kw: make("c", cfg2, **kw),
        checkpoint_dir=tmp_path / "ckpt", checkpoint_every=every)
    resumed.resume()
    resumed.train()
    assert got and got == [c for c in want if c > (1, 0)]


def test_in_memory_cadence_after_resume_counts_epochs(nc_data, tmp_path):
    """One plan step per epoch: checkpoint_every counts epochs, across a
    resume too."""
    make = lambda cfg, **kw: NodeClassificationTrainer(nc_data, cfg, **kw)
    first = make(_one_epoch(NC_CFG), checkpoint_dir=tmp_path / "ckpt",
                 checkpoint_every=1)
    first.train()
    cfg4 = dataclasses.replace(NC_CFG, num_epochs=4)
    resumed, got = _snapshot_cursors(
        lambda **kw: make(cfg4, **kw), checkpoint_dir=tmp_path / "ckpt",
        checkpoint_every=2)
    resumed.resume()
    resumed.train()
    assert got == [(2, 0), (4, 0)]

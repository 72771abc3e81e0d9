"""Failure-injection and durability tests for the storage/training stack."""

import numpy as np
import pytest

from repro.graph import PartitionScheme, load_fb15k237, power_law_graph
from repro.nn import RowAdagrad
from repro.storage import (EdgeBucketStore, NodeStore, PartitionBuffer,
                           PrefetchError)
from repro.train import DiskConfig, DiskLinkPredictionTrainer, LinkPredictionConfig


class TestPrefetchWorkerFailures:
    """Regression: I/O-thread exceptions used to die silently inside the
    daemon thread; they must surface at the next wait()/load_step/
    finish() with the original error chained."""

    def _store(self, tmp_path, boom_part=None):
        scheme = PartitionScheme.uniform(40, 4)
        store = NodeStore(tmp_path / "p.bin", scheme, dim=4, learnable=True)
        store.initialize(rng=np.random.default_rng(0))
        if boom_part is not None:
            real = store.read_partition

            def faulty(part, out=None):
                if part == boom_part:
                    raise OSError(f"disk gone while reading {part}")
                return real(part, out=out)

            store.read_partition = faulty
        return store

    def test_worker_error_surfaces_on_next_load_step(self, tmp_path):
        store = self._store(tmp_path, boom_part=3)
        buf = PartitionBuffer(store, 2)
        buf.load_step([0, 1], next_partitions=[0, 3])
        with pytest.raises(PrefetchError) as info:
            buf.load_step([0, 3])
        assert isinstance(info.value.__cause__, OSError)

    def test_worker_error_surfaces_on_finish(self, tmp_path):
        """Shutdown must not swallow a dead worker either."""
        store = self._store(tmp_path, boom_part=2)
        buf = PartitionBuffer(store, 2)
        buf.load_step([0, 1], next_partitions=[2])
        with pytest.raises(PrefetchError):
            buf.finish()

    def test_error_cleared_after_surfacing(self, tmp_path):
        """One failure is reported once; the buffer stays usable."""
        store = self._store(tmp_path, boom_part=3)
        buf = PartitionBuffer(store, 2)
        buf.load_step([0, 1], next_partitions=[3])
        with pytest.raises(PrefetchError):
            buf.load_step([0, 1])
        assert buf.load_step([0, 2]) == 2  # evict 1, admit 2

    def test_reset_discards_pending_error(self, tmp_path):
        """The resume path drops staged data and the moot worker error."""
        store = self._store(tmp_path, boom_part=3)
        buf = PartitionBuffer(store, 2)
        buf.load_step([0, 1], next_partitions=[3])
        buf.reset()
        assert buf.load_step([0, 2]) == 2  # evict 1, admit 2


class TestCrashConsistency:
    def test_flush_midway_makes_disk_consistent(self, tmp_path):
        """If training stops after the epoch-end finish(), a re-opened store
        sees every update (the I/O thread writes evicted partitions back)."""
        scheme = PartitionScheme.uniform(40, 4)
        store = NodeStore(tmp_path / "a.bin", scheme, dim=4, learnable=True)
        store.initialize(rng=np.random.default_rng(0))
        buf = PartitionBuffer(store, 2, optimizer=RowAdagrad(lr=0.5))
        buf.load_step([0, 1])
        buf.apply_gradients(np.array([1, 12]), np.ones((2, 4), dtype=np.float32))
        updated = buf.gather(np.array([1, 12])).copy()
        buf.finish()
        store.flush()

        # Simulate a crash + restart: a new store over the same files.
        reopened = NodeStore.open(tmp_path / "a.bin", scheme, dim=4)
        np.testing.assert_allclose(reopened.read_all()[[1, 12]], updated)

    def test_unflushed_updates_stay_in_buffer_only(self, tmp_path):
        """Without a flush or an eviction, disk still holds the old values
        (the buffer is the write cache, not write-through)."""
        scheme = PartitionScheme.uniform(40, 4)
        store = NodeStore(tmp_path / "b.bin", scheme, dim=4, learnable=True)
        store.initialize(rng=np.random.default_rng(0))
        original = store.read_rows(np.array([5]))
        buf = PartitionBuffer(store, 2, optimizer=RowAdagrad(lr=0.5))
        buf.load_step([0])
        buf.apply_gradients(np.array([5]), np.ones((1, 4), dtype=np.float32))
        raw = NodeStore.open(tmp_path / "b.bin", scheme, dim=4)
        np.testing.assert_allclose(raw.read_all()[5], original[0])


class TestBadInputs:
    def test_empty_edge_bucket_store(self, tmp_path):
        from repro.graph import Graph
        g = Graph(num_nodes=10, src=np.empty(0, dtype=np.int64),
                  dst=np.empty(0, dtype=np.int64))
        scheme = PartitionScheme.uniform(10, 2)
        es = EdgeBucketStore(tmp_path / "e.bin", g, scheme)
        assert es.num_edges == 0
        sub = es.subgraph_for_partitions([0, 1])
        assert sub.num_edges == 0

    def test_trainer_with_empty_step_buckets(self, tmp_path):
        """Plans can contain steps with zero assigned buckets; the trainer
        must skip them without crashing (COMET produces these)."""
        data = load_fb15k237(scale=0.03, seed=0)
        cfg = LinkPredictionConfig(embedding_dim=8, num_layers=1, fanouts=(4,),
                                   batch_size=128, num_negatives=16,
                                   num_epochs=1, eval_negatives=32,
                                   eval_max_edges=100, seed=0)
        # Small graph + many partitions: some steps will be nearly empty.
        disk = DiskConfig(workdir=tmp_path, num_partitions=16, num_logical=8,
                          buffer_capacity=4)
        result = DiskLinkPredictionTrainer(data, cfg, disk).train()
        assert np.isfinite(result.final_mrr)

    def test_single_node_batch(self):
        from repro.core import DenseSampler
        g = power_law_graph(100, 800, seed=0)
        sampler = DenseSampler(g, [5, 5], rng=np.random.default_rng(0))
        batch = sampler.sample(np.array([7]))
        batch.validate()
        np.testing.assert_array_equal(batch.target_nodes(), [7])

    def test_all_isolated_targets(self):
        """Targets with no in-memory edges: DENSE degenerates gracefully to
        self-representations (the disk-training corner where a partition set
        holds no edges touching the batch)."""
        from repro.core import DenseSampler, GNNEncoder
        from repro.graph import Graph
        from repro.nn import Tensor
        g = Graph(num_nodes=10, src=np.array([0]), dst=np.array([1]))
        sampler = DenseSampler(g, [5], rng=np.random.default_rng(0))
        batch = sampler.sample(np.array([5, 6, 7]))
        batch.validate()
        assert len(batch.nbrs) == 0
        enc = GNNEncoder("graphsage", [4, 4], rng=np.random.default_rng(0))
        out = enc(Tensor(np.ones((batch.num_nodes, 4), dtype=np.float32)), batch)
        assert out.shape == (3, 4)
        assert np.isfinite(out.data).all()

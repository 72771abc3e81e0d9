"""Storage layer tests: memmap node/edge stores, partition buffer, IO stats."""

import sys
import threading

import numpy as np
import pytest

from repro.graph import PartitionScheme, power_law_graph
from repro.nn import RowAdagrad
from repro.storage import (EdgeBucketStore, IOStats, NodeStore,
                           PartitionBuffer, PrefetchingBufferManager)


@pytest.fixture
def store(tmp_path):
    scheme = PartitionScheme.uniform(100, 4)
    s = NodeStore(tmp_path / "emb.bin", scheme, dim=8, learnable=True)
    s.initialize(rng=np.random.default_rng(0))
    return s


class TestIOStats:
    def test_counters(self):
        io = IOStats()
        io.record_read(100)
        io.record_read(50)
        io.record_write(30)
        assert io.bytes_read == 150 and io.num_reads == 2
        assert io.bytes_written == 30 and io.num_writes == 1
        assert io.total_bytes == 180
        assert io.smallest_read == 50

    def test_diff(self):
        io = IOStats()
        io.record_read(10)
        snap = io.snapshot()
        io.record_read(5)
        io.record_write(7)
        d = io.diff(snap)
        assert d.bytes_read == 5 and d.bytes_written == 7
        assert d.num_reads == 1 and d.smallest_read == 5
        assert io.diff(io.snapshot()).smallest_read == 0   # no reads since

    def test_reset(self):
        io = IOStats()
        io.record_read(10)
        io.reset()
        assert io.total_bytes == 0 and io.smallest_read == 0

    def test_read_accounting_is_constant_size(self):
        """Serving workers and always-on streams read forever: 100k reads
        leave the counters as a handful of ints, with the same R."""
        import dataclasses
        io = IOStats()
        for i in range(100_000):
            io.record_read(4096 + (i * 7919) % 1000)
        assert io.num_reads == 100_000
        assert io.smallest_read == 4096
        assert io.as_dict()["smallest_read"] == 4096
        for snap in (io, io.snapshot(), io.diff(IOStats())):
            assert all(isinstance(getattr(snap, f.name), int)
                       for f in dataclasses.fields(snap) if f.init)

    def test_two_threads_lose_no_counts(self):
        """The partition I/O thread and the training thread count into one
        IOStats; a forced thread switch inside ``+=`` must not drop any."""
        io = IOStats()
        workers, n = 4, 25_000

        def work():
            for _ in range(n):
                io.record_read(8)
                io.record_write(8)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = workers * n
        assert (io.bytes_read, io.num_reads, io.smallest_read) == (
            8 * total, total, 8)
        assert (io.bytes_written, io.num_writes) == (8 * total, total)


class TestNodeStore:
    def test_partition_roundtrip(self, store):
        data, state = store.read_partition(2)
        assert data.shape == (25, 8)
        data[:] = 7.0
        state[:] = 1.0
        store.write_partition(2, data, state)
        again, st2 = store.read_partition(2)
        assert (again == 7.0).all() and (st2 == 1.0).all()

    def test_partitions_independent(self, store):
        d0, s0 = store.read_partition(0)
        store.write_partition(0, np.zeros_like(d0), s0)
        d1, _ = store.read_partition(1)
        assert not (d1 == 0).all()

    def test_initialize_values(self, tmp_path):
        scheme = PartitionScheme.uniform(10, 2)
        s = NodeStore(tmp_path / "f.bin", scheme, dim=3, learnable=False)
        values = np.arange(30, dtype=np.float32).reshape(10, 3)
        s.initialize(values=values)
        np.testing.assert_array_equal(s.read_all(), values)

    def test_initialize_shape_check(self, store):
        with pytest.raises(ValueError):
            store.initialize(values=np.zeros((5, 8), dtype=np.float32))

    def test_write_shape_check(self, store):
        with pytest.raises(ValueError):
            store.write_partition(0, np.zeros((3, 8), dtype=np.float32))

    def test_io_accounting(self, store):
        before = store.stats.bytes_read
        store.read_partition(0)
        # embeddings + optimizer state, 25 rows x 8 dims x 4 bytes each
        assert store.stats.bytes_read - before == 2 * 25 * 8 * 4
        assert store.stats.partition_loads == 1

    def test_read_rows(self, store):
        rows = store.read_rows(np.array([0, 50, 99]))
        assert rows.shape == (3, 8)

    def test_persistence_across_reopen(self, tmp_path):
        scheme = PartitionScheme.uniform(10, 2)
        s = NodeStore(tmp_path / "p.bin", scheme, dim=2, learnable=False)
        s.initialize(values=np.ones((10, 2), dtype=np.float32))
        s.flush()
        raw = np.memmap(tmp_path / "p.bin", dtype=np.float32, shape=(10, 2))
        np.testing.assert_array_equal(np.array(raw), np.ones((10, 2)))


class TestEdgeBucketStore:
    def test_bucket_reads_match_partitioning(self, tmp_path):
        g = power_law_graph(60, 600, num_relations=3, seed=0)
        scheme = PartitionScheme.uniform(60, 3)
        es = EdgeBucketStore(tmp_path / "e.bin", g, scheme)
        total = 0
        for i in range(3):
            for j in range(3):
                edges = es.read_bucket(i, j)
                total += len(edges)
                if len(edges):
                    assert (scheme.partition_of(edges[:, 0]) == i).all()
                    assert (scheme.partition_of(edges[:, -1]) == j).all()
        assert total == g.num_edges

    def test_subgraph_io_accounting(self, tmp_path):
        g = power_law_graph(60, 600, seed=1)
        scheme = PartitionScheme.uniform(60, 3)
        io = IOStats()
        es = EdgeBucketStore(tmp_path / "e.bin", g, scheme, stats=io)
        before = io.bytes_read
        es.subgraph_for_partitions([0, 1])
        assert io.bytes_read > before
        mid = io.bytes_read
        es.subgraph_for_partitions([0, 1], record_io=False)
        assert io.bytes_read == mid

    def test_smallest_read_shrinks_with_more_partitions(self, tmp_path):
        """Section 6: edge-bucket size decreases quadratically in p, so the
        smallest disk read shrinks — the driver of the p = alpha4 rule."""
        g = power_law_graph(200, 4000, seed=2)
        sizes = []
        for p in (2, 8):
            io = IOStats()
            es = EdgeBucketStore(tmp_path / f"e{p}.bin",
                                 g, PartitionScheme.uniform(200, p), stats=io)
            for i in range(p):
                for j in range(p):
                    es.read_bucket(i, j)
            sizes.append(io.bytes_read / io.num_reads)
        assert sizes[1] < sizes[0]


class TestPartitionBuffer:
    def make(self, tmp_path, capacity=2):
        scheme = PartitionScheme.uniform(40, 4)
        store = NodeStore(tmp_path / "b.bin", scheme, dim=4, learnable=True)
        store.initialize(rng=np.random.default_rng(0))
        return store, PartitionBuffer(store, capacity, optimizer=RowAdagrad(lr=0.5))

    def test_admit_evict_cycle(self, tmp_path):
        _, buf = self.make(tmp_path)
        buf.admit(0)
        buf.admit(1)
        assert buf.resident == [0, 1]
        with pytest.raises(RuntimeError):
            buf.admit(2)
        buf.detach(0)
        buf.admit(2)
        assert buf.resident == [1, 2]

    def test_evict_not_resident(self, tmp_path):
        _, buf = self.make(tmp_path)
        with pytest.raises(KeyError):
            buf.detach(3)

    def test_dirty_detach_needs_a_manager(self, tmp_path):
        """Without a manager nothing can write a dirty partition back, so
        swapping it out raises instead of dropping the update."""
        store, buf = self.make(tmp_path)
        buf.set_partitions([0, 1])
        buf.apply_gradients(np.array([5]), np.ones((1, 4), dtype=np.float32))
        with pytest.raises(RuntimeError, match="dirty"):
            buf.set_partitions([1, 2])
        assert buf.resident == [0, 1]
        buf.flush()
        buf.set_partitions([1, 2])    # clean now: detaching frees the slot
        assert buf.resident == [1, 2]

    def test_set_partitions_diffs(self, tmp_path):
        _, buf = self.make(tmp_path)
        moved = buf.set_partitions([0, 1])
        assert moved == 2
        moved = buf.set_partitions([1, 2])
        assert moved == 2  # evict 0, admit 2
        moved = buf.set_partitions([1, 2])
        assert moved == 0

    def test_capacity_enforced(self, tmp_path):
        _, buf = self.make(tmp_path)
        with pytest.raises(ValueError):
            buf.set_partitions([0, 1, 2])

    def test_gather_requires_residency(self, tmp_path):
        _, buf = self.make(tmp_path)
        buf.set_partitions([0, 1])
        rows = buf.gather(np.array([0, 15]))
        assert rows.shape == (2, 4)
        with pytest.raises(KeyError):
            buf.gather(np.array([35]))  # partition 3 not resident

    def test_updates_written_back_on_evict(self, tmp_path):
        store, buf = self.make(tmp_path)
        mgr = PrefetchingBufferManager(buf)
        mgr.load_step([0, 1])
        before = buf.gather(np.array([5]))
        buf.apply_gradients(np.array([5]), np.ones((1, 4), dtype=np.float32))
        after = buf.gather(np.array([5]))
        assert not np.allclose(before, after)
        mgr.load_step([2, 3])   # detaches dirty partition 0
        mgr.wait()              # ...and the I/O thread wrote it back
        fresh, state = store.read_partition(0)
        np.testing.assert_allclose(fresh[5], after[0])
        assert (state[5] > 0).all()  # optimizer state paged with the partition

    def test_detached_partition_readmitted_with_its_updates(self, tmp_path):
        """A dirty partition detached and wanted again before any I/O job
        wrote it back gets its slot back, not the stale disk copy."""
        store, buf = self.make(tmp_path)
        mgr = PrefetchingBufferManager(buf)
        mgr.load_step([0, 1])
        buf.apply_gradients(np.array([5]), np.ones((1, 4), dtype=np.float32))
        updated = buf.gather(np.array([5]))
        buf.detach(0)
        mgr.load_step([0, 1])
        np.testing.assert_array_equal(buf.gather(np.array([5])), updated)
        assert buf.dirty_partitions() == [0]
        mgr.finish()
        np.testing.assert_array_equal(store.read_partition(0)[0][5],
                                      updated[0])

    def test_node_mask_and_resident_nodes(self, tmp_path):
        _, buf = self.make(tmp_path)
        buf.set_partitions([1, 3])
        mask = buf.node_mask()
        assert mask[10:20].all() and mask[30:40].all()
        assert not mask[0:10].any()
        nodes = buf.resident_nodes()
        assert len(nodes) == 20

    def test_flush_without_evict(self, tmp_path):
        store, buf = self.make(tmp_path)
        buf.set_partitions([0, 1])
        buf.apply_gradients(np.array([2]), np.ones((1, 4), dtype=np.float32))
        buf.flush()
        fresh, _ = store.read_partition(0)
        np.testing.assert_allclose(fresh[2], buf.gather(np.array([2]))[0])

    def test_apply_gradients_requires_optimizer(self, tmp_path):
        scheme = PartitionScheme.uniform(40, 4)
        store = NodeStore(tmp_path / "n.bin", scheme, dim=4, learnable=True)
        store.initialize(rng=np.random.default_rng(0))
        buf = PartitionBuffer(store, 2)
        buf.set_partitions([0])
        with pytest.raises(RuntimeError):
            buf.apply_gradients(np.array([0]), np.ones((1, 4), dtype=np.float32))

    def test_invalid_capacity(self, tmp_path):
        scheme = PartitionScheme.uniform(40, 4)
        store = NodeStore(tmp_path / "x.bin", scheme, dim=4)
        with pytest.raises(ValueError):
            PartitionBuffer(store, 0)
        with pytest.raises(ValueError):
            PartitionBuffer(store, 9)

"""Storage layer tests: node/edge stores, partition buffer, IO stats."""

import gc
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.graph import PartitionScheme, power_law_graph
from repro.nn import RowAdagrad
from repro.storage import (EdgeBucketStore, IOStats, NodeStore,
                           PartitionBuffer)


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

    def test_read_rows_matches_the_partition_loop(self, tmp_path):
        """``read_rows`` returns the bits of the sort-then-loop-over-every-
        partition gather on random id sets: single ids, ids inside one
        partition, duplicates, unsorted ids over several partitions; ids
        out of range raise ``IndexError``."""
        scheme = PartitionScheme.uniform(1000, 16)
        s = NodeStore(tmp_path / "r.bin", scheme, dim=5, learnable=False)
        s.initialize(rng=np.random.default_rng(3))

        def loop(rows):
            order = np.argsort(rows, kind="stable")
            ids, bounds = rows[order], scheme.boundaries
            edges = ids.searchsorted(bounds).tolist()
            if edges[0] > 0 or edges[-1] < len(rows):
                raise IndexError("rows outside the table")
            data = np.empty((len(rows), 5), dtype=np.float32)
            for part, (lo, hi) in enumerate(zip(edges, edges[1:])):
                if lo < hi:
                    data[lo:hi] = s._mapped(part)[ids[lo:hi] - bounds[part]]
            return data[np.argsort(order)]

        rng = np.random.default_rng(5)
        cases = [np.array([0]), np.array([999]), np.array([63, 62, 63]),
                 np.empty(0, dtype=np.int64)]
        for _ in range(200):
            n = int(rng.integers(1, 40))
            part = int(rng.integers(0, 16))
            lo, hi = scheme.boundaries[part], scheme.boundaries[part + 1]
            cases += [rng.integers(lo, hi, n), rng.integers(0, 1000, n),
                      rng.integers(0, 1000, n).repeat(2)]
        for rows in cases:
            got = s.read_rows(rows)
            assert got.shape == (len(rows), 5)
            assert got.tobytes() == loop(rows).tobytes()
        for rows in ([-1], [1000], [5, 1000], [7, -3, 7]):
            with pytest.raises(IndexError):
                s.read_rows(np.array(rows))
            with pytest.raises(IndexError):
                loop(np.array(rows))
        s.close()

    def test_persistence_across_reopen(self, tmp_path):
        scheme = PartitionScheme.uniform(10, 2)
        s = NodeStore(tmp_path / "p.bin", scheme, dim=2, learnable=False)
        s.initialize(values=np.ones((10, 2), dtype=np.float32))
        s.flush()
        raw = np.concatenate([np.load(tmp_path / "p.bin" / "node_table" /
                                      f"{part:05d}.npy") for part in (0, 1)])
        np.testing.assert_array_equal(raw, np.ones((10, 2)))

    @pytest.mark.parametrize("parts", [4, 16])
    def test_initialize_draws_one_partition_at_a_time(self, tmp_path, parts):
        """The partition-at-a-time draw writes exactly the bytes of one
        whole-table draw from the same generator, whatever the partition
        count."""
        scheme = PartitionScheme.uniform(1000, parts)
        s = NodeStore(tmp_path / "i.bin", scheme, dim=6, learnable=True)
        s.initialize(scale=0.3, rng=np.random.default_rng(11))
        want = np.random.default_rng(11).uniform(
            -0.3, 0.3, (1000, 6)).astype(np.float32)
        assert s.read_all().tobytes() == want.tobytes()
        assert not s.read_all_state().any()

    def test_gather_rows_any_order_with_duplicates(self, store):
        table = store.read_all()
        rows = np.array([99, 3, 4, 5, 3, 50, 0, 98, 99])
        before = store.stats.bytes_read
        np.testing.assert_array_equal(store.gather_rows(rows), table[rows])
        # Counted once per distinct row.
        assert store.stats.bytes_read - before == 7 * 8 * 4
        assert store.gather_rows(np.empty(0, dtype=np.int64)).shape == (0, 8)
        with pytest.raises(IndexError):
            store.gather_rows(np.array([100]))

    def test_grow_is_seen_by_reads_and_the_map(self, store):
        block = store.partition_block(3)           # maps the table
        assert block.shape == (25, 8)
        new_rows = np.full((7, 8), 2.5, dtype=np.float32)
        store.grow(store.scheme.extended(7), new_rows)
        data, state = store.read_partition(3)
        assert data.shape == (32, 8)
        np.testing.assert_array_equal(data[25:], new_rows)
        assert not state[25:].any()
        np.testing.assert_array_equal(store.partition_block(3)[25:], new_rows)
        np.testing.assert_array_equal(store.read_rows(np.array([106])),
                                      new_rows[:1])

    def test_write_span_visible_through_open_map(self, store):
        """Serving reads through the map while training writes
        positionally: the map sees the writes with no remap."""
        block = store.partition_block(1)
        rows = store.read_rows(np.array([30]))
        store.write_span(25, np.full((3, 8), -4.0, dtype=np.float32))
        assert (block[:3] == -4.0).all()
        assert (store.read_rows(np.array([25, 27])) == -4.0).all()
        np.testing.assert_array_equal(store.read_rows(np.array([30])), rows)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc")
    def test_open_and_close_leave_no_descriptors(self, tmp_path):
        def fds():
            return len(os.listdir("/proc/self/fd"))
        scheme = PartitionScheme.uniform(40, 4)
        # Earlier tests' unreachable stores must not close their files
        # during the loop and shift the count.
        gc.collect()
        before = fds()
        for i in range(50):
            s = NodeStore(tmp_path / f"s{i}.bin", scheme, dim=4)
            s.initialize(rng=np.random.default_rng(i))
            s.partition_block(0)
            s.close()
            s = NodeStore.open(tmp_path / f"s{i}.bin", scheme, dim=4)
            s.read_rows(np.array([1, 2]))
            s.close()
            s.close()                                # idempotent
        assert fds() == before


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
        buf.load_step([0, 1])
        before = buf.gather(np.array([5]))
        buf.apply_gradients(np.array([5]), np.ones((1, 4), dtype=np.float32))
        after = buf.gather(np.array([5]))
        assert not np.allclose(before, after)
        buf.load_step([2, 3])   # detaches dirty partition 0
        buf.wait()              # ...and the I/O thread wrote it back
        fresh, state = store.read_partition(0)
        np.testing.assert_allclose(fresh[5], after[0])
        assert (state[5] > 0).all()  # optimizer state paged with the partition

    def test_detached_partition_readmitted_with_its_updates(self, tmp_path):
        """A dirty partition detached and wanted again before any I/O job
        wrote it back gets its slot back, not the stale disk copy."""
        store, buf = self.make(tmp_path)
        buf.load_step([0, 1])
        buf.apply_gradients(np.array([5]), np.ones((1, 4), dtype=np.float32))
        updated = buf.gather(np.array([5]))
        buf.detach(0)
        buf.load_step([0, 1])
        np.testing.assert_array_equal(buf.gather(np.array([5])), updated)
        assert buf.dirty_partitions() == [0]
        buf.finish()
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

    def test_resident_nodes_cache_matches_a_fresh_build(self, tmp_path):
        """The per-residency cache of resident_nodes equals the ids built
        afresh after every way residency changes."""
        store, buf = self.make(tmp_path)

        def fresh():
            bounds = store.scheme.boundaries
            return np.concatenate(
                [np.arange(bounds[p], bounds[p + 1]) for p in buf.resident]
                or [np.empty(0, dtype=np.int64)])

        buf.load_step([0, 3], next_partitions=[1, 2])
        np.testing.assert_array_equal(buf.resident_nodes(), fresh())
        buf.load_step([1, 3])
        np.testing.assert_array_equal(buf.resident_nodes(), fresh())
        store.grow(store.scheme.extended(5),
                   np.ones((5, 4), dtype=np.float32))
        buf.refresh_from_store(parts=[3])
        assert len(fresh()) == 25
        np.testing.assert_array_equal(buf.resident_nodes(), fresh())
        buf.drop_all()
        assert len(buf.resident_nodes()) == 0

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


# ---------------------------------------------------------------------------
# The trainer's memory contract
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent

# One tiny decoder-only lp-disk job: train (ending in an evaluate),
# evaluate again, snapshot; prints its peak RSS in MB. Partition size and
# buffer capacity are fixed, so only the table grows with ``nodes``.
_RSS_CHILD = textwrap.dedent("""
    import resource, sys
    from pathlib import Path
    import numpy as np
    from repro.graph.datasets import LinkPredictionDataset, paper_stats
    from repro.graph.edge_list import split_edges
    from repro.graph.generators import power_law_graph
    from repro.train import (DiskConfig, DiskLinkPredictionTrainer,
                             LinkPredictionConfig)
    nodes, workdir = int(sys.argv[1]), Path(sys.argv[2])
    parts = nodes // 5000
    graph = power_law_graph(nodes, nodes // 2, num_relations=4, seed=0)
    split = split_edges(graph, 0.02, 0.05, rng=np.random.default_rng(1))
    data = LinkPredictionDataset(graph, split, paper_stats("freebase86m"))
    cfg = LinkPredictionConfig(
        embedding_dim=128, encoder="none", batch_size=1000,
        num_negatives=20, num_epochs=1, eval_negatives=50,
        eval_max_edges=200, seed=0)
    disk = DiskConfig(workdir, num_partitions=parts, num_logical=parts,
                      buffer_capacity=2, policy="beta")
    trainer = DiskLinkPredictionTrainer(data, cfg, disk,
                                        checkpoint_dir=workdir / "ckpt")
    trainer.train()
    trainer.evaluate()
    trainer.save_snapshot(1)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
""")


def _child_peak_rss_mb(nodes: int, workdir: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(nodes),
                           str(workdir)], capture_output=True, text=True,
                          timeout=120, env=env, check=True)
    return float(done.stdout.split()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB "
                    "on Linux only")
def test_trainer_rss_follows_the_buffer(tmp_path):
    """Peak RSS of train + evaluate + snapshot follows the buffer, not the
    table: a table 4x larger (10 -> 41 MB, the same again of Adagrad
    state) over the same partition size and buffer grows the child's peak
    by under 30%. Mapping the table or copying it whole for evaluation
    roughly doubles it."""
    small = _child_peak_rss_mb(20_000, tmp_path / "small")
    large = _child_peak_rss_mb(80_000, tmp_path / "large")
    assert large < 1.3 * small, (small, large)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc")
def test_trainer_never_maps_its_table(tmp_path):
    from repro.graph.datasets import load_fb15k237
    from repro.train import (DiskConfig, DiskLinkPredictionTrainer,
                             LinkPredictionConfig)
    cfg = LinkPredictionConfig(embedding_dim=8, encoder="none",
                               batch_size=256, num_negatives=8,
                               num_epochs=1, eval_max_edges=100, seed=0)
    disk = DiskConfig(tmp_path / "work", num_partitions=4, num_logical=4,
                      buffer_capacity=2)
    trainer = DiskLinkPredictionTrainer(load_fb15k237(scale=0.02), cfg, disk,
                                        checkpoint_dir=tmp_path / "ckpt")
    trainer.train()
    trainer.evaluate()
    trainer.save_snapshot(1)
    table = str(trainer.node_store.path)         # and table + ".state"
    with open("/proc/self/maps") as fh:
        mapped = [line for line in fh if table in line]
    assert mapped == []

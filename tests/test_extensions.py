"""Tests for the extension modules: prefetching, TransE, filtered
evaluation, Hilbert policy, preprocessing, CLI."""

import json

import numpy as np
import pytest

from repro.graph import (Graph, PartitionScheme, chain_graph, deduplicate_edges,
                         degree_order, densify_ids, export_tsv, import_tsv,
                         load_fb15k237, power_law_graph, shuffle_node_ids)
from repro.nn import RowAdagrad, Tensor, TransE
from repro.policies import HilbertOrderingPolicy, hilbert_bucket_order
from repro.storage import NodeStore, PartitionBuffer
from repro.train import (LinkPredictionConfig, LinkPredictionTrainer,
                         TripleFilter, filtered_ranks)


# ---------------------------------------------------------------------------
# Prefetching
# ---------------------------------------------------------------------------

class TestPrefetching:
    """Slot staging: the buffer's I/O thread writes detached partitions
    back and reads the next step's partitions into spare slab slots."""

    # Six steps over four partitions, capacity 2: partition 0 leaves at
    # step 1 and is staged for step 2, every step swaps something.
    PLAN = [[0, 1], [1, 2], [0, 2], [0, 3], [1, 3], [2, 3]]

    def make(self, tmp_path, capacity=2, name="pf.bin"):
        scheme = PartitionScheme.uniform(40, 4)
        store = NodeStore(tmp_path / name, scheme, dim=4, learnable=True)
        store.initialize(rng=np.random.default_rng(0))
        buf = PartitionBuffer(store, capacity, optimizer=RowAdagrad(lr=0.1))
        return store, buf

    @staticmethod
    def step_update(idx, parts):
        """One update per resident partition, a function of the step."""
        nodes = np.array([10 * p + idx for p in parts])
        return nodes, np.full((len(nodes), 4), idx + 1.0, dtype=np.float32)

    def walk(self, swap, buf, plan, on_step=None):
        """``swap(parts, next_parts)`` per step, then train-like updates."""
        for idx, parts in enumerate(plan):
            nxt = plan[idx + 1] if idx + 1 < len(plan) else None
            swap(parts, nxt)
            if on_step is not None:
                on_step(idx)
            buf.apply_gradients(*self.step_update(idx, parts))

    def test_prefetcher_stages_partitions(self, tmp_path):
        store, buf = self.make(tmp_path)
        buf.load_step([0, 1], next_partitions=[2, 3])
        buf.wait()
        assert store.stats.partition_loads == 4   # 0, 1 now; 2, 3 staged
        assert buf.load_step([2, 3]) == 4
        assert buf.hits == 2
        assert store.stats.partition_loads == 4   # the swap read nothing
        buf.finish()

    def test_manager_walks_plan_with_hits(self, tmp_path):
        store, buf = self.make(tmp_path)
        steps = [[0, 1], [1, 2], [2, 3]]
        for idx, parts in enumerate(steps):
            nxt = steps[idx + 1] if idx + 1 < len(steps) else None
            buf.load_step(parts, nxt)
            assert sorted(buf.resident) == sorted(parts)
        buf.finish()
        assert buf.hits == 2
        assert store.stats.partition_loads == 4   # 2 read at step 0, 2 staged

    def test_staged_slot_equivalent_to_admit(self, tmp_path):
        store, buf = self.make(tmp_path)
        buf.load_step([0], next_partitions=[0, 2])
        buf.load_step([0, 2])
        assert buf.hits == 1
        direct, _ = store.read_partition(2)
        np.testing.assert_array_equal(buf.gather(np.arange(20, 30)), direct)

    def test_read_into_slot_validates_shape(self, tmp_path):
        store, _ = self.make(tmp_path)
        with pytest.raises(ValueError):
            store.read_partition(0, out=(np.zeros((3, 4), dtype=np.float32),
                                         None))

    def test_writeback_survives_prefetch_path(self, tmp_path):
        """Updates applied to a prefetched partition must reach disk."""
        store, buf = self.make(tmp_path)
        initial, _ = store.read_partition(0)
        row3_before = initial[3].copy()
        buf.load_step([0, 1], [1, 2])
        buf.apply_gradients(np.array([3]), np.ones((1, 4), dtype=np.float32))
        buf.load_step([1, 2], None)   # detaches dirty partition 0
        buf.wait()                    # its write-back ran on the I/O thread
        fresh, state = store.read_partition(0)
        assert not np.allclose(fresh[3], row3_before)
        assert (state[3] > 0).all()
        buf.finish()

    def test_evicted_then_staged_carries_its_updates(self, tmp_path):
        """A partition detached at step i and staged for step i+1 is
        written back before the I/O thread reads it again."""
        _, buf = self.make(tmp_path)
        buf.load_step([0, 1], [1, 2])
        buf.apply_gradients(np.array([3]), np.ones((1, 4), dtype=np.float32))
        updated = buf.gather(np.array([3]))
        buf.load_step([1, 2], [0, 2])   # 0 leaves dirty and is staged
        buf.load_step([0, 2])
        assert buf.hits == 2            # 2 at step 1, 0 at step 2
        np.testing.assert_array_equal(buf.gather(np.array([3])), updated)
        buf.finish()

    def test_plan_walk_matches_synchronous_swaps(self, tmp_path):
        """The store after a six-step walk through ``load_step`` is byte-equal
        to a reference walk applying the same updates synchronously to an
        in-memory table with RowAdagrad."""
        store, buf = self.make(tmp_path)
        table = np.array(store.read_all())
        state = np.array(store.read_all_state())
        self.walk(buf.load_step, buf, self.PLAN)
        buf.finish()

        reference = RowAdagrad(lr=0.1)
        for idx, parts in enumerate(self.PLAN):
            nodes, grads = self.step_update(idx, parts)
            reference.update(table, state, nodes, grads)
        assert buf.hits == 5
        assert store.stats.partition_loads == 7   # 2 cold reads + 5 staged
        assert store.read_all().tobytes() == table.tobytes()
        assert store.read_all_state().tobytes() == state.tobytes()

    def test_warm_swaps_do_no_store_io_on_the_training_thread(self, tmp_path):
        """With every arriving partition staged, the training thread only
        remaps rows: all partition reads and write-backs run elsewhere."""
        import threading
        store, buf = self.make(tmp_path)
        calls = []

        def record(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, threading.current_thread()
                              is threading.main_thread()))
                return fn(*args, **kwargs)
            return wrapped

        def install(idx):
            if idx == 0:          # after the cold first step's misses
                store.read_partition = record("read", store.read_partition)
                store.write_partition = record("write",
                                               store.write_partition)

        self.walk(buf.load_step, buf, self.PLAN, on_step=install)
        buf.wait()
        assert {name for name, _ in calls} == {"read", "write"}
        assert not any(on_main for _, on_main in calls), calls
        buf.finish()

    def test_snapshot_and_evaluate_wait_for_write_back(self, tmp_path):
        """A mid-epoch snapshot and the table evaluation reads see every
        row the I/O thread is still writing back."""
        import threading
        import time
        from repro.train import DiskConfig, DiskLinkPredictionTrainer
        from repro.train.evaluation import EpochRecord
        data = load_fb15k237(scale=0.03, seed=0)
        cfg = LinkPredictionConfig(embedding_dim=8, encoder="none",
                                   batch_size=256, num_negatives=16,
                                   num_epochs=1, seed=0)

        def make(name, **kw):
            disk = DiskConfig(workdir=tmp_path / name, num_partitions=8,
                              num_logical=4, buffer_capacity=4)
            return DiskLinkPredictionTrainer(data, cfg, disk, **kw)

        trainer = make("slow", checkpoint_dir=tmp_path / "ckpt")
        twin = make("twin")
        write = trainer.node_store.write_partition

        def slow_write(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)     # an I/O-thread write-back lags
            write(*args, **kwargs)

        trainer.node_store.write_partition = slow_write
        steps = trainer._plan_epoch(0)
        twin_steps = twin._plan_epoch(0)

        def table_after(idx):
            for t, s in ((trainer, steps), (twin, twin_steps)):
                t._run_step(s, idx, EpochRecord(0, 0.0, 0.0, 0.0))
            twin.buffer.wait()
            twin.buffer.flush()
            return twin.node_store.read_all()

        for idx in range(2):
            table_after(idx)
        want = table_after(2)
        trainer.save_snapshot(0, 3, len(steps))
        _, arrays = trainer.snapshots.load()
        np.testing.assert_array_equal(arrays["node_table"], want)

        want = table_after(3)
        every_row = np.arange(trainer.node_store.num_nodes)
        np.testing.assert_array_equal(trainer._eval_gather()(every_row), want)


# ---------------------------------------------------------------------------
# TransE
# ---------------------------------------------------------------------------

class TestTransE:
    def test_perfect_translation_scores_best(self):
        dec = TransE(1, 4, rng=np.random.default_rng(0))
        rel = np.array([0])
        src = Tensor(np.array([[1.0, 0.0, 0.0, 0.0]], dtype=np.float32))
        perfect = Tensor((src.data + dec.relations.data[0]))
        off = Tensor(perfect.data + 3.0)
        good = float(dec.score_edges(src, rel, perfect).data[0])
        bad = float(dec.score_edges(src, rel, off).data[0])
        assert good > bad
        assert good == pytest.approx(0.0, abs=1e-3)

    def test_training_with_transe(self):
        data = load_fb15k237(scale=0.05, seed=0)
        cfg = LinkPredictionConfig(embedding_dim=16, encoder="none",
                                   decoder="transe", batch_size=256,
                                   num_negatives=32, num_epochs=3,
                                   eval_negatives=64, eval_max_edges=300,
                                   embedding_lr=0.05, seed=0)
        trainer = LinkPredictionTrainer(data, cfg)
        before = trainer.evaluate().mrr
        assert trainer.train().final_mrr > before


# ---------------------------------------------------------------------------
# Filtered evaluation
# ---------------------------------------------------------------------------

class TestFilteredEvaluation:
    def test_filter_contains(self):
        edges = np.array([[0, 1, 2], [3, 0, 4]])
        filt = TripleFilter(edges)
        assert filt.contains(0, 1, 2) and filt.contains(3, 0, 4)
        assert not filt.contains(0, 1, 4)
        assert len(filt) == 2

    def test_filter_without_relations(self):
        edges = np.array([[0, 2], [1, 3]])
        filt = TripleFilter(edges)
        assert filt.contains(0, 0, 2)

    def test_filtered_ranks_exclude_true_candidates(self):
        pos = np.array([1.0])
        neg = np.array([[2.0, 0.5]])       # candidate 0 outranks the positive
        mask = np.array([[True, False]])   # ...but is a known true triple
        raw = filtered_ranks(pos, neg, np.zeros_like(mask))
        filt = filtered_ranks(pos, neg, mask)
        assert raw[0] == 2.0 and filt[0] == 1.0

    def test_mask_shape(self):
        filt = TripleFilter(np.array([[0, 0, 5]]))
        mask = filt.mask(np.array([0, 1]), np.array([0, 0]), np.array([5, 6]))
        assert mask.shape == (2, 2)
        assert mask[0, 0] and not mask[0, 1] and not mask[1, 0]


# ---------------------------------------------------------------------------
# Hilbert / PBG-style policy
# ---------------------------------------------------------------------------

class TestHilbertPolicy:
    def test_curve_is_a_permutation(self):
        order = hilbert_bucket_order(8)
        assert len(order) == 64
        assert len(set(order)) == 64

    def test_non_power_of_two(self):
        order = hilbert_bucket_order(5)
        assert len(order) == 25
        assert all(0 <= i < 5 and 0 <= j < 5 for i, j in order)

    def test_plan_validates(self):
        plan = HilbertOrderingPolicy(8, 3).plan_epoch(0)
        plan.validate()

    def test_consecutive_buckets_share_partitions(self):
        """The locality property the curve buys: most consecutive buckets
        need no partition swap at all."""
        order = hilbert_bucket_order(8)
        shared = sum(1 for a, b in zip(order, order[1:])
                     if set(a) & set(b))
        assert shared / len(order) > 0.5

    def test_deterministic_across_epochs_unlike_comet(self):
        """Hilbert's defining weakness vs COMET is not partition-level bias
        (the curve revisits regions fairly evenly) but *determinism*: every
        epoch replays the identical example order, so ordering noise never
        averages out — COMET regroups and reshuffles each epoch."""
        from repro.policies import CometPolicy
        h = HilbertOrderingPolicy(16, 4)
        plan_a = h.plan_epoch(0, np.random.default_rng(0))
        plan_b = h.plan_epoch(1, np.random.default_rng(1))
        assert [s.buckets for s in plan_a.steps] == [s.buckets for s in plan_b.steps]
        comet = CometPolicy(16, 8, 4)
        ca = comet.plan_epoch(0, np.random.default_rng(0))
        cb = comet.plan_epoch(1, np.random.default_rng(1))
        assert [s.buckets for s in ca.steps] != [s.buckets for s in cb.steps]

    def test_bias_is_computable(self):
        from repro.graph import EdgeBuckets
        from repro.policies import edge_permutation_bias
        g = power_law_graph(2000, 20000, seed=3)
        eb = EdgeBuckets(g, PartitionScheme.uniform(g.num_nodes, 16))
        b = edge_permutation_bias(HilbertOrderingPolicy(16, 4).plan_epoch(0), eb)
        assert 0.0 <= b <= 1.0

    def test_requires_capacity(self):
        with pytest.raises(ValueError):
            HilbertOrderingPolicy(8, 1)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

class TestPreprocess:
    def test_densify_ids(self):
        src = np.array([100, 200, 100])
        dst = np.array([200, 300, 300])
        rel = np.array([7, 7, 9])
        graph, node_map, rel_map = densify_ids(src, dst, rel)
        assert graph.num_nodes == 3
        assert graph.num_relations == 2
        np.testing.assert_array_equal(node_map, [100, 200, 300])
        np.testing.assert_array_equal(rel_map, [7, 9])
        # Edge structure preserved under the mapping.
        np.testing.assert_array_equal(node_map[graph.src], src)
        np.testing.assert_array_equal(node_map[graph.dst], dst)

    def test_shuffle_preserves_structure(self):
        g = power_law_graph(100, 800, seed=0)
        shuffled, perm = shuffle_node_ids(g, seed=1)
        assert shuffled.num_edges == g.num_edges
        # Degrees are permuted, not changed.
        np.testing.assert_array_equal(
            np.sort(shuffled.degree_out()), np.sort(g.degree_out()))

    def test_shuffle_carries_features(self):
        g = power_law_graph(50, 200, seed=0)
        g.node_features = np.arange(100, dtype=np.float32).reshape(50, 2)
        shuffled, perm = shuffle_node_ids(g, seed=2)
        # feature of new id perm[v] equals feature of old v
        v = 7
        np.testing.assert_allclose(shuffled.node_features[perm[v]],
                                   g.node_features[v])

    def test_deduplicate(self):
        g = Graph(num_nodes=3, src=np.array([0, 0, 1]),
                  dst=np.array([1, 1, 2]))
        d = deduplicate_edges(g)
        assert d.num_edges == 2

    def test_degree_order_hot_first(self):
        g = power_law_graph(200, 3000, seed=1)
        ordered, mapping = degree_order(g)
        deg = ordered.degree_in() + ordered.degree_out()
        assert deg[0] == deg.max()
        assert (np.diff(deg) <= 0).all()

    def test_tsv_roundtrip(self, tmp_path):
        g = power_law_graph(50, 300, num_relations=4, seed=0)
        path = export_tsv(g, tmp_path / "edges.tsv")
        back = import_tsv(path)
        assert back.num_edges == g.num_edges
        assert back.num_relations == g.num_relations

    def test_import_tsv_column_check(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("1\t2\t3\t4\n")
        with pytest.raises(ValueError):
            import_tsv(tmp_path / "bad.tsv")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCLI:
    def test_info(self, capsys):
        from repro.cli import main
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "freebase86m" in out

    def test_autotune(self, capsys):
        from repro.cli import main
        assert main(["autotune", "--dataset", "freebase86m",
                     "--memory-gb", "61"]) == 0
        assert "buffer capacity" in capsys.readouterr().out

    @staticmethod
    def _run(tmp_path, payload, *overrides):
        """``repro run`` over ``payload`` written as a spec file, with
        each override passed as ``--set``."""
        from repro.cli import main
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        argv = ["run", str(path)]
        for assignment in overrides:
            argv += ["--set", assignment]
        return main(argv)

    LP_TINY = {"kind": "lp-mem", "data": {"dataset": "fb15k237",
                                          "scale": 0.03},
               "model": {"dim": 8, "fanouts": [4]}, "train": {"epochs": 1}}

    def test_train_lp_smoke(self, tmp_path, capsys):
        assert self._run(tmp_path, self.LP_TINY) == 0
        assert "final MRR" in capsys.readouterr().out

    def test_train_lp_disk_with_checkpoint(self, tmp_path, capsys):
        payload = dict(self.LP_TINY, kind="lp-disk")
        assert self._run(tmp_path, payload,
                         "storage.partitions=8", "storage.logical=4",
                         "storage.buffer=4",
                         f"storage.workdir={tmp_path / 'wd'}",
                         "checkpoint.every=1") == 0
        assert list((tmp_path / "wd" / "checkpoints").glob("snap-*"))

    def test_train_nc_smoke(self, tmp_path, capsys):
        assert self._run(tmp_path, {"kind": "nc-mem"}, "data.nodes=800",
                         "train.epochs=1", "model.dim=8",
                         "model.fanouts=[4]", "train.batch_size=128") == 0
        assert "final accuracy" in capsys.readouterr().out

    def test_config_file_overrides(self, tmp_path, capsys):
        """``--set`` overrides the spec file's values for one run."""
        payload = dict(self.LP_TINY, train={"epochs": 5})
        assert self._run(tmp_path, payload, "train.epochs=1") == 0
        assert capsys.readouterr().out.count("[epoch ") == 1

    def test_config_file_rejects_unknown(self, tmp_path):
        with pytest.raises(SystemExit, match="nonexistent_option"):
            self._run(tmp_path, self.LP_TINY, "train.nonexistent_option=1")

    def test_unknown_lp_dataset(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown LP dataset"):
            self._run(tmp_path, self.LP_TINY, "data.dataset=cora")

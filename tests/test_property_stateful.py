"""Stateful property-based tests (hypothesis rule-based state machines).

The partition buffer is the piece of the system where a subtle bug silently
corrupts training (a stale row, a lost write-back), so it gets a full model-
based test: a reference in-memory table is updated in lockstep with the real
memmap-backed buffer, driven the way every trainer drives it — through
:meth:`PartitionBuffer.load_step` — by random sequences of plan steps with
a random next step to stage, bare detaches, updates and flushes. Every
gather must agree with the reference, and every partition that left the
buffer must be durable once the I/O thread is done: that covers slot
staging and the write-back-before-reread ordering of the I/O thread.

The machine also interleaves **checkpoint/resume**: a checkpoint rule
snapshots the flushed store through the real :class:`SnapshotManager` (and
stashes the reference state alongside), and a resume rule scribbles NaNs
into a random partition (simulated crash damage), restores the snapshot,
and rolls the reference model back — after which every buffer-residency
invariant must still hold and training-style updates must keep agreeing.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.graph import PartitionScheme
from repro.nn import RowAdagrad
from repro.storage import NodeStore, PartitionBuffer
from repro.train import SnapshotManager

NUM_NODES = 48
NUM_PARTS = 6
CAPACITY = 3
DIM = 4
PART_SIZE = NUM_NODES // NUM_PARTS


def _nodes_of(parts):
    return np.array([n for p in sorted(parts)
                     for n in range(p * PART_SIZE, (p + 1) * PART_SIZE)],
                    dtype=np.int64)


class BufferMachine(RuleBasedStateMachine):
    """Reference-model test of the step-driven buffer (+ resume)."""

    def __init__(self):
        super().__init__()
        import tempfile
        self._tmp = tempfile.TemporaryDirectory()
        scheme = PartitionScheme.uniform(NUM_NODES, NUM_PARTS)
        self.store = NodeStore(f"{self._tmp.name}/t.bin", scheme, DIM,
                               learnable=True)
        rng = np.random.default_rng(0)
        init = rng.normal(0, 1, (NUM_NODES, DIM)).astype(np.float32)
        self.store.initialize(values=init)
        self.buffer = PartitionBuffer(self.store, CAPACITY,
                                      optimizer=RowAdagrad(lr=0.1))
        # Reference model: full table + optimizer state, updated in lockstep.
        self.ref_table = init.copy()
        self.ref_state = np.zeros_like(init)
        self.ref_opt = RowAdagrad(lr=0.1)
        # Checkpoint/resume machinery (same subsystem the trainers use).
        self.snapshots = SnapshotManager(f"{self._tmp.name}/ckpt", keep=1)
        self._snap_id = 0
        self._snap_ref = None   # (ref_table, ref_state, resident) at snapshot

    def teardown(self):
        self.buffer.reset()
        self.store.close()      # its descriptors go now, not at collection
        self._tmp.cleanup()

    # ------------------------------------------------------------------
    @rule(parts=st.sets(st.integers(0, NUM_PARTS - 1), min_size=1,
                        max_size=CAPACITY),
          nxt=st.sets(st.integers(0, NUM_PARTS - 1), max_size=CAPACITY))
    def swap(self, parts, nxt):
        self.buffer.load_step(sorted(parts), sorted(nxt) or None)
        assert self.buffer.resident == sorted(parts)

    @rule(pick=st.integers(0, CAPACITY - 1))
    def detach(self, pick):
        # Dirty partitions first: their write-back is what can go wrong.
        parts = self.buffer.dirty_partitions() or self.buffer.resident
        if parts:
            self.buffer.detach(parts[pick % len(parts)])

    @precondition(lambda self: self.buffer._detached)
    @rule()
    def readmit_detached(self):
        """A step that wants back partitions detached since the last step
        (no I/O job has written them yet): their slots, not stale disk,
        must come back."""
        self.buffer.load_step(sorted(set(self.buffer.resident)
                                      | set(self.buffer._detached)))

    @rule(pick=st.integers(0, NUM_NODES - 1), seed=st.integers(0, 1000))
    def update_row(self, pick, seed):
        nodes = self.buffer.resident_nodes()
        if len(nodes) == 0:
            return
        node = np.array([nodes[pick % len(nodes)]])
        grad = np.random.default_rng(seed).normal(
            0, 1, (1, DIM)).astype(np.float32)
        self.buffer.apply_gradients(node, grad)
        self.ref_opt.update(self.ref_table, self.ref_state, node, grad)

    @rule()
    def flush(self):
        self.buffer.flush()

    @rule()
    def finish(self):
        self.buffer.finish()

    @rule()
    def checkpoint(self):
        """Flush + atomic snapshot, exactly like the trainers do."""
        self.buffer.flush()
        self.store.flush()
        self._snap_id += 1
        self.snapshots.save(self._snap_id,
                            {"resident": self.buffer.resident},
                            {"table": self.store.read_all(),
                             "state": self.store.read_all_state()})
        self._snap_ref = (self.ref_table.copy(), self.ref_state.copy(),
                          list(self.buffer.resident))

    @precondition(lambda self: self._snap_ref is not None)
    @rule(damage=st.integers(0, NUM_PARTS - 1))
    def crash_and_resume(self, damage):
        """Recover like the trainers: drop the buffer without write-back,
        scribble NaNs into one partition (crash damage after the
        snapshot), restore the store from the snapshot, reload the
        recorded residency, and roll the reference model back."""
        self.buffer.reset()
        junk = np.full((PART_SIZE, DIM), np.nan, dtype=np.float32)
        self.store.write_partition(damage, junk)
        meta, arrays = self.snapshots.load()
        self.store.write_span(0, arrays["table"], arrays["state"])
        self.buffer.load_step(meta["resident"])
        self.ref_table, self.ref_state, _ = self._snap_ref
        self.ref_table = self.ref_table.copy()
        self.ref_state = self.ref_state.copy()

    # ------------------------------------------------------------------
    @invariant()
    def resident_rows_match_reference(self):
        nodes = self.buffer.resident_nodes()
        if len(nodes) == 0:
            return
        got = self.buffer.gather(nodes)
        np.testing.assert_allclose(got, self.ref_table[nodes], rtol=1e-5,
                                   atol=1e-6)

    @invariant()
    def capacity_respected(self):
        assert len(self.buffer.resident) <= CAPACITY

    @invariant()
    def residency_bookkeeping_consistent(self):
        """The slab row map, partition-of-row map, dirty set, and the slot
        lists must all agree with the resident set — the buffer-residency
        invariant checkpoint/resume is not allowed to violate. Every slot
        is exactly one of resident, staged, detached or free."""
        buf = self.buffer
        resident = buf.resident
        assert sorted(buf._slot_of) == resident
        assert sorted(buf._dirty) == resident
        assert set(buf.dirty_partitions()) <= set(resident)
        assert not set(buf._detached) & set(resident)
        slots = (list(buf._slot_of.values()) + list(buf._staged.values())
                 + list(buf._detached.values()) + buf._free_slots)
        assert sorted(slots) == list(range(2 * CAPACITY))
        mask = buf.node_mask()
        for part in range(NUM_PARTS):
            lo, hi = part * PART_SIZE, (part + 1) * PART_SIZE
            assert mask[lo:hi].all() == (part in resident)
            assert mask[lo:hi].any() == (part in resident)

    @invariant()
    def evicted_rows_are_durable(self):
        """Once the I/O thread is done, every partition that is neither
        resident nor detached-and-not-yet-queued has its reference contents
        on disk (write-back happened for everything dirty that left)."""
        self.buffer.wait()
        held = set(self.buffer.resident) | set(self.buffer._detached)
        missing = _nodes_of(set(range(NUM_PARTS)) - held)
        if len(missing) == 0:
            return
        on_disk = self.store.read_rows(missing)
        np.testing.assert_allclose(on_disk, self.ref_table[missing], rtol=1e-5,
                                   atol=1e-6)


TestBufferStateMachine = BufferMachine.TestCase
TestBufferStateMachine.settings = settings(max_examples=20,
                                           stateful_step_count=30,
                                           deadline=None)


# ---------------------------------------------------------------------------
# Autograd fuzzing: random op chains vs numerical gradients
# ---------------------------------------------------------------------------

from hypothesis import given  # noqa: E402

from repro.nn import Tensor, no_grad  # noqa: E402
from tests.conftest import numeric_gradient  # noqa: E402

_UNARY = ["relu", "sigmoid", "tanh", "leaky_relu"]


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.sampled_from(_UNARY), min_size=1, max_size=4),
       rows=st.integers(1, 5), cols=st.integers(1, 4),
       seed=st.integers(0, 1000))
def test_fuzz_unary_chains(ops, rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (rows, cols)).astype(np.float32)
    # Keep inputs away from the relu/leaky_relu kink at 0: the central
    # difference is wrong within eps of a kink — a limitation of the
    # numeric check, not of the gradients under test.
    x += np.where(x >= 0, 0.25, -0.25).astype(np.float32)

    def apply(t):
        for op in ops:
            t = getattr(t, op)()
        return t.sum()

    t = Tensor(x.copy(), requires_grad=True)
    apply(t).backward()

    def f(a):
        with no_grad():
            return float(apply(Tensor(a)).data)

    numeric = numeric_gradient(f, x.copy())
    np.testing.assert_allclose(t.grad, numeric, atol=5e-2, rtol=5e-2)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), segs=st.integers(1, 5), dim=st.integers(1, 3),
       seed=st.integers(0, 500))
def test_fuzz_segment_pipeline_gradients(n, segs, dim, seed):
    """Random gather -> segment_mean -> matmul pipelines (the exact op
    composition of a GraphSage layer) have correct gradients."""
    from repro.nn import functional as F
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, dim)).astype(np.float32)
    w = rng.normal(0, 1, (dim, 2)).astype(np.float32)
    index = rng.integers(0, n, size=max(1, n))
    cuts = np.sort(rng.integers(0, len(index) + 1, size=max(0, segs - 1)))
    offsets = np.concatenate([[0], cuts]).astype(np.int64)

    def apply(t):
        gathered = t.index_select(index)
        pooled = F.segment_mean(gathered, offsets)
        return pooled.matmul(Tensor(w)).sum()

    t = Tensor(x.copy(), requires_grad=True)
    apply(t).backward()

    def f(a):
        with no_grad():
            return float(apply(Tensor(a)).data)

    numeric = numeric_gradient(f, x.copy())
    np.testing.assert_allclose(t.grad, numeric, atol=5e-2, rtol=5e-2)

"""The DENSE data structure: Delta Encoding of Neighborhood SamplEs.

Implements the paper's Section 4 verbatim:

* :func:`build_dense` — Algorithm 1 (multi-hop neighborhood sampling). Nodes
  are one-hop sampled **only on their first appearance**; later layers reuse
  the sample. DENSE is four arrays (``node_id_offsets``, ``node_ids``,
  ``nbr_offsets``, ``nbrs``) plus ``repr_map`` added "on the GPU".
* :meth:`DenseBatch.advance` — Algorithm 2 (on-GPU DENSE update after layer
  ``i``): drops the innermost delta and the consumed neighbor block so every
  GNN layer sees the same array layout.

Two construction paths produce bit-identical batches under the same seeded
generator:

* :func:`build_dense` — the allocation-lean fast path. Per-hop segments are
  collected in Python lists and written into each output array exactly once
  at the end (the reference path's prepend-concatenate chain re-copies hop
  ``t``'s arrays ``k - t`` times). Deduplication against already-seen nodes
  (Algorithm 1 line 7) uses a reusable boolean *membership array* scoped to
  ``num_nodes``: seen nodes are marked as deltas are produced and the marks
  are reset via the touched IDs at the end, so each hop pays a single
  ``np.unique`` over the sampled neighbors — shared between
  ``stats.dedup_candidates`` and the novel-node filter — instead of the
  reference path's ``np.unique`` twice plus ``np.isin``.
* :func:`build_dense_reference` — the direct Algorithm 1 transcription, kept
  as the correctness oracle for the property tests and benchmarks.

Layout invariants (checked by :meth:`DenseBatch.validate`):

* ``node_ids = [Δ_0 | Δ_1 | ... | Δ_k]`` with ``node_id_offsets`` marking the
  start of each delta; all IDs unique.
* ``nbrs = [Δ_1-nbrs | Δ_2-nbrs | ... | Δ_k-nbrs]`` — neighbor runs for every
  node in ``node_ids[node_id_offsets[1]:]``, in node order, delimited by
  ``nbr_offsets``.
* every ID in ``nbrs`` appears in ``node_ids``; ``repr_map[j]`` is the row of
  ``nbrs[j]`` within ``node_ids``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..nn.layers import DenseLayerView


@dataclass
class SamplingStats:
    """Work counters for one multi-hop sample (feeds Table 6 and the perf model)."""

    num_target_nodes: int = 0
    num_unique_nodes: int = 0       # len(node_ids)
    num_sampled_edges: int = 0      # len(nbrs)
    one_hop_calls: int = 0          # nodes passed to oneHopSample, summed
    dedup_candidates: int = 0       # nodes examined by computeNextDelta


@dataclass
class DenseBatch:
    """The DENSE structure for one mini batch (paper Figure 3)."""

    node_id_offsets: np.ndarray
    node_ids: np.ndarray
    nbr_offsets: np.ndarray
    nbrs: np.ndarray
    repr_map: Optional[np.ndarray] = None
    num_layers: int = 1
    stats: SamplingStats = field(default_factory=SamplingStats)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_deltas(self) -> int:
        return len(self.node_id_offsets)

    def delta(self, idx: int) -> np.ndarray:
        """Return Δ_idx (idx counts from the innermost delta, 0-based)."""
        start = self.node_id_offsets[idx]
        stop = (self.node_id_offsets[idx + 1]
                if idx + 1 < len(self.node_id_offsets) else len(self.node_ids))
        return self.node_ids[start:stop]

    def target_nodes(self) -> np.ndarray:
        """The outermost delta Δ_k — the mini batch's target nodes."""
        return self.delta(self.num_deltas - 1)

    # ------------------------------------------------------------------
    def compute_repr_map(self, row_scratch: Optional[np.ndarray] = None) -> None:
        """Add the fifth array (Section 4.2): index into node_ids per nbr entry.

        In MariusGNN this happens on the GPU right after transfer. With
        ``row_scratch`` (an int64 array of at least ``num_nodes`` entries,
        typically owned by the sampler and reused across batches) the map is
        a scatter + gather with no sorting: ``row_scratch[node_ids]`` is
        overwritten with each node's row and read back at the ``nbrs``
        entries — legal because every sampled neighbor appears in
        ``node_ids``. Without a scratch it falls back to a sorted search.
        """
        if row_scratch is not None:
            row_scratch[self.node_ids] = np.arange(len(self.node_ids), dtype=np.int64)
            self.repr_map = row_scratch[self.nbrs]
            return
        order = np.argsort(self.node_ids, kind="stable")
        pos = np.searchsorted(self.node_ids[order], self.nbrs)
        self.repr_map = order[pos].astype(np.int64)

    def layer_view(self) -> DenseLayerView:
        """The view a GNN layer consumes (same layout at every layer)."""
        if self.repr_map is None:
            self.compute_repr_map()
        self_start = int(self.node_id_offsets[1]) if len(self.node_id_offsets) > 1 else 0
        return DenseLayerView(
            repr_map=self.repr_map,
            nbr_offsets=self.nbr_offsets,
            self_start=self_start,
            num_outputs=len(self.node_ids) - self_start,
        )

    # ------------------------------------------------------------------
    def advance(self) -> "DenseBatch":
        """Algorithm 2: trim DENSE after computing one GNN layer.

        Removes Δ_{i-1} (no longer needed as input) and the neighbor block of
        Δ_i (already consumed), returning a new :class:`DenseBatch` whose
        node_ids exactly match the rows of the layer output H^i. Every array
        of the result is a *view* into the parent wherever the offset shift
        is zero; only nonzero shifts allocate (the subtraction must
        materialize).
        """
        if len(self.node_id_offsets) < 2:
            raise ValueError("cannot advance a DENSE with a single delta")
        len_prev_delta = int(self.node_id_offsets[1])          # |Δ_{i-1}|
        if len(self.node_id_offsets) > 2:
            len_cur_delta = int(self.node_id_offsets[2] - self.node_id_offsets[1])
        else:
            len_cur_delta = len(self.node_ids) - len_prev_delta
        # Start of the neighbor run after Δ_i's block.
        if len_cur_delta < len(self.nbr_offsets):
            nbr_drop = int(self.nbr_offsets[len_cur_delta])
        else:
            nbr_drop = len(self.nbrs)

        node_id_offsets = self.node_id_offsets[1:]
        if len_prev_delta:
            node_id_offsets = node_id_offsets - len_prev_delta
        nbr_offsets = self.nbr_offsets[len_cur_delta:]
        if nbr_drop:
            nbr_offsets = nbr_offsets - nbr_drop
        repr_map = None
        if self.repr_map is not None:
            repr_map = self.repr_map[nbr_drop:]
            if len_prev_delta:
                repr_map = repr_map - len_prev_delta

        return DenseBatch(
            node_id_offsets=node_id_offsets,
            node_ids=self.node_ids[len_prev_delta:],
            nbr_offsets=nbr_offsets,
            nbrs=self.nbrs[nbr_drop:],
            repr_map=repr_map,
            num_layers=self.num_layers - 1,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the DENSE layout invariants; raises ``AssertionError``."""
        offsets = self.node_id_offsets
        assert len(offsets) >= 1 and offsets[0] == 0, "node_id_offsets must start at 0"
        assert np.all(np.diff(offsets) >= 0), "node_id_offsets must be nondecreasing"
        assert offsets[-1] <= len(self.node_ids), "offset exceeds node_ids"
        assert len(np.unique(self.node_ids)) == len(self.node_ids), \
            "node_ids must be unique (delta encoding)"
        n_with_nbrs = len(self.node_ids) - (int(offsets[1]) if len(offsets) > 1 else 0)
        assert len(self.nbr_offsets) == n_with_nbrs, \
            f"nbr_offsets length {len(self.nbr_offsets)} != nodes with neighbors {n_with_nbrs}"
        if len(self.nbr_offsets):
            assert self.nbr_offsets[0] == 0, "nbr_offsets must start at 0"
            assert np.all(np.diff(self.nbr_offsets) >= 0)
            assert self.nbr_offsets[-1] <= len(self.nbrs)
        if len(self.nbrs):
            assert np.isin(self.nbrs, self.node_ids).all(), \
                "every sampled neighbor must appear in node_ids"
        if self.repr_map is not None:
            assert len(self.repr_map) == len(self.nbrs)
            assert np.array_equal(self.node_ids[self.repr_map], self.nbrs), \
                "repr_map must map nbrs to their node_ids rows"


def compute_next_delta(nbrs: np.ndarray, node_ids: np.ndarray) -> np.ndarray:
    """Algorithm 1 line 7: unique sampled neighbors not yet in node_ids."""
    candidates = np.unique(nbrs)
    return candidates[~np.isin(candidates, node_ids)]


def _empty_batch(target_nodes: np.ndarray) -> DenseBatch:
    batch = DenseBatch(
        node_id_offsets=np.zeros(1, dtype=np.int64),
        node_ids=target_nodes.copy(),
        nbr_offsets=np.empty(0, dtype=np.int64),
        nbrs=np.empty(0, dtype=np.int64),
        num_layers=0,
    )
    batch.stats.num_target_nodes = len(target_nodes)
    batch.stats.num_unique_nodes = len(target_nodes)
    return batch


def build_dense(
    target_nodes: np.ndarray,
    fanouts: Sequence[int],
    index,
    rng: Optional[np.random.Generator] = None,
    member: Optional[np.ndarray] = None,
) -> DenseBatch:
    """Algorithm 1: multi-hop neighborhood sampling with delta encoding.

    The allocation-lean fast path: per-hop segments are buffered in lists and
    each output array is written exactly once; membership testing uses O(1)
    boolean lookups instead of ``np.isin``. Produces batches bit-identical to
    :func:`build_dense_reference` (same arrays, same stats) under the same
    seeded generator.

    Parameters
    ----------
    target_nodes:
        Unique node IDs forming Δ_k (the mini batch's training nodes).
    fanouts:
        Per-layer max neighbors, **ordered away from the target nodes** —
        ``fanouts[0]`` applies to the first hop from the targets (the paper's
        convention, e.g. ``[30, 20, 10]`` for a 3-layer GraphSage).
    index:
        The in-memory adjacency over which sampling is legal (only in-buffer
        edges for disk-based training, Section 3). Either index class works.
    member:
        Optional reusable ``bool`` scratch array of length ``num_nodes``
        (all-False on entry, restored to all-False on return), typically
        owned by :class:`~repro.core.sampler.DenseSampler`; marks nodes
        already in ``node_ids``. A fresh array is allocated when omitted.
    """
    rng = rng or np.random.default_rng()
    target_nodes = np.asarray(target_nodes, dtype=np.int64)
    if not np.all(target_nodes[1:] > target_nodes[:-1]):   # else already unique
        unique = np.unique(target_nodes)
        if len(unique) != len(target_nodes):
            target_nodes = unique
    k = len(fanouts)
    if k == 0:
        return _empty_batch(target_nodes)

    stats = SamplingStats(num_target_nodes=len(target_nodes))
    if member is None:
        member = np.zeros(index.num_nodes, dtype=bool)

    deltas = [target_nodes]            # Δ_k first; prepend order reversed below
    nbr_segments: List[np.ndarray] = []
    offset_segments: List[np.ndarray] = []
    try:
        member[target_nodes] = True
        delta = target_nodes

        # Line 3: k rounds, hop t uses fanouts[t] (paper's i runs k..1).
        for t in range(k):
            delta_nbrs, delta_offsets = index.sample_one_hop(delta, int(fanouts[t]),
                                                             rng=rng)
            stats.one_hop_calls += len(delta)
            nbr_segments.append(delta_nbrs)
            offset_segments.append(delta_offsets)
            # Line 7: one np.unique shared by the stats counter and the
            # membership filter (the reference path uniques twice + isin).
            if len(delta_nbrs):
                uniq = np.unique(delta_nbrs)
                stats.dedup_candidates += len(uniq)
                next_delta = uniq[~member[uniq]]
                member[next_delta] = True
            else:
                next_delta = np.empty(0, dtype=np.int64)
            deltas.append(next_delta)
            delta = next_delta
    except BaseException:
        # The caller-owned scratch must come back all-False even when a
        # hop raises (bad target ID, index mid-swap): stale marks would
        # silently drop nodes from every later batch sharing the scratch.
        # Bounds-filter so an out-of-range target doesn't mask the error.
        n = len(member)
        for d in deltas:
            member[d[(d >= 0) & (d < n)]] = False
        raise
    else:
        for d in deltas:            # reset via touched IDs (== node_ids)
            member[d] = False

    # Assemble each output array exactly once (reference path: O(k^2) prepends).
    delta_lens = [len(d) for d in deltas]
    total_ids = sum(delta_lens)
    node_ids = np.empty(total_ids, dtype=np.int64)
    node_id_offsets = np.empty(k + 1, dtype=np.int64)
    pos = 0
    for i, d in enumerate(reversed(deltas)):            # innermost delta first
        node_id_offsets[i] = pos
        node_ids[pos : pos + len(d)] = d
        pos += len(d)

    seg_lens = [len(s) for s in nbr_segments]
    total_nbrs = sum(seg_lens)
    nbrs = np.empty(total_nbrs, dtype=np.int64)
    nbr_offsets = np.empty(sum(len(o) for o in offset_segments), dtype=np.int64)
    npos = opos = 0
    for seg, off in zip(reversed(nbr_segments), reversed(offset_segments)):
        nbrs[npos : npos + len(seg)] = seg
        nbr_offsets[opos : opos + len(off)] = off
        if npos:
            nbr_offsets[opos : opos + len(off)] += npos
        npos += len(seg)
        opos += len(off)

    stats.num_unique_nodes = total_ids
    stats.num_sampled_edges = total_nbrs
    return DenseBatch(
        node_id_offsets=node_id_offsets,
        node_ids=node_ids,
        nbr_offsets=nbr_offsets,
        nbrs=nbrs,
        num_layers=k,
        stats=stats,
    )


def build_dense_reference(
    target_nodes: np.ndarray,
    fanouts: Sequence[int],
    index,
    rng: Optional[np.random.Generator] = None,
) -> DenseBatch:
    """Direct transcription of Algorithm 1 — the correctness oracle.

    Prepends every hop's arrays (quadratic re-copying) and deduplicates with
    ``np.unique`` + ``np.isin``. Kept verbatim so the property tests can
    assert the fast path is bit-identical, and so the benchmark can measure
    the before/after gap.
    """
    rng = rng or np.random.default_rng()
    target_nodes = np.asarray(target_nodes, dtype=np.int64)
    if len(np.unique(target_nodes)) != len(target_nodes):
        target_nodes = np.unique(target_nodes)
    k = len(fanouts)
    if k == 0:
        return _empty_batch(target_nodes)

    stats = SamplingStats(num_target_nodes=len(target_nodes))

    # Line 1-2 of Algorithm 1.
    node_id_offsets = np.zeros(1, dtype=np.int64)
    node_ids = target_nodes.copy()
    nbr_offsets = np.empty(0, dtype=np.int64)
    nbrs = np.empty(0, dtype=np.int64)
    delta = target_nodes

    # Line 3: k rounds, hop t uses fanouts[t] (paper's i runs k..1).
    for t in range(k):
        delta_nbrs, delta_offsets = index.sample_one_hop(delta, int(fanouts[t]), rng=rng)
        stats.one_hop_calls += len(delta)
        # Lines 5-6: stack the new one-hop sample *before* the existing arrays.
        nbr_offsets = np.concatenate([delta_offsets, nbr_offsets + len(delta_nbrs)])
        nbrs = np.concatenate([delta_nbrs, nbrs])
        # Line 7: nodes needing a sample at the next hop.
        next_delta = compute_next_delta(delta_nbrs, node_ids)
        stats.dedup_candidates += len(np.unique(delta_nbrs))
        # Lines 8-9: prepend the new delta.
        node_id_offsets = np.concatenate([np.zeros(1, dtype=np.int64),
                                          node_id_offsets + len(next_delta)])
        node_ids = np.concatenate([next_delta, node_ids])
        delta = next_delta

    stats.num_unique_nodes = len(node_ids)
    stats.num_sampled_edges = len(nbrs)
    return DenseBatch(
        node_id_offsets=node_id_offsets,
        node_ids=node_ids,
        nbr_offsets=nbr_offsets,
        nbrs=nbrs,
        num_layers=k,
        stats=stats,
    )

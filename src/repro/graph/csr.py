"""Adjacency indexes for one-hop neighbor sampling.

Section 4.1 of the paper: MariusGNN stores *two sorted versions of the
in-memory edge list* — one sorted by source node ID (for outgoing neighbors)
and one sorted by destination node ID (for incoming neighbors) — plus a
per-node offset array into each. Two implementations of that structure live
here:

* :class:`AdjacencyIndex` — the flat, full-rebuild form: both sorted copies
  are rebuilt from scratch from a :class:`~repro.graph.edge_list.Graph`.
  This is the reference implementation and the fallback for in-memory
  training, where the edge set never changes.

* :class:`PartitionedAdjacencyIndex` — the *two-level*, partition-aware form
  used for disk-based training. Level 2 is a sorted sub-run per edge bucket
  ``(i, j)`` (edges from partition ``i`` to partition ``j``, sorted by the
  key endpoint); level 1 composes, for each resident partition, its bucket
  sub-runs *virtually*: a small per-node cumulative-degree table stitches the
  runs together in canonical bucket order at sample time, so no neighbor
  array is ever re-copied. A partition-buffer swap therefore only sorts the
  buckets of partitions that actually entered the buffer
  (``update_partitions``); sub-runs of untouched buckets are reused as-is.
  This is what makes the paper's
  "preparing each S_i for training" (Section 6, Quantity 2) cheap.

Sampling ``f`` neighbors for a batch of nodes is fully vectorized, standing
in for the paper's multi-threaded CPU sampler: nodes whose degree is at most
``f`` copy their whole neighbor run; higher-degree nodes draw ``f`` random
positions. By default draws are with replacement (like DGL's
``replace=True`` mode — duplicates within a node's sample are legal and act
as sampling weights); exact without-replacement sampling uses a vectorized
argsort-of-random-keys draw (no per-node loop). Both index classes share the
same drawing helpers, so for identical degrees and an identically seeded
generator they produce bit-identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .edge_list import Graph
from .partition import PartitionScheme


@dataclass
class _SortedEdges:
    """One sorted view of the edge list with per-node offsets."""

    offsets: np.ndarray      # (num_nodes + 1,) start of each node's run
    neighbors: np.ndarray    # other endpoint of each edge in sorted order


def _build_sorted(keys: np.ndarray, values: np.ndarray, num_nodes: int) -> _SortedEdges:
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return _SortedEdges(offsets=offsets, neighbors=values[order])


def _run_gather_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering runs ``[starts[i], starts[i]+counts[i])``, concatenated."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    run_bases = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) + np.repeat(starts - run_bases, counts)


def _draw_positions(deg: np.ndarray, fanout: int, rng: np.random.Generator,
                    replace: bool) -> np.ndarray:
    """Draw ``fanout`` virtual neighbor positions in ``[0, deg)`` per row.

    Shared by both index classes so their random streams are identical for
    identical degree vectors.
    """
    if replace:
        draws = np.floor(rng.random((len(deg), fanout)) * deg[:, None]).astype(np.int64)
        np.minimum(draws, deg[:, None] - 1, out=draws)
        return draws
    return _draw_without_replacement(deg, fanout, rng)


def _draw_without_replacement(deg: np.ndarray, fanout: int,
                              rng: np.random.Generator,
                              chunk_elems: int = 1 << 22) -> np.ndarray:
    """Vectorized exact without-replacement draw (argsort-of-random-keys).

    Every row draws ``fanout`` *distinct* uniform positions in ``[0, deg)``.
    Rows are processed in degree-descending chunks so the random-key matrix
    never exceeds ``chunk_elems`` elements even when hub degrees are large;
    each chunk masks the columns beyond a row's degree and takes the
    ``fanout`` smallest keys (a uniform random subset) via ``argpartition``.
    Callers guarantee ``deg > fanout`` for every row.
    """
    n = len(deg)
    draws = np.empty((n, fanout), dtype=np.int64)
    order = np.argsort(-deg, kind="stable")  # descending: chunk bound is exact
    pos = 0
    while pos < n:
        maxd = int(deg[order[pos]])
        take = max(1, min(n - pos, chunk_elems // max(maxd, 1)))
        rows = order[pos : pos + take]
        d = deg[rows]
        md = int(d.max())
        keys = rng.random((len(rows), md))
        keys[np.arange(md)[None, :] >= d[:, None]] = np.inf
        draws[rows] = np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]
        pos += take
    return draws


class _OneHopSamplerBase:
    """Shared vectorized one-hop sampling driver.

    Subclasses define the *virtual neighbor order* — a per-node concatenated
    neighbor run — through ``_total_deg`` (per-node virtual degree),
    ``_copy_full`` (copy whole runs) and ``_positions_to_neighbors`` (map
    virtual positions to node IDs). The split into full-copy vs random-draw
    nodes, the draw itself, and the output layout live here exactly once, so
    the flat and the partitioned index stay interchangeable sample-for-sample
    under a fixed RNG by construction.
    """

    _total_deg: np.ndarray

    def degrees(self, nodes: np.ndarray) -> np.ndarray:
        """Total sampleable degree of ``nodes`` under the configured directions."""
        return self._total_deg[np.asarray(nodes, dtype=np.int64)]

    def sample_one_hop(
        self,
        nodes: np.ndarray,
        fanout: int,
        rng: Optional[np.random.Generator] = None,
        replace: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample up to ``fanout`` neighbors for each node in ``nodes``.

        Returns ``(nbrs, offsets)``: the flat neighbor array and per-node start
        offsets — the paper's ``oneHopSample`` (Algorithm 1 line 4). A node
        with more than ``fanout`` neighbors gets exactly ``fanout`` draws; a
        node with fewer gets all of them. ``fanout <= 0`` means "all
        neighbors".
        """
        rng = rng or np.random.default_rng()
        nodes = np.asarray(nodes, dtype=np.int64)
        n = len(nodes)
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

        deg = self._total_deg[nodes]
        take = deg if fanout <= 0 else np.minimum(deg, fanout)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(take[:-1], out=offsets[1:])
        nbrs = np.empty(int(take.sum()), dtype=np.int64)

        full = take == deg  # nodes contributing their whole neighbor run
        if full.any():
            self._copy_full(nodes[full], offsets[full], nbrs)
        partial = ~full
        if partial.any():
            self._sample_partial(nodes[partial], offsets[partial], int(fanout),
                                 nbrs, rng, replace)
        return nbrs, offsets

    def _sample_partial(self, nodes: np.ndarray, out_pos: np.ndarray, fanout: int,
                        out: np.ndarray, rng: np.random.Generator, replace: bool) -> None:
        """Sample exactly ``fanout`` positions for nodes with degree > fanout."""
        deg = self._total_deg[nodes]
        draws = _draw_positions(deg, fanout, rng, replace)
        values = self._positions_to_neighbors(nodes, draws)
        dest = out_pos[:, None] + np.arange(fanout, dtype=np.int64)[None, :]
        out[dest.ravel()] = values.ravel()

    # Subclass hooks -----------------------------------------------------
    def _copy_full(self, nodes: np.ndarray, out_pos: np.ndarray,
                   out: np.ndarray) -> None:
        raise NotImplementedError

    def _positions_to_neighbors(self, nodes: np.ndarray,
                                positions: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class AdjacencyIndex(_OneHopSamplerBase):
    """Dual-sorted edge list supporting vectorized one-hop sampling.

    Parameters
    ----------
    graph:
        The (sub)graph currently in memory.
    directions:
        ``"out"``, ``"in"``, or ``"both"`` — which neighbor direction(s) a
        one-hop sample draws from. The paper samples incoming and outgoing
        edges for GraphSage and incoming only for GAT (Section 7.1).
    """

    def __init__(self, graph: Graph, directions: str = "both") -> None:
        if directions not in ("out", "in", "both"):
            raise ValueError(f"directions must be out/in/both, got {directions!r}")
        self.graph = graph
        self.directions = directions
        self.num_nodes = graph.num_nodes
        self._views = []
        if directions in ("out", "both"):
            self._views.append(_build_sorted(graph.src, graph.dst, graph.num_nodes))
        if directions in ("in", "both"):
            self._views.append(_build_sorted(graph.dst, graph.src, graph.num_nodes))
        # Virtual concatenated neighbor array: per node, out-run then in-run.
        self._deg_per_view = [v.offsets[1:] - v.offsets[:-1] for v in self._views]
        self._total_deg = sum(self._deg_per_view)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes used by the sorted edge copies (the 2x edge factor in Section 6)."""
        return int(sum(v.offsets.nbytes + v.neighbors.nbytes for v in self._views))

    def neighbors_of(self, node: int) -> np.ndarray:
        """All neighbors of one node (out-run then in-run)."""
        parts = [v.neighbors[v.offsets[node] : v.offsets[node + 1]] for v in self._views]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def _copy_full(self, nodes: np.ndarray, out_pos: np.ndarray, out: np.ndarray) -> None:
        """Copy every neighbor of ``nodes`` into ``out`` at ``out_pos`` (run-major)."""
        cursor = out_pos.astype(np.int64).copy()
        for view, view_deg in zip(self._views, self._deg_per_view):
            starts = view.offsets[nodes]
            counts = view_deg[nodes]
            src_index = _run_gather_index(starts, counts)
            dst_index = _run_gather_index(cursor, counts)
            out[dst_index] = view.neighbors[src_index]
            cursor += counts

    def _positions_to_neighbors(self, nodes: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Map virtual neighbor positions (out-run then in-run) to node IDs."""
        values = np.empty_like(positions)
        base = np.zeros(len(nodes), dtype=np.int64)
        remaining = np.ones(positions.shape, dtype=bool)
        for view, view_deg in zip(self._views, self._deg_per_view):
            counts = view_deg[nodes]
            local = positions - base[:, None]
            in_view = remaining & (local < counts[:, None]) & (local >= 0)
            if in_view.any():
                rows, cols = np.nonzero(in_view)
                values[rows, cols] = view.neighbors[
                    view.offsets[nodes[rows]] + positions[rows, cols] - base[rows]
                ]
            remaining &= ~in_view
            base += counts
        if remaining.any():
            raise IndexError("neighbor position out of range")
        return values


# ---------------------------------------------------------------------------
# Two-level partition-aware index
# ---------------------------------------------------------------------------

@dataclass
class _BucketRun:
    """Level 2: one bucket's edges sorted by the key endpoint.

    ``offsets`` delimits, per local node ID of the key partition, its
    node-major neighbor segment inside ``neighbors`` (all of local node 0's
    neighbors, then node 1's, …), preserving the bucket's on-disk edge order
    within each node. Built once per bucket; swap-independent.
    """

    offsets: np.ndarray      # (partition_size + 1,)
    neighbors: np.ndarray

    def counts(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]


@dataclass
class _PartEntry:
    """Level 1: a resident key partition — its bucket sub-runs composed.

    The composition is virtual: nothing is re-copied on a swap. ``runs``
    lists the active bucket sub-runs in ascending other-partition order (the
    canonical bucket-major order) and ``cumdeg[b][k]`` is local node ``k``'s
    degree summed over runs before ``b`` — the per-node start of run ``b``'s
    segment inside the node's virtual concatenated neighbor run.
    """

    lo: int                  # first global node ID of the key partition
    runs: List[_BucketRun]
    cumdeg: np.ndarray       # (len(runs) + 1, partition_size)


def _sort_bucket(keys_local: np.ndarray, values: np.ndarray,
                 size: int) -> _BucketRun:
    # Keys are partition-local, so for partitions under 2^16 nodes they fit
    # uint16 and NumPy's stable sort becomes an O(n) radix sort — an order
    # of magnitude faster than the comparison sort the flat index pays on
    # full-range node IDs. Stability (= on-disk edge order within a node)
    # is preserved either way.
    if size <= np.iinfo(np.uint16).max:
        order = np.argsort(keys_local.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(keys_local, kind="stable")
    counts = np.bincount(keys_local, minlength=size)
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return _BucketRun(offsets=offsets, neighbors=values[order])


class _PartView:
    """One direction ("out" = keyed by src, "in" = keyed by dst)."""

    def __init__(self, kind: str, num_nodes: int) -> None:
        self.kind = kind
        self.deg = np.zeros(num_nodes, dtype=np.int64)
        self.parts: Dict[int, _PartEntry] = {}


class PartitionedAdjacencyIndex(_OneHopSamplerBase):
    """Two-level dual-sorted index over the in-buffer edge buckets.

    Parameters
    ----------
    scheme:
        Node-to-partition assignment (contiguous ID ranges).
    bucket_source:
        ``bucket_source(i, j) -> (src, dst)`` returning the endpoint arrays
        of edge bucket ``(i, j)`` in their canonical (on-disk) order. Called
        lazily: only for buckets whose partitions just became resident.
    partitions:
        Initially resident partitions (may be empty).
    directions:
        Same semantics as :class:`AdjacencyIndex`.

    The virtual neighbor order of a node is identical to what a flat
    :class:`AdjacencyIndex` built over the bucket-major in-buffer subgraph
    (buckets concatenated in ascending ``(i, j)`` order) would produce, so
    the two indexes are interchangeable sample-for-sample under a fixed RNG.
    """

    def __init__(self, scheme: PartitionScheme,
                 bucket_source: Callable[[int, int], Tuple[np.ndarray, np.ndarray]],
                 partitions: Iterable[int] = (),
                 directions: str = "both") -> None:
        if directions not in ("out", "in", "both"):
            raise ValueError(f"directions must be out/in/both, got {directions!r}")
        self.scheme = scheme
        self.bucket_source = bucket_source
        self.directions = directions
        self.num_nodes = scheme.num_nodes
        self._views: List[_PartView] = []
        if directions in ("out", "both"):
            self._views.append(_PartView("out", self.num_nodes))
        if directions in ("in", "both"):
            self._views.append(_PartView("in", self.num_nodes))
        self._total_deg = np.zeros(self.num_nodes, dtype=np.int64)
        # Resident bucket sub-runs: (i, j) -> {"out": _BucketRun, "in": _BucketRun}
        self._buckets: Dict[Tuple[int, int], Dict[str, _BucketRun]] = {}
        self._resident: List[int] = []
        # Counters for the perf benchmark / tests.
        self.bucket_sorts = 0
        self.bucket_fetches = 0
        self.composes = 0
        parts = sorted(int(p) for p in partitions)
        if parts:
            self.update_partitions(parts, ())

    # ------------------------------------------------------------------
    @property
    def partitions(self) -> List[int]:
        return list(self._resident)

    def _bounds(self, part: int) -> Tuple[int, int]:
        b = self.scheme.boundaries
        return int(b[part]), int(b[part + 1])

    def _build_bucket(self, i: int, j: int) -> Dict[str, _BucketRun]:
        src, dst = self.bucket_source(i, j)
        self.bucket_fetches += 1
        runs: Dict[str, _BucketRun] = {}
        if self.directions in ("out", "both"):
            lo, hi = self._bounds(i)
            runs["out"] = _sort_bucket(src - lo, dst, hi - lo)
            self.bucket_sorts += 1
        if self.directions in ("in", "both"):
            lo, hi = self._bounds(j)
            runs["in"] = _sort_bucket(dst - lo, src, hi - lo)
            self.bucket_sorts += 1
        return runs

    def _compose_partition(self, view: _PartView, part: int) -> None:
        """(Re)compose a key partition's active bucket runs — no data copy.

        Collects the partition's bucket sub-runs in canonical (ascending
        other-partition) order and rebuilds the small per-node cumulative
        degree table; the sorted neighbor arrays themselves are reused
        untouched, so a swap's cost is independent of the surviving
        partitions' edge counts.
        """
        lo, hi = self._bounds(part)
        size = hi - lo
        runs: List[_BucketRun] = []
        for other in self._resident:
            key = (part, other) if view.kind == "out" else (other, part)
            runs.append(self._buckets[key][view.kind])
        cumdeg = np.zeros((len(runs) + 1, size), dtype=np.int64)
        for b, r in enumerate(runs):
            np.add(cumdeg[b], r.counts(), out=cumdeg[b + 1])
        view.parts[part] = _PartEntry(lo=lo, runs=runs, cumdeg=cumdeg)
        view.deg[lo:hi] = cumdeg[-1]
        self.composes += 1

    # ------------------------------------------------------------------
    def update_partitions(self, added: Iterable[int], removed: Iterable[int]) -> None:
        """Apply a buffer-swap diff: sort only the *new* partitions' buckets.

        ``added`` partitions' buckets (against every resident partition) are
        fetched and sorted; buckets of surviving partitions are reused
        as-is. Every resident partition's
        level-1 sub-index is then recomposed (a copy, not a sort).
        """
        added = sorted({int(p) for p in added})
        removed = sorted({int(p) for p in removed})
        resident = set(self._resident)
        for q in removed:
            if q not in resident:
                raise KeyError(f"partition {q} is not in the index")
        added = [q for q in added if q not in resident or q in removed]
        if not added and not removed:
            return
        new_resident = sorted((resident - set(removed)) | set(added))
        new_resident_set = set(new_resident)

        # Drop the sub-runs of buckets leaving the buffer.
        for (i, j) in list(self._buckets):
            if i not in new_resident_set or j not in new_resident_set:
                del self._buckets[(i, j)]

        # Zero the degree ranges of evicted partitions.
        for view in self._views:
            for q in removed:
                lo, hi = self._bounds(q)
                view.deg[lo:hi] = 0
                view.parts.pop(q, None)

        # Fetch + sort only buckets not already held (new partitions' rows
        # and columns).
        for i in new_resident:
            for j in new_resident:
                if (i, j) not in self._buckets:
                    self._buckets[(i, j)] = self._build_bucket(i, j)

        # Recompose every resident partition's level-1 view (bookkeeping
        # only; the sorted neighbor arrays are reused untouched).
        self._resident = new_resident
        for view in self._views:
            for part in new_resident:
                self._compose_partition(view, part)

        self._total_deg.fill(0)
        for view in self._views:
            np.add(self._total_deg, view.deg, out=self._total_deg)

    # ------------------------------------------------------------------
    def refresh_buckets(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Re-fetch + re-sort the given edge buckets; recompose their owners.

        The streaming ingest hook: when a live graph appends (or tombstones)
        edges in bucket ``(i, j)``, only that bucket's sub-runs are stale —
        the rest of the index is reused untouched, exactly like a buffer
        swap. Pairs whose sub-runs are not currently held (a partition not
        resident) cost nothing: they will be fetched fresh — and therefore
        delta-aware — whenever their partitions next enter the buffer.
        """
        changed = sorted({(int(i), int(j)) for i, j in pairs})
        touched_parts = set()
        for key in changed:
            if key not in self._buckets:
                continue
            i, j = key
            self._buckets[key] = self._build_bucket(i, j)
            if self.directions in ("out", "both"):
                touched_parts.add(i)
            if self.directions in ("in", "both"):
                touched_parts.add(j)
        if not touched_parts:
            return
        for view in self._views:
            for part in sorted(touched_parts):
                self._compose_partition(view, part)
        self._total_deg.fill(0)
        for view in self._views:
            np.add(self._total_deg, view.deg, out=self._total_deg)

    def extend_nodes(self, new_scheme: PartitionScheme) -> None:
        """Follow a node-table growth: new IDs joined the last partition.

        Grows the per-node degree arrays with zero-degree entries and, if
        the last partition is resident, re-sorts its buckets (their per-node
        offset tables are sized by the partition) and recomposes it. Only
        the streaming growth rule of :meth:`PartitionScheme.extended` is
        supported — interior boundaries must be unchanged.
        """
        old = self.scheme
        if new_scheme.num_partitions != old.num_partitions or not np.array_equal(
                new_scheme.boundaries[:-1], old.boundaries[:-1]):
            raise ValueError("extend_nodes supports only growth of the last "
                             "partition (PartitionScheme.extended)")
        extra = new_scheme.num_nodes - old.num_nodes
        if extra < 0:
            raise ValueError("node count cannot shrink")
        self.scheme = new_scheme
        if extra == 0:
            return
        self.num_nodes = new_scheme.num_nodes
        pad = np.zeros(extra, dtype=np.int64)
        for view in self._views:
            view.deg = np.concatenate([view.deg, pad])
        self._total_deg = np.concatenate([self._total_deg, pad])
        # Every held sub-run keyed by the last partition is stale: its
        # per-node offset table is sized by the old partition.
        last = old.num_partitions - 1
        p = old.num_partitions
        self.refresh_buckets([(last, q) for q in range(p)]
                             + [(q, last) for q in range(p)])

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes used by the resident sorted sub-runs (the 2x edge factor)."""
        return int(sum(r.offsets.nbytes + r.neighbors.nbytes
                       for v in self._views
                       for e in v.parts.values() for r in e.runs))

    def neighbors_of(self, node: int) -> np.ndarray:
        """All neighbors of one node (out-run then in-run)."""
        part = int(self.scheme.partition_of(np.array([node]))[0])
        segments = []
        for view in self._views:
            entry = view.parts.get(part)
            if entry is None:
                continue
            local = node - entry.lo
            for r in entry.runs:
                segments.append(r.neighbors[r.offsets[local] : r.offsets[local + 1]])
        return (np.concatenate(segments) if segments
                else np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    def _copy_full(self, nodes: np.ndarray, out_pos: np.ndarray, out: np.ndarray) -> None:
        node_part = self.scheme.partition_of(nodes)
        cursor = out_pos.astype(np.int64).copy()
        for view in self._views:
            for part, entry in view.parts.items():
                sel = np.nonzero(node_part == part)[0]
                if not len(sel):
                    continue
                local = nodes[sel] - entry.lo
                pos = cursor[sel]
                for r in entry.runs:        # canonical ascending bucket order
                    starts = r.offsets[local]
                    counts = r.offsets[local + 1] - starts
                    src_index = _run_gather_index(starts, counts)
                    dst_index = _run_gather_index(pos, counts)
                    out[dst_index] = r.neighbors[src_index]
                    pos = pos + counts
                cursor[sel] = pos

    def _positions_to_neighbors(self, nodes: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Map virtual positions (out-run then in-run, buckets in canonical
        order inside each run) to node IDs."""
        values = np.empty_like(positions)
        node_part = self.scheme.partition_of(nodes)
        base = np.zeros(len(nodes), dtype=np.int64)
        remaining = np.ones(positions.shape, dtype=bool)
        for view in self._views:
            vdeg = view.deg[nodes]
            local_pos = positions - base[:, None]
            in_view = remaining & (local_pos >= 0) & (local_pos < vdeg[:, None])
            if in_view.any():
                rows, cols = np.nonzero(in_view)
                vnodes = nodes[rows]
                vparts = node_part[rows]
                vpos = local_pos[rows, cols]
                flat = np.empty(len(rows), dtype=np.int64)
                for part, entry in view.parts.items():
                    m = np.nonzero(vparts == part)[0]
                    if not len(m):
                        continue
                    loc = vnodes[m] - entry.lo
                    pos = vpos[m]
                    # Locate each position's bucket via the cumulative
                    # degree table, then index into that bucket's sub-run.
                    done = np.zeros(len(m), dtype=bool)
                    for b, r in enumerate(entry.runs):
                        lo_d = entry.cumdeg[b, loc]
                        hi_d = entry.cumdeg[b + 1, loc]
                        hit = ~done & (pos >= lo_d) & (pos < hi_d)
                        if hit.any():
                            h = np.nonzero(hit)[0]
                            flat[m[h]] = r.neighbors[r.offsets[loc[h]]
                                                     + pos[h] - lo_d[h]]
                            done |= hit
                values[rows, cols] = flat
            remaining &= ~in_view
            base += vdeg
        if remaining.any():
            raise IndexError("neighbor position out of range")
        return values

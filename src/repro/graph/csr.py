"""Adjacency indexes for one-hop neighbor sampling.

Section 4.1 of the paper: MariusGNN stores *two sorted versions of the
in-memory edge list* — one sorted by source node ID (for outgoing neighbors)
and one sorted by destination node ID (for incoming neighbors) — plus a
per-node offset array into each. Both indexes here hold the two versions
combined in one flat CSR: global per-node ``offsets`` into one ``neighbors``
array that holds each node's out-run, then its in-run.

* :class:`AdjacencyIndex` — the full-rebuild form: both runs are sorted from
  scratch from a :class:`~repro.graph.edge_list.Graph`. In-memory training
  uses it (the edge set never changes), and it is the reference the
  partitioned form is tested against.

* :class:`PartitionedAdjacencyIndex` — the *two-level*, partition-aware form
  used for disk-based training. Level 2 is a sorted sub-run per edge bucket
  ``(i, j)`` (edges from partition ``i`` to partition ``j``, sorted by the
  key endpoint), sorted once when the bucket enters the buffer. Level 1 is
  the flat CSR over the resident subgraph. A partition-buffer swap
  (``update_partitions``) sorts only the buckets of partitions that entered
  the buffer and copies the resident edges once into a new level 1 — the
  paper's "preparing each S_i for training" (Section 6, Quantity 2) — so a
  sample is one gather.

Sampling ``f`` neighbors for a batch of nodes is fully vectorized, standing
in for the paper's multi-threaded CPU sampler: nodes whose degree is at most
``f`` copy their whole neighbor run; higher-degree nodes draw ``f`` random
positions. By default draws are with replacement (like DGL's
``replace=True`` mode — duplicates within a node's sample are legal and act
as sampling weights); exact without-replacement sampling uses a vectorized
argsort-of-random-keys draw (no per-node loop). Both index classes sample
through the same code over the same layout, so for identical neighbor runs
and an identically seeded generator they produce bit-identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .edge_list import Graph
from .partition import PartitionScheme


def _check_directions(directions: str) -> None:
    if directions not in ("out", "in", "both"):
        raise ValueError(f"directions must be out/in/both, got {directions!r}")


@dataclass
class _Run:
    """Edges sorted by their key endpoint.

    ``offsets`` delimits, per key node (counted from the first key of the
    run's range), its segment inside ``neighbors``, keeping the input edge
    order within each node; ``keys`` is that local key per entry. A
    partitioned index holds one per bucket and direction (level 2); a flat
    index sorts one per direction and discards it once level 1 is built.
    """

    offsets: np.ndarray      # (key range size + 1,)
    neighbors: np.ndarray
    keys: np.ndarray         # sorted keys, uint16 where they fit

    def counts(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def nbytes(self) -> int:
        return int(self.offsets.nbytes + self.neighbors.nbytes + self.keys.nbytes)


def _sort_run(keys: np.ndarray, values: np.ndarray, size: int) -> _Run:
    """Stable-sort ``values`` by ``keys`` (local IDs in ``[0, size)``)."""
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=size)
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return _Run(offsets=offsets, neighbors=values[order],
                keys=_narrow(keys, size)[order])


def _narrow(keys: np.ndarray, size: int) -> np.ndarray:
    # Keys under 2^16 fit uint16: a quarter of the bytes, and NumPy's stable
    # sort of uint16 is an O(n) radix sort — an order of magnitude faster
    # than the comparison sort the flat index pays on full-range node IDs.
    if size <= np.iinfo(np.uint16).max:
        return keys.astype(np.uint16, copy=False)
    return keys


@dataclass(frozen=True)
class _FlatCSR:
    """Every node's neighbors in one array (the partitioned index's level 1).

    ``neighbors[offsets[v]:offsets[v + 1]]`` is node ``v``'s out-run, then
    its in-run; ``total_deg`` is the length of that span. An index fills a
    new object with :meth:`place`, then publishes it in one assignment and
    never writes into it again, so a reader that takes it once sees one
    graph even while another thread refreshes.
    """

    offsets: np.ndarray      # (num_nodes + 1,)
    neighbors: np.ndarray
    total_deg: np.ndarray    # (num_nodes,)

    #: Entries scattered per step of :meth:`place`, which bounds its
    #: temporaries when a run is the whole graph's edge list.
    PLACE_CHUNK = 1 << 16

    @classmethod
    def allocate(cls, total_deg: np.ndarray) -> "_FlatCSR":
        offsets = np.zeros(len(total_deg) + 1, dtype=np.int64)
        np.cumsum(total_deg, out=offsets[1:])
        return cls(offsets=offsets,
                   neighbors=np.empty(int(offsets[-1]), dtype=np.int64),
                   total_deg=total_deg)

    def place(self, cursor: np.ndarray, run: _Run) -> None:
        """Copy ``run``'s segment of each key node ``k`` to ``cursor[k]``.

        ``cursor`` holds the next free position of every node in the run's
        key range and is advanced past the copied segments. The destination
        of each entry is a gather of per-node shifts by its sorted key, and
        the run's contiguous neighbors are scattered there.
        """
        shift = cursor - run.offsets[:-1]
        for a in range(0, len(run.neighbors), self.PLACE_CHUNK):
            b = min(a + self.PLACE_CHUNK, len(run.neighbors))
            dest = np.take(shift, run.keys[a:b])
            dest += np.arange(a, b, dtype=np.int64)
            self.neighbors[dest] = run.neighbors[a:b]
        cursor += run.counts()

    def nbytes(self) -> int:
        return int(self.offsets.nbytes + self.neighbors.nbytes
                   + self.total_deg.nbytes)


def _run_gather_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering runs ``[starts[i], starts[i]+counts[i])``, concatenated."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    run_bases = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) + np.repeat(starts - run_bases, counts)


def _draw_positions(deg: np.ndarray, fanout: int, rng: np.random.Generator,
                    replace: bool) -> np.ndarray:
    """Draw ``fanout`` positions in ``[0, deg)`` per row of neighbor runs.

    The random stream depends only on the degree vector, so indexes with
    identical degrees draw identically.
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
    """Vectorized one-hop sampling over the published :class:`_FlatCSR`.

    Subclasses build a :class:`_FlatCSR` and assign it to ``_csr`` in one step;
    everything here reads it once per call.
    """

    _csr: _FlatCSR

    @property
    def num_nodes(self) -> int:
        return len(self._csr.total_deg)

    def degrees(self, nodes: np.ndarray) -> np.ndarray:
        """Total sampleable degree of ``nodes`` under the configured directions."""
        return self._csr.total_deg[np.asarray(nodes, dtype=np.int64)]

    def neighbors_of(self, node: int) -> np.ndarray:
        """All neighbors of one node (out-run then in-run)."""
        csr = self._csr
        return csr.neighbors[csr.offsets[node] : csr.offsets[node + 1]].copy()

    def memory_bytes(self) -> int:
        """Bytes of the flat CSR (the 2x edge factor in Section 6)."""
        return self._csr.nbytes()

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
        csr = self._csr
        rng = rng or np.random.default_rng()
        nodes = np.asarray(nodes, dtype=np.int64)
        n = len(nodes)
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

        starts = csr.offsets[nodes]
        deg = csr.total_deg[nodes]
        take = deg if fanout <= 0 else np.minimum(deg, fanout)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(take[:-1], out=offsets[1:])
        nbrs = np.empty(int(take.sum()), dtype=np.int64)

        full = take == deg  # nodes contributing their whole neighbor run
        if full.any():
            counts = deg[full]
            nbrs[_run_gather_index(offsets[full], counts)] = csr.neighbors[
                _run_gather_index(starts[full], counts)]
        partial = ~full
        if partial.any():
            draws = _draw_positions(deg[partial], int(fanout), rng, replace)
            draws += starts[partial][:, None]
            dest = offsets[partial][:, None] + np.arange(fanout, dtype=np.int64)
            nbrs[dest.ravel()] = csr.neighbors[draws.ravel()]
        return nbrs, offsets


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
        _check_directions(directions)
        self.graph = graph
        self.directions = directions
        n = graph.num_nodes
        ends = []
        if directions in ("out", "both"):
            ends.append((graph.src, graph.dst))
        if directions in ("in", "both"):
            ends.append((graph.dst, graph.src))
        csr = _FlatCSR.allocate(sum(np.bincount(keys, minlength=n)
                                    for keys, _ in ends))
        cursor = csr.offsets[:-1].copy()
        for keys, values in ends:   # one sorted run alive at a time
            csr.place(cursor, _sort_run(keys, values, n))
        self._csr = csr


# ---------------------------------------------------------------------------
# Two-level partition-aware index
# ---------------------------------------------------------------------------

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

    A node's neighbor run is its buckets' sub-runs in ascending ``(i, j)``
    order — exactly what a flat :class:`AdjacencyIndex` built over the
    bucket-major in-buffer subgraph holds — so the two indexes are
    interchangeable sample-for-sample under a fixed RNG.
    """

    def __init__(self, scheme: PartitionScheme,
                 bucket_source: Callable[[int, int], Tuple[np.ndarray, np.ndarray]],
                 partitions: Iterable[int] = (),
                 directions: str = "both") -> None:
        _check_directions(directions)
        self.scheme = scheme
        self.bucket_source = bucket_source
        self.directions = directions
        # Level 2, resident buckets only: (i, j) -> {"out": _Run, "in": _Run}
        self._buckets: Dict[Tuple[int, int], Dict[str, _Run]] = {}
        self._resident: List[int] = []
        self._publish()
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

    def _build_bucket(self, i: int, j: int) -> Dict[str, _Run]:
        src, dst = self.bucket_source(i, j)
        runs: Dict[str, _Run] = {}
        if self.directions in ("out", "both"):
            lo, hi = self._bounds(i)
            runs["out"] = _sort_run(_narrow(src - lo, hi - lo), dst, hi - lo)
        if self.directions in ("in", "both"):
            lo, hi = self._bounds(j)
            runs["in"] = _sort_run(_narrow(dst - lo, hi - lo), src, hi - lo)
        return runs

    def _publish(self) -> None:
        """Copy the resident sub-runs into a new level 1 and publish it.

        A key partition's nodes take their out sub-runs, then their in
        sub-runs, each in ascending other-partition (canonical bucket) order.
        """
        groups = []
        for q in self._resident:
            runs = []
            if self.directions in ("out", "both"):
                runs += [self._buckets[(q, o)]["out"] for o in self._resident]
            if self.directions in ("in", "both"):
                runs += [self._buckets[(o, q)]["in"] for o in self._resident]
            groups.append((slice(*self._bounds(q)), runs))
        total_deg = np.zeros(self.scheme.num_nodes, dtype=np.int64)
        for nodes, runs in groups:
            for r in runs:
                total_deg[nodes] += r.counts()
        csr = _FlatCSR.allocate(total_deg)
        for nodes, runs in groups:
            cursor = csr.offsets[:-1][nodes].copy()
            for r in runs:
                csr.place(cursor, r)
        self._csr = csr

    # ------------------------------------------------------------------
    def update_partitions(self, added: Iterable[int], removed: Iterable[int]) -> None:
        """Apply a buffer-swap diff: sort only the *new* partitions' buckets.

        ``added`` partitions' buckets (against every resident partition) are
        fetched and sorted; buckets of surviving partitions are reused
        as-is. Level 1 is then rebuilt from the resident sub-runs (a copy,
        not a sort).
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

        # Fetch + sort only buckets not already held (new partitions' rows
        # and columns).
        for i in new_resident:
            for j in new_resident:
                if (i, j) not in self._buckets:
                    self._buckets[(i, j)] = self._build_bucket(i, j)

        self._resident = new_resident
        self._publish()

    # ------------------------------------------------------------------
    def refresh_buckets(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Re-fetch + re-sort the given edge buckets; rebuild level 1.

        The streaming ingest hook: when a live graph appends (or tombstones)
        edges in bucket ``(i, j)``, only that bucket's sub-runs are stale —
        the other sub-runs are reused untouched, exactly like a buffer swap.
        Pairs whose sub-runs are not currently held (a partition not
        resident) cost nothing: they will be fetched fresh — and therefore
        delta-aware — whenever their partitions next enter the buffer.
        """
        if self._refetch(pairs):
            self._publish()

    def _refetch(self, pairs: Iterable[Tuple[int, int]]) -> bool:
        """Re-sort the held buckets among ``pairs``; whether there were any."""
        held = sorted({(int(i), int(j)) for i, j in pairs} & self._buckets.keys())
        for i, j in held:
            self._buckets[(i, j)] = self._build_bucket(i, j)
        return bool(held)

    def extend_nodes(self, new_scheme: PartitionScheme) -> None:
        """Follow a node-table growth: new IDs joined the last partition.

        New nodes start with no neighbors. If the last partition is
        resident, its buckets are re-sorted (their per-node offset tables
        are sized by the partition) before level 1 is rebuilt over the new
        node count. Only the streaming growth rule of
        :meth:`PartitionScheme.extended` is supported — interior boundaries
        must be unchanged.
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
        # Every held sub-run keyed by the last partition is stale: its
        # per-node offset table is sized by the old partition.
        last = old.num_partitions - 1
        p = old.num_partitions
        self._refetch([(last, q) for q in range(p)] + [(q, last) for q in range(p)])
        self._publish()

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes of the resident sorted sub-runs plus the flat level 1."""
        runs = sum(r.nbytes() for bucket in self._buckets.values()
                   for r in bucket.values())
        return int(runs) + super().memory_bytes()

"""Partition-affinity request routing.

Every query family leads with a node id (the looked-up node, the scored
source, the top-k source). The router maps that id to its partition
(the same uniform boundaries the served store uses) and the partition to
the worker *owning* it, so queries against one partition always land on
the same worker — the pages of that partition's rows stay hot in the
page cache behind the worker's table map.

Ownership starts as a static contiguous range split: worker ``w`` of
``W`` owns partitions ``[floor(w*p/W), floor((w+1)*p/W))`` — contiguous
because the store's partitions are contiguous id ranges, so range
queries and locality-ordered sweeps stay within one owner.
:meth:`AffinityRouter.set_assignment` is the rebalance hook: a future
load balancer (or an operator) can install any partition->worker map
atomically between requests; this table is O(p) and exact.

``policy="random"`` ignores ids and deals workers round-robin — the
control arm the benchmark compares against.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["AffinityRouter", "range_assignment"]


def range_assignment(num_partitions: int, num_workers: int) -> List[int]:
    """The static contiguous split: partition -> owning worker."""
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    bounds = [(w * num_partitions) // num_workers
              for w in range(num_workers + 1)]
    out = []
    for w in range(num_workers):
        out.extend([w] * (bounds[w + 1] - bounds[w]))
    return out


class AffinityRouter:
    """Maps a request's lead node id to the worker owning its partition."""

    def __init__(self, boundaries: Sequence[int], num_workers: int,
                 policy: str = "range") -> None:
        if policy not in ("range", "random"):
            raise ValueError(f"unknown affinity policy {policy!r} "
                             f"(expected 'range' or 'random')")
        self.boundaries = np.asarray(boundaries, dtype=np.int64)
        self.num_partitions = len(self.boundaries) - 1
        self.num_workers = int(num_workers)
        self.policy = policy
        self._lock = threading.Lock()
        self._assignment = range_assignment(self.num_partitions,
                                            self.num_workers)
        self._rr = itertools.count()

    # ------------------------------------------------------------------
    def partition_of(self, node_id: int) -> int:
        """The served store's partition holding ``node_id`` (clamped, so
        an out-of-range id still routes somewhere and the worker returns
        the real validation error)."""
        i = int(np.searchsorted(self.boundaries, int(node_id),
                                side="right")) - 1
        return min(max(i, 0), self.num_partitions - 1)

    def owner(self, partition: int) -> int:
        """The worker currently owning ``partition``."""
        with self._lock:
            return self._assignment[int(partition)]

    def route(self, node_id: int) -> int:
        """Worker index for a request led by ``node_id``."""
        if self.policy == "random":
            return next(self._rr) % self.num_workers
        return self.owner(self.partition_of(node_id))

    # ------------------------------------------------------------------
    def assignment(self) -> List[int]:
        with self._lock:
            return list(self._assignment)

    def set_assignment(self, assignment: Sequence[int]) -> None:
        """Rebalance hook: install a new partition->worker map atomically.

        Future routes see the new owners immediately; requests already in
        flight complete against the old owner (both hold a correct copy
        of the snapshot — ownership is a locality optimization, never a
        correctness requirement).
        """
        assignment = [int(w) for w in assignment]
        if len(assignment) != self.num_partitions:
            raise ValueError(f"assignment must cover all "
                             f"{self.num_partitions} partitions")
        bad = [w for w in assignment if not 0 <= w < self.num_workers]
        if bad:
            raise ValueError(f"assignment names unknown workers {bad[:5]}")
        with self._lock:
            self._assignment = assignment

    def ranges(self) -> Dict[int, List[int]]:
        """worker -> owned partitions (diagnostics / ``/statz``)."""
        out: Dict[int, List[int]] = {w: [] for w in range(self.num_workers)}
        for part, w in enumerate(self.assignment()):
            out[w].append(part)
        return out

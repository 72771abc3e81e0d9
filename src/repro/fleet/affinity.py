"""Partition-affinity request routing.

Every query family leads with a node id (the looked-up node, the scored
source, the top-k source). The router maps that id to its partition
(the same uniform boundaries the served store uses) and the partition to
the worker *owning* it, so queries against one partition always land on
the same worker — the pages of that partition's rows stay hot in the
page cache behind the worker's table map.

Ownership is a static contiguous range split: worker ``w`` of ``W``
owns partitions ``[floor(w*p/W), floor((w+1)*p/W))`` — contiguous
because the store's partitions are contiguous id ranges, so range
queries and locality-ordered sweeps stay within one owner. Every worker
serves the whole snapshot, so ownership is locality, never correctness.

``policy="random"`` ignores ids and deals workers round-robin — the
control arm the benchmark compares against.
"""

from __future__ import annotations

import itertools
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
        self.owners = range_assignment(self.num_partitions,
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

    def route(self, node_id: int) -> int:
        """Worker index for a request led by ``node_id``."""
        if self.policy == "random":
            return next(self._rr) % self.num_workers
        return self.owners[self.partition_of(node_id)]

    def ranges(self) -> Dict[int, List[int]]:
        """worker -> owned partitions (diagnostics / ``/statz``)."""
        out: Dict[int, List[int]] = {w: [] for w in range(self.num_workers)}
        for part, w in enumerate(self.owners):
            out[w].append(part)
        return out

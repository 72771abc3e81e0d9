"""Epoch plans and the greedy one-swap pair-cover generator.

A *partition replacement policy* answers two questions for each epoch
(Section 3): the sequence ``S = {S_1, S_2, ...}`` of partition sets to hold
in memory, and the sequence ``X = {X_1, X_2, ...}`` of training examples
(edge buckets) to process while each ``S_i`` is resident. Both BETA and
COMET build ``S`` with the same greedy *one-swap* generator — proven in the
Marius paper to achieve near-minimal IO — and differ in what they swap
(physical vs. logical partitions) and how they assign ``X``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np


@dataclass
class EpochStep:
    """One partition set ``S_i`` with its training-example buckets ``X_i``."""

    partitions: List[int]                 # physical partitions in memory
    buckets: List[Tuple[int, int]]        # ordered edge buckets trained now
    admitted: List[int] = field(default_factory=list)  # physical partitions newly read


@dataclass
class EpochPlan:
    """A full epoch: the sequences S and X plus IO accounting."""

    steps: List[EpochStep]
    num_partitions: int
    buffer_capacity: int
    policy: str

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def total_partition_loads(self) -> int:
        """Physical partitions read from disk over the epoch (incl. initial fill)."""
        return sum(len(s.admitted) for s in self.steps)

    def validate(self) -> None:
        """Every ordered bucket appears exactly once, within its resident set."""
        p = self.num_partitions
        seen: Set[Tuple[int, int]] = set()
        for step in self.steps:
            resident = set(step.partitions)
            if len(resident) > self.buffer_capacity:
                raise AssertionError(
                    f"step holds {len(resident)} partitions > capacity {self.buffer_capacity}"
                )
            for (i, j) in step.buckets:
                if i not in resident or j not in resident:
                    raise AssertionError(f"bucket {(i, j)} trained while not resident")
                if (i, j) in seen:
                    raise AssertionError(f"bucket {(i, j)} assigned twice")
                seen.add((i, j))
        expected = {(i, j) for i in range(p) for j in range(p)}
        missing = expected - seen
        if missing:
            raise AssertionError(f"{len(missing)} buckets never trained, e.g. {sorted(missing)[:4]}")


def greedy_one_swap_cover(num_units: int, capacity: int,
                          rng: Optional[np.random.Generator] = None,
                          randomize_start: bool = False) -> List[List[int]]:
    """Generate partition sets covering all unordered unit pairs, one swap at a time.

    This is the greedy ordering from Marius (BETA): start with units
    ``{0..capacity-1}``, then repeatedly swap a single unit so that the newly
    admitted unit covers as many not-yet-covered pairs as possible, until
    every pair of units has been co-resident at least once. Near-minimal
    total IO among single-swap schedules.

    Returns the list of unit sets (each of size ``capacity``).
    """
    if capacity < 2:
        raise ValueError("capacity must be at least 2 to cover pairs")
    if capacity > num_units:
        raise ValueError(f"capacity {capacity} exceeds unit count {num_units}")
    rng = rng or np.random.default_rng()

    covered = np.zeros((num_units, num_units), dtype=bool)

    if randomize_start:
        current = list(rng.permutation(num_units)[:capacity])
    else:
        current = list(range(capacity))
    for a in current:
        for b in current:
            covered[a, b] = True
        covered[a, a] = True

    sets = [sorted(current)]
    while not covered.all():
        best_gain = -1
        best_pair = None
        in_mem = list(current)
        for admit in range(num_units):
            if admit in current:
                continue
            # Pairs the admitted unit would cover against each possible survivor
            # set; gain depends on which unit gets evicted.
            gains_vs = ~covered[admit, in_mem]
            base_gain = int(gains_vs.sum()) + (0 if covered[admit, admit] else 1)
            for evict_idx, evict in enumerate(in_mem):
                gain = base_gain - int(gains_vs[evict_idx])
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (evict, admit)
        if best_pair is None or best_gain <= 0:
            # Nothing uncovered is reachable with one swap that helps;
            # force-admit any unit participating in an uncovered pair.
            rem = np.argwhere(~covered)
            evict = current[0]
            admit = int(rem[0][0]) if int(rem[0][0]) not in current else int(rem[0][1])
            best_pair = (evict, admit)
        evict, admit = best_pair
        current[current.index(evict)] = admit
        for x in current:
            covered[admit, x] = True
            covered[x, admit] = True
        sets.append(sorted(current))
    return sets


def in_memory_plan(num_partitions: int) -> EpochPlan:
    """Degenerate plan for full in-memory training: one step, everything."""
    parts = list(range(num_partitions))
    buckets = [(i, j) for i in range(num_partitions) for j in range(num_partitions)]
    step = EpochStep(partitions=parts, buckets=buckets, admitted=parts)
    return EpochPlan(steps=[step], num_partitions=num_partitions,
                     buffer_capacity=num_partitions, policy="in-memory")


class PartitionPolicy:
    """Interface: one :class:`EpochPlan` per training epoch."""

    name = "base"

    def plan_epoch(self, epoch: int, rng: Optional[np.random.Generator] = None) -> EpochPlan:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Snapshot support. Policies are epoch-seeded (plans re-derive from a
    # per-epoch rng), so most carry no cross-epoch state — the default
    # export is empty. Stateful policies override both methods with
    # JSON-able payloads so a resumed trainer sees the same policy view.
    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        if state:
            raise ValueError(
                f"policy {self.name!r} keeps no state but the snapshot "
                f"carries {sorted(state)}")

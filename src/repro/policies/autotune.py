"""Auto-tuning rules for COMET hyperparameters (paper Section 6).

Given graph statistics and hardware constants, MariusGNN sets:

* ``p`` (physical partitions) — as large as possible without shrinking the
  smallest disk read below the device block size:
  ``p = alpha_4 = min(NO / D, sqrt(EO / D))``, where NO/EO are the node and
  edge storage overheads and D the block size. More physical partitions
  monotonically lower the Edge Permutation Bias (B = O(p^-alpha1)).
* ``c`` (buffer capacity) — maximized subject to CPU memory:
  ``c * PO + 2 * c^2 * EBO + F < CPU`` (two sorted edge-list copies, fudge F).
* ``l`` (logical partitions) — minimized subject to COMET's constraints
  ``c_l = c * l / p >= 2``, hence ``l = 2p / c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class HardwareSpec:
    """CPU memory and disk characteristics used by the tuning rules."""

    cpu_memory_bytes: int
    disk_block_bytes: int = 1 << 17          # 128 KiB, EBS-style block
    fudge_bytes: int = 2 << 30               # working-memory reserve F


@dataclass(frozen=True)
class GraphSpec:
    """Storage-relevant graph statistics."""

    num_nodes: int
    num_edges: int
    embedding_dim: int
    bytes_per_edge: int = 24  # (src, rel, dst) int64 triple
    state_factor: float = 2.0  # learnable reprs carry per-row Adagrad state

    @property
    def node_overhead(self) -> int:
        """NO: bytes of base representations (float32) plus optimizer state.

        Marius-style storage pages Adagrad state with its partition, doubling
        the per-node footprint — this is how the paper's Table 1 reaches 69GB
        for Freebase86M's 86M x 100-float embeddings.
        """
        return int(self.num_nodes * self.embedding_dim * 4 * self.state_factor)

    @property
    def edge_overhead(self) -> int:
        """EO: total bytes of the edge list."""
        return self.num_edges * self.bytes_per_edge


@dataclass(frozen=True)
class AutotuneResult:
    """Chosen hyperparameters plus the intermediate quantities."""

    num_physical: int      # p
    num_logical: int       # l
    buffer_capacity: int   # c (physical partitions)
    logical_capacity: int  # c_l (logical partitions in buffer; == 2 by rule)
    alpha4: float
    partition_bytes: float     # PO
    edge_bucket_bytes: float   # EBO

    @property
    def buffer_fraction(self) -> float:
        return self.buffer_capacity / self.num_physical


def autotune(graph: GraphSpec, hardware: HardwareSpec,
             max_physical: Optional[int] = None) -> AutotuneResult:
    """Apply the Section 6 rules; returns a consistent (p, l, c) triple.

    The raw rules are continuous; this resolves them to integers satisfying
    COMET's divisibility constraints: ``l | p``, ``(p/l) | c``, ``c_l = 2``.
    """
    no = graph.node_overhead
    eo = graph.edge_overhead
    d = hardware.disk_block_bytes

    # p = alpha4: partitions at which the smallest read hits the block size.
    alpha4 = min(no / d, math.sqrt(max(eo, 1) / d))
    p = max(2, int(alpha4))
    if max_physical is not None:
        p = min(p, max_physical)

    # Maximize c: c*PO + 2*c^2*EBO + F < CPU.
    budget = hardware.cpu_memory_bytes - hardware.fudge_bytes
    if budget <= 0:
        raise ValueError("CPU memory smaller than the fudge reserve")
    po = no / p
    ebo = eo / (p * p)
    c = _max_capacity(p, po, ebo, budget)
    if c < 2:
        raise ValueError(
            "graph does not fit: even a 2-partition buffer exceeds CPU memory"
        )
    if c >= p:
        # Whole graph fits in memory: disk-based training degenerates.
        return AutotuneResult(num_physical=p, num_logical=p, buffer_capacity=p,
                              logical_capacity=p, alpha4=alpha4,
                              partition_bytes=po, edge_bucket_bytes=ebo)

    # l = 2p / c with c_l = 2. COMET needs (c/2) | p for integral logical
    # groups; a rigid round-down of c is catastrophic when p is prime (the
    # only divisors are 1 and p, collapsing the buffer to 2 partitions), so
    # search p' in [0.85p, p] jointly with c' and keep the pair with the
    # largest buffer, tie-broken by more physical partitions (lower bias).
    best = None
    for p_try in range(p, max(1, int(p * 0.85)) - 1, -1):
        po_try = no / p_try
        ebo_try = eo / (p_try * p_try)
        cmax = min(p_try - 1, _max_capacity(p_try, po_try, ebo_try, budget))
        c_try = _round_capacity(p_try, cmax)
        if c_try < 2:
            continue
        key = (c_try * po_try, p_try)   # buffer bytes, then partition count
        if best is None or key > best[0]:
            best = (key, p_try, c_try, po_try, ebo_try)
    if best is None:
        raise ValueError("no feasible (p, c) pair satisfies the constraints")
    _, p, c, po, ebo = best
    group = c // 2
    l = p // group
    return AutotuneResult(num_physical=p, num_logical=l, buffer_capacity=c,
                          logical_capacity=2, alpha4=alpha4,
                          partition_bytes=po, edge_bucket_bytes=ebo)


def _max_capacity(p: int, po: float, ebo: float, budget: float) -> int:
    """Largest c with c*PO + 2*c^2*EBO <= budget (quadratic in c)."""
    if ebo <= 0:
        return min(p, int(budget // max(po, 1)))
    # 2*ebo*c^2 + po*c - budget = 0
    disc = po * po + 8 * ebo * budget
    c = (-po + math.sqrt(disc)) / (4 * ebo)
    return min(p, int(c))


def _round_capacity(p: int, c: int) -> int:
    """Largest even c' <= c such that (c'/2) divides p."""
    for candidate in range(min(c, p - 1), 1, -1):
        if candidate % 2 == 0 and p % (candidate // 2) == 0:
            return candidate
    return 2


def autotune_from_dataset(num_nodes: int, num_edges: int, embedding_dim: int,
                          cpu_memory_gb: float, has_relations: bool = True,
                          disk_block_kb: int = 128,
                          fudge_gb: float = 2.0,
                          max_physical: Optional[int] = None) -> AutotuneResult:
    """Convenience wrapper taking human-scale units."""
    graph = GraphSpec(num_nodes=num_nodes, num_edges=num_edges,
                      embedding_dim=embedding_dim,
                      bytes_per_edge=24 if has_relations else 16)
    hardware = HardwareSpec(cpu_memory_bytes=int(cpu_memory_gb * (1 << 30)),
                            disk_block_bytes=disk_block_kb << 10,
                            fudge_bytes=int(fudge_gb * (1 << 30)))
    return autotune(graph, hardware, max_physical=max_physical)

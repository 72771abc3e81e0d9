"""Serving telemetry: engine counters and the benchmark query stream."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

import numpy as np


@dataclass
class ServeStats:
    """Counters accumulated by a :class:`~repro.serve.engine.ServingEngine`.

    ``swaps`` counts partitions entering the encode sampler's resident set
    (each one re-indexes that partition's edge buckets). Lookups, scoring
    and top-k read the table in place and never swap.
    """

    requests: int = 0          # public engine calls served
    lookups: int = 0           # individual node ids gathered
    edges_scored: int = 0
    topk_queries: int = 0
    nodes_encoded: int = 0
    swaps: int = 0             # partitions entering the encode sampler
    topk_parts_scanned: int = 0   # partitions scored by top-k sweeps
    ann_rows_scored: int = 0      # table rows scored by top-k sweeps

    def as_dict(self) -> Dict[str, int]:
        """Every counter field, generated from the dataclass itself so a
        newly added counter can never silently fall out of the export."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def make_query_stream(mix: str, num_queries: int, num_nodes: int,
                      seed: int = 0) -> np.ndarray:
    """Single-node lookup stream for benchmarks and probes.

    ``"random"`` draws uniformly; ``"zipf"`` (exponent 1.3) skews over a
    random node permutation, so the hot set is scattered across partitions
    rather than clustered in the first one. One definition shared by the
    ``serve.bench`` probe and ``benchmarks/test_serving_throughput``
    keeps their reported workloads comparable.
    """
    rng = np.random.default_rng(seed + 17)
    if mix == "zipf":
        ranks = np.minimum(rng.zipf(1.3, size=num_queries), num_nodes) - 1
        return rng.permutation(num_nodes)[ranks]
    if mix != "random":
        raise ValueError(f"unknown query mix {mix!r} (expected zipf/random)")
    return rng.integers(0, num_nodes, size=num_queries)


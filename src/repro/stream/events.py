"""Synthetic event generation for drivers and benchmarks.

One definition shared by the ``stream`` job kind's driver/REPL and
``benchmarks/test_streaming_ingest`` so both measure the same workload:
uniform-random insertions over the current live node ID space (relation
IDs drawn when the graph has relations) plus deletions of *real* live
edges sampled from one random composed bucket.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .live import LiveGraph


def synth_events(live: LiveGraph, rng: np.random.Generator, count: int,
                 delete_fraction: float
                 ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One event batch: ``(inserts, deletes-or-None)``.

    The delete rows come from a single randomly chosen bucket's composed
    view, so they always name currently-live edges; when that bucket is
    empty (or holds fewer rows than asked) the batch comes up short —
    callers must count ingested events from the ``(lo, hi)`` spans the
    ingest calls return, not from ``count``.
    """
    n_del = int(count * delete_fraction)
    n_ins = count - n_del
    width = live.width
    ins = np.empty((n_ins, width), dtype=np.int64)
    ins[:, 0] = rng.integers(0, live.num_nodes, n_ins)
    ins[:, -1] = rng.integers(0, live.num_nodes, n_ins)
    if width == 3:
        ins[:, 1] = rng.integers(0, live.edge_store.num_relations, n_ins)
    dels = None
    if n_del > 0:
        p = live.num_partitions
        i, j = int(rng.integers(0, p)), int(rng.integers(0, p))
        bucket = live.bucket_edges(i, j, record_io=False)
        if len(bucket):
            rows = rng.integers(0, len(bucket), min(n_del, len(bucket)))
            dels = bucket[np.unique(rows)]
    return ins, dels

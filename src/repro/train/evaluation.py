"""Evaluation metrics: MRR / Hits@K for link prediction, accuracy for NC.

Link prediction follows the large-graph OGB protocol the paper uses: each
test edge's true destination is ranked against a pool of sampled negative
candidates (the paper reports MRR with DistMult scoring, Section 7.1). Ranks
use the *mean-rank* tie convention so constant scores give chance-level MRR
rather than an optimistic 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


@dataclass
class RankingMetrics:
    """MRR and hits@k over a set of ranked positives."""

    mrr: float
    hits_at_1: float
    hits_at_10: float
    num_examples: int

    def as_dict(self) -> Dict[str, float]:
        return {"mrr": self.mrr, "hits@1": self.hits_at_1,
                "hits@10": self.hits_at_10, "n": float(self.num_examples)}


def ranks_from_scores(pos_scores: np.ndarray, neg_scores: np.ndarray) -> np.ndarray:
    """Rank of each positive among its negatives (1 = best).

    ``pos_scores``: (n,); ``neg_scores``: (n, num_candidates). Ties are
    averaged: rank = 1 + #better + #ties / 2.
    """
    pos = pos_scores[:, None]
    better = (neg_scores > pos).sum(axis=1)
    ties = (neg_scores == pos).sum(axis=1)
    return 1.0 + better + 0.5 * ties


def ranking_metrics(ranks: np.ndarray) -> RankingMetrics:
    ranks = np.asarray(ranks, dtype=np.float64)
    if len(ranks) == 0:
        return RankingMetrics(0.0, 0.0, 0.0, 0)
    return RankingMetrics(
        mrr=float((1.0 / ranks).mean()),
        hits_at_1=float((ranks <= 1.0).mean()),
        hits_at_10=float((ranks <= 10.0).mean()),
        num_examples=len(ranks),
    )


class TripleFilter:
    """Known-triple lookup for *filtered* link prediction ranking.

    The standard FB15k-237 protocol excludes candidate destinations that form
    a true triple (in train/valid/test) other than the one being ranked, so a
    model is not penalized for scoring real edges highly.
    """

    def __init__(self, *edge_arrays: np.ndarray) -> None:
        self._known = set()
        for edges in edge_arrays:
            if edges is None or len(edges) == 0:
                continue
            if edges.shape[1] == 3:
                for s, r, d in edges:
                    self._known.add((int(s), int(r), int(d)))
            else:
                for s, d in edges:
                    self._known.add((int(s), 0, int(d)))

    def __len__(self) -> int:
        return len(self._known)

    def contains(self, src: int, rel: int, dst: int) -> bool:
        return (src, rel, dst) in self._known

    def mask(self, src: np.ndarray, rel: np.ndarray,
             candidates: np.ndarray) -> np.ndarray:
        """Boolean (n, m) mask: candidate j is a known true triple for row i."""
        n, m = len(src), len(candidates)
        out = np.zeros((n, m), dtype=bool)
        for i in range(n):
            s, r = int(src[i]), int(rel[i])
            for j in range(m):
                if (s, r, int(candidates[j])) in self._known:
                    out[i, j] = True
        return out


def filtered_ranks(pos_scores: np.ndarray, neg_scores: np.ndarray,
                   known_mask: np.ndarray) -> np.ndarray:
    """Ranks with known-true candidates excluded from the comparison."""
    masked = neg_scores.copy()
    masked[known_mask] = -np.inf
    return ranks_from_scores(pos_scores, masked)


def multiclass_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    if len(labels) == 0:
        return 0.0
    return float((predictions == labels).mean())


@dataclass
class EpochRecord:
    """Per-epoch training telemetry collected by the trainers."""

    epoch: int
    loss: float
    seconds: float
    metric: float                      # MRR (lp) or accuracy (nc)
    io_bytes: int = 0
    partition_loads: int = 0
    num_batches: int = 0

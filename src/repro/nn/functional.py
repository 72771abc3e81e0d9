"""Functional ops used by the GNN layers, including the segment kernels.

The paper's Algorithm 3 computes neighborhood aggregation with a *dense
segment sum*: neighbor representations are stored contiguously per node, so
aggregation is a sum over variable-length contiguous segments delimited by
``nbr_offsets``. These kernels (``segment_sum``, ``segment_mean``,
``segment_softmax``) are the reproduction of that computation model, built on
``np.add.reduceat`` which is the CPU analogue of the fused GPU segment kernels
MariusGNN uses.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, concat

__all__ = [
    "segment_ids_from_offsets",
    "segment_counts",
    "segment_sum",
    "segment_mean",
    "segment_max_detached",
    "segment_softmax",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "dropout",
    "linear",
    "embedding",
]


def segment_ids_from_offsets(offsets: np.ndarray, total: int) -> np.ndarray:
    """Expand segment ``offsets`` into a per-element segment-id array.

    ``offsets[i]`` is the start index of segment ``i`` within a flat array of
    length ``total``. Empty segments are allowed.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if len(offsets) == 0:
        return np.zeros(total, dtype=np.int64)
    counts = np.diff(np.minimum(offsets, total), append=total)
    # Elements before the first offset (none when offsets[0] == 0) join
    # segment 0.
    counts[0] += min(int(offsets[0]), total)
    return np.repeat(np.arange(len(offsets), dtype=np.int64), counts)


def segment_counts(offsets: np.ndarray, total: int) -> np.ndarray:
    """Number of elements in each contiguous segment."""
    offsets = np.asarray(offsets, dtype=np.int64)
    bounds = np.concatenate([offsets, [total]])
    return np.diff(bounds)


def segment_sum(values: Tensor, offsets: np.ndarray, num_segments: Optional[int] = None) -> Tensor:
    """Sum contiguous segments of ``values`` rows.

    ``offsets`` holds segment start indices; segment ``i`` spans
    ``values[offsets[i] : offsets[i+1]]`` (last segment runs to the end).
    Matches the dense ``segment_sum`` of the paper's Algorithm 3 line 2.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = values.data.shape[0]
    if num_segments is None:
        num_segments = len(offsets)
    if num_segments == 0:
        out_shape = (0,) + values.data.shape[1:]
        return Tensor(np.zeros(out_shape, dtype=values.data.dtype))

    counts = segment_counts(offsets, n)
    # reduceat misbehaves on empty segments (equal or out-of-range indices),
    # so reduce only over the non-empty ones: their offsets are strictly
    # increasing and each non-empty segment's range ends exactly where the
    # next non-empty segment begins.
    out_data = np.zeros((num_segments,) + values.data.shape[1:], dtype=values.data.dtype)
    nonempty = counts > 0
    if n > 0 and nonempty.any():
        out_data[nonempty] = np.add.reduceat(values.data, offsets[nonempty], axis=0)

    seg_ids = segment_ids_from_offsets(offsets, n)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[seg_ids])

    return Tensor._make(out_data, (values,), backward)


def segment_mean(values: Tensor, offsets: np.ndarray, num_segments: Optional[int] = None) -> Tensor:
    """Mean over contiguous segments; empty segments produce zero vectors."""
    n = values.data.shape[0]
    if num_segments is None:
        num_segments = len(offsets)
    sums = segment_sum(values, offsets, num_segments)
    counts = segment_counts(np.asarray(offsets, dtype=np.int64), n).astype(values.data.dtype)
    denom = np.maximum(counts, 1.0)
    if sums.data.ndim == 2:
        denom = denom[:, None]
    return sums * Tensor(1.0 / denom)


def segment_max_detached(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment max of a 1-D array, computed outside the autograd tape.

    Used only for numerical stabilization of :func:`segment_softmax` (the
    softmax output is invariant to a per-segment constant shift, so the shift
    can be treated as a constant in backward).
    """
    n = len(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    if n == 0 or len(offsets) == 0:
        return np.zeros(len(offsets), dtype=values.dtype)
    safe_offsets = np.minimum(offsets, n - 1)
    out = np.maximum.reduceat(values, safe_offsets)
    counts = segment_counts(offsets, n)
    out[counts == 0] = 0.0
    return out


def segment_softmax(scores: Tensor, offsets: np.ndarray) -> Tensor:
    """Softmax over variable-length contiguous segments (GAT attention).

    Composed from differentiable primitives: ``exp``, :func:`segment_sum` and a
    gather, with a detached per-segment max subtracted for stability.
    """
    n = scores.data.shape[0]
    offsets = np.asarray(offsets, dtype=np.int64)
    seg_ids = segment_ids_from_offsets(offsets, n)
    maxes = segment_max_detached(scores.data, offsets)
    shifted = scores - Tensor(maxes[seg_ids])
    exp = shifted.exp()
    denom = segment_sum(exp, offsets)
    denom = denom.clamp_min(1e-12)
    return exp / denom.index_select(seg_ids)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp_sum = shifted.exp().sum(axis=axis, keepdims=True)
    return shifted - exp_sum.log()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log likelihood of integer ``targets`` rows."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.data.shape[0]
    if n == 0:
        return Tensor(np.zeros(()))
    picked_data = log_probs.data[np.arange(n), targets]

    def backward(grad: np.ndarray) -> None:
        if log_probs.requires_grad:
            acc = np.zeros_like(log_probs.data)
            acc[np.arange(n), targets] = grad
            log_probs._accumulate(acc)

    picked = Tensor._make(picked_data, (log_probs,), backward)
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross entropy with integer class ``targets`` (mean reduction)."""
    return nll_loss(log_softmax(logits, axis=-1), targets)


def dropout(values: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return values
    rng = rng or np.random.default_rng()
    mask = (rng.random(values.data.shape) >= p).astype(values.data.dtype) / (1.0 - p)
    return values * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` with ``weight`` of shape (in_dim, out_dim)."""
    out = x.matmul(weight)
    if bias is not None:
        out = out + bias
    return out


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup into an embedding ``table`` (gather with scatter-add grad)."""
    return table.index_select(np.asarray(indices, dtype=np.int64))

"""Loss functions for node classification and link prediction training.

Link prediction follows the Marius/DGL-KE formulation: every positive edge is
scored against a pool of negative destination (and optionally source) nodes,
and the loss is softmax cross entropy with the positive in class 0 — i.e. a
ranking loss over ``1 + num_negatives`` candidates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .tensor import Tensor, concat, no_grad, scatter_add_rows

__all__ = ["softmax_cross_entropy", "link_prediction_loss",
           "decoder_ranking_loss", "bce_with_logits"]


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross entropy over integer class targets."""
    return F.cross_entropy(logits, targets)


def link_prediction_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Ranking loss: positive edge vs. its negative candidates.

    Parameters
    ----------
    pos_scores:
        Shape ``(batch,)`` — score of each true edge.
    neg_scores:
        Shape ``(batch, num_negatives)`` — scores against negative candidates.
    """
    batch = pos_scores.data.shape[0]
    logits = concat([pos_scores.reshape(batch, 1), neg_scores], axis=1)
    targets = np.zeros(batch, dtype=np.int64)
    return F.cross_entropy(logits, targets)


def decoder_ranking_loss(decoder, out: Tensor, rows_src: np.ndarray,
                         rows_dst: np.ndarray, rows_neg: np.ndarray,
                         rel: np.ndarray) -> Tensor:
    """:func:`link_prediction_loss` of the edges ``out[rows_src] -rel->
    out[rows_dst]`` against the shared negatives ``out[rows_neg]``.

    A linear decoder (one with ``target_query_rows``, see
    :mod:`repro.nn.decoders`) gets a single tape node: the forward pass
    scores through ``score_edges`` / ``score_against`` without recording,
    and the backward pass is closed form — with ``q`` the query rows, ``t``
    the destinations and ``N`` the negatives, ``dq = d_pos*t + d_neg@N``,
    ``dt = d_pos*q``, ``dN = d_neg.T@q``, the decoder's VJP maps ``dq`` to
    the source rows and relations, and one scatter each lands the rows in
    ``out`` and the relations. Any other decoder is scored through the tape
    (``index_select`` -> ``score_*`` -> :func:`link_prediction_loss`), which
    is also the oracle the closed form is tested against.
    """
    if not hasattr(decoder, "target_query_rows"):
        src = out.index_select(rows_src)
        return link_prediction_loss(
            decoder.score_edges(src, rel, out.index_select(rows_dst)),
            decoder.score_against(src, rel, out.index_select(rows_neg)))

    s = out.data[rows_src]
    t = out.data[rows_dst]
    negs = out.data[rows_neg]
    with no_grad():
        pos = decoder.score_edges(Tensor(s), rel, Tensor(t)).data
        neg = decoder.score_against(Tensor(s), rel, Tensor(negs)).data
    # F.cross_entropy's arithmetic, so the loss value matches the tape's.
    batch = len(pos)
    shifted = np.empty((batch, 1 + neg.shape[1]),
                       dtype=np.result_type(pos, neg))
    shifted[:, 0] = pos.reshape(-1)
    shifted[:, 1:] = neg
    shifted -= shifted.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    exp_sum = exp.sum(axis=1, keepdims=True)
    loss = -((shifted[:, 0] - np.log(exp_sum[:, 0])).sum()
             * np.float32(1.0 / batch))
    relations = getattr(decoder, "relations", None)
    parents = (out,) if relations is None else (out, relations)

    def backward(grad: np.ndarray) -> None:
        # Softmax cross entropy with the positive in class 0.
        d_logits = exp / exp_sum
        d_logits[:, 0] -= 1.0
        d_logits *= grad * np.float32(1.0 / batch)
        d_pos = d_logits[:, :1]
        d_neg = d_logits[:, 1:]
        q = decoder.target_query_rows(s, rel)
        dq = d_pos * t + d_neg @ negs
        d_src, d_rel = decoder.query_rows_vjp(s, rel, dq)
        if out.requires_grad:
            rows = np.concatenate([rows_src, rows_dst, rows_neg])
            grads = np.concatenate([d_src, d_pos * q, d_neg.T @ q])
            out._accumulate(scatter_add_rows(rows, grads, len(out.data)),
                            owned=True)
        if relations is not None and relations.requires_grad:
            relations._accumulate(
                scatter_add_rows(rel, d_rel, len(relations.data)), owned=True)

    return Tensor._make(np.asarray(loss, dtype=out.data.dtype), parents, backward)


def _softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))`` with exact gradient (sigmoid)."""
    out_data = np.logaddexp(0.0, x.data).astype(x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 / (1.0 + np.exp(-x.data))))

    return Tensor._make(out_data, (x,), backward)


def bce_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Numerically stable binary cross entropy on raw scores.

    Uses the identity ``BCE(x, y) = softplus(x) - x * y`` (mean reduction).
    """
    labels_t = Tensor(np.asarray(labels, dtype=np.float32))
    return (_softplus(logits) - logits * labels_t).mean()

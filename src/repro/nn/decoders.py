"""Decoders: score functions for link prediction and the classification head.

The paper evaluates link prediction with the DistMult score function
(Yang et al. 2014) — ``score(s, r, d) = <h_s, w_r, h_d>`` — both as the
decoder on top of a GNN encoder (Tables 4, 5, 8) and as the specialized
decoder-only knowledge-graph-embedding model Marius supports (Table 8 "DM"
rows). Node classification feeds the final GNN representation into a linear
softmax layer (Section 2).

Linear decoders. DistMult, DotProduct and ComplEx score a candidate
linearly: ``score(s, r, d) = q . h_d`` with ``q = target_query_rows(s, r)``.
Each also has ``query_rows_vjp(s, r, dq) -> (d_s, d_rel_rows)``, the
vector-Jacobian product of that map (``d_rel_rows`` is per row, ``None``
without relations). :func:`repro.nn.loss.decoder_ranking_loss` relies on
the pair: it computes the whole ranking-loss gradient in closed form from
``q`` and the VJP instead of through the tape. A decoder without
``target_query_rows`` (TransE) is trained through the tape.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import functional as F
from .init import glorot_uniform, uniform_embedding
from .layers import Linear
from .module import Module
from .tensor import Tensor


class DistMult(Module):
    """DistMult relation scoring with learned diagonal relation embeddings."""

    def __init__(self, num_relations: int, dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.num_relations = num_relations
        self.dim = dim
        rng = rng or np.random.default_rng()
        # Relations initialized near one so scores start close to a dot product.
        init = np.ones((num_relations, dim), dtype=np.float32)
        init += rng.uniform(-0.1, 0.1, size=init.shape).astype(np.float32)
        self.relations = self.register_parameter("relations", Tensor(init))

    def score_edges(self, src: Tensor, rel: np.ndarray, dst: Tensor) -> Tensor:
        """Score aligned (src, rel, dst) triples; returns shape (batch,)."""
        rel_emb = F.embedding(self.relations, rel)
        return (src * rel_emb * dst).sum(axis=1)

    def score_against(self, src: Tensor, rel: np.ndarray, candidates: Tensor) -> Tensor:
        """Score each (src, rel) pair against every candidate destination.

        Returns shape ``(batch, num_candidates)``. This is the batched-negatives
        formulation Marius/MariusGNN use: one shared pool of negative nodes is
        scored against every positive edge with a single dense matmul.
        """
        rel_emb = F.embedding(self.relations, rel)
        return (src * rel_emb).matmul(candidates.T)

    def target_query_rows(self, src: np.ndarray, rel: np.ndarray) -> np.ndarray:
        """The query vector ``q`` with ``score(s, r, d) = q . h_d``.

        Every decoder whose ``score_against`` is linear in the candidate
        row exposes this; the closed-form ranking-loss gradient is built
        on it.
        """
        return src * self.relations.data[np.asarray(rel, dtype=np.int64)]

    def query_rows_vjp(self, src: np.ndarray, rel: np.ndarray,
                       dq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of ``q = src * r`` w.r.t. ``src`` and each row's ``r``."""
        return dq * self.relations.data[np.asarray(rel, dtype=np.int64)], dq * src


class DotProduct(Module):
    """Relation-free dot-product decoder (used for homogeneous graphs)."""

    def __init__(self) -> None:
        super().__init__()

    def score_edges(self, src: Tensor, rel: np.ndarray, dst: Tensor) -> Tensor:
        return (src * dst).sum(axis=1)

    def score_against(self, src: Tensor, rel: np.ndarray, candidates: Tensor) -> Tensor:
        return src.matmul(candidates.T)

    def target_query_rows(self, src: np.ndarray, rel: np.ndarray) -> np.ndarray:
        """``score(s, d) = s . d`` — the query vector is the source row."""
        return src

    def query_rows_vjp(self, src: np.ndarray, rel: np.ndarray,
                       dq: np.ndarray) -> Tuple[np.ndarray, None]:
        return dq, None


class ComplExDecoder(Module):
    """ComplEx score function (Trouillon et al. 2016); optional extension.

    Embeddings are interpreted as complex vectors of dimension ``dim/2``
    (first half real, second half imaginary). Included because Marius'
    decoder-only mode supports it; exercised in ablation benches.
    """

    def __init__(self, num_relations: int, dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if dim % 2 != 0:
            raise ValueError("ComplEx requires an even embedding dimension")
        self.num_relations = num_relations
        self.dim = dim
        self.half = dim // 2
        self.relations = self.register_parameter(
            "relations", uniform_embedding((num_relations, dim), rng=rng)
        )

    def score_edges(self, src: Tensor, rel: np.ndarray, dst: Tensor) -> Tensor:
        rel_emb = F.embedding(self.relations, rel)
        h = self.half
        sr, si = _col_split(src, h)
        rr, ri = _col_split(rel_emb, h)
        dr, di = _col_split(dst, h)
        # Re(<s, r, conj(d)>)
        return (
            (sr * rr * dr).sum(axis=1)
            + (si * rr * di).sum(axis=1)
            + (sr * ri * di).sum(axis=1)
            - (si * ri * dr).sum(axis=1)
        )

    def score_against(self, src: Tensor, rel: np.ndarray, candidates: Tensor) -> Tensor:
        rel_emb = F.embedding(self.relations, rel)
        h = self.half
        sr, si = _col_split(src, h)
        rr, ri = _col_split(rel_emb, h)
        cr, ci = _col_split(candidates, h)
        # Expand Re(<s, r, conj(c)>) into four dense matmuls.
        a = (sr * rr).matmul(cr.T)
        b = (si * rr).matmul(ci.T)
        c = (sr * ri).matmul(ci.T)
        d = (si * ri).matmul(cr.T)
        return a + b + c - d

    def target_query_rows(self, src: np.ndarray, rel: np.ndarray) -> np.ndarray:
        """Fold (src, rel) into one vector: ``Re(<s, r, conj(c)>) = q . c``
        with ``q = [sr*rr - si*ri, si*rr + sr*ri]`` against ``c = [cr, ci]``."""
        rel_emb = self.relations.data[np.asarray(rel, dtype=np.int64)]
        h = self.half
        sr, si = src[:, :h], src[:, h:]
        rr, ri = rel_emb[:, :h], rel_emb[:, h:]
        return np.concatenate([sr * rr - si * ri, si * rr + sr * ri], axis=1)

    def query_rows_vjp(self, src: np.ndarray, rel: np.ndarray,
                       dq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of :meth:`target_query_rows` w.r.t. ``src`` and each
        row's relation: ``q`` is ``s * r`` as complex numbers, so the VJP
        multiplies ``dq`` by the conjugate of the other factor."""
        rel_emb = self.relations.data[np.asarray(rel, dtype=np.int64)]
        h = self.half
        sr, si = src[:, :h], src[:, h:]
        rr, ri = rel_emb[:, :h], rel_emb[:, h:]
        ar, ai = dq[:, :h], dq[:, h:]
        d_src = np.concatenate([ar * rr + ai * ri, ai * rr - ar * ri], axis=1)
        d_rel = np.concatenate([ar * sr + ai * si, ai * sr - ar * si], axis=1)
        return d_src, d_rel


def _col_split(t: Tensor, half: int) -> Tuple[Tensor, Tensor]:
    """Split a (n, 2h) tensor into real/imaginary column halves with autograd."""
    data = t.data

    def make(start: int) -> Tensor:
        out_data = data[:, start : start + half]

        def backward(grad: np.ndarray) -> None:
            if t.requires_grad:
                acc = np.zeros_like(data)
                acc[:, start : start + half] = grad
                t._accumulate(acc)

        return Tensor._make(out_data, (t,), backward)

    return make(0), make(half)


class TransE(Module):
    """TransE score function (Bordes et al. 2013): ``-||h + r - t||_2``.

    The third decoder-only model class Marius supports. ``score_against``
    expands the squared distance into dense matmuls so the shared-negative
    formulation stays one GEMM.
    """

    def __init__(self, num_relations: int, dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.num_relations = num_relations
        self.dim = dim
        self.relations = self.register_parameter(
            "relations", uniform_embedding((num_relations, dim),
                                           scale=6.0 / np.sqrt(dim), rng=rng))

    def score_edges(self, src: Tensor, rel: np.ndarray, dst: Tensor) -> Tensor:
        rel_emb = F.embedding(self.relations, rel)
        diff = src + rel_emb - dst
        return -((diff * diff).sum(axis=1) + 1e-12) ** 0.5

    def score_against(self, src: Tensor, rel: np.ndarray, candidates: Tensor) -> Tensor:
        rel_emb = F.embedding(self.relations, rel)
        translated = src + rel_emb                       # (n, d)
        # ||a - c||^2 = |a|^2 + |c|^2 - 2 a.c, batched over the pool.
        a_sq = (translated * translated).sum(axis=1).reshape(len(rel), 1)
        c_sq = (candidates * candidates).sum(axis=1).reshape(1, candidates.data.shape[0])
        cross = translated.matmul(candidates.T)
        sq = (a_sq + c_sq - 2.0 * cross).clamp_min(1e-12)
        return -(sq ** 0.5)


class ClassificationHead(Module):
    """Fully-connected + softmax layer for node classification (Section 2)."""

    def __init__(self, in_dim: int, num_classes: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.linear = Linear(in_dim, num_classes, rng=rng)

    def forward(self, h: Tensor) -> Tensor:
        return self.linear(h)

    def predict(self, h: Tensor) -> np.ndarray:
        return self.linear(h).data.argmax(axis=1)


DECODER_REGISTRY = {
    "distmult": DistMult,
    "complex": ComplExDecoder,
    "transe": TransE,
}


def make_decoder(kind: str, num_relations: int, dim: int, **kwargs) -> Module:
    if kind.lower() == "dot":
        return DotProduct()
    try:
        cls = DECODER_REGISTRY[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown decoder {kind!r}; expected one of {sorted(DECODER_REGISTRY) + ['dot']}")
    return cls(num_relations, dim, **kwargs)

"""Tests for segment kernels, softmax/CE, dropout — the Algorithm 3 op set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, functional as F, no_grad
from tests.conftest import numeric_gradient


def random_offsets(rng, num_segments, total):
    """Random nondecreasing start offsets beginning at 0."""
    if num_segments == 0:
        return np.empty(0, dtype=np.int64)
    cuts = np.sort(rng.integers(0, total + 1, size=num_segments - 1))
    return np.concatenate([[0], cuts]).astype(np.int64)


class TestSegmentIds:
    def test_simple(self):
        ids = F.segment_ids_from_offsets(np.array([0, 2, 5]), 7)
        np.testing.assert_array_equal(ids, [0, 0, 1, 1, 1, 2, 2])

    def test_empty_middle_segment(self):
        ids = F.segment_ids_from_offsets(np.array([0, 2, 2, 3]), 4)
        np.testing.assert_array_equal(ids, [0, 0, 2, 3])

    def test_counts(self):
        counts = F.segment_counts(np.array([0, 2, 2, 3]), 4)
        np.testing.assert_array_equal(counts, [2, 0, 1, 1])

    @staticmethod
    def _marked_cumsum(offsets, total):
        """The scatter-and-cumsum formulation the repeat replaced."""
        ids = np.zeros(total, dtype=np.int64)
        if len(offsets) == 0:
            return ids
        np.add.at(ids, offsets[offsets < total], 1)
        ids = np.cumsum(ids) - 1
        np.clip(ids, 0, len(offsets) - 1, out=ids)
        return ids

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 12), st.integers(0, 30),
           st.integers(0, 3))
    def test_matches_marked_cumsum(self, seed, num_segments, total, lead):
        """Empty segments (equal offsets, offsets at ``total``) included;
        ``lead`` elements before the first offset join segment 0."""
        offsets = random_offsets(np.random.default_rng(seed), num_segments, total)
        if len(offsets):
            offsets[0] = min(lead, offsets[1] if len(offsets) > 1 else total)
        np.testing.assert_array_equal(F.segment_ids_from_offsets(offsets, total),
                                      self._marked_cumsum(offsets, total))


class TestSegmentSum:
    def test_matches_manual(self):
        vals = Tensor(np.arange(10, dtype=np.float32).reshape(5, 2))
        out = F.segment_sum(vals, np.array([0, 2, 3]))
        np.testing.assert_allclose(out.data, [[2, 4], [4, 5], [14, 16]])

    def test_empty_segments_are_zero(self):
        vals = Tensor(np.ones((3, 2), dtype=np.float32))
        out = F.segment_sum(vals, np.array([0, 0, 3, 3]))
        np.testing.assert_allclose(out.data, [[0, 0], [3, 3], [0, 0], [0, 0]])

    def test_no_values(self):
        out = F.segment_sum(Tensor(np.zeros((0, 4), dtype=np.float32)),
                            np.array([0, 0]), num_segments=2)
        assert out.shape == (2, 4)

    def test_gradient(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (6, 3)).astype(np.float32)
        offsets = np.array([0, 2, 2, 5])
        t = Tensor(x.copy(), requires_grad=True)
        (F.segment_sum(t, offsets) ** 2.0).sum().backward()

        def f(a):
            with no_grad():
                return float((F.segment_sum(Tensor(a), offsets) ** 2.0).sum().data)

        numeric = numeric_gradient(f, x.copy())
        np.testing.assert_allclose(t.grad, numeric, atol=1e-2)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 20), segs=st.integers(1, 6), seed=st.integers(0, 99))
    def test_property_total_preserved(self, n, segs, seed):
        """Sum over segments preserves the total sum (partition property)."""
        rng = np.random.default_rng(seed)
        vals = rng.normal(0, 1, (n, 2)).astype(np.float32)
        offsets = random_offsets(rng, segs, n)
        out = F.segment_sum(Tensor(vals), offsets)
        np.testing.assert_allclose(out.data.sum(axis=0), vals.sum(axis=0),
                                   atol=1e-3)


class TestSegmentMean:
    def test_mean_and_empty(self):
        vals = Tensor(np.array([[2.0], [4.0], [9.0]], dtype=np.float32))
        out = F.segment_mean(vals, np.array([0, 2, 3]))
        np.testing.assert_allclose(out.data, [[3.0], [9.0], [0.0]])


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self):
        rng = np.random.default_rng(1)
        scores = Tensor(rng.normal(0, 3, 9).astype(np.float32))
        offsets = np.array([0, 4, 6])
        out = F.segment_softmax(scores, offsets)
        sums = F.segment_sum(out, offsets).data
        np.testing.assert_allclose(sums, np.ones(3), rtol=1e-5)

    def test_invariant_to_shift(self):
        scores = np.array([1.0, 2.0, 3.0, -1.0], dtype=np.float32)
        offsets = np.array([0, 2])
        a = F.segment_softmax(Tensor(scores), offsets).data
        b = F.segment_softmax(Tensor(scores + 100.0), offsets).data
        np.testing.assert_allclose(a, b, rtol=1e-4)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 6).astype(np.float32)
        offsets = np.array([0, 3])
        w = rng.normal(0, 1, 6).astype(np.float32)
        t = Tensor(x.copy(), requires_grad=True)
        (F.segment_softmax(t, offsets) * Tensor(w)).sum().backward()

        def f(a):
            with no_grad():
                return float((F.segment_softmax(Tensor(a), offsets) * Tensor(w)).sum().data)

        numeric = numeric_gradient(f, x.copy())
        np.testing.assert_allclose(t.grad, numeric, atol=1e-2)


class TestSoftmaxCrossEntropy:
    def test_log_softmax_normalizes(self):
        logits = Tensor(np.random.default_rng(0).normal(0, 2, (4, 5)).astype(np.float32))
        probs = np.exp(F.log_softmax(logits).data)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=1e-5)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32))
        loss = F.cross_entropy(logits, np.array([0, 3]))
        np.testing.assert_allclose(loss.data, np.log(4.0), rtol=1e-5)

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (3, 4)).astype(np.float32)
        targets = np.array([1, 0, 3])
        t = Tensor(x.copy(), requires_grad=True)
        F.cross_entropy(t, targets).backward()

        def f(a):
            with no_grad():
                return float(F.cross_entropy(Tensor(a), targets).data)

        numeric = numeric_gradient(f, x.copy())
        np.testing.assert_allclose(t.grad, numeric, atol=1e-2)

    def test_cross_entropy_decreases_with_confidence(self):
        targets = np.array([0])
        weak = F.cross_entropy(Tensor(np.array([[1.0, 0.0]], dtype=np.float32)), targets)
        strong = F.cross_entropy(Tensor(np.array([[5.0, 0.0]], dtype=np.float32)), targets)
        assert float(strong.data) < float(weak.data)


class TestDropoutLinearEmbedding:
    def test_dropout_eval_identity(self):
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_dropout_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((2000,), dtype=np.float32))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        # Inverted dropout keeps the expectation.
        assert abs(float(out.data.mean()) - 1.0) < 0.1
        assert set(np.unique(out.data)).issubset({0.0, 2.0})

    def test_linear(self):
        x = Tensor(np.eye(2, dtype=np.float32))
        w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        b = Tensor(np.array([1.0, 1.0], dtype=np.float32))
        np.testing.assert_allclose(F.linear(x, w, b).data, [[2, 3], [4, 5]])

    def test_embedding_lookup(self):
        table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
        out = F.embedding(table, np.array([1, 1, 3]))
        assert out.shape == (3, 3)
        out.sum().backward()
        np.testing.assert_allclose(table.grad[:, 0], [0, 2, 0, 1])

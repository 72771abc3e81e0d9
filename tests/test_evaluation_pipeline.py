"""Metric tests."""

import numpy as np
import pytest

from repro.train import multiclass_accuracy, ranking_metrics, ranks_from_scores


class TestRanks:
    def test_rank_positions(self):
        pos = np.array([3.0, 0.0])
        neg = np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 3.0]])
        ranks = ranks_from_scores(pos, neg)
        np.testing.assert_allclose(ranks, [2.0, 4.0])

    def test_ties_averaged(self):
        pos = np.array([1.0])
        neg = np.array([[1.0, 1.0, 0.0]])
        # 0 better, 2 ties -> 1 + 0 + 1 = 2
        np.testing.assert_allclose(ranks_from_scores(pos, neg), [2.0])

    def test_constant_scores_give_chance_mrr(self):
        """The tie convention must not reward a constant scorer."""
        n_cands = 9
        pos = np.zeros(100)
        neg = np.zeros((100, n_cands))
        metrics = ranking_metrics(ranks_from_scores(pos, neg))
        chance = 1.0 / (1 + n_cands / 2)
        assert metrics.mrr < 2 * chance

    def test_metrics_fields(self):
        m = ranking_metrics(np.array([1.0, 2.0, 20.0]))
        assert m.hits_at_1 == pytest.approx(1 / 3)
        assert m.hits_at_10 == pytest.approx(2 / 3)
        assert m.mrr == pytest.approx((1.0 + 0.5 + 0.05) / 3)
        assert m.num_examples == 3
        assert set(m.as_dict()) == {"mrr", "hits@1", "hits@10", "n"}

    def test_empty(self):
        m = ranking_metrics(np.empty(0))
        assert m.mrr == 0.0 and m.num_examples == 0


class TestAccuracy:
    def test_accuracy(self):
        assert multiclass_accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            multiclass_accuracy(np.array([1]), np.array([1, 2]))

    def test_empty(self):
        assert multiclass_accuracy(np.empty(0), np.empty(0)) == 0.0


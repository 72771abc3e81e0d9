"""Link prediction trainer tests: learning signal, disk modes, evaluation."""

import numpy as np
import pytest

from repro.graph import load_fb15k237
from repro.train import (DiskConfig, DiskLinkPredictionTrainer,
                         LinkPredictionConfig, LinkPredictionTrainer,
                         UniformNegativeSampler)


@pytest.fixture(scope="module")
def small_lp_data():
    return load_fb15k237(scale=0.05, seed=0)


def fast_config(**overrides):
    defaults = dict(embedding_dim=16, num_layers=1, fanouts=(8,), batch_size=256,
                    num_negatives=32, num_epochs=2, eval_negatives=64,
                    eval_max_edges=300, seed=0)
    defaults.update(overrides)
    return LinkPredictionConfig(**defaults)


class TestConfig:
    def test_fanout_layer_mismatch(self):
        with pytest.raises(ValueError):
            LinkPredictionConfig(num_layers=2, fanouts=(10,))

    def test_encoder_none_zeroes_layers(self):
        cfg = LinkPredictionConfig(encoder="none", num_layers=3, fanouts=(1, 1, 1))
        assert cfg.num_layers == 0 and cfg.fanouts == ()


class TestInMemoryTraining:
    def test_training_improves_mrr(self, small_lp_data):
        trainer = LinkPredictionTrainer(small_lp_data, fast_config(num_epochs=3))
        before = trainer.evaluate().mrr
        result = trainer.train()
        assert result.final_mrr > before * 1.5
        assert len(result.epochs) == 3
        assert result.epochs[-1].loss < result.epochs[0].loss

    def test_decoder_only_distmult(self, small_lp_data):
        """Marius mode: no GNN encoder, embeddings + DistMult only."""
        trainer = LinkPredictionTrainer(small_lp_data,
                                        fast_config(encoder="none", num_epochs=3))
        before = trainer.evaluate().mrr
        result = trainer.train()
        assert result.final_mrr > before

    def test_gat_encoder_trains(self, small_lp_data):
        trainer = LinkPredictionTrainer(
            small_lp_data, fast_config(encoder="gat", fanouts=(6,),
                                       directions="in", num_epochs=1))
        result = trainer.train()
        assert np.isfinite(result.final_mrr)

    def test_epoch_records_batches(self, small_lp_data):
        trainer = LinkPredictionTrainer(small_lp_data, fast_config(num_epochs=1))
        result = trainer.train()
        rec = result.epochs[0]
        assert rec.num_batches > 0

    def test_eval_every(self, small_lp_data):
        trainer = LinkPredictionTrainer(small_lp_data,
                                        fast_config(num_epochs=2, eval_every=1))
        result = trainer.train()
        assert all(e.metric > 0 for e in result.epochs)


class TestDiskTraining:
    @pytest.mark.parametrize("policy", ["comet", "beta"])
    def test_disk_training_learns(self, small_lp_data, tmp_path, policy):
        disk = DiskConfig(workdir=tmp_path / policy, num_partitions=8,
                          num_logical=4, buffer_capacity=4, policy=policy)
        trainer = DiskLinkPredictionTrainer(small_lp_data,
                                            fast_config(num_epochs=2), disk)
        before = trainer.evaluate().mrr
        result = trainer.train()
        assert result.final_mrr > before
        assert result.epochs[0].io_bytes > 0
        assert result.epochs[0].partition_loads >= disk.buffer_capacity

    def test_unknown_policy(self, small_lp_data, tmp_path):
        disk = DiskConfig(workdir=tmp_path, policy="lru")
        with pytest.raises(ValueError):
            DiskLinkPredictionTrainer(small_lp_data, fast_config(), disk)

    def test_both_policies_reach_reasonable_mrr(self, small_lp_data, tmp_path):
        """Both policies must learn; the COMET > BETA accuracy comparison is
        statistically meaningful only at Table 8's scale and lives in
        benchmarks/test_table8_comet_vs_beta.py (the bias-metric ordering is
        asserted deterministically in test_policies.py)."""
        for policy in ("comet", "beta"):
            disk = DiskConfig(workdir=tmp_path / policy, num_partitions=8,
                              num_logical=4, buffer_capacity=4, policy=policy)
            trainer = DiskLinkPredictionTrainer(
                small_lp_data, fast_config(num_epochs=3), disk)
            assert trainer.train().final_mrr > 0.15

    def test_disk_io_accounted_every_epoch(self, small_lp_data, tmp_path):
        disk = DiskConfig(workdir=tmp_path, num_partitions=8, num_logical=4,
                          buffer_capacity=4)
        trainer = DiskLinkPredictionTrainer(small_lp_data,
                                            fast_config(num_epochs=2), disk)
        result = trainer.train()
        assert all(e.io_bytes > 0 for e in result.epochs)


class TestNegativeSampler:
    def test_uniform_range(self):
        sampler = UniformNegativeSampler(100, 50, rng=np.random.default_rng(0))
        batch = sampler.sample()
        assert len(batch.nodes) == 50
        assert batch.nodes.min() >= 0 and batch.nodes.max() < 100

    def test_allowed_subset(self):
        allowed = np.array([7, 8, 9])
        sampler = UniformNegativeSampler(100, 20, allowed=allowed,
                                         rng=np.random.default_rng(0))
        assert set(sampler.sample().nodes.tolist()).issubset({7, 8, 9})

    def test_set_allowed_swaps_pool(self):
        sampler = UniformNegativeSampler(100, 20, rng=np.random.default_rng(0))
        sampler.set_allowed(np.array([3]))
        assert (sampler.sample().nodes == 3).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UniformNegativeSampler(10, 5, allowed=np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            UniformNegativeSampler(10, 0)

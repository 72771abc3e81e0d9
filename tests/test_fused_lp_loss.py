"""Closed-form ranking-loss gradient for linear decoders vs the tape.

:func:`repro.nn.loss.decoder_ranking_loss` computes the link prediction
loss of a linear decoder (DistMult, Dot, ComplEx) as one tape node with a
closed-form backward; the composed tape path (``index_select`` ->
``score_*`` -> ``link_prediction_loss``) is its oracle here.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampler import DenseSampler
from repro.graph import load_fb15k237
from repro.graph.edge_list import Graph
from repro.nn import Tensor, make_decoder
from repro.nn.loss import decoder_ranking_loss, link_prediction_loss
from repro.nn.tensor import scatter_add_rows
from repro.train import (DiskConfig, DiskLinkPredictionTrainer,
                         LinkPredictionConfig)
from repro.train.link_prediction import LinkPredictionModel

LINEAR = ["distmult", "dot", "complex"]


def tape_loss(decoder, out, rows_src, rows_dst, rows_neg, rel):
    src = out.index_select(rows_src)
    return link_prediction_loss(
        decoder.score_edges(src, rel, out.index_select(rows_dst)),
        decoder.score_against(src, rel, out.index_select(rows_neg)))


def batch_rows(rng, num_rows, batch, negatives, num_relations):
    """Rows with duplicates inside and across src, dst and negatives, and
    repeated relations."""
    rows_src = rng.integers(0, num_rows, batch)
    rows_dst = rng.integers(0, num_rows, batch)
    rows_dst[:3] = rows_src[:3]                 # self loops
    rows_neg = rng.integers(0, num_rows, negatives)
    rows_neg[:2] = rows_src[5:7]
    rel = rng.integers(0, num_relations, batch)
    return rows_src, rows_dst, rows_neg, rel


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-5,
                               atol=1e-6 * float(np.abs(want).max()))


def grads(loss_fn, decoder, data, rows):
    decoder.zero_grad()
    out = Tensor(data.copy(), requires_grad=True)
    loss = loss_fn(decoder, out, *rows)
    loss.backward()
    rel_grad = (decoder.relations.grad.copy()
                if hasattr(decoder, "relations") else None)
    return loss, out, rel_grad


@pytest.mark.parametrize("kind", LINEAR)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_matches_tape(kind, seed):
    rng = np.random.default_rng(seed)
    num_rows, dim = 40, 8
    decoder = make_decoder(kind, 5, dim, rng=rng)
    data = rng.normal(0, 1, (num_rows, dim)).astype(np.float32)
    rows = batch_rows(rng, num_rows, 24, 10, 5)

    fused, out_f, rel_f = grads(decoder_ranking_loss, decoder, data, rows)
    tape, out_t, rel_t = grads(tape_loss, decoder, data, rows)

    assert fused.data == tape.data              # same forward arithmetic
    assert_close(out_f.grad, out_t.grad)
    if rel_t is not None:
        assert_close(rel_f, rel_t)
    # One node over the leaves: the closed form never builds the tape.
    assert fused._parents[0] is out_f
    assert all(p._backward is None for p in fused._parents)


def test_transe_keeps_the_tape():
    rng = np.random.default_rng(0)
    decoder = make_decoder("transe", 3, 6, rng=rng)
    data = rng.normal(0, 1, (20, 6)).astype(np.float32)
    rows = batch_rows(rng, 20, 12, 6, 3)
    loss, out, rel_grad = grads(decoder_ranking_loss, decoder, data, rows)
    oracle, out_t, rel_t = grads(tape_loss, decoder, data, rows)
    assert out not in loss._parents             # composed through the tape
    np.testing.assert_array_equal(out.grad, out_t.grad)
    np.testing.assert_array_equal(rel_grad, rel_t)
    assert loss.data == oracle.data


@pytest.mark.parametrize("kind", LINEAR)
def test_closed_form_matches_tape_through_graphsage(kind):
    rng = np.random.default_rng(3)
    num_nodes, dim = 60, 8
    graph = Graph(num_nodes=num_nodes, src=rng.integers(0, num_nodes, 300),
                  dst=rng.integers(0, num_nodes, 300),
                  rel=rng.integers(0, 4, 300))
    config = LinkPredictionConfig(embedding_dim=dim, encoder="graphsage",
                                  num_layers=1, fanouts=(5,), decoder=kind)
    model = LinkPredictionModel(config, graph.num_relations, rng=rng)
    src = rng.integers(0, num_nodes, 16)
    dst = rng.integers(0, num_nodes, 16)
    negs = rng.integers(0, num_nodes, 8)
    rel = rng.integers(0, graph.num_relations, 16)
    targets = np.unique(np.concatenate([src, dst, negs]))
    batch = DenseSampler(graph, [5], rng=np.random.default_rng(0)).sample(targets)
    h0_data = rng.normal(0, 1, (len(batch.node_ids), dim)).astype(np.float32)
    rows = np.searchsorted(targets, np.concatenate([src, dst, negs]))
    split = (rows[:16], rows[16:32], rows[32:], rel)

    def run(loss_fn):
        model.zero_grad()
        h0 = Tensor(h0_data.copy(), requires_grad=True)
        loss_fn(model.decoder, model.encode(h0, batch), *split).backward()
        return h0.grad, {name: p.grad.copy()
                         for name, p in model.named_parameters()}

    h0_fused, params_fused = run(decoder_ranking_loss)
    h0_tape, params_tape = run(tape_loss)
    assert_close(h0_fused, h0_tape)
    assert set(params_fused) == set(params_tape)
    assert any(name.startswith("encoder") for name in params_tape)
    for name, want in params_tape.items():
        assert_close(params_fused[name], want)


def _add_at(index, values, num_rows):
    out = np.zeros((num_rows,) + values.shape[np.ndim(index):], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 300), st.integers(0, 400),
       st.sampled_from([(), (1,), (3,), (16,), (2, 3)]), st.booleans())
def test_scatter_matches_add_at(seed, num_rows, length, tail, skewed):
    rng = np.random.default_rng(seed)
    if skewed:      # one hot row: many duplicate layers, then the tail
        index = np.where(rng.random(length) < 0.5, 0,
                         rng.integers(0, num_rows, length))
    else:
        index = rng.integers(0, num_rows, length)
    values = rng.normal(0, 1, (length,) + tail).astype(np.float32)
    np.testing.assert_array_equal(scatter_add_rows(index, values, num_rows),
                                  _add_at(index, values, num_rows))


def test_scatter_edge_shapes():
    values = np.ones((0, 4), dtype=np.float32)
    out = scatter_add_rows(np.empty(0, dtype=np.int64), values, 5)
    assert out.shape == (5, 4) and not out.any()
    index = np.array([[0, 2], [2, 2]])                  # 2-D index
    values = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
    np.testing.assert_array_equal(scatter_add_rows(index, values, 3),
                                  _add_at(index, values, 3))
    index = np.array([-1, 0, -1])                       # negative rows
    values = np.ones((3, 2), dtype=np.float32)
    np.testing.assert_array_equal(scatter_add_rows(index, values, 4),
                                  _add_at(index, values, 4))


#: Repeat counts of one hot row: every power-of-two length class from 2 up
#: to 4096, with the lengths on both sides of each class boundary.
HOT_COUNTS = sorted({2, 3, 2100} | {c for e in range(2, 12)
                                    for c in (2**e - 1, 2**e, 2**e + 1)})


@pytest.mark.parametrize("row_shape", [(1,), (2,), (32,), (128,), (2, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_scatter_length_classes(row_shape):
    rng = np.random.default_rng(7)

    def check(index, num_rows):
        values = rng.normal(0, 1, (len(index),) + row_shape).astype(np.float32)
        got = scatter_add_rows(index, values, num_rows)
        want = _add_at(index, values, num_rows)
        np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))

    lone = np.arange(1, 40)
    for count in HOT_COUNTS:                 # one hot row among lone rows
        check(rng.permutation(np.concatenate([np.zeros(count, np.int64),
                                              lone])), 60)
    # Every class in one call, untouched rows in between.
    index = np.repeat(np.arange(0, 2 * len(HOT_COUNTS), 2), HOT_COUNTS)
    check(rng.permutation(np.concatenate([index, lone + 2 * len(HOT_COUNTS)])),
          2 * len(HOT_COUNTS) + 50)

    # A lone -0.0 row stays -0.0, and so does a repeated one whose values
    # are all -0.0; untouched rows are +0.0.
    values = np.ones((5,) + row_shape, dtype=np.float32)
    values[[0, 2, 3]] = -0.0
    out = scatter_add_rows(np.array([0, 1, 2, 2, 1]), values, 4)
    assert np.signbit(out[[0, 2]]).all()
    assert not np.signbit(out[[1, 3]]).any() and not out[3].any()


def _train_lp_disk(data, workdir, encoder):
    config = LinkPredictionConfig(embedding_dim=16, encoder=encoder,
                                  num_layers=1, fanouts=(5,), batch_size=128,
                                  num_negatives=16, num_epochs=2,
                                  eval_negatives=32, eval_max_edges=50)
    disk = DiskConfig(workdir=workdir, num_partitions=8, num_logical=4,
                      buffer_capacity=4)
    trainer = DiskLinkPredictionTrainer(data, config, disk)
    result = trainer.train()
    params = {name: p.data.tobytes()
              for name, p in trainer.model.named_parameters()}
    return ([r.loss for r in result.epochs], params,
            trainer.node_store.read_all().tobytes())


@pytest.mark.parametrize("encoder", ["none", "graphsage"])
def test_training_bit_identical_to_add_at_oracle(small_lp_data, tmp_path,
                                                  monkeypatch, encoder):
    """Every gradient scatter of a disk training run, swapped for
    ``np.add.at``, leaves the losses and the trained tables byte-equal."""
    shipped = _train_lp_disk(small_lp_data, tmp_path / "shipped", encoder)
    for module in ("tensor", "loss", "optim"):
        monkeypatch.setattr(sys.modules[f"repro.nn.{module}"],
                            "scatter_add_rows", _add_at)
    oracle = _train_lp_disk(small_lp_data, tmp_path / "oracle", encoder)
    assert shipped[0] == oracle[0]
    assert shipped[1] == oracle[1]
    assert shipped[2] == oracle[2]


@pytest.fixture(scope="module")
def small_lp_data():
    return load_fb15k237(scale=0.05, seed=0)


@pytest.mark.parametrize("encoder,expect_updates", [("none", False),
                                                    ("graphsage", True)])
def test_decoder_only_disk_training_keeps_no_neighbor_index(
        small_lp_data, tmp_path, encoder, expect_updates):
    config = LinkPredictionConfig(embedding_dim=16, encoder=encoder,
                                  num_layers=1, fanouts=(5,), batch_size=256,
                                  num_negatives=16, num_epochs=1,
                                  eval_negatives=32, eval_max_edges=100)
    disk = DiskConfig(workdir=tmp_path, num_partitions=8, num_logical=4,
                      buffer_capacity=4)
    trainer = DiskLinkPredictionTrainer(small_lp_data, config, disk)
    result = trainer.train()
    assert result.epochs[0].partition_loads > disk.buffer_capacity
    assert (trainer.sampler.index_updates > 0) == expect_updates

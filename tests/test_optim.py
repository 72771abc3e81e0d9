"""Optimizer tests: convergence on a quadratic, row-sparse Adagrad semantics."""

import numpy as np
import pytest

from repro.nn import SGD, Adagrad, Adam, RowAdagrad, Tensor, make_optimizer


def quadratic_loss(param):
    target = Tensor(np.array([3.0, -2.0], dtype=np.float32))
    diff = param - target
    return (diff * diff).sum()


@pytest.mark.parametrize("opt_name,lr", [("sgd", 0.1), ("adagrad", 1.0), ("adam", 0.3)])
def test_optimizers_converge_on_quadratic(opt_name, lr):
    param = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    opt = make_optimizer(opt_name, [param], lr=lr)
    for _ in range(200):
        opt.zero_grad()
        quadratic_loss(param).backward()
        opt.step()
    np.testing.assert_allclose(param.data, [3.0, -2.0], atol=0.05)


def test_sgd_momentum_faster_than_plain():
    def run(momentum):
        param = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        opt = SGD([param], lr=0.02, momentum=momentum)
        for _ in range(50):
            opt.zero_grad()
            quadratic_loss(param).backward()
            opt.step()
        return float(quadratic_loss(param).data)

    assert run(0.9) < run(0.0)


def test_weight_decay_shrinks():
    param = Tensor(np.array([10.0], dtype=np.float32), requires_grad=True)
    opt = SGD([param], lr=0.1, weight_decay=1.0)
    opt.zero_grad()
    (param * 0.0).sum().backward()
    opt.step()
    assert abs(float(param.data[0])) < 10.0


def test_optimizer_rejects_empty_params():
    with pytest.raises(ValueError):
        SGD([Tensor(np.zeros(2))], lr=0.1)  # requires_grad=False


def test_optimizer_rejects_bad_lr():
    param = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError):
        Adam([param], lr=0.0)


def test_unknown_optimizer():
    param = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError):
        make_optimizer("lion", [param], lr=0.1)


def test_step_skips_params_without_grad():
    p1 = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    p2 = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    opt = SGD([p1, p2], lr=0.1)
    p1.grad = np.ones(2, dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p2.data, [1.0, 1.0])


class TestRowAdagrad:
    def test_updates_only_given_rows(self):
        table = np.ones((5, 3), dtype=np.float32)
        state = np.zeros_like(table)
        opt = RowAdagrad(lr=0.5)
        opt.update(table, state, np.array([1, 3]), np.ones((2, 3), dtype=np.float32))
        assert (table[[0, 2, 4]] == 1.0).all()
        assert (table[[1, 3]] < 1.0).all()
        assert (state[[1, 3]] > 0).all()

    def test_duplicate_rows_merge_gradients(self):
        """Duplicates must behave like one accumulated gradient (order-free)."""
        table_a = np.ones((2, 2), dtype=np.float32)
        state_a = np.zeros_like(table_a)
        opt = RowAdagrad(lr=0.1)
        grads = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=np.float32)
        opt.update(table_a, state_a, np.array([0, 0]), grads)

        table_b = np.ones((2, 2), dtype=np.float32)
        state_b = np.zeros_like(table_b)
        opt.update(table_b, state_b, np.array([0]), np.array([[3.0, 3.0]], dtype=np.float32))
        np.testing.assert_allclose(table_a, table_b)
        np.testing.assert_allclose(state_a, state_b)

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_matches_the_plain_expression_bit_for_bit(self, duplicates):
        rng = np.random.default_rng(3)
        rows = rng.permutation(50)[:20]
        if duplicates:
            rows[:6] = rows[6:12]
        grads = rng.normal(0, 1, (20, 4)).astype(np.float32)
        table = rng.normal(0, 1, (50, 4)).astype(np.float32)
        state = rng.random((50, 4)).astype(np.float32)
        unique, inverse = np.unique(rows, return_inverse=True)
        merged = np.zeros((len(unique), 4), dtype=np.float32)
        np.add.at(merged, inverse, grads)
        acc = state[unique] + merged**2
        want = table.copy()
        want[unique] -= 0.1 * merged / (np.sqrt(acc) + 1e-10)
        RowAdagrad(lr=0.1).update(table, state, rows, grads)
        assert table.tobytes() == want.tobytes()
        assert state[unique].tobytes() == acc.tobytes()

    def test_empty_rows_noop(self):
        table = np.ones((2, 2), dtype=np.float32)
        state = np.zeros_like(table)
        RowAdagrad(lr=0.1).update(table, state, np.empty(0, dtype=np.int64),
                                  np.empty((0, 2), dtype=np.float32))
        assert (table == 1.0).all()

    def test_adagrad_decays_effective_lr(self):
        table = np.zeros((1, 1), dtype=np.float32)
        state = np.zeros_like(table)
        opt = RowAdagrad(lr=1.0)
        deltas = []
        prev = 0.0
        for _ in range(3):
            opt.update(table, state, np.array([0]), np.ones((1, 1), dtype=np.float32))
            deltas.append(prev - float(table[0, 0]))
            prev = float(table[0, 0])
        assert deltas[0] > deltas[1] > deltas[2] > 0

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            RowAdagrad(lr=-1.0)

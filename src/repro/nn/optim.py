"""Optimizers: SGD, Adam, Adagrad, plus a row-sparse Adagrad for embeddings.

MariusGNN (like Marius) keeps learnable base node representations in a large
lookup table and updates only the rows touched by each mini batch, with
per-row Adagrad state stored alongside the partitioned table. The
:class:`RowAdagrad` class implements that update rule for use by the storage
layer (the dense optimizers handle the GNN weights on the "GPU").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .tensor import Tensor, scatter_add_rows


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float) -> None:
        self.params: List[Tensor] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no parameters requiring grad")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Snapshot support: every optimizer can export/restore its slot state
    # as a flat dict of numpy arrays (what the checkpoint subsystem stores).
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        expected = self.state_dict()
        missing = set(expected) - set(state)
        if missing:
            raise KeyError(f"optimizer state missing entries: {sorted(missing)}")

    @staticmethod
    def _load_slots(slots: List[np.ndarray], state: Dict[str, np.ndarray],
                    prefix: str) -> None:
        for i, slot in enumerate(slots):
            value = state[f"{prefix}{i}"]
            if slot.shape != value.shape:
                raise ValueError(
                    f"optimizer slot {prefix}{i} shape mismatch: "
                    f"{slot.shape} vs {value.shape}")
            slot[...] = value


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: Iterable[Tensor], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params] if momentum else None

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self._velocity is not None:
                self._velocity[i] = self.momentum * self._velocity[i] + grad
                grad = self._velocity[i]
            p.data -= self.lr * grad

    def state_dict(self) -> Dict[str, np.ndarray]:
        if self._velocity is None:
            return {}
        return {f"velocity_{i}": v.copy() for i, v in enumerate(self._velocity)}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        if self._velocity is not None:
            self._load_slots(self._velocity, state, "velocity_")


class Adagrad(Optimizer):
    """Adagrad (the optimizer Marius uses for embedding training)."""

    def __init__(self, params: Iterable[Tensor], lr: float, eps: float = 1e-10) -> None:
        super().__init__(params, lr)
        self.eps = eps
        self._accum = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self._accum[i] += p.grad**2
            p.data -= self.lr * p.grad / (np.sqrt(self._accum[i]) + self.eps)

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {f"accum_{i}": a.copy() for i, a in enumerate(self._accum)}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._load_slots(self._accum, state, "accum_")


class Adam(Optimizer):
    """Adam with bias correction (used for GNN weights)."""

    def __init__(self, params: Iterable[Tensor], lr: float,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {"t": np.asarray(self._t, dtype=np.int64)}
        for i, m in enumerate(self._m):
            out[f"m_{i}"] = m.copy()
        for i, v in enumerate(self._v):
            out[f"v_{i}"] = v.copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._t = int(state["t"])
        self._load_slots(self._m, state, "m_")
        self._load_slots(self._v, state, "v_")


class RowAdagrad:
    """Row-sparse Adagrad for learnable base representations.

    The caller gathers rows from the (possibly disk-backed) lookup table,
    computes gradients for just those rows, and calls :meth:`update` with the
    row indices. Optimizer state is an array parallel to the table, which the
    storage layer keeps partitioned next to the embeddings — the same layout
    Marius uses so optimizer state pages in and out with its partition.
    """

    def __init__(self, lr: float, eps: float = 1e-10) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.eps = eps

    def update(self, table: np.ndarray, state: np.ndarray,
               rows: np.ndarray, grads: np.ndarray) -> None:
        """Apply Adagrad to ``table[rows]`` in place.

        Duplicate rows in a batch are merged (gradient accumulation) before the
        state update so the result is independent of duplicate ordering.
        One sort finds them; only a batch that has some pays for the inverse.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return
        ordered = np.sort(rows)
        if (ordered[1:] == ordered[:-1]).any():
            unique, inverse = np.unique(rows, return_inverse=True)
            grads = scatter_add_rows(inverse, grads, len(unique))
            rows = unique
        # One gather and one scatter of the state rows (what a fancy ``+=``
        # does); then ``lr * g / (sqrt(acc) + eps)`` in the same order,
        # reusing the two temporaries in place.
        acc = state[rows]
        step = grads * grads
        acc += step
        state[rows] = acc
        denom = np.sqrt(acc, out=acc)
        denom += self.eps
        np.multiply(self.lr, grads, out=step)
        step /= denom
        table[rows] = table[rows] - step


OPTIMIZER_REGISTRY = {"sgd": SGD, "adagrad": Adagrad, "adam": Adam}


def make_optimizer(kind: str, params: Iterable[Tensor], lr: float, **kwargs) -> Optimizer:
    try:
        cls = OPTIMIZER_REGISTRY[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown optimizer {kind!r}; expected one of {sorted(OPTIMIZER_REGISTRY)}")
    return cls(params, lr, **kwargs)

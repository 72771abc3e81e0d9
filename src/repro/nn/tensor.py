"""A small reverse-mode automatic differentiation engine over NumPy.

This module is the compute substrate of the reproduction. The original
MariusGNN implementation runs its forward pass on PyTorch GPU tensors; the
paper's algorithmic contribution (Algorithms 1-3) only requires a tensor
library with dense kernels for ``matmul``, ``index_select`` (gather) and
``segment_sum``. :class:`Tensor` provides exactly that op set with reverse-mode
gradients so the GNN layers in :mod:`repro.nn.layers` transfer verbatim from
the paper's pseudocode.

Design notes
------------
* Tensors wrap ``numpy.ndarray`` data (float32 by default) and record a
  backward closure plus parent tensors, forming a dynamic tape.
* ``backward()`` runs a topological sort of the tape and accumulates
  gradients into ``.grad`` of leaf tensors with ``requires_grad=True``.
* Broadcasting is supported for elementwise ops; gradients are un-broadcast
  by summing over broadcast axes.
* Gather gradients are a scatter-add (PyTorch's ``index_select`` backward)
  through :func:`scatter_add_rows`, not ``np.add.at``: one sort of the
  index assigns the first value of every row, and the repeated rows,
  padded with ``-0.0`` to power-of-two length classes, are summed with one
  reduction per class. Additions land in index order, so the bits are
  those of ``np.add.at``; width-1 rows go to ``np.add.at`` itself.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]

_grad_enabled = True


class no_grad:
    """Context manager that disables gradient recording (like torch.no_grad)."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def scatter_add_rows(index: np.ndarray, values: np.ndarray,
                     num_rows: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` into a fresh zero ``(num_rows, ...)``.

    Every touched row is ``-0.0 + v1 + ... + vk`` over its values in index
    order: the bits of ``np.add.at``, except that a row whose values are
    all ``-0.0`` stays ``-0.0``. One stable key sort groups equal indices,
    and the first value of every row is assigned. Repeated rows are padded
    with ``-0.0`` (``x + -0.0 == x`` for every ``x``) to the next power of
    two, gathered with one fancy index, and summed with one
    ``np.add.reduce`` along axis 1 per length class: with rows wider than
    one element numpy adds along that axis in order. The padded scratch is
    at most twice the repeated rows. Rows of width 1 (and 1-D values) go
    to ``np.add.at``: their reduction would run over contiguous memory,
    which numpy sums pairwise.
    """
    index = np.asarray(index, dtype=np.int64)
    values = values.reshape((index.size,) + values.shape[index.ndim:])
    index = index.ravel()
    row_shape = values.shape[1:]
    m, width = len(index), math.prod(row_shape)
    if m == 0 or width == 0:
        return np.zeros((num_rows,) + row_shape, dtype=values.dtype)
    values = values.reshape(m, width)
    if width == 1:
        out = np.zeros(num_rows, dtype=values.dtype)
        out[index] = -0.0
        np.add.at(out, index, values.reshape(m))
        return out.reshape((num_rows,) + row_shape)
    index = np.where(index < 0, index + num_rows, index)
    if num_rows <= np.iinfo(np.int64).max // m:
        # Sorting (row, position) keys is a stable sort by row, and sorting
        # values is several times faster than a stable argsort.
        rows, order = np.divmod(np.sort(index * m + np.arange(m)), m)
    else:
        order = np.argsort(index, kind="stable")
        rows = index[order]
    if rows[0] < 0 or rows[-1] >= num_rows:
        raise IndexError(f"row index out of range for {num_rows} rows")
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    touched = rows[starts]
    if len(starts) == num_rows:              # every row touched: one gather
        out = np.take(values, order[starts], axis=0)
    else:
        out = np.zeros((num_rows, width), dtype=values.dtype)
        out[touched] = np.take(values, order[starts], axis=0)
    if len(starts) < m:
        ends = np.append(starts[1:], m)
        repeated = ends - starts > 1
        _sum_repeated_segments(out, touched[repeated], values, order,
                               starts[repeated], ends[repeated])
    return out.reshape((num_rows,) + row_shape)


def _sum_repeated_segments(out: np.ndarray, targets: np.ndarray,
                           values: np.ndarray, order: np.ndarray,
                           starts: np.ndarray, ends: np.ndarray) -> None:
    """``out[target] = -0.0 + values[order[start]] + ... +
    values[order[end - 1]]`` for every segment (see
    :func:`scatter_add_rows`)."""
    # Length class: the exponent of the next power of two >= the length.
    exps = np.frexp((ends - starts - 1).astype(np.float64))[1]
    by_class = np.argsort(exps, kind="stable")
    starts, ends, exps = starts[by_class], ends[by_class], exps[by_class]
    targets = targets[by_class]
    padded = np.left_shift(1, exps)
    first_slot = np.cumsum(padded)
    total = int(first_slot[-1])
    first_slot -= padded
    # Slot j of a segment reads sorted position start + j; past the end it
    # reads -0.0.
    pos = np.arange(total)
    pos -= np.repeat(first_slot - starts, padded)
    pad = pos >= np.repeat(ends, padded)
    np.minimum(pos, len(order) - 1, out=pos)
    gathered = np.take(values, order[pos], axis=0)
    gathered[pad] = -0.0
    width = values.shape[1]
    sums = np.empty((len(starts), width), dtype=values.dtype)
    per_class = np.bincount(exps)
    lo = 0
    for e in np.flatnonzero(per_class).tolist():
        hi = lo + int(per_class[e])
        block = gathered[first_slot[lo]:first_slot[lo] + ((hi - lo) << e)]
        np.add.reduce(block.reshape(hi - lo, 1 << e, width), axis=1,
                      initial=-0.0, out=sums[lo:hi])
        lo = hi
    out[targets] = sums


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array data. Converted to ``float32`` unless already a float array.
    requires_grad:
        Whether gradients should be accumulated into ``.grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        _parents: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):  # defensive: unwrap
            data = data.data
        if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            self.data = data
        else:
            self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad: Optional[np.ndarray] = None
        self._backward = _backward
        self._parents: Tuple[Tensor, ...] = tuple(_parents)
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _backward=backward, _parents=parents)

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``.grad``; ``owned`` hands over a fresh array
        the caller will not touch again, which then needs no copy."""
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=not owned)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (for scalar losses just call
        ``loss.backward()``).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, dtype=self.data.dtype)
        # Topological order over the tape.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return Tensor._coerce(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return Tensor._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if self.data.ndim == 2 else grad * other.data)
                else:
                    self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out, axis=axis)
            mask = (self.data == out).astype(self.data.dtype)
            # Split gradient among ties, matching NumPy-style subgradient.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def index_select(self, indices: np.ndarray) -> "Tensor":
        """Gather rows by integer ``indices`` (first axis). Backward is scatter-add."""
        indices = np.asarray(indices)
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(scatter_add_rows(indices, grad, len(self.data)),
                                 owned=True)

        return Tensor._make(out_data, (self,), backward)

    def narrow(self, start: int, length: int) -> "Tensor":
        """Contiguous row slice ``[start : start+length]`` along the first axis."""
        out_data = self.data[start : start + length]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                acc = np.zeros_like(self.data)
                acc[start : start + length] = grad
                self._accumulate(acc)

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        if isinstance(key, slice) and (key.step is None or key.step == 1):
            start = key.start or 0
            if start < 0:
                start += self.data.shape[0]
            stop = key.stop if key.stop is not None else self.data.shape[0]
            if stop < 0:
                stop += self.data.shape[0]
            return self.narrow(start, max(0, stop - start))
        if isinstance(key, (np.ndarray, list)):
            return self.index_select(np.asarray(key))
        raise TypeError(f"Unsupported Tensor index: {key!r}")

    # ------------------------------------------------------------------
    # Nonlinearities (pointwise)
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        out_data = np.where(self.data > 0, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(self.data > 0, 1.0, negative_slope).astype(self.data.dtype))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def clamp_min(self, lo: float) -> "Tensor":
        out_data = np.maximum(self.data, lo)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data >= lo))

        return Tensor._make(out_data, (self,), backward)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a :class:`Tensor` (convenience, mirrors ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(int(start), int(stop))
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward)

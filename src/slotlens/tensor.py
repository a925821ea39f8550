"""Reverse-mode automatic differentiation on dense numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` together with an optional gradient
buffer and, for tensors produced by an operation, a record of the producing
operation (parents + backward closure).  Calling :func:`backward` on a
scalar tensor walks the graph in reverse topological order and accumulates
``dLoss/dLeaf`` into every reachable leaf that has ``requires_grad`` set.

The op set is deliberately small: exactly the primitives the network needs.
Float32 is the training dtype; float64 graphs are supported for gradient
checking (the dtype of a graph is inherited from its leaves).  Inside
:func:`no_grad` the same ops record no graph, for inference.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: op outputs keep no parents and no
    backward closure, so each intermediate is freed once consumed."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an operation."""


class Tensor:
    """A dense array with optional gradient and graph linkage.

    Leaves are created directly (``Tensor(data, requires_grad=...)``) and
    have no producing operation.  Tensors returned by ops carry a parent
    tuple and a backward closure; their ``requires_grad`` is inherited from
    the parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = ""
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @classmethod
    def _node(cls, data: np.ndarray, parents: tuple["Tensor", ...], op: str,
              backward=None) -> "Tensor":
        """An op's output. Under :func:`no_grad` it keeps neither its parents
        nor the ``backward`` closure, which would hold the inputs alive."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.op = op
        if not _grad_enabled:
            parents, backward = (), None
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = parents
        out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zeros (allocating it if absent)."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def _accumulate(self, g: np.ndarray) -> None:
        """Add a leaf gradient from :func:`backward` into the buffer."""
        if self.grad is None:
            self.grad = np.array(g, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:
        tag = f", op={self.op!r}" if self.op else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    # operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    @property
    def T(self) -> "Tensor":
        return transpose(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# elementary operations ----------------------------------------------------


def add(a, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    return Tensor._node(
        data, (a, b), "add",
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    return Tensor._node(
        data, (a, b), "mul",
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    x = _as_tensor(x)
    c = float(c)
    return Tensor._node(x.data * c, (x,), "scale", lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in
    numpy."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: leading axes of {a.shape} and {b.shape} do not broadcast")
    return Tensor._node(
        data, (a, b), "matmul",
        lambda g: (
            _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape),
            _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape),
        ),
    )


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes like ``np.transpose``; by default swap the last two."""
    x = _as_tensor(x)
    if axes is None:
        if x.data.ndim < 2:
            raise ShapeError(f"transpose: expected at least 2 dims, got shape {x.shape}")
        axes = (*range(x.data.ndim - 2), x.data.ndim - 1, x.data.ndim - 2)
    return Tensor._node(x.data.transpose(axes), (x,), "transpose",
                        lambda g: (g.transpose(np.argsort(axes)),))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """The same elements in a new shape."""
    x = _as_tensor(x)
    return Tensor._node(x.data.reshape(shape), (x,), "reshape",
                        lambda g: (g.reshape(x.data.shape),))


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Join same-shaped tensors along a new leading axis; backward splits it."""
    tensors = [_as_tensor(t) for t in tensors]
    try:
        data = np.stack([t.data for t in tensors])
    except ValueError:
        raise ShapeError(f"stack: shapes differ, {[t.shape for t in tensors]}")
    # iterating g yields one slice per input
    return Tensor._node(data, tuple(tensors), "stack", tuple)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate same-rank tensors along ``axis``; the other axes
    broadcast as in numpy."""
    tensors = [_as_tensor(t) for t in tensors]
    ndim = tensors[0].data.ndim
    if any(t.data.ndim != ndim for t in tensors):
        raise ShapeError(f"concat: ranks differ, {[t.shape for t in tensors]}")
    axis %= ndim
    others = [t.shape[:axis] + (1,) + t.shape[axis + 1:] for t in tensors]
    try:
        other = np.broadcast_shapes(*set(others))
    except ValueError:
        raise ShapeError(f"concat: other dims do not broadcast, {[t.shape for t in tensors]}")
    parts = [t.data if o == other
             else np.broadcast_to(t.data, other[:axis] + t.shape[axis:axis + 1] + other[axis + 1:])
             for t, o in zip(tensors, others)]

    def _bw(g):
        splits = np.cumsum([t.shape[axis] for t in tensors[:-1]])
        return tuple(_unbroadcast(piece, t.data.shape)
                     for piece, t in zip(np.split(g, splits, axis=axis), tensors))

    return Tensor._node(np.concatenate(parts, axis=axis), tuple(tensors), "concat", _bw)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D ``w`` — the linear-layer primitive, as one
    graph node holding one output array."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"affine: shapes {x.shape} @ {w.shape} + {b.shape} do not conform")
    k, n = w.data.shape
    flat = x.data.reshape(-1, k)
    data = flat @ w.data
    data += b.data

    def _bw(g):
        g = g.reshape(-1, n)
        return (g @ w.data.T).reshape(x.data.shape), flat.T @ g, g.sum(axis=0)

    return Tensor._node(data.reshape(x.data.shape[:-1] + (n,)), (x, w, b), "affine", _bw)


def take(x: Tensor, idx) -> Tensor:
    """Basic indexing (ints and slices) with gradient scatter-back."""
    x = _as_tensor(x)

    def _bw(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return (gx,)

    return Tensor._node(x.data[idx], (x,), "take", _bw)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` for an integer id array (embedding fetch)."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: need a 2-D table, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"gather_rows: id out of range for table with {table.data.shape[0]} rows")

    def _bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return Tensor._node(table.data[ids], (table,), "gather", _bw)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return Tensor._node(np.maximum(x.data, 0), (x,), "relu", lambda g: (g * (x.data > 0),))


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor."""
    x = _as_tensor(x)
    return Tensor._node(
        np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), "sum",
        lambda g: (np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False),),
    )


# normalization, masking, regularization ------------------------------------


def softmax_masked(x: Tensor, mask, scale: float = 1.0) -> Tensor:
    """Softmax of ``scale * x`` over the last dimension, restricted to valid
    positions.

    ``mask`` broadcasts against ``x``: a validity vector over the last
    dimension shared by all rows, or a key-padding mask such as
    ``(B, 1, 1, L)`` for ``(B, H, L, L)`` scores.  1/True marks valid
    positions.  Masked positions are exactly zero in the output and receive
    zero gradient.  Raises if some row has no valid position (its
    distribution would be undefined).
    """
    x = _as_tensor(x)
    scale = float(scale)
    valid = np.asarray(mask).astype(bool)
    try:
        conforms = np.broadcast_shapes(valid.shape, x.shape) == x.shape
    except ValueError:
        conforms = False
    if not conforms:
        raise ShapeError(
            f"softmax_masked: mask shape {valid.shape} does not broadcast to {x.shape}"
        )
    if not valid.any(axis=-1).all():
        raise ValueError("softmax_masked: all positions masked, distribution undefined")
    # one array, updated in place: attention scores are the largest tensors
    p = x.data * scale
    np.copyto(p, -np.inf, where=~valid)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def _bw(g):
        gx = g * p
        gx -= p * gx.sum(axis=-1, keepdims=True)
        gx *= scale
        return (gx,)

    return Tensor._node(p, (x,), "softmax", _bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of the last dimension to zero mean / unit variance,
    then apply the learned elementwise gain and bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.data.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match last dim {n}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std

    def _bw(g):
        reduce_axes = tuple(range(g.ndim - 1))
        g_gain = (g * xhat).sum(axis=reduce_axes) if g.ndim > 1 else g * xhat
        g_bias = g.sum(axis=reduce_axes) if g.ndim > 1 else g
        g_hat = g * gain.data
        gx = inv_std * (
            g_hat
            - g_hat.mean(axis=-1, keepdims=True)
            - xhat * (g_hat * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, g_gain, g_bias

    return Tensor._node(xhat * gain.data + bias.data, (x, gain, bias), "layer_norm", _bw)


def dropout_mask(
    shape: tuple[int, ...],
    rate: float,
    rng: np.random.Generator | None,
    lengths: Sequence[int] | None = None,
    dtype=np.float32,
) -> np.ndarray:
    """The mask :func:`dropout` multiplies by: 0 with probability ``rate``,
    else ``1/(1-rate)``.

    With ``lengths``, ``shape`` is a padded batch ``(B, L, ...)``: utterance
    b draws its mask over its first ``lengths[b]`` rows, in batch order, so
    its mask does not depend on the rest of the batch.  Pad rows are zero.
    """
    if rng is None:
        raise ValueError("dropout in training mode requires a seeded rng")
    if lengths is None:
        keep = rng.random(shape) >= rate
    else:
        lengths = np.asarray(lengths, dtype=np.intp)
        keep = np.zeros(shape, dtype=bool)
        # row-major order of the valid rows is utterance by utterance
        keep[np.arange(shape[1]) < lengths[:, None]] = (
            rng.random((lengths.sum(), *shape[2:])) >= rate)
    return (keep / (1.0 - rate)).astype(dtype)


def dropout(
    x: Tensor,
    rate: float,
    training: bool,
    rng: np.random.Generator | None = None,
    lengths: Sequence[int] | None = None,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Inverted dropout: zero with probability ``rate`` and rescale survivors
    by ``1/(1-rate)`` during training; identity at inference.  The mask is
    drawn from ``rng`` as :func:`dropout_mask` draws it, unless ``keep``
    gives one drawn beforehand, which is applied whatever ``training`` says.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if keep is None:
        if not training or rate == 0.0:
            return x
        keep = dropout_mask(x.data.shape, rate, rng, lengths, x.data.dtype)
    return Tensor._node(x.data * keep, (x,), "dropout", lambda g: (g * keep,))


# losses --------------------------------------------------------------------


def cross_entropy_rows(logits: Tensor, targets, n: float = 1.0) -> Tensor:
    """Sum of per-row cross entropies over the last dimension, divided by ``n``.

    ``targets`` holds one class index per row (shape ``logits.shape[:-1]``);
    a target of -1 marks a pad row, which contributes nothing.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim < 1 or targets.shape != logits.data.shape[:-1]:
        raise ShapeError(
            f"cross_entropy_rows: logits {logits.shape} need one target per row, got {targets.shape}"
        )
    n_classes = logits.data.shape[-1]
    if targets.size and (targets.min() < -1 or targets.max() >= n_classes):
        raise IndexError(f"cross_entropy_rows: target out of range for {n_classes} classes")
    hot = targets[..., None] == np.arange(n_classes)  # all False on pad rows
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = ((lse - shifted) * hot).sum() / n
    p = np.exp(shifted - lse)
    return Tensor._node(
        np.asarray(loss, dtype=logits.data.dtype), (logits,), "cross_entropy_rows",
        lambda g: ((p - hot) * (targets >= 0)[..., None] * (g / n),),
    )


def binary_cross_entropy(logits: Tensor, targets, n: int, mask=None) -> Tensor:
    """Sigmoid binary cross entropy summed over all elements, divided by ``n``.

    Computed in the numerically stable form ``softplus(x) - x*y`` so large
    logits never produce log-of-zero.  ``n`` is the number of contributing
    elements and may cover a whole batch.  ``mask`` broadcasts against the
    logits; elements where it is 0 (padding) contribute nothing.
    """
    logits = _as_tensor(logits)
    y = np.asarray(targets, dtype=logits.data.dtype)
    if y.shape != logits.data.shape:
        raise ShapeError(f"binary_cross_entropy: targets {y.shape} vs logits {logits.shape}")
    if n <= 0:
        raise ValueError(f"binary_cross_entropy: element count must be positive, got {n}")
    x = logits.data
    keep = np.ones((), dtype=x.dtype) if mask is None else np.asarray(mask, dtype=x.dtype)
    loss = ((np.logaddexp(0.0, x) - x * y) * keep).sum() / n

    def _bw(g):
        sig = 1.0 / (1.0 + np.exp(-x))
        return ((sig - y) * keep * (g / n),)

    return Tensor._node(np.asarray(loss, dtype=x.dtype), (logits,), "bce", _bw)


# backward engine ------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate leaf gradients of every reachable ``requires_grad`` leaf.

    The loss must be scalar.  Leaf gradients accumulate across calls; use
    ``ParamSet.zero_grads`` (or ``Tensor.zero_grad``) between steps.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._parents:
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        elif node.requires_grad:
            node._accumulate(g)

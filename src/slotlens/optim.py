"""Named parameter registry, initialization helpers, and Adam.

A :class:`ParamSet` keeps its state in four flat arrays of one dtype, its
arenas: parameters (``data``), gradients (``grad``) and Adam's first and
second moments (``m``, ``v``).  Each arena is laid out in sorted-name
order, and every parameter's ``data`` and ``grad`` is a reshaped view of
its segment, so Adam, gradient zeroing and checkpoint I/O each run over
whole arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator

import numpy as np

from .tensor import Tensor


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    """Glorot-uniform weight matrix of shape ``(fan_in, fan_out)``."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def arena_layout(shapes: dict[str, tuple[int, ...]]) -> tuple[dict[str, int], int]:
    """Each named array's offset in an arena holding them back to back in
    sorted-name order, and the arena's length."""
    starts, total = {}, 0
    for name in sorted(shapes):
        starts[name] = total
        total += math.prod(shapes[name])
    return starts, total


class Param(Tensor):
    """A :class:`ParamSet` leaf: ``data`` is a view of the set's parameter
    arena, and ``grad``, once :meth:`ParamSet.zero_grads` or the first
    ``backward`` binds it, the same segment of its gradient arena."""

    __slots__ = ("_grads", "_start")  # the gradient arena, the segment's offset

    def _segment(self, arena: np.ndarray) -> np.ndarray:
        return arena[self._start : self._start + self.data.size].reshape(self.data.shape)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = self._segment(self._grads)
            self.grad[...] = g
        else:
            self.grad += g


class ParamSet:
    """Ordered map from parameter path to leaf tensor, plus Adam state.

    Parameter names are unique.  Every parameter is declared with a shape
    and an initialiser, and then the set is allocated once
    (:meth:`allocate`); a set that is allocated takes no more parameters.
    The optimizer's step count is shared by all parameters in the set; the
    moment arenas are allocated on the first :func:`adam_step`, or given
    to :meth:`allocate`.
    """

    def __init__(self):
        self._shapes: dict[str, tuple[int, ...]] = {}  # declaration order
        self._inits: list = []  # until allocation, in declaration order
        self._params: dict[str, Param] = {}  # declaration order
        self._starts: dict[str, int] = {}  # arena offset, in sorted-name order
        self.dtype: np.dtype | None = None
        self.data = self.grad = self.m = self.v = None
        self._work = None  # adam_step's two scratch arenas
        self.step_count = 0

    def declare(self, name: str, shape: tuple[int, ...], init) -> None:
        """Register a parameter for :meth:`allocate`.  ``init`` is its value
        (an array or a fill value) or a function of no arguments returning
        it, called only if the allocation initialises (it is not given
        arenas)."""
        if self.data is not None:
            raise ValueError(f"cannot declare {name!r}: the parameter set is already allocated")
        if name in self._shapes:
            raise ValueError(f"duplicate parameter name: {name}")
        self._shapes[name] = tuple(shape)
        self._inits.append(init)

    def allocate(self, dtype=np.float32, arenas: dict[str, np.ndarray] | None = None) -> None:
        """Lay every declared parameter out in arenas of ``dtype`` (see
        :func:`arena_layout`) and set each from its initialiser, in
        declaration order, so seeded draws do not depend on the layout.
        Given ``arenas`` (``data``, and ``m`` and ``v`` if there are
        moments, each one flat array of the layout's length and ``dtype``),
        the set is built around them instead and initialises nothing.
        A set is allocated once.
        """
        if self.data is not None:
            raise ValueError("the parameter set is already allocated")
        dtype = np.dtype(dtype)
        starts, total = arena_layout(self._shapes)
        given = arenas or {}
        for key in ("data", "grad", "m", "v"):
            arena = given.get(key)
            if arena is None and key in ("data", "grad"):
                arena = np.zeros(total, dtype)
            elif arena is not None and (arena.dtype != dtype or arena.shape != (total,)):
                raise ValueError(f"arena {key!r} holds {arena.size} {arena.dtype} values, "
                                 f"the parameters take {total} {dtype}")
            setattr(self, key, arena)
        self.dtype, self._starts = dtype, starts
        for (name, shape), init in zip(self._shapes.items(), self._inits):
            start = starts[name]
            t = Param(self.data[start : start + math.prod(shape)].reshape(shape),
                      requires_grad=True)
            t._grads, t._start = self.grad, start
            if arenas is None:
                t.data[...] = init() if callable(init) else init
            self._params[name] = t
        self._inits = []

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Every declared parameter's shape, in declaration order."""
        return dict(self._shapes)

    def names(self) -> list[str]:
        """Every declared name, in declaration order."""
        return list(self._shapes)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def layout(self) -> Iterator[tuple[str, int]]:
        """``(name, arena offset)`` in arena order, which is sorted-name order."""
        return iter(self._starts.items())

    def name_at(self, index: int) -> str:
        """The parameter whose segment holds arena element ``index``."""
        names = list(self._starts)
        return names[bisect_right(list(self._starts.values()), index) - 1]

    def size(self, prefix: str = "") -> int:
        """Total scalar count, optionally restricted to a name prefix."""
        return sum(t.size for n, t in self._params.items() if n.startswith(prefix))

    def zero_grads(self) -> None:
        if self.grad is None:
            return
        self.grad.fill(0.0)
        for t in self._params.values():
            if t.grad is None:
                t.grad = t._segment(self.grad)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._params.items()}

    def optimizer_state(self) -> dict:
        """Adam moment buffers and the shared step count."""
        def copies(arena):
            if arena is None:
                return {}
            return {n: t._segment(arena).copy() for n, t in self._params.items()}

        return {"step_count": self.step_count, "m": copies(self.m), "v": copies(self.v)}


def adam_step(
    params: ParamSet,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update over every parameter, then zero grads.

    Every parameter must have a populated gradient buffer (zeros count);
    a ``None`` gradient means backward never ran and is reported as an
    error naming the parameter.  The update is elementwise, so it runs
    once over the whole arenas, in the scalar order of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``data -= lr * (m/bias1) / (sqrt(v/bias2) + eps)``.
    """
    b1, b2 = betas
    for name, t in params.items():
        if t.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
    params.step_count += 1
    step = params.step_count
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    if params.m is None:
        params.m, params.v = (np.zeros(params.data.size, params.dtype) for _ in "mv")
    if params._work is None:
        params._work = np.empty((2, params.data.size), params.dtype)
    g, m, v = params.grad, params.m, params.v
    s, r = params._work
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=s)
    v *= b2
    np.multiply(g, 1.0 - b2, out=s)
    v += np.multiply(s, g, out=s)
    np.divide(m, bias1, out=s)
    np.divide(v, bias2, out=r)
    np.sqrt(r, out=r)
    r += eps
    np.multiply(s, lr, out=s)
    params.data -= np.divide(s, r, out=s)
    g.fill(0.0)

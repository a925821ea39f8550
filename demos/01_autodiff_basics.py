"""Reverse-mode autodiff on numpy arrays: build a graph, call backward,
then audit every gradient against central finite differences."""

import numpy as np

from slotlens import Tensor, backward, finite_diff_check
from slotlens.optim import ParamSet
from slotlens.tensor import (
    layer_norm,
    matmul,
    relu,
    softmax_masked,
    sum_all,
    transpose,
)

# a tiny two-layer computation over learnable leaves: declare each one,
# then allocate the set once, which draws them in declaration order
params = ParamSet()
rng = np.random.default_rng(0)
params.declare("w1", (4, 6), lambda: rng.normal(size=(4, 6)))
params.declare("b1", (6,), 0.0)
params.declare("w2", (6, 3), lambda: rng.normal(size=(6, 3)))
params.allocate(np.float64)
w1, b1, w2 = params["w1"], params["b1"], params["w2"]

x = Tensor(rng.normal(size=(5, 4)))  # constant input, no gradient


def loss() -> Tensor:
    h = relu(matmul(x, w1) + b1)
    h = layer_norm(h, Tensor(np.ones(6)), Tensor(np.zeros(6)))
    att = softmax_masked(matmul(h, transpose(h)), np.ones(5))
    return sum_all(matmul(att, matmul(h, w2)))


params.zero_grads()
value = loss()
backward(value)
print(f"loss value: {value.item():.6f}")
print(f"dL/dw2 row 0: {np.round(w2.grad[0], 4)}")

# the same audit the gradcheck command runs on the full model
report = finite_diff_check(loss, params, h=1e-6, tol=1e-4)
print()
print(report.format())

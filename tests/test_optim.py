"""Tests for the parameter registry and Adam updates."""

import numpy as np
import pytest
from conftest import param_set

from slotlens.optim import ParamSet, adam_step, xavier_uniform
from slotlens.tensor import Tensor, backward, mul, sum_all


def _single_param(value, name="w"):
    return param_set({name: np.asarray(value, dtype=np.float64)})


class TestParamSet:
    def test_duplicate_name_rejected(self):
        ps = ParamSet()
        ps.declare("w", (1,), 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            ps.declare("w", (2,), 0.0)

    def test_size_by_prefix(self):
        ps = param_set({"a.x": np.zeros((2, 3)), "a.y": np.zeros(4), "b.z": np.zeros(5)})
        assert ps.size() == 15
        assert ps.size("a.") == 10

    def test_second_allocation_refused(self):
        ps = _single_param([1.0])
        with pytest.raises(ValueError, match="^the parameter set is already allocated$"):
            ps.allocate(np.float64)
        assert ps["w"].data.tolist() == [1.0]

    def test_declaration_after_allocation_refused(self):
        ps = _single_param([1.0])
        with pytest.raises(ValueError, match="cannot declare 'u': the parameter set is "
                                             "already allocated"):
            ps.declare("u", (3,), 0.0)
        assert ps.names() == ["w"] and ps.data.size == 1


class TestAdam:
    def test_zero_gradient_is_noop(self):
        ps = _single_param([1.5, -2.0])
        ps.zero_grads()
        before = ps["w"].data.copy()
        adam_step(ps, lr=0.1)
        np.testing.assert_array_equal(ps["w"].data, before)

    def test_first_update_magnitude_is_learning_rate(self):
        # with bias correction, step 1 moves by lr * g/(|g| + eps) ~= lr
        ps = _single_param([0.0])
        ps.zero_grads()
        ps["w"].grad[:] = 0.37
        adam_step(ps, lr=1e-3)
        assert ps["w"].data[0] == pytest.approx(-1e-3, rel=1e-4)

    def test_hand_stepped_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        ps = _single_param([1.0])
        m = v = 0.0
        x = 1.0
        for step in range(1, 6):
            g = 2.0 * x  # pretend loss x^2 evaluated at the reference value
            ps.zero_grads()
            ps["w"].grad[:] = g
            adam_step(ps, lr=lr, betas=(b1, b2), eps=eps)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)
            assert ps["w"].data[0] == pytest.approx(x, rel=1e-12)

    def test_identical_sets_make_identical_updates(self):
        def build():
            ps = param_set({"w": np.linspace(-1, 1, 6).reshape(2, 3)})
            ps.zero_grads()
            ps["w"].grad[:] = np.arange(6, dtype=np.float32).reshape(2, 3)
            return ps

        a, b = build(), build()
        for _ in range(3):
            adam_step(a, lr=0.05)
            adam_step(b, lr=0.05)
            a["w"].grad[:] = 1.0
            b["w"].grad[:] = 1.0
        np.testing.assert_array_equal(a["w"].data, b["w"].data)

    def test_missing_gradient_names_parameter(self):
        ps = param_set({"encoder.w": np.zeros(2)})
        with pytest.raises(ValueError, match="encoder.w"):
            adam_step(ps, lr=0.1)

    def test_grads_zeroed_after_step(self):
        ps = _single_param([1.0])
        ps.zero_grads()
        ps["w"].grad[:] = 3.0
        adam_step(ps, lr=0.1)
        np.testing.assert_array_equal(ps["w"].grad, 0.0)

    def test_step_count_shared_across_parameters(self):
        ps = param_set({"a": np.zeros(2), "b": np.zeros(3)})
        ps.zero_grads()
        adam_step(ps, lr=0.1)
        adam_step(ps, lr=0.1)
        assert ps.step_count == 2

    def test_descends_a_quadratic(self):
        ps = _single_param([4.0])
        w = ps["w"]
        for _ in range(500):
            ps.zero_grads()
            loss = sum_all(mul(w, w))
            backward(loss)
            adam_step(ps, lr=0.05)
        assert abs(w.data[0]) < 1e-2


def test_xavier_uniform_bounds_and_determinism():
    a = xavier_uniform(np.random.default_rng(3), 30, 50)
    b = xavier_uniform(np.random.default_rng(3), 30, 50)
    limit = np.sqrt(6.0 / 80.0)
    assert a.shape == (30, 50)
    assert np.all(np.abs(a) <= limit)
    np.testing.assert_array_equal(a, b)

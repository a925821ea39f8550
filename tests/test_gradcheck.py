"""Tests for the finite-difference gradient checker."""

import numpy as np
from conftest import param_set

from slotlens.gradcheck import finite_diff_check, relative_error
from slotlens.tensor import Tensor, add, mul, scale, sum_all


def test_quadratic_is_exact_for_central_differences():
    ps = param_set({"w": np.array([1.0, -2.0, 3.0], dtype=np.float64)})
    w = ps["w"]
    report = finite_diff_check(lambda: sum_all(mul(w, w)), ps, h=1e-4, tol=1e-9)
    assert report.passed
    assert report.max_rel_err < 1e-9


def test_constant_function_passes_with_zero_error():
    ps = param_set({"w": np.array([5.0], dtype=np.float64)})
    w = ps["w"]
    report = finite_diff_check(lambda: scale(sum_all(mul(w, 0.0)), 1.0), ps, h=1e-5, tol=1e-4)
    assert report.passed
    assert report.max_rel_err == 0.0


def test_report_flags_wrong_gradients():
    # sabotage: evaluate w*w but a constant shifted version so the graph's
    # gradient (2w) disagrees with finite differences of the actual callable
    ps = param_set({"w": np.array([2.0], dtype=np.float64)})
    w = ps["w"]
    calls = {"n": 0}

    def f():
        calls["n"] += 1
        k = 3.0 if calls["n"] > 1 else 1.0  # finite-diff evals see a different function
        return sum_all(mul(scale(w, k), w))

    report = finite_diff_check(f, ps, h=1e-5, tol=1e-4)
    assert not report.passed


def test_nan_gradient_fails_the_audit():
    """NaN compares false with every bound, so it must not slip past as 'no error'."""
    ps = param_set({"a": np.array([1.0, 2.0], dtype=np.float64),
                    "b": np.array([3.0], dtype=np.float64)})
    a, b = ps["a"], ps["b"]

    def nan_backward(x):
        out = Tensor._node(x.data.copy(), (x,), "nan_backward")
        out._backward = lambda g: (np.full_like(x.data, np.nan),)
        return out

    report = finite_diff_check(lambda: add(sum_all(nan_backward(a)), sum_all(mul(b, b))), ps)
    assert report.passed is False
    assert report.checks[0].max_rel_err == np.inf
    assert report.checks[1].max_rel_err < 1e-6
    assert "result: FAIL" in report.format()


def test_report_format_lists_every_parameter():
    ps = param_set({"layer.a": np.array([1.0], dtype=np.float64),
                    "layer.b": np.array([2.0], dtype=np.float64)})
    a, b = ps["layer.a"], ps["layer.b"]
    report = finite_diff_check(lambda: sum_all(add(mul(a, a), mul(b, b))), ps)
    text = report.format()
    assert "layer.a" in text and "layer.b" in text
    assert "PASS" in text


def test_relative_error_floors_at_unit_scale():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-9, 0.0) == 1e-9  # absolute regime below 1
    assert relative_error(200.0, 100.0) == 0.5
    assert relative_error(float("nan"), 1.0) == relative_error(1.0, float("inf")) == np.inf

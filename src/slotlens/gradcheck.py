"""Central finite-difference verification of autodiff gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .optim import ParamSet
from .tensor import Tensor, backward


def relative_error(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|, 1): relative for large values, absolute below 1.
    Infinite when either value is not finite, so such an entry ranks worst."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), 1.0)


@dataclass
class ParamCheck:
    """Worst-entry comparison for one parameter."""

    name: str
    max_rel_err: float
    autodiff_value: float
    finite_diff_value: float
    flat_index: int


@dataclass
class GradCheckReport:
    """Per-parameter gradient check results against central differences."""

    perturbation: float
    tolerance: float
    checks: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def format(self) -> str:
        """Plain-text report: one line per parameter, worst entry shown."""
        lines = [
            f"gradient check  h={self.perturbation:g}  tol={self.tolerance:g}",
            f"{'parameter':<40} {'autodiff':>14} {'finite_diff':>14} {'rel_err':>12}",
        ]
        for c in self.checks:
            lines.append(
                f"{c.name:<40} {c.autodiff_value:>14.6e} {c.finite_diff_value:>14.6e}"
                f" {c.max_rel_err:>12.3e}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict}  (max rel err {self.max_rel_err:.3e})")
        return "\n".join(lines)


def finite_diff_check(
    f: Callable[[], Tensor],
    params: ParamSet,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare autodiff gradients of ``f`` with central differences.

    ``f`` must rebuild and return the scalar loss on every call, be
    deterministic (no live dropout), and close over the tensors in
    ``params``.  Run the model in float64 for meaningful tolerances.
    ``h`` must be finite and positive, ``tol`` non-negative.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"perturbation h must be finite and positive, got {h}")
    if not tol >= 0:
        raise ValueError(f"tolerance tol must be non-negative, got {tol}")
    params.zero_grads()
    loss = f()
    backward(loss)
    autodiff = {name: t.grad.copy() for name, t in params.items()}

    report = GradCheckReport(perturbation=h, tolerance=tol)
    for name, t in params.items():
        flat = t.data.reshape(-1)
        worst = ParamCheck(name, 0.0, float(autodiff[name].reshape(-1)[0]) if flat.size else 0.0, 0.0, 0)
        ad_flat = autodiff[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f().item()
            flat[i] = orig - h
            f_minus = f().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            err = relative_error(float(ad_flat[i]), fd)
            if err >= worst.max_rel_err:
                worst = ParamCheck(name, err, float(ad_flat[i]), fd, i)
        report.checks.append(worst)
    return report

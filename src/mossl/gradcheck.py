"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError
from .tensor import Tensor, gradients, no_grad

# Relative error divides by max(|analytic|, |numeric|, DENOM_FLOOR).  With
# eps = 1e-6 and losses of magnitude O(10), central differences carry an
# absolute noise floor of roughly 1e-9 from float64 cancellation, so a
# coordinate whose true gradient is tiny cannot be resolved more finely
# than ~1e-7 in absolute terms.  The 1e-3 floor makes a 1e-4 relative gate
# equivalent to that absolute tolerance for small gradients while staying
# fully relative for gradients above 1e-3.
DENOM_FLOOR = 1e-3
# A check passes when its maximum relative error is below this bound.
PASS_THRESHOLD = 1e-4


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: int
    per_param: dict[str, float] = field(default_factory=dict)

    def passed(self) -> bool:
        return self.max_rel_error < PASS_THRESHOLD


def _eval_loss(loss_fn: Callable[[], Tensor], param_name: str) -> float:
    with no_grad():
        value = float(loss_fn().data)
    if not np.isfinite(value):
        raise NumericalError(f"non-finite loss while perturbing parameter '{param_name}'")
    return value


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-6,
) -> GradCheckReport:
    """Compare reverse-mode gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must be deterministic and recompute the loss from the current
    parameter values on every call.  Only the first call, at the unperturbed
    parameters, records a tape; the perturbed calls run under ``no_grad``.
    Relative error per coordinate is |analytic - numeric| /
    max(|analytic|, |numeric|, DENOM_FLOOR); the report holds the maximum
    over all coordinates of all parameters.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = loss_fn()
    if not np.isfinite(base.data):
        raise NumericalError("non-finite loss at the unperturbed parameters")
    analytic = gradients(base, params)

    report = GradCheckReport(0.0, "", -1)
    for name, p in params.items():
        flat = p.data.ravel()
        a_flat = analytic[name].ravel()
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = _eval_loss(loss_fn, name)
            flat[i] = orig - eps
            f_minus = _eval_loss(loss_fn, name)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = a_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), DENOM_FLOOR)
            if rel > worst:
                worst = rel
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = name
                report.worst_index = i
        report.per_param[name] = worst
    return report

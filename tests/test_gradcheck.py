"""Contracts of the finite-difference gradient checker."""

import numpy as np
import pytest

from mossl import tensor
from mossl.config import parse_config
from mossl.errors import NumericalError
from mossl.gradcheck import PASS_THRESHOLD, grad_check
from mossl.runs import run_gradcheck
from mossl.tensor import Tensor, gradients
from test_acceptance import TINY_CONFIG_TEXT


def test_quadratic_loss_analytic_gradient():
    theta = Tensor([1.0, 2.0], requires_grad=True)
    grads = gradients((theta * theta).sum(), {"theta": theta})
    assert np.allclose(grads["theta"], [2.0, 4.0], atol=1e-12)
    report = grad_check(lambda: (theta * theta).sum(), {"theta": theta})
    assert report.max_rel_error < 1e-9


def test_independent_parameter_passes_with_zero_gradient():
    theta = Tensor([5.0, -1.0], requires_grad=True)
    other = Tensor([2.0], requires_grad=True)

    def loss():
        return (other * other).sum()

    assert np.array_equal(gradients(loss(), {"theta": theta})["theta"], np.zeros(2))
    report = grad_check(loss, {"theta": theta, "other": other})
    assert report.passed()


def test_non_finite_loss_names_parameter():
    # theta - eps lands exactly on zero, so one probe divides by zero
    theta = Tensor([1e-6], requires_grad=True)

    def loss():
        with np.errstate(divide="ignore"):
            return (Tensor([1.0]) / theta).sum()

    with pytest.raises(NumericalError, match="theta"):
        grad_check(loss, {"theta": theta})


def test_restores_parameters_after_run():
    theta = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    before = theta.data.copy()
    grad_check(lambda: (theta * theta).sum(), {"theta": theta})
    assert np.array_equal(theta.data, before)


def test_only_the_base_evaluation_records_a_tape(monkeypatch):
    theta = Tensor([0.5, -0.25, 2.0], requires_grad=True)
    calls, taped = [], []
    make = tensor._make

    def counting_make(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        taped.append((len(calls), out.requires_grad))
        return out

    def loss():
        calls.append(None)
        return (theta * theta * theta).sum()

    monkeypatch.setattr(tensor, "_make", counting_make)
    grad_check(loss, {"theta": theta})
    assert len(calls) == 1 + 2 * theta.size
    assert {call for call, recorded in taped if recorded} == {1}
    assert {call for call, _ in taped} == set(range(1, len(calls) + 1))


def test_rejects_nonpositive_eps():
    theta = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: (theta * theta).sum(), {"theta": theta}, eps=0.0)


def test_report_locates_worst_coordinate():
    theta = Tensor([0.5, -0.25], requires_grad=True)
    report = grad_check(lambda: (theta * theta * theta).sum(), {"theta": theta})
    assert report.worst_param == "theta"
    assert report.worst_index in (0, 1)
    assert set(report.per_param) == {"theta"}


def test_full_model_report_is_pinned():
    # run_gradcheck pins the mask, so the report is a deterministic function
    # of the config and is pinned to the last bit
    report = run_gradcheck(parse_config(TINY_CONFIG_TEXT), quiet=True)
    assert PASS_THRESHOLD == 1e-4
    assert report.passed(), (report.max_rel_error, report.worst_param)
    assert report.max_rel_error == 7.909161891509426e-06
    assert report.worst_param == "encoder.layers.0.conv.kernel"
    assert report.worst_index == 133

"""Tests for the finite-difference oracle machinery itself."""

import json

import numpy as np
import pytest

from lossmix import gradcheck
from lossmix.gradcheck import _aggregate, central_fd, check_hp_gradients, check_model_gradients
from lossmix.gradcheck import check_reg_gradients
from lossmix.models import LINEAR_KIND, MLP_KIND, LinearMultiLossModel, ToyModelSpec, build_model


class TestCentralFd:
    def test_sum_of_squares(self):
        grad = central_fd(lambda x: float(np.sum(x**2)), np.array([1.0, 2.0]), 1e-6)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-5)

    def test_constant_function_is_exactly_zero(self):
        grad = central_fd(lambda x: 3.5, np.array([0.2, -0.7, 1.1]), 1e-6)
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            central_fd(lambda x: 0.0, np.array([1.0]), 0.0)

    def test_non_finite_function_value(self):
        with pytest.raises(ValueError):
            central_fd(lambda x: float("nan"), np.array([1.0]), 1e-6)


class TestHpGradientCheck:
    def test_default_protocol_passes(self):
        report = check_hp_gradients()
        assert report.passed
        assert report.n_trials == 100
        assert report.max_relative_error < 1e-6

    def test_unattainable_tolerance_fails(self):
        report = check_hp_gradients(tol=1e-16)
        assert not report.passed

    def test_deterministic_given_seed(self):
        a = check_hp_gradients(n_trials=10, seed=5)
        b = check_hp_gradients(n_trials=10, seed=5)
        assert a == b

    def test_json_round_trip(self):
        report = check_hp_gradients(n_trials=5)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert payload["name"] == "hp_gradient_empirical"


class TestRegGradientCheck:
    def test_default_protocol_passes(self):
        report = check_reg_gradients()
        assert report.passed
        assert report.max_relative_error < 1e-6

    def test_single_aux_uniform_case(self):
        # both sides should agree at small K too
        report = check_reg_gradients(n_trials=20, k_range=(1,))
        assert report.passed


class TestModelGradientCheck:
    def test_linear_model_passes(self):
        model = build_model(ToyModelSpec(kind=LINEAR_KIND, n_features=6))
        report = check_model_gradients(model, n_trials=10)
        assert report.passed
        assert report.tolerance == 1e-5

    def test_mlp_model_passes(self):
        model = build_model(ToyModelSpec(kind=MLP_KIND, n_features=5, hidden_units=8))
        report = check_model_gradients(model, n_trials=10)
        assert report.passed

    def test_deterministic_given_seed(self):
        model = build_model(ToyModelSpec(kind=LINEAR_KIND, n_features=4))
        a = check_model_gradients(model, n_trials=5, seed=9)
        b = check_model_gradients(model, n_trials=5, seed=9)
        assert a == b


def patched(fn, bad=None):
    """``fn`` counting its calls; given ``bad``, entry 1 of its result is replaced by it."""

    def wrapper(*args):
        wrapper.calls += 1
        g = np.array(fn(*args))
        if bad is not None:
            g[..., 1] = bad
        return g

    wrapper.calls = 0
    return wrapper


class PatchedLinearModel(LinearMultiLossModel):
    """A linear model whose parameter gradient is ``patched``."""

    def __init__(self, spec, bad=None):
        super().__init__(spec)
        self.param_gradient = patched(super().param_gradient, bad)


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])


class TestNonFiniteGradients:
    @NON_FINITE
    def test_aggregate_counts_either_side_as_infinite_error(self, bad):
        for analytic, numeric in [([bad, 1.0], [0.5, 1.0]), ([0.5, 1.0], [bad, 1.0])]:
            report = _aggregate("g", 1e-6, [(np.array(analytic), np.array(numeric))])
            assert not report.passed
            assert report.n_trials == 1
            assert report.max_relative_error == report.max_absolute_error == np.inf
            assert report.worst_index == 0

    @NON_FINITE
    def test_hp_check_fails(self, bad, monkeypatch):
        monkeypatch.setattr(gradcheck, "hp_gradient_empirical", patched(gradcheck.hp_gradient_empirical, bad))
        report = check_hp_gradients(n_trials=5)
        assert not report.passed and report.max_relative_error == np.inf

    @NON_FINITE
    def test_reg_check_fails(self, bad, monkeypatch):
        monkeypatch.setattr(gradcheck, "regularizer_gradient", patched(gradcheck.regularizer_gradient, bad))
        report = check_reg_gradients(n_trials=5)
        assert not report.passed and report.max_relative_error == np.inf

    @NON_FINITE
    def test_model_check_fails(self, bad):
        report = check_model_gradients(PatchedLinearModel(ToyModelSpec(n_features=4), bad), n_trials=3)
        assert not report.passed and report.max_relative_error == np.inf


class TestTrialCount:
    def test_no_trials_fail(self):
        # a check that ran no trial checked nothing
        report = _aggregate("g", 1e-6, [])
        assert report.n_trials == 0
        assert not report.passed

    def test_exponent_checks_count_their_trials(self, monkeypatch):
        checks = {"hp_gradient_empirical": check_hp_gradients, "regularizer_gradient": check_reg_gradients}
        for name, check in checks.items():
            counted = patched(getattr(gradcheck, name))
            monkeypatch.setattr(gradcheck, name, counted)
            assert check(n_trials=7).n_trials == counted.calls == 7

    def test_model_check_counts_its_trials(self):
        model = PatchedLinearModel(ToyModelSpec(n_features=4))
        assert check_model_gradients(model, n_trials=4).n_trials == model.param_gradient.calls == 4

"""Tests for the joint SGDW/AdamW update rules and schedules."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lossmix.losses import HPExponents, _softmax
from lossmix.optim import (
    HPState,
    OptimizerConfig,
    ParamState,
    _adam,
    _advance,
    _momentum,
    adamw_step,
    init_hp_state,
    init_param_state,
    schedule_multiplier,
    sgdw_step,
)


def cfg(**kw):
    base = dict(alpha=0.1, beta1=0.9, weight_decay=0.0, hp_decay=0.0, total_steps=100)
    base.update(kw)
    return OptimizerConfig(**base)


def fresh_states(w0, n_aux=1, epsilon=1.0):
    return init_param_state(w0), init_hp_state(n_aux, epsilon)


class TestInitialization:
    def test_uniform_log_epsilon(self):
        state = init_hp_state(2, 0.1)
        assert state.mu.mu[0] == 0.0
        np.testing.assert_allclose(state.mu.mu[1:], math.log(0.1), atol=1e-12)
        assert abs(state.mu.mu[1] + 2.302585092994046) < 1e-12
        assert np.all(state.n == 0.0) and np.all(state.v == 0.0)

    def test_epsilon_one_gives_zeros(self):
        state = init_hp_state(1, 1.0)
        np.testing.assert_array_equal(state.mu.mu, [0.0, 0.0])

    def test_log_epsilon_exp_minus_four(self):
        state = init_hp_state(1, math.exp(-4.0))
        assert abs(state.mu.mu[1] + 4.0) < 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            init_hp_state(0, 0.1)
        with pytest.raises(ValueError):
            init_hp_state(1, 0.0)
        with pytest.raises(ValueError):
            init_param_state([1.0, np.nan])


class TestScheduleMultiplier:
    def test_constant(self):
        c = cfg(schedule="constant", total_steps=10)
        assert all(schedule_multiplier(t, c) == 1.0 for t in range(1, 11))

    def test_cosine_endpoints(self):
        c = cfg(schedule="cosine", total_steps=100)
        assert abs(schedule_multiplier(100, c)) < 1e-15
        assert abs(schedule_multiplier(50, c) - 0.5) < 1e-12

    def test_step_milestones(self):
        c = cfg(schedule="step", milestones=(10,), step_factor=0.1, total_steps=50)
        assert schedule_multiplier(10, c) == 1.0
        assert schedule_multiplier(11, c) == pytest.approx(0.1)
        c2 = cfg(schedule="step", milestones=(10, 20), step_factor=0.5, total_steps=50)
        assert schedule_multiplier(25, c2) == pytest.approx(0.25)

    def test_out_of_range(self):
        c = cfg(total_steps=10)
        with pytest.raises(ValueError):
            schedule_multiplier(0, c)
        with pytest.raises(ValueError):
            schedule_multiplier(11, c)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.1, hp_decay=-0.1)
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.1, schedule="warmup")
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.1, init_epsilon=0.0)


class TestSgdwStep:
    def test_plain_gradient_step(self):
        # beta1=0, decay off: w' = w - eta*alpha*g exactly
        params, hps = fresh_states([1.0])
        p2, _ = sgdw_step(params, hps, [2.0], [0.0, 0.0], 1, cfg(beta1=0.0))
        assert p2.w[0] == 0.8
        assert p2.m[0] == 0.2

    def test_zero_gradients_fixed_point(self):
        params, hps = fresh_states([1.5, -0.5])
        p2, h2 = sgdw_step(params, hps, [0.0, 0.0], [0.0, 0.0], 1, cfg())
        np.testing.assert_array_equal(p2.w, params.w)
        np.testing.assert_array_equal(p2.m, [0.0, 0.0])
        np.testing.assert_array_equal(h2.mu.mu, hps.mu.mu)
        np.testing.assert_array_equal(h2.n, [0.0, 0.0])

    def test_momentum_accumulation_hand_value(self):
        # prior m=1, g=1, beta1=0.9, alpha=0.1: m' = 0.9 + 0.1 = 1.0 exactly
        params = ParamState(w=np.array([3.0]), m=np.array([1.0]), v=np.zeros(1))
        _, hps = fresh_states([0.0])
        p2, _ = sgdw_step(params, hps, [1.0], [0.0, 0.0], 1, cfg())
        assert p2.m[0] == 1.0
        assert p2.w[0] == 3.0 - 1.0

    def test_decoupled_weight_decay(self):
        params, hps = fresh_states([2.0])
        p2, _ = sgdw_step(params, hps, [0.0], [0.0, 0.0], 1, cfg(weight_decay=0.5))
        # w' = w - 0 - eta*alpha*wd*w = 2 - 0.1*0.5*2
        assert p2.w[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-15)

    def test_regularizer_decoupled_from_momentum(self):
        # h = 0 but exponents non-uniform: n must stay zero while mu moves
        params = init_param_state([0.0])
        hps = HPState(mu=HPExponents([0.0, 1.0]), n=np.zeros(2), v=np.zeros(2))
        _, h2 = sgdw_step(params, hps, [0.0], [0.0, 0.0], 1, cfg(hp_decay=1.0))
        np.testing.assert_array_equal(h2.n, [0.0, 0.0])
        assert h2.mu.mu[1] != 1.0
        assert h2.mu.mu[0] == 0.0

    def test_frozen_exponent_over_many_steps(self):
        rng = np.random.default_rng(0)
        params, hps = fresh_states(rng.normal(size=4), n_aux=2, epsilon=0.1)
        c = cfg(hp_decay=0.5, total_steps=200)
        for t in range(1, 201):
            g = rng.normal(size=4)
            h = np.concatenate(([0.0], rng.normal(size=2)))
            params, hps = sgdw_step(params, hps, g, h, t, c)
            assert hps.mu.mu[0] == 0.0
            assert hps.n[0] == 0.0

    def test_gradient_clipping(self):
        params, hps = fresh_states([0.0])
        clipped, _ = sgdw_step(params, hps, [10.0], [0.0, 0.0], 1, cfg(beta1=0.0, grad_clip=1.0))
        assert clipped.w[0] == pytest.approx(-0.1, abs=1e-15)

    def test_nonzero_basic_gradient_rejected(self):
        params, hps = fresh_states([1.0])
        with pytest.raises(ValueError):
            sgdw_step(params, hps, [0.0], [1.0, 0.0], 1, cfg())


class TestAdamwStep:
    def test_first_step_unit_magnitude(self):
        # m_hat = 1, v_hat = 1 on the first step, so |dw| ~= alpha
        params, hps = fresh_states([0.0])
        p2, _ = adamw_step(params, hps, [1.0], [0.0, 0.0], 1, cfg())
        assert abs(abs(p2.w[0]) - 0.1) < 1e-6

    def test_decay_only(self):
        params, hps = fresh_states([1.0])
        p2, _ = adamw_step(params, hps, [0.0], [0.0, 0.0], 1, cfg(weight_decay=0.1))
        assert p2.w[0] == 0.99

    def test_zero_gradient_zero_moments_no_motion(self):
        params, hps = fresh_states([1.0, -2.0])
        p2, h2 = adamw_step(params, hps, [0.0, 0.0], [0.0, 0.0], 1, cfg())
        np.testing.assert_array_equal(p2.w, params.w)
        np.testing.assert_array_equal(h2.mu.mu, hps.mu.mu)

    def test_frozen_exponent_over_many_steps(self):
        rng = np.random.default_rng(1)
        params, hps = fresh_states(rng.normal(size=3), n_aux=2, epsilon=0.1)
        c = cfg(hp_decay=0.5, total_steps=200)
        for t in range(1, 201):
            g = rng.normal(size=3)
            h = np.concatenate(([0.0], rng.normal(size=2)))
            params, hps = adamw_step(params, hps, g, h, t, c)
            assert hps.mu.mu[0] == 0.0
            assert hps.n[0] == 0.0 and hps.v[0] == 0.0

    def test_regularizer_decoupled_from_moments(self):
        params = init_param_state([0.0])
        hps = HPState(mu=HPExponents([0.0, 1.0]), n=np.zeros(2), v=np.zeros(2))
        _, h2 = adamw_step(params, hps, [0.0], [0.0, 0.0], 1, cfg(hp_decay=1.0))
        np.testing.assert_array_equal(h2.n, [0.0, 0.0])
        assert h2.mu.mu[1] != 1.0


class TestFrozenExponents:
    """``h`` None steps the parameters as ``h`` = 0 without the regularizer would, and leaves the exponents alone."""

    @pytest.mark.parametrize("step", [sgdw_step, adamw_step], ids=["sgdw", "adamw"])
    @pytest.mark.parametrize("runs", [(), (3,)], ids=["single", "stacked"])
    def test_parameters_step_and_exponents_stay(self, step, runs):
        rng = np.random.default_rng(5)
        params = ParamState(w=rng.normal(size=runs + (4,)), m=rng.normal(size=runs + (4,)), v=rng.random(runs + (4,)))
        mu = np.concatenate([np.zeros(runs + (1,)), rng.normal(size=runs + (2,))], axis=-1)
        hps = HPState(mu=HPExponents(mu), n=rng.normal(size=runs + (3,)), v=rng.random(runs + (3,)))
        kept = (hps.mu.mu.copy(), hps.n.copy(), hps.v.copy())
        g = rng.normal(size=runs + (4,))
        c = cfg(hp_decay=0.5, weight_decay=0.01, grad_clip=1.0, schedule="cosine")

        frozen, same = step(params, hps, g, None, 7, c)
        moved, _ = step(params, hps, g, np.zeros(runs + (3,)), 7, replace(c, hp_decay=0.0))
        assert same is hps
        for got, want in zip((same.mu.mu, same.n, same.v), kept):
            assert np.array_equal(got, want)
        for name in ("w", "m", "v"):
            assert np.array_equal(getattr(frozen, name), getattr(moved, name)), name

    @pytest.mark.parametrize("step", [sgdw_step, adamw_step], ids=["sgdw", "adamw"])
    def test_parameter_gradient_still_checked(self, step):
        params, hps = fresh_states([1.0, 2.0])
        with pytest.raises(ValueError):
            step(params, hps, [1.0], None, 1, cfg())


class TestKernel:
    """The public steps are the engine's array kernel ``_advance`` behind their input checks, bit for bit."""

    @pytest.mark.parametrize("step, moments", [(sgdw_step, _momentum), (adamw_step, _adam)], ids=["sgdw", "adamw"])
    @pytest.mark.parametrize("runs", [(1,), (3,)], ids=["R1", "R3"])
    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "frozen"])
    @pytest.mark.parametrize(
        "c",
        [cfg(), cfg(hp_decay=0.5, weight_decay=0.01, grad_clip=1.0, schedule="cosine")],
        ids=["plain", "decay-clip-cosine"],
    )
    def test_public_step_is_the_kernel(self, step, moments, runs, learned, c):
        rng = np.random.default_rng(11)

        def pinned(x):  # the basic entry 0 in front of x
            return np.concatenate([np.zeros(runs + (1,)), x], axis=-1)

        state = (
            rng.normal(size=runs + (4,)),
            rng.normal(size=runs + (4,)),
            rng.random(runs + (4,)),
            pinned(rng.normal(size=runs + (2,))),
            pinned(rng.normal(size=runs + (2,))),
            pinned(rng.random(runs + (2,))),
        )
        params = ParamState(w=state[0], m=state[1], v=state[2])
        hps = HPState(mu=HPExponents(state[3]), n=state[4], v=state[5])
        for t in range(1, 6):
            g = rng.normal(size=runs + (4,))
            h = pinned(rng.normal(size=runs + (2,))) if learned else None
            params, hps = step(params, hps, g, h, t, c)
            state = _advance(moments, state, g, h, _softmax(state[3]), t, c)
            public = (params.w, params.m, params.v, hps.mu.mu, hps.n, hps.v)
            for got, want in zip(public, state):
                assert got.shape == want.shape and np.array_equal(got, want)


class TestDeterminism:
    def test_bitwise_identical_replays(self):
        def run():
            rng = np.random.default_rng(42)
            params, hps = fresh_states(rng.normal(size=5), n_aux=2, epsilon=0.1)
            c = cfg(hp_decay=0.3, weight_decay=0.01, total_steps=50)
            for t in range(1, 51):
                g = rng.normal(size=5)
                h = np.concatenate(([0.0], rng.normal(size=2)))
                params, hps = sgdw_step(params, hps, g, h, t, c)
            return params.w.copy(), hps.mu.mu.copy()

        w1, mu1 = run()
        w2, mu2 = run()
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(mu1, mu2)

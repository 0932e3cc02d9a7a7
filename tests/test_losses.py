"""Unit and property tests for the composite loss layer."""

import numpy as np
import pytest

from lossmix.gradcheck import central_fd
from lossmix.losses import (
    HPExponents,
    _sigmoid,
    LossVector,
    LossWeights,
    composite_loss,
    hp_gradient_empirical,
    naive_exp_gradient,
    regularizer_gradient,
    regularizer_value,
    softmax_weights,
)


class TestHPExponents:
    def test_basic_entry_must_be_zero(self):
        with pytest.raises(ValueError):
            HPExponents([0.5, 1.0])

    def test_rejects_single_term(self):
        with pytest.raises(ValueError):
            HPExponents([0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HPExponents([0.0, np.nan])
        with pytest.raises(ValueError):
            HPExponents([0.0, np.inf])

    def test_from_auxiliary(self):
        mu = HPExponents.from_auxiliary([1.0, -2.0])
        assert mu.mu.tolist() == [0.0, 1.0, -2.0]
        assert mu.mu.shape[-1] == 3

    def test_immutable(self):
        mu = HPExponents([0.0, 1.0])
        with pytest.raises(ValueError):
            mu.mu[1] = 5.0


class TestLossWeights:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            LossWeights([1.0, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            LossWeights([0.6, 0.6])

    def test_accepts_simplex(self):
        w = LossWeights([0.25, 0.75])
        np.testing.assert_array_equal(w.lam, [0.25, 0.75])


class TestLossVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LossVector([1.0, np.nan])


class TestSoftmaxWeights:
    def test_two_equal_exponents(self):
        lam = softmax_weights(HPExponents([0.0, 0.0])).lam
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-15)

    def test_three_equal_exponents(self):
        lam = softmax_weights(HPExponents([0.0, 0.0, 0.0])).lam
        np.testing.assert_allclose(lam, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_reference_normalization_points(self):
        # raw weight (1, 0.25, 0.1) normalizes to 4-decimal (0.7407, 0.1852, 0.0741)
        lam = softmax_weights(HPExponents([0.0, np.log(0.25), np.log(0.1)])).lam
        np.testing.assert_allclose(lam, [0.7407, 0.1852, 0.0741], atol=5e-5)
        lam = softmax_weights(HPExponents([0.0, np.log(0.01), np.log(0.01)])).lam
        np.testing.assert_allclose(lam, [0.9804, 0.0098, 0.0098], atol=5e-5)

    def test_normalized_and_positive_for_wild_exponents(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            mu = HPExponents.from_auxiliary(rng.normal(0.0, 100.0, size=k))
            lam = softmax_weights(mu).lam
            assert abs(lam.sum() - 1.0) <= 1e-12
            assert np.all(lam > 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            aux = rng.normal(0.0, 3.0, size=3)
            base = softmax_weights(HPExponents.from_auxiliary(aux)).lam
            # shifting all exponents together cannot change the weights, so
            # compare against the softmax of the shifted full vector directly
            shift = float(rng.normal(0.0, 5.0))
            z = np.concatenate(([0.0], aux)) + shift
            e = np.exp(z - z.max())
            np.testing.assert_allclose(base, e / e.sum(), atol=1e-12)


class TestCompositeLoss:
    def test_mean_of_two(self):
        assert composite_loss(LossWeights([0.5, 0.5]), LossVector([1.0, 3.0])) == 2.0

    def test_equal_losses_collapse(self):
        val = composite_loss(LossWeights([0.9804, 0.0098, 0.0098]), LossVector([1.0, 1.0, 1.0]))
        assert abs(val - 1.0) < 1e-12

    def test_hand_dot_product(self):
        val = composite_loss(LossWeights([0.7407, 0.1852, 0.0741]), LossVector([2.0, 1.0, 4.0]))
        assert abs(val - 1.9630) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            composite_loss(LossWeights([0.5, 0.5]), LossVector([1.0, 2.0, 3.0]))

    def test_one_value_per_row_of_a_stack(self):
        lam = np.array([[0.5, 0.5], [0.25, 0.75]])
        l = np.array([[1.0, 3.0], [4.0, 2.0]])
        val = composite_loss(LossWeights(lam), LossVector(l))
        rows = [composite_loss(LossWeights(a), LossVector(b)) for a, b in zip(lam, l)]
        assert val.shape == (2,) and all(isinstance(row, float) for row in rows)
        assert val.tolist() == rows == [2.0, 2.5]

    def test_stack_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            composite_loss(LossWeights([[0.5, 0.5], [0.5, 0.5]]), LossVector([1.0, 3.0, 1.0, 3.0]))


class TestHpGradientEmpirical:
    def test_hand_value(self):
        g = hp_gradient_empirical(HPExponents([0.0, 0.0]), LossVector([1.0, 3.0]))
        np.testing.assert_allclose(g, [0.0, 0.5], atol=1e-15)

    def test_equal_losses_give_zero(self):
        for c in (0.3, 1.0, 7.5):
            g = hp_gradient_empirical(HPExponents([0.0, 0.0, 0.0]), LossVector([c, c, c]))
            np.testing.assert_array_equal(g, np.zeros(3))

    def test_sign_freedom(self):
        mu = HPExponents([0.0, 0.0])
        down = hp_gradient_empirical(mu, LossVector([1.0, 3.0]))
        up = hp_gradient_empirical(mu, LossVector([3.0, 1.0]))
        assert down[1] > 0.0
        assert up[1] < 0.0

    def test_basic_entry_frozen(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            mu = HPExponents.from_auxiliary(rng.normal(0.0, 2.0, size=k))
            losses = LossVector(np.abs(rng.normal(size=k + 1)) + 0.1)
            assert hp_gradient_empirical(mu, losses)[0] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            aux = rng.normal(0.0, 2.0, size=k)
            losses = LossVector(np.abs(rng.normal(size=k + 1)) + 0.1)
            analytic = hp_gradient_empirical(HPExponents.from_auxiliary(aux), losses)[1:]

            def weighted(free):
                return composite_loss(softmax_weights(HPExponents.from_auxiliary(free)), losses)

            fd = central_fd(weighted, aux, 1e-6)
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(analytic - fd)) / scale < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hp_gradient_empirical(HPExponents([0.0, 0.0]), LossVector([1.0, 2.0, 3.0]))


class TestNaiveExpGradient:
    def test_hand_values(self):
        g = naive_exp_gradient(HPExponents([0.0, 0.0]), LossVector([1.0, 3.0]))
        np.testing.assert_array_equal(g, [1.0, 3.0])
        g = naive_exp_gradient(HPExponents([0.0, np.log(2.0)]), LossVector([1.0, 1.0]))
        np.testing.assert_allclose(g, [1.0, 2.0], atol=1e-15)

    def test_always_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            mu = HPExponents.from_auxiliary(rng.normal(0.0, 2.0, size=k))
            losses = LossVector(np.abs(rng.normal(size=k + 1)) + 0.1)
            assert np.all(naive_exp_gradient(mu, losses) > 0.0)

    def test_rejects_non_positive_losses(self):
        with pytest.raises(ValueError):
            naive_exp_gradient(HPExponents([0.0, 0.0]), LossVector([1.0, 0.0]))


class TestRegularizerValue:
    def test_uniform_pair_is_exactly_zero(self):
        # negated entropy -ln 2 cancels the single softplus ln 2
        assert regularizer_value(HPExponents([0.0, 0.0])) == 0.0

    def test_uniform_triple_hand_value(self):
        # -ln 3 + 2 ln 2, evaluated by hand from the closed form
        val = regularizer_value(HPExponents([0.0, 0.0, 0.0]))
        assert abs(val - 0.2876820724517808) < 1e-12


class TestRegularizerGradient:
    def test_uniform_pair_hand_value(self):
        g = regularizer_gradient(HPExponents([0.0, 0.0]))
        np.testing.assert_array_equal(g, [0.0, 0.5])

    def test_uniform_exponents_leave_only_sigmoid(self):
        # all pairwise exponent differences vanish, so the entropy part is 0
        g = regularizer_gradient(HPExponents([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(g, [0.0, 0.5, 0.5, 0.5])

    def test_basic_entry_frozen(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            mu = HPExponents.from_auxiliary(rng.normal(0.0, 2.0, size=int(rng.integers(1, 6))))
            assert regularizer_gradient(mu)[0] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            aux = rng.normal(0.0, 2.0, size=k)
            analytic = regularizer_gradient(HPExponents.from_auxiliary(aux))[1:]

            def value(free):
                return regularizer_value(HPExponents.from_auxiliary(free))

            fd = central_fd(value, aux, 1e-6)
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(analytic - fd)) / scale < 1e-6


class TestSigmoid:
    def test_matches_long_double_reference(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 200_001), [-745.0, -708.4, -1e-300, 0.0, 1e-300, 36.7]])
        got = _sigmoid(x)
        xl = x.astype(np.longdouble)
        exact = 1 / (1 + np.exp(-xl))
        normal = exact >= np.finfo(np.float64).tiny
        assert normal.sum() > 100_000
        rel = np.abs((got[normal] - exact[normal]) / exact[normal])
        assert float(rel.max()) <= 1e-14

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise", under="ignore"):
            np.testing.assert_array_equal(_sigmoid(np.array([-1e4, 0.0, 1e4])), [0.0, 0.5, 1.0])

"""Property tests of the loss-weight layer, over generated exponents and losses."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lossmix.gradcheck import central_fd
from lossmix.losses import HPExponents, LossVector, _trusted, hp_gradient_empirical, regularizer_value, softmax_weights
from lossmix.optim import HPState, OptimizerConfig, adamw_step, init_param_state, sgdw_step

SMALL = settings(max_examples=40, deadline=None)
N_TERMS = st.integers(2, 5)


def vector(n, lo, hi):
    """A float vector of ``n`` entries in [lo, hi]."""
    return arrays(np.float64, n, elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False))


def exponents(lo, hi):
    """Pinned exponents: the basic entry 0, the auxiliary entries in [lo, hi]."""
    return N_TERMS.flatmap(lambda n: vector(n - 1, lo, hi)).map(lambda aux: HPExponents.from_auxiliary(aux))


def weights_of(m):
    """Softmax weights of any exponent vector; the basic entry need not be 0."""
    return softmax_weights(_trusted(HPExponents, mu=m)).lam


@SMALL
@given(exponents(-700.0, 700.0), st.floats(-700.0, 700.0))
def test_softmax_weights_positive_normalized_and_shift_invariant(mu, shift):
    lam = softmax_weights(mu).lam
    assert np.all(lam > 0.0)
    assert abs(lam.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(weights_of(mu.mu + shift), lam, rtol=1e-9, atol=1e-12)


@SMALL
@given(N_TERMS.flatmap(lambda n: st.tuples(vector(n - 1, -5.0, 5.0), vector(n, 0.0, 10.0))))
def test_basic_entry_of_exponent_gradient_would_be_minus_the_rest(case):
    aux, losses = case
    mu = HPExponents.from_auxiliary(aux)
    h = hp_gradient_empirical(mu, LossVector(losses))
    assert h[0] == 0.0  # pinned: the basic exponent never moves
    # the unpinned gradient sums to 0 (the weights are shift invariant),
    # so its basic entry is minus the sum of the others
    fd = central_fd(lambda m: float(weights_of(m) @ losses), mu.mu)
    assert math.isclose(fd[0], -h[1:].sum(), rel_tol=1e-6, abs_tol=1e-7)


@SMALL
@given(exponents(-50.0, 50.0), st.floats(1e-6, 1e3), st.floats(1e-6, 1e3))
def test_regularizer_value_is_linear_in_rho(mu, rho_a, rho_b):
    unit = regularizer_value(mu, 1.0)
    scale = 1e-12 * (abs(unit) + 1.0)
    for rho in (rho_a, rho_b):
        assert math.isclose(regularizer_value(mu, rho), rho * unit, rel_tol=1e-12, abs_tol=rho * scale)
    total = regularizer_value(mu, rho_a + rho_b)
    parts = regularizer_value(mu, rho_a) + regularizer_value(mu, rho_b)
    assert math.isclose(total, parts, rel_tol=1e-12, abs_tol=(rho_a + rho_b) * scale)


STEPS = 3


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([sgdw_step, adamw_step]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 1.0]),
    st.data(),
)
def test_basic_exponent_never_moves(step_fn, runs, n_aux, hp_decay, grad_clip, data):
    finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    aux = data.draw(arrays(np.float64, (runs, n_aux), elements=finite))
    g = data.draw(arrays(np.float64, (STEPS, runs, 2), elements=finite))
    h = data.draw(arrays(np.float64, (STEPS, runs, n_aux + 1), elements=finite))
    h[..., 0] = 0.0
    config = OptimizerConfig(alpha=0.1, hp_decay=hp_decay, grad_clip=grad_clip, total_steps=STEPS)
    mu = np.concatenate([np.zeros((runs, 1)), aux], axis=1)
    params = init_param_state(np.ones((runs, 2)))
    hps = HPState(mu=HPExponents(mu), n=np.zeros_like(mu), v=np.zeros_like(mu))
    for t in range(1, STEPS + 1):
        params, hps = step_fn(params, hps, g[t - 1], h[t - 1], t, config)
        for basic in (hps.mu.mu[:, 0], hps.n[:, 0], hps.v[:, 0]):
            assert np.all(basic == 0.0)

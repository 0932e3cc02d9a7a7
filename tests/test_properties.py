"""Property tests of the loss-weight layer, over generated exponents and losses."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lossmix.gradcheck import central_fd
from lossmix.losses import HPExponents, LossVector, _softmax, hp_gradient_empirical, regularizer_gradient
from lossmix.losses import regularizer_value, softmax_weights
from lossmix.models import LINEAR_KIND, MLP_KIND, ToyModelSpec, build_model, make_synthetic_dataset
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
    return _softmax(m)


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


def pairwise_gradient(m, x):
    """The exponent gradient of ``<softmax(m), x>`` in its pairwise closed form, entry 0 pinned.

    Entry i is ``exp(m_i) sum_j (x_i - x_j) exp(m_j) / (sum_j exp(m_j))^2``,
    built on a ``(..., K+1, K+1)`` difference tensor: the reference that
    ``lam * (x - <lam, x>)`` must reproduce.
    """
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    diffs = x[..., :, None] - x[..., None, :]
    grad = e * (diffs @ e[..., None])[..., 0] / e.sum(axis=-1, keepdims=True) ** 2
    grad[..., 0] = 0.0
    return grad


@SMALL
@given(st.sampled_from([(), (1,), (3,)]), N_TERMS, st.data())
def test_exponent_gradients_match_pairwise_closed_forms(runs, n_terms, data):
    aux = data.draw(arrays(np.float64, runs + (n_terms - 1,), elements=st.floats(-50.0, 50.0)))
    losses = data.draw(arrays(np.float64, runs + (n_terms,), elements=st.floats(0.0, 10.0)))
    m = np.concatenate([np.zeros(runs + (1,)), aux], axis=-1)
    mu = HPExponents(m)
    lam = softmax_weights(mu).lam
    sigmoid = 1.0 / (1.0 + np.exp(-m))
    sigmoid[..., 0] = 0.0
    cases = [
        (hp_gradient_empirical(mu, LossVector(losses)), pairwise_gradient(m, losses), losses),
        (regularizer_gradient(mu), pairwise_gradient(m, m) + sigmoid, m),
    ]
    for got, ref, x in cases:
        # relative to each entry's size, or to lam_i sum_j lam_j |x_i - x_j| where the pairwise
        # addends cancel. Floors: where every x_j is equal the exact 0 comes back as a residue
        # near 1e-32 max|x|, and subnormal entries carry no relative precision.
        spread = (lam[..., None, :] * np.abs(x[..., :, None] - x[..., None, :])).sum(axis=-1)
        scale = np.abs(ref) + lam * spread + 1e-12 * np.abs(x).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale + np.finfo(np.float64).tiny)


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


def assert_rows_match(stacked, serial):
    """Row r of a stacked result equals the 1-D result on row r."""
    assert np.shape(stacked)[0] == len(serial)
    for row, one in zip(stacked, serial):
        np.testing.assert_allclose(row, one, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), N_TERMS, st.data())
def test_stacked_loss_layer_matches_serial(runs, n_terms, data):
    aux = data.draw(arrays(np.float64, (runs, n_terms - 1), elements=st.floats(-50.0, 50.0)))
    values = data.draw(arrays(np.float64, (runs, n_terms), elements=st.floats(0.0, 10.0)))
    mu = np.concatenate([np.zeros((runs, 1)), aux], axis=1)
    stack, rows = HPExponents(mu), [HPExponents(m) for m in mu]
    assert_rows_match(softmax_weights(stack).lam, [softmax_weights(m).lam for m in rows])
    assert_rows_match(
        hp_gradient_empirical(stack, LossVector(values)),
        [hp_gradient_empirical(m, LossVector(l)) for m, l in zip(rows, values)],
    )
    assert_rows_match(regularizer_value(stack), [regularizer_value(m) for m in rows])
    assert_rows_match(regularizer_gradient(stack), [regularizer_gradient(m) for m in rows])


def model_case(kind, runs, seed, duplicate_term=0):
    """A small model, a 12-row pool, a 7-row validation split, and parameters, weights and batch rows per run."""
    spec = ToyModelSpec(kind=kind, n_features=4, hidden_units=5, duplicate_term=duplicate_term)
    model = build_model(spec)
    pool, val = make_synthetic_dataset(spec, seed, 12, 7)
    rng = np.random.default_rng(seed)
    w = np.stack([model.init_params(rng) + 0.2 * rng.normal(size=model.n_params) for _ in range(runs)])
    lam = rng.dirichlet(np.ones(len(model.loss_names)), size=runs)
    idx = np.stack([rng.permutation(len(pool))[:5] for _ in range(runs)])
    return model, pool, val, w, lam, idx


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([LINEAR_KIND, MLP_KIND]), st.integers(1, 3), st.integers(0, 2**16))
def test_stacked_models_match_serial(kind, runs, seed):
    model, pool, _, w, lam, idx = model_case(kind, runs, seed)
    batch, batches = pool.take(idx), [pool.take(i) for i in idx]
    assert_rows_match(model.losses(w, batch), [model.losses(*a) for a in zip(w, batches)])
    serial = [model.param_gradient(*a) for a in zip(w, batches, lam)]
    assert_rows_match(model.param_gradient(w, batch, lam), serial)


def assert_bitwise(got, want):
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([LINEAR_KIND, MLP_KIND]), st.integers(0, 2), st.sampled_from([0, 1, 3]), st.integers(0, 2**16))
def test_fused_evaluation_is_bitwise_its_halves(kind, duplicate_term, runs, seed):
    """``losses_and_gradient`` is ``(losses, param_gradient)`` and ``basic_loss`` is column 0, bit for bit.

    The fused evaluation reads the batch as the sampler gathers it, from the
    model's design of the pool. ``runs`` 0 is one run without the run axis.
    """
    model, pool, val, w, lam, idx = model_case(kind, max(runs, 1), seed, duplicate_term)
    if runs == 0:
        w, lam, idx = w[0], lam[0], idx[0]
    batch = pool.take(idx)
    losses, grad = model.losses_and_gradient(w, model.design(pool).take(idx), lam)
    assert_bitwise(losses, model.losses(w, batch))
    assert_bitwise(grad, model.param_gradient(w, batch, lam))
    for data in (batch, val):
        assert_bitwise(model.basic_loss(w, data), model.losses(w, data)[..., 0])

"""Tests for the synthetic models, their data, and hand-coded gradients."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from lossmix.gradcheck import central_fd
from lossmix.models import (
    DRAW_BLOCK,
    LINEAR_KIND,
    MLP_KIND,
    BatchSampler,
    Design,
    DuplicatedTermModel,
    LinearMultiLossModel,
    ToyModelSpec,
    build_model,
    make_synthetic_dataset,
)

LIN = ToyModelSpec(kind=LINEAR_KIND, n_features=6, noise_std=0.3, jitter_std=0.4, harm_scale=2.0)
MLP = ToyModelSpec(kind=MLP_KIND, n_features=5, hidden_units=8, jitter_std=0.3, harm_scale=2.0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ToyModelSpec(kind="polynomial")

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            ToyModelSpec(n_features=0)
        with pytest.raises(ValueError):
            ToyModelSpec(duplicate_term=3)


def channels(data):
    """The raw channels ``(x, x_jittered, y, r)`` of a split or batch, read back out of its slots."""
    x = data.inputs[..., 0, :, :]
    if data.inputs.shape[-3] == 3:  # linear: x, x - x_jittered, x against y, 0, r
        return x, x - data.inputs[..., 1, :, :], data.targets[..., 0, :], data.targets[..., 2, :]
    return x, data.inputs[..., 1, :, :], data.targets[..., 0, :], data.targets[..., 1, :]


class TestDatasetGeneration:
    def test_deterministic(self):
        a_train, a_val = make_synthetic_dataset(LIN, 5, 20, 10)
        b_train, b_val = make_synthetic_dataset(LIN, 5, 20, 10)
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)
        np.testing.assert_array_equal(a_val.targets, b_val.targets)
        np.testing.assert_array_equal(a_train.targets, b_train.targets)

    def test_seeds_differ(self):
        a, _ = make_synthetic_dataset(LIN, 1, 20, 10)
        b, _ = make_synthetic_dataset(LIN, 2, 20, 10)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_rejects_empty_split(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(LIN, 0, 0, 10)
        with pytest.raises(ValueError):
            make_synthetic_dataset(LIN, 0, 10, 0)

    def test_mlp_labels_are_binary(self):
        train, _ = make_synthetic_dataset(MLP, 3, 40, 5)
        assert set(np.unique(channels(train)[2])) <= {0.0, 1.0}

    def test_linear_split_is_its_three_loss_slots(self):
        """Slots x, x - x_jittered, x against y, 0, r, of the draws a same-seed generator makes in order."""
        train, val = make_synthetic_dataset(LIN, 3, 12, 7)
        rng = np.random.default_rng(3)
        d = LIN.n_features
        w_true = rng.normal(0.0, 1.0, size=d) / np.sqrt(d)
        for split, n in ((train, 12), (val, 7)):
            x = rng.normal(size=(n, d))
            y = x @ w_true + LIN.noise_std * rng.normal(size=n)
            xj = x + LIN.jitter_std * rng.normal(size=(n, d))
            r = LIN.harm_scale * rng.normal(size=n)
            assert type(split) is Design and len(split) == n
            assert_bitwise(split.inputs, np.stack([x, x - xj, x]))
            assert_bitwise(split.targets, np.stack([y, np.zeros(n), r]))

    def test_mlp_split_is_its_two_passes(self):
        """Slots x, x_jittered against the labels and r, of the draws a same-seed generator makes in order."""
        train, val = make_synthetic_dataset(MLP, 3, 12, 7)
        rng = np.random.default_rng(3)
        d = MLP.n_features
        direction = rng.normal(size=d)
        direction = direction / np.linalg.norm(direction)
        for split, n in ((train, 12), (val, 7)):
            labels = rng.integers(0, 2, size=n)
            x = rng.normal(size=(n, d)) + (2.0 * labels - 1.0)[:, None] * direction
            xj = x + MLP.jitter_std * rng.normal(size=(n, d))
            r = MLP.harm_scale * rng.normal(size=n)
            assert type(split) is Design and len(split) == n
            assert_bitwise(split.inputs, np.stack([x, xj]))
            assert_bitwise(split.targets, np.stack([labels.astype(np.float64), r]))


def naive_linear_losses(w, batch):
    """Loop-based re-implementation used as an independent oracle."""
    x, xj, y, r = channels(batch)
    n = len(batch)
    l0 = l1 = l2 = 0.0
    for i in range(n):
        p = float(x[i] @ w)
        pj = float(xj[i] @ w)
        l0 += (p - y[i]) ** 2
        l1 += (p - pj) ** 2
        l2 += (p - r[i]) ** 2
    return np.array([l0 / n, l1 / n, l2 / n])


def naive_mlp_losses(model, w, batch):
    """Per-sample loop oracle for the MLP loss terms."""
    w1, b1, w2, b2, u, c = model._unpack(w)
    x, xj, labels, r = channels(batch)
    n = len(batch)
    l0 = l1 = l2 = 0.0
    for i in range(n):
        a1 = np.tanh(x[i] @ w1 + b1)
        a1j = np.tanh(xj[i] @ w1 + b1)
        logits = a1 @ w2 + b2
        m = max(logits)
        logz = m + math.log(math.exp(logits[0] - m) + math.exp(logits[1] - m))
        l0 += logz - logits[int(labels[i])]
        l1 += float(np.mean((a1 - a1j) ** 2))
        l2 += (float(a1 @ u) + c - r[i]) ** 2
    return np.array([l0 / n, l1 / n, l2 / n])


class TestEvalLosses:
    def test_perfect_fit_on_noise_free_data(self):
        spec = ToyModelSpec(kind=LINEAR_KIND, n_features=4, noise_std=0.0, jitter_std=0.4)
        train, _ = make_synthetic_dataset(spec, 0, 10, 5)
        # recover the exact generating weights from the noise-free system
        x, _, y, _ = channels(train)
        w_true, *_ = np.linalg.lstsq(x, y, rcond=None)
        model = build_model(spec)
        losses = model.losses(w_true, train)
        assert losses[0] < 1e-20

    def test_zero_jitter_kills_consistency(self):
        spec = ToyModelSpec(kind=LINEAR_KIND, n_features=4, jitter_std=0.0)
        train, _ = make_synthetic_dataset(spec, 0, 10, 5)
        model = build_model(spec)
        losses = model.losses(np.ones(4), train)
        assert losses[1] == 0.0

    def test_linear_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        train, _ = make_synthetic_dataset(LIN, 11, 16, 5)
        model = build_model(LIN)
        for _ in range(5):
            w = rng.normal(size=model.n_params)
            np.testing.assert_allclose(
                model.losses(w, train), naive_linear_losses(w, train), rtol=0, atol=1e-12
            )

    def test_mlp_matches_naive_oracle(self):
        rng = np.random.default_rng(12)
        train, _ = make_synthetic_dataset(MLP, 12, 16, 5)
        model = build_model(MLP)
        for _ in range(5):
            w = model.init_params(rng)
            np.testing.assert_allclose(
                model.losses(w, train), naive_mlp_losses(model, w, train), rtol=0, atol=1e-12
            )

    def test_loss_names(self):
        model = build_model(LIN)
        train, _ = make_synthetic_dataset(LIN, 0, 8, 4)
        assert model.losses(np.zeros(model.n_params), train).shape == (3,)
        assert model.loss_names == ("mse", "consistency", "noise_fit")


class TestParamGradient:
    @pytest.mark.parametrize("spec", [LIN, MLP], ids=["linear", "mlp"])
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(13)
        train, _ = make_synthetic_dataset(spec, 13, 12, 4)
        model = build_model(spec)
        for _ in range(5):
            w = model.init_params(rng) + 0.2 * rng.normal(size=model.n_params)
            lam = rng.dirichlet(np.ones(3))
            lam = np.maximum(lam, 1e-9)
            lam = lam / lam.sum()
            analytic = model.param_gradient(w, train, lam)

            def weighted(wv):
                return float(lam @ model.losses(wv, train))

            fd = central_fd(weighted, w, 1e-6)
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(analytic - fd)) / scale < 1e-5

    def test_linear_in_weights(self):
        rng = np.random.default_rng(14)
        train, _ = make_synthetic_dataset(LIN, 14, 12, 4)
        model = build_model(LIN)
        w = rng.normal(size=model.n_params)
        wa = np.array([0.6, 0.3, 0.1])
        wb = np.array([0.2, 0.3, 0.5])
        g_mix = model.param_gradient(w, train, 0.25 * wa + 0.75 * wb)
        g_sup = 0.25 * model.param_gradient(w, train, wa) + 0.75 * model.param_gradient(w, train, wb)
        np.testing.assert_allclose(g_mix, g_sup, atol=1e-10)

    def test_stationary_at_least_squares_solution(self):
        train, _ = make_synthetic_dataset(LIN, 15, 30, 5)
        model = build_model(LIN)
        x, _, y, _ = channels(train)
        w_ols, *_ = np.linalg.lstsq(x, y, rcond=None)
        nearly_basic = np.array([1.0 - 2e-9, 1e-9, 1e-9])
        g = model.param_gradient(w_ols, train, nearly_basic)
        assert np.linalg.norm(g) < 1e-6


class TestDuplicatedTerm:
    def test_losses_appended(self):
        spec = ToyModelSpec(kind=LINEAR_KIND, n_features=4, duplicate_term=1)
        model = build_model(spec)
        assert isinstance(model, DuplicatedTermModel)
        assert model.loss_names == ("mse", "consistency", "noise_fit", "consistency_dup")
        train, _ = make_synthetic_dataset(spec, 0, 8, 4)
        losses = model.losses(np.ones(4), train)
        assert losses.size == 4
        assert losses[3] == losses[1]

    def test_gradient_folds_duplicate_weight(self):
        spec = ToyModelSpec(kind=LINEAR_KIND, n_features=4, duplicate_term=1)
        dup = build_model(spec)
        base = LinearMultiLossModel(spec)
        train, _ = make_synthetic_dataset(spec, 0, 8, 4)
        w = np.ones(4)
        g_dup = dup.param_gradient(w, train, np.array([0.4, 0.2, 0.1, 0.3]))
        g_base = base.param_gradient(w, train, np.array([0.4, 0.5, 0.1]))
        np.testing.assert_array_equal(g_dup, g_base)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            DuplicatedTermModel(LinearMultiLossModel(LIN), 0)


def model_case(spec, runs, seed=21):
    """A model with parameters, a batch, weights and a validation split for ``runs`` runs.

    ``runs`` None gives one run without the run axis: 1-D parameters and weights, a plain batch.
    """
    model = build_model(spec)
    pool, val = make_synthetic_dataset(spec, seed, 12, 9)
    rng = np.random.default_rng(seed)
    n = 1 if runs is None else runs
    w = np.stack([model.init_params(rng) + 0.2 * rng.normal(size=model.n_params) for _ in range(n)])
    lam = rng.dirichlet(np.ones(len(model.loss_names)), size=n)
    idx = np.stack([rng.permutation(len(pool))[:5] for _ in range(n)])
    if runs is None:
        return model, w[0], pool.take(idx[0]), lam[0], val
    return model, w, pool.take(idx), lam, val


def assert_bitwise(got, want):
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


FUSED_SPECS = pytest.mark.parametrize(
    "spec",
    [LIN, MLP, replace(LIN, duplicate_term=1), replace(MLP, duplicate_term=2)],
    ids=["linear", "mlp", "linear-dup", "mlp-dup"],
)
RUNS = pytest.mark.parametrize("runs", [None, 3], ids=["1d", "stacked"])


class TestFusedEvaluation:
    """One forward pass serves both halves, bit for bit, and validation reads only the basic term."""

    @FUSED_SPECS
    @RUNS
    def test_losses_and_gradient_equal_the_halves(self, spec, runs):
        model, w, batch, lam, _ = model_case(spec, runs)
        losses, grad = model.losses_and_gradient(w, batch, lam)
        assert_bitwise(losses, model.losses(w, batch))
        assert_bitwise(grad, model.param_gradient(w, batch, lam))
        assert losses.shape == np.shape(w)[:-1] + (len(model.loss_names),)

    @FUSED_SPECS
    @RUNS
    def test_basic_loss_is_the_first_term(self, spec, runs):
        model, w, batch, _, val = model_case(spec, runs)
        for data in (batch, val):  # its own batch, and the split every run shares
            assert_bitwise(model.basic_loss(w, data), model.losses(w, data)[..., 0])
        assert model.basic_loss(w, val).shape == np.shape(w)[:-1]


class TestBatchSampler:
    def test_epoch_covers_dataset(self):
        train, _ = make_synthetic_dataset(LIN, 3, 12, 4)
        sampler = BatchSampler(train, 4, np.random.default_rng(0))
        seen = np.concatenate([channels(sampler.next_batch())[2] for _ in range(3)])
        np.testing.assert_array_equal(np.sort(seen), np.sort(channels(train)[2]))

    def test_batch_size_capped_at_dataset(self):
        train, _ = make_synthetic_dataset(LIN, 3, 5, 4)
        sampler = BatchSampler(train, 100, np.random.default_rng(0))
        assert len(sampler.next_batch()) == 5

    def test_take_subsets_rows(self):
        train, _ = make_synthetic_dataset(LIN, 3, 10, 4)
        sub = train.take(np.array([1, 3]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.inputs, train.inputs[:, [1, 3]])

    @pytest.mark.parametrize("idx", [[7, 1, 3], [[1, 3], [0, 9], [4, 4]]], ids=["single", "stacked"])
    def test_take_equals_fancy_indexing(self, idx):
        """Batch axes go in front of the slot axis, on the three slots of the linear split and the MLP's two."""
        idx = np.array(idx)
        for spec in (LIN, MLP):
            train, _ = make_synthetic_dataset(spec, 3, 10, 4)
            fancy = Design(np.moveaxis(train.inputs[:, idx], 0, -3), np.moveaxis(train.targets[:, idx], 0, -2))
            assert_same_batch(train.take(idx), fancy)


def reference_batches(dataset, batch_size, rngs, stacked, steps):
    """Batches as gathered one at a time from each epoch's permutation."""
    order = np.empty((len(rngs), 0), dtype=np.intp)
    cursor = 0
    out = []
    for _ in range(steps):
        if cursor >= order.shape[1]:
            order = np.stack([rng.permutation(len(dataset)) for rng in rngs])
            cursor = 0
        idx = order[:, cursor : cursor + batch_size]
        cursor += batch_size
        out.append(dataset.take(idx if stacked else idx[0]))
    return out


def finish_draw_block(rngs, n, epochs):
    """Advance generators that drew ``epochs`` permutations of ``n`` to the end of the sampler's draw block."""
    per_block = max(1, DRAW_BLOCK // n)
    for rng in rngs:
        for _ in range(-epochs % per_block):
            rng.permutation(n)


def stacked_gens(seeds, stacked):
    """One generator per seed as a list, or the only one alone."""
    rngs = [np.random.default_rng(s) for s in seeds]
    return rngs if stacked else rngs[0]


# one run or a stack of them, gathering from the split's ``Design``
STACKS = pytest.mark.parametrize("stacked", [False, True], ids=["single-design", "stacked-design"])


class TestBatchSamplerDraws:
    """Batches and generator draws equal a per-batch gather of each epoch's permutation, bitwise."""

    @pytest.mark.parametrize("batch_size", [8, 5], ids=["divides", "ragged"])
    @STACKS
    def test_batches_match_reference(self, batch_size, stacked):
        train, _ = make_synthetic_dataset(LIN, 3, 32, 4)
        seeds = (4, 9, 11) if stacked else (4,)

        def gens():
            rngs = [np.random.default_rng(s) for s in seeds]
            return rngs if stacked else rngs[0]

        mine, theirs = gens(), gens()
        sampler = BatchSampler(train, batch_size, mine)
        expected = reference_batches(train, batch_size, theirs if stacked else [theirs], stacked, 30)
        for want in expected:
            assert_same_batch(sampler.next_batch(), want)
        # the sampler has drawn its whole first block of epochs; the reference only the epochs it used
        finish_draw_block(theirs if stacked else [theirs], 32, -(-30 // -(-32 // batch_size)))
        for a, b in zip(mine if stacked else [mine], theirs if stacked else [theirs]):
            assert a.bit_generator.state == b.bit_generator.state

    @STACKS
    def test_batches_match_reference_across_draw_blocks(self, stacked):
        train, _ = make_synthetic_dataset(LIN, 3, 32, 4)  # 32 epochs of 4 batches per draw block
        seeds = (4, 9, 11) if stacked else (4,)
        mine, theirs = stacked_gens(seeds, stacked), stacked_gens(seeds, stacked)
        sampler = BatchSampler(train, 8, mine)
        expected = reference_batches(train, 8, theirs if stacked else [theirs], stacked, 140)
        for want in expected:
            assert_same_batch(sampler.next_batch(), want)
        finish_draw_block(theirs if stacked else [theirs], 32, 35)
        for a, b in zip(mine if stacked else [mine], theirs if stacked else [theirs]):
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n_train", [DRAW_BLOCK, DRAW_BLOCK + 76])
    def test_long_epochs_draw_one_at_a_time(self, n_train):
        train, _ = make_synthetic_dataset(LIN, 3, n_train, 4)
        mine, theirs = stacked_gens((4, 9), True), stacked_gens((4, 9), True)
        sampler = BatchSampler(train, 300, mine)
        per_epoch = -(-n_train // 300)
        for _ in range(3):
            want = reference_batches(train, 300, theirs, True, per_epoch)
            for expected in want:
                assert_same_batch(sampler.next_batch(), expected)
            for a, b in zip(mine, theirs):
                assert a.bit_generator.state == b.bit_generator.state


def assert_same_batch(got, want):
    """Same type, and every field bitwise equal, arrays in shape too."""
    assert type(got) is type(want)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.shape(a) == np.shape(b) and np.array_equal(a, b), f.name

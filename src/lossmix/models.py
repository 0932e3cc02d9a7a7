"""Desk-scale multi-loss models with hand-derived parameter gradients.

Each model exposes one basic loss plus two auxiliary terms built so
that one is helpful and one is harmful by construction:

* ``consistency`` penalizes prediction (or hidden-feature) differences
  between clean and jittered copies of the inputs. It acts like a weak
  data-driven smoothness/ridge regularizer, so some weight on it helps
  generalization on the overfit-prone splits generated here.
* ``noise_fit`` regresses onto a fixed random target channel that is
  statistically independent of the real targets. Any weight on it
  injects pure noise into the parameter updates and only hurts.

Gradients are coded by hand from the closed forms (no autodiff), which
keeps the finite-difference oracle in ``gradcheck`` an independent
check rather than a tautology.

Losses and gradients also take a stack of runs: parameters ``(R, P)``,
weights ``(R, K+1)`` and batches ``(R, B, d)`` give one result row per
run. A dataset without the run axis, such as the validation split, is
shared by every run of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LINEAR_KIND",
    "MLP_KIND",
    "MODEL_KINDS",
    "ToyModelSpec",
    "Dataset",
    "make_synthetic_dataset",
    "build_model",
    "LinearMultiLossModel",
    "ConsistencyMLPModel",
    "DuplicatedTermModel",
    "BatchSampler",
    "take",
]

LINEAR_KIND = "multiloss_linear_regression"
MLP_KIND = "tiny_mlp_consistency"
MODEL_KINDS = (LINEAR_KIND, MLP_KIND)


@dataclass(frozen=True)
class ToyModelSpec:
    """Which model to build and the knobs of its synthetic data.

    ``duplicate_term`` appends an exact copy of the given auxiliary
    term (1-based loss index) for symmetry studies; 0 disables it.
    """

    kind: str = LINEAR_KIND
    n_features: int = 16
    hidden_units: int = 16
    noise_std: float = 0.5
    jitter_std: float = 0.5
    harm_scale: float = 3.0
    duplicate_term: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if self.noise_std < 0 or self.jitter_std < 0 or self.harm_scale < 0:
            raise ValueError("noise_std, jitter_std and harm_scale must be >= 0")
        if self.duplicate_term not in (0, 1, 2):
            raise ValueError("duplicate_term must be 0 (off), 1 or 2")


@dataclass(frozen=True)
class Dataset:
    """One split of a synthetic task, reproducible from its seed.

    ``jittered`` holds the fixed perturbed copy of ``inputs`` used by
    the consistency term; ``noise_targets`` the fixed random channel
    used by the harmful term. Inputs are ``(n, d)``, or ``(R, n, d)``
    for the batches of a stack of runs; the target channels drop the
    feature axis.
    """

    inputs: np.ndarray
    jittered: np.ndarray
    targets: np.ndarray
    noise_targets: np.ndarray
    split: str
    seed: int

    def __post_init__(self):
        if self.split not in ("train", "validation"):
            raise ValueError(f"split must be 'train' or 'validation', got {self.split!r}")
        rows = self.inputs.shape[:-1]
        if rows[-1] < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.jittered.shape != self.inputs.shape:
            raise ValueError("jittered inputs must match inputs shape")
        if self.targets.shape != rows or self.noise_targets.shape != rows:
            raise ValueError("target channels must match the number of samples")

    def __len__(self) -> int:
        return self.inputs.shape[-2]


def take(dataset: Dataset, idx) -> Dataset:
    """Row subset as a new Dataset (used for mini-batching).

    An ``(R, B)`` index array gives one batch per run, stacked. The
    feature arrays are gathered with ``ndarray.take``, which copies the
    same rows as ``inputs[idx]`` in a fraction of the time at batch sizes.
    """
    return Dataset(
        inputs=dataset.inputs.take(idx, axis=0),
        jittered=dataset.jittered.take(idx, axis=0),
        targets=dataset.targets[idx],
        noise_targets=dataset.noise_targets[idx],
        split=dataset.split,
        seed=dataset.seed,
    )


def make_synthetic_dataset(
    spec: ToyModelSpec, seed: int, n_train: int, n_val: int
) -> tuple[Dataset, Dataset]:
    """Generate matched train/validation splits for a model spec.

    The ground truth (linear map, or class direction) is drawn once and
    shared by both splits; everything is a deterministic function of
    (spec, seed, sizes).
    """
    if n_train < 1 or n_val < 1:
        raise ValueError("n_train and n_val must be >= 1")
    rng = np.random.default_rng(seed)
    d = spec.n_features

    if spec.kind == LINEAR_KIND:
        # unit signal variance regardless of d, so loss scales stay O(1)
        w_true = rng.normal(0.0, 1.0, size=d) / np.sqrt(d)

        def draw(n: int, split: str) -> Dataset:
            x = rng.normal(size=(n, d))
            y = x @ w_true + spec.noise_std * rng.normal(size=n)
            xj = x + spec.jitter_std * rng.normal(size=(n, d))
            r = spec.harm_scale * rng.normal(size=n)
            return Dataset(x, xj, y, r, split, seed)

    else:
        direction = rng.normal(size=d)
        direction = direction / np.linalg.norm(direction)

        def draw(n: int, split: str) -> Dataset:
            labels = rng.integers(0, 2, size=n)
            x = rng.normal(size=(n, d)) + (2.0 * labels - 1.0)[:, None] * direction
            xj = x + spec.jitter_std * rng.normal(size=(n, d))
            r = spec.harm_scale * rng.normal(size=n)
            return Dataset(x, xj, labels.astype(np.float64), r, split, seed)

    return draw(n_train, "train"), draw(n_val, "validation")


class LinearMultiLossModel:
    """Linear predictor with mse / consistency / noise_fit loss terms."""

    loss_names = ("mse", "consistency", "noise_fit")

    def __init__(self, spec: ToyModelSpec):
        self.spec = spec
        self.n_params = spec.n_features

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, 0.1, size=self.n_params)

    def losses(self, w: np.ndarray, batch: Dataset) -> np.ndarray:
        w = w[..., None]
        p = (batch.inputs @ w)[..., 0]
        pj = (batch.jittered @ w)[..., 0]
        targets = (batch.targets, pj, batch.noise_targets)
        terms = [np.add.reduce((p - target) ** 2, axis=-1, keepdims=True) for target in targets]
        return np.concatenate(terms, axis=-1) / p.shape[-1]

    def param_gradient(self, w: np.ndarray, batch: Dataset, lam: np.ndarray) -> np.ndarray:
        x = batch.inputs
        n = x.shape[-2]
        w = w[..., None]
        p = (x @ w)[..., 0]
        diff = x - batch.jittered
        lam = lam[..., None]
        # the basic and harmful terms share the factor x^T, so their residuals are summed first
        resid = lam[..., 0, :] * (p - batch.targets) + lam[..., 2, :] * (p - batch.noise_targets)
        g0_g2 = (resid[..., None, :] @ x)[..., 0, :]
        g1 = (diff.swapaxes(-1, -2) @ (diff @ w))[..., 0]
        return (2.0 / n) * (g0_g2 + lam[..., 1, :] * g1)


class ConsistencyMLPModel:
    """One-hidden-layer tanh classifier with consistency and noise-head terms.

    The parameter vector packs [W1 (d,H), b1 (H), W2 (H,2), b2 (2),
    U (H,), c] in that order. Losses: cross-entropy on two classes,
    elementwise mean squared difference between clean and jittered
    hidden activations, and mean squared error of a linear head that
    regresses the hidden activations onto the random target channel.
    """

    loss_names = ("cross_entropy", "consistency", "noise_fit")

    def __init__(self, spec: ToyModelSpec):
        self.spec = spec
        d, hd = spec.n_features, spec.hidden_units
        self.d = d
        self.h = hd
        self.n_params = d * hd + hd + hd * 2 + 2 + hd + 1

    def _unpack(self, w: np.ndarray):
        d, hd = self.d, self.h
        runs = w.shape[:-1]
        i = 0
        w1 = w[..., i : i + d * hd].reshape(runs + (d, hd))
        i += d * hd
        b1 = w[..., i : i + hd]
        i += hd
        w2 = w[..., i : i + hd * 2].reshape(runs + (hd, 2))
        i += hd * 2
        b2 = w[..., i : i + 2]
        i += 2
        u = w[..., i : i + hd]
        i += hd
        c = w[..., i]
        return w1, b1, w2, b2, u, c

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        d, hd = self.d, self.h
        w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hd))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hd), size=(hd, 2))
        u = rng.normal(0.0, 1.0 / np.sqrt(hd), size=hd)
        return np.concatenate([w1.ravel(), np.zeros(hd), w2.ravel(), np.zeros(2), u, [0.0]])

    def _hidden(self, w1, b1, x):
        return np.tanh(x @ w1 + b1[..., None, :])

    def losses(self, w: np.ndarray, batch: Dataset) -> np.ndarray:
        w1, b1, w2, b2, u, c = self._unpack(w)
        a1 = self._hidden(w1, b1, batch.inputs)
        a1j = self._hidden(w1, b1, batch.jittered)
        logits = a1 @ w2 + b2[..., None, :]
        zs = logits - logits.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(zs).sum(axis=-1))
        picked = np.where(batch.targets == 1.0, zs[..., 1], zs[..., 0])  # the true class's logit
        l0 = np.mean(logz - picked, axis=-1, keepdims=True)
        l1 = np.mean((a1 - a1j) ** 2, axis=(-2, -1))[..., None]
        pred = (a1 @ u[..., None])[..., 0] + c[..., None]
        l2 = np.mean((pred - batch.noise_targets) ** 2, axis=-1, keepdims=True)
        return np.concatenate([l0, l1, l2], axis=-1)

    def param_gradient(self, w: np.ndarray, batch: Dataset, lam: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2, u, c = self._unpack(w)
        x, xj = batch.inputs, batch.jittered
        n = x.shape[-2]
        runs = w.shape[:-1]
        lam = lam[..., None, None]
        a1 = self._hidden(w1, b1, x)
        a1j = self._hidden(w1, b1, xj)
        a1t = a1.swapaxes(-1, -2)

        # cross-entropy head
        logits = a1 @ w2 + b2[..., None, :]
        zs = logits - logits.max(axis=-1, keepdims=True)
        ez = np.exp(zs)
        probs = ez / ez.sum(axis=-1, keepdims=True)
        onehot = batch.targets[..., None] == np.array([0.0, 1.0])  # labels are 0 or 1
        dlogits = lam[..., 0, :, :] * (probs - onehot) / n
        dw2 = a1t @ dlogits
        db2 = dlogits.sum(axis=-2)
        da1 = dlogits @ w2.swapaxes(-1, -2)

        # consistency head, flows through both forward passes
        diff = a1 - a1j
        scale = 2.0 / (n * self.h)
        da1 = da1 + lam[..., 1, :, :] * scale * diff
        da1j = -lam[..., 1, :, :] * scale * diff

        # noise-fit regression head
        pred = a1 @ u[..., None] + c[..., None, None]
        dpred = lam[..., 2, :, :] * (2.0 / n) * (pred - batch.noise_targets[..., None])
        du = (a1t @ dpred)[..., 0]
        dc = dpred.sum(axis=-2)
        da1 = da1 + dpred * u[..., None, :]

        dz1 = da1 * (1.0 - a1 * a1)
        dz1j = da1j * (1.0 - a1j * a1j)
        dw1 = x.swapaxes(-1, -2) @ dz1 + xj.swapaxes(-1, -2) @ dz1j
        db1 = dz1.sum(axis=-2) + dz1j.sum(axis=-2)

        flat = runs + (-1,)
        return np.concatenate([dw1.reshape(flat), db1, dw2.reshape(flat), db2, du, dc], axis=-1)


class DuplicatedTermModel:
    """Wraps a model, appending an exact copy of one auxiliary loss term."""

    def __init__(self, base, index: int):
        if not 1 <= index < len(base.loss_names):
            raise ValueError(f"duplicate index {index} out of range for {base.loss_names}")
        self.base = base
        self.index = index
        self.loss_names = tuple(base.loss_names) + (base.loss_names[index] + "_dup",)
        self.n_params = base.n_params
        self.spec = base.spec

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return self.base.init_params(rng)

    def losses(self, w: np.ndarray, batch: Dataset) -> np.ndarray:
        l = self.base.losses(w, batch)
        return np.concatenate([l, l[..., self.index, None]], axis=-1)

    def param_gradient(self, w: np.ndarray, batch: Dataset, lam: np.ndarray) -> np.ndarray:
        folded = np.array(lam[..., :-1], dtype=np.float64)
        folded[..., self.index] += lam[..., -1]
        return self.base.param_gradient(w, batch, folded)


def build_model(spec: ToyModelSpec):
    model = LinearMultiLossModel(spec) if spec.kind == LINEAR_KIND else ConsistencyMLPModel(spec)
    if spec.duplicate_term:
        model = DuplicatedTermModel(model, spec.duplicate_term)
    return model


class BatchSampler:
    """Sequential mini-batches with a fresh shuffle at each epoch.

    ``rng`` is one generator, or a sequence of them for a stack of runs:
    each run then shuffles with its own generator, one epoch at a time,
    and batches gain a leading run axis. The runs share the cursor, so
    the short last batch of an epoch (when ``batch_size`` does not divide
    the dataset) is equally short for all of them.
    """

    def __init__(self, dataset: Dataset, batch_size: int, rng):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self._stacked = not isinstance(rng, np.random.Generator)
        self._rngs = list(rng) if self._stacked else [rng]
        self._order = np.empty((len(self._rngs), 0), dtype=np.intp)
        self._cursor = 0

    def next_batch(self) -> Dataset:
        if self._cursor >= self._order.shape[1]:
            self._order = np.stack([rng.permutation(len(self.dataset)) for rng in self._rngs])
            self._cursor = 0
        idx = self._order[:, self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return take(self.dataset, idx if self._stacked else idx[0])

    def keep(self, runs: np.ndarray) -> None:
        """Go on with only the runs of the stack where ``runs`` is True."""
        self._rngs = [rng for rng, kept in zip(self._rngs, runs) if kept]
        self._order = self._order[runs]

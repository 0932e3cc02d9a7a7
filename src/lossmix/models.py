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

Each model runs its forward pass once per evaluation and reads the
per-term losses and the weighted parameter gradient off the same
activations: ``losses_and_gradient(w, batch, lam)`` returns both, and
``losses`` and ``param_gradient`` are its two halves. ``basic_loss``
evaluates only the basic term (for the MLP, only the clean pass and the
cross-entropy head), which is all that validation reads.

Losses and gradients also take a stack of runs: parameters ``(R, P)``
and weights ``(R, K+1)`` give one result row per run, and the batch
arrays gain the same leading run axis. A dataset without the run axis,
such as the validation split, is shared by every run of the stack.

``design(data)`` lays a split out as the rows ``losses_and_gradient``
reads, once per split; ``BatchSampler`` gathers its batches from them.
The MLP's design is its ``Dataset``. The linear model's is a
``Design``: the three loss terms' inputs and targets stacked slot by
slot, so one product gives every term's residuals and a second one the
weighted gradient. ``losses``, ``param_gradient`` and ``basic_loss``
take a ``Dataset``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import _trusted

__all__ = [
    "LINEAR_KIND",
    "MLP_KIND",
    "MODEL_KINDS",
    "ToyModelSpec",
    "Dataset",
    "Design",
    "make_synthetic_dataset",
    "build_model",
    "LinearMultiLossModel",
    "ConsistencyMLPModel",
    "DuplicatedTermModel",
    "BatchSampler",
    "DRAW_BLOCK",
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

    def take(self, idx) -> "Dataset":
        """Row subset as a new Dataset (used for mini-batching).

        An ``(R, B)`` index array gives one batch per run, stacked. The
        feature arrays are gathered with ``ndarray.take``, which copies the
        same rows as ``inputs[idx]`` in a fraction of the time at batch
        sizes. The subset of a checked split is not checked again.
        """
        return _trusted(
            Dataset,
            inputs=self.inputs.take(idx, axis=0),
            jittered=self.jittered.take(idx, axis=0),
            targets=self.targets[idx],
            noise_targets=self.noise_targets[idx],
            split=self.split,
            seed=self.seed,
        )


_SLOTS = np.arange(3)[:, None]  # the loss terms' row blocks of a Design


@dataclass(frozen=True)
class Design:
    """A split of the linear task as slot-major design rows.

    ``inputs`` is ``(3, n, d)``, the slots x, x - x_jittered and x, and
    ``targets`` is ``(3, n)``, the slots y, 0 and the noise channel, so
    that slot k of ``inputs @ w - targets`` is the residual of loss term
    k. A batch that :meth:`take` gathers from a split has shapes
    ``(..., 3, B, d)`` and ``(..., 3, B)``. Slot-major (rather than
    ``(..., B, 3)``) keeps each slot's residuals a product of its own
    ``(B, d)`` block and contiguous along the batch axis, so the basic
    loss rounds exactly as ``basic_loss`` does on the same rows. The
    design holds 3 n (d + 1) floats.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[-2]

    def take(self, idx) -> "Design":
        """The rows ``idx`` of every slot, with one gather per array; ``(R, B)`` gives one batch per run.

        The flat ``(3n, d)`` and ``(3n,)`` views and the slots' row offsets
        are kept in the instance ``__dict__`` on the first call.
        """
        flat = self.__dict__.get("_flat")
        if flat is None:
            n, d = self.inputs.shape[-2:]
            flat = self.__dict__["_flat"] = (self.inputs.reshape(-1, d), self.targets.reshape(-1), n * _SLOTS)
        inputs, targets, offsets = flat
        rows = idx[..., None, :] + offsets
        return Design(inputs=inputs.take(rows, axis=0), targets=targets.take(rows))


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

    def design(self, data: Dataset) -> Design:
        x = data.inputs
        return Design(
            inputs=np.stack([x, x - data.jittered, x], axis=-3),
            targets=np.stack([data.targets, np.zeros_like(data.targets), data.noise_targets], axis=-2),
        )

    def losses(self, w: np.ndarray, batch: Dataset) -> np.ndarray:
        return self._losses(self._residuals(w, self.design(batch)))

    def param_gradient(self, w: np.ndarray, batch: Dataset, lam: np.ndarray) -> np.ndarray:
        rows = self.design(batch)
        return self._gradient(rows, lam, self._residuals(w, rows))

    def losses_and_gradient(self, w: np.ndarray, rows: Design, lam: np.ndarray):
        e = self._residuals(w, rows)
        return self._losses(e), self._gradient(rows, lam, e)

    def basic_loss(self, w: np.ndarray, data: Dataset) -> np.ndarray:
        e0 = (data.inputs @ w[..., None])[..., 0] - data.targets
        return np.add.reduce(e0 * e0, axis=-1) / e0.shape[-1]

    @staticmethod
    def _residuals(w: np.ndarray, rows: Design) -> np.ndarray:
        """The rows ``p - y``, ``(x - x_jittered) w`` and ``p - r`` as ``(..., 3, B)``.

        One ``(B, d) @ (d, 1)`` product per slot, as ``basic_loss`` makes
        one on its rows: a single ``(3B, d)`` product rounds some rows
        differently, as BLAS blocks rows by the product's height.
        """
        return (rows.inputs @ w[..., None, :, None])[..., 0] - rows.targets

    @staticmethod
    def _losses(e: np.ndarray) -> np.ndarray:
        return np.add.reduce(e * e, axis=-1) / e.shape[-1]

    @staticmethod
    def _gradient(rows: Design, lam: np.ndarray, e: np.ndarray) -> np.ndarray:
        """``(2 / B) (lam * e) A``: one product over the 3B rows of every slot."""
        le = lam[..., None] * e
        a = rows.inputs
        g = le.reshape(le.shape[:-2] + (1, -1)) @ a.reshape(a.shape[:-3] + (-1, a.shape[-1]))
        return (2.0 / e.shape[-1]) * g[..., 0, :]


_CLASSES = np.array([0.0, 1.0])  # the two labels, as the row that one-hot encodes a column of them


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

    def design(self, data: Dataset) -> Dataset:
        return data

    def losses(self, w: np.ndarray, batch: Dataset) -> np.ndarray:
        return self._losses(batch, self._forward(w, batch))

    def param_gradient(self, w: np.ndarray, batch: Dataset, lam: np.ndarray) -> np.ndarray:
        return self._gradient(batch, lam, self._forward(w, batch))

    def losses_and_gradient(self, w: np.ndarray, batch: Dataset, lam: np.ndarray):
        fwd = self._forward(w, batch)
        return self._losses(batch, fwd), self._gradient(batch, lam, fwd)

    def basic_loss(self, w: np.ndarray, data: Dataset) -> np.ndarray:
        _, _, zs, _, ez_sum = self._clean(w, data.inputs)
        return _cross_entropy(zs, ez_sum, data.targets)[..., 0]

    def _hidden(self, w1, b1, x):
        return np.tanh(x @ w1 + b1[..., None, :])

    def _clean(self, w: np.ndarray, x: np.ndarray):
        """The clean pass up to the cross-entropy head.

        Returns the unpacked parameters, the hidden activations, the
        max-shifted logits, their exponentials and the exponentials' sums.
        """
        params = self._unpack(w)
        w1, b1, w2, b2, _, _ = params
        a1 = self._hidden(w1, b1, x)
        logits = a1 @ w2 + b2[..., None, :]
        zs = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
        ez = np.exp(zs)
        return params, a1, zs, ez, np.add.reduce(ez, axis=-1, keepdims=True)

    def _forward(self, w: np.ndarray, batch: Dataset):
        """Both passes and all three heads, everything the losses and the gradient read."""
        params, a1, zs, ez, ez_sum = self._clean(w, batch.inputs)
        w1, b1, _, _, u, c = params
        a1j = self._hidden(w1, b1, batch.jittered)
        pred = a1 @ u[..., None] + c[..., None, None]  # noise head, (..., n, 1)
        return params, a1, a1j, a1 - a1j, zs, ez, ez_sum, pred

    @staticmethod
    def _losses(batch: Dataset, fwd) -> np.ndarray:
        _, _, _, diff, zs, _, ez_sum, pred = fwd
        l0 = _cross_entropy(zs, ez_sum, batch.targets)
        l1 = np.add.reduce(diff**2, axis=(-2, -1))[..., None] / (diff.shape[-2] * diff.shape[-1])
        l2 = np.add.reduce((pred[..., 0] - batch.noise_targets) ** 2, axis=-1, keepdims=True) / pred.shape[-2]
        return np.concatenate([l0, l1, l2], axis=-1)

    def _gradient(self, batch: Dataset, lam: np.ndarray, fwd) -> np.ndarray:
        (w1, _, w2, _, u, _), a1, a1j, diff, _, ez, ez_sum, pred = fwd
        x, xj = batch.inputs, batch.jittered
        n = x.shape[-2]
        lam = lam[..., None, None]
        a1t = a1.swapaxes(-1, -2)

        # cross-entropy head
        probs = ez / ez_sum
        onehot = batch.targets[..., None] == _CLASSES
        dlogits = lam[..., 0, :, :] * (probs - onehot) / n
        dw2 = a1t @ dlogits
        db2 = np.add.reduce(dlogits, axis=-2)
        da1 = dlogits @ w2.swapaxes(-1, -2)

        # consistency head, flows through both forward passes
        scale = 2.0 / (n * self.h)
        da1 = da1 + lam[..., 1, :, :] * scale * diff
        da1j = -lam[..., 1, :, :] * scale * diff

        # noise-fit regression head
        dpred = lam[..., 2, :, :] * (2.0 / n) * (pred - batch.noise_targets[..., None])
        du = (a1t @ dpred)[..., 0]
        dc = np.add.reduce(dpred, axis=-2)
        da1 = da1 + dpred * u[..., None, :]

        dz1 = da1 * (1.0 - a1 * a1)
        dz1j = da1j * (1.0 - a1j * a1j)
        dw1 = x.swapaxes(-1, -2) @ dz1 + xj.swapaxes(-1, -2) @ dz1j
        db1 = np.add.reduce(dz1, axis=-2) + np.add.reduce(dz1j, axis=-2)

        flat = w1.shape[:-2] + (-1,)
        return np.concatenate([dw1.reshape(flat), db1, dw2.reshape(flat), db2, du, dc], axis=-1)


def _cross_entropy(zs: np.ndarray, ez_sum: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mean two-class cross-entropy over the sample axis, kept as a length-1 axis."""
    logz = np.log(ez_sum[..., 0])
    picked = np.where(targets == 1.0, zs[..., 1], zs[..., 0])  # the true class's logit
    return np.add.reduce(logz - picked, axis=-1, keepdims=True) / picked.shape[-1]


class DuplicatedTermModel:
    """Wraps a model, appending an exact copy of one auxiliary loss term.

    The duplicate's weight is folded into the original term's weight, so
    the base model computes the gradient as if the copy were not there.
    """

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

    def design(self, data: Dataset):
        return self.base.design(data)

    def losses(self, w: np.ndarray, batch: Dataset) -> np.ndarray:
        return self._append(self.base.losses(w, batch))

    def param_gradient(self, w: np.ndarray, batch: Dataset, lam: np.ndarray) -> np.ndarray:
        return self.base.param_gradient(w, batch, self._fold(lam))

    def losses_and_gradient(self, w: np.ndarray, batch: Dataset, lam: np.ndarray):
        l, g = self.base.losses_and_gradient(w, batch, self._fold(lam))
        return self._append(l), g

    def basic_loss(self, w: np.ndarray, data: Dataset) -> np.ndarray:
        return self.base.basic_loss(w, data)

    def _append(self, l: np.ndarray) -> np.ndarray:
        return np.concatenate([l, l[..., self.index, None]], axis=-1)

    def _fold(self, lam: np.ndarray) -> np.ndarray:
        folded = np.array(lam[..., :-1], dtype=np.float64)
        folded[..., self.index] += lam[..., -1]
        return folded


def build_model(spec: ToyModelSpec):
    model = LinearMultiLossModel(spec) if spec.kind == LINEAR_KIND else ConsistencyMLPModel(spec)
    if spec.duplicate_term:
        model = DuplicatedTermModel(model, spec.duplicate_term)
    return model


# the index entries per run that the sampler draws at once, rounded down to whole epochs (at least one)
DRAW_BLOCK = 1024


class BatchSampler:
    """Sequential mini-batches with a fresh shuffle at each epoch.

    ``rows`` is a ``Dataset`` or a model's ``design`` of one; a batch is
    its ``take`` of the batch's indices. ``rng`` is one generator, or a
    sequence of them for a stack of runs: each run then shuffles with
    its own generator, and batches gain a leading run axis. The runs
    share the cursor, so the short last batch of an epoch (when
    ``batch_size`` does not divide the dataset) is equally short for all
    of them.

    Each generator shuffles ``max(1, DRAW_BLOCK // n)`` epochs at once,
    with one ``Generator.permuted`` call on rows of ``arange(n)``. On
    numpy 2.4 that gives the same rows, and the same generator state, as
    one ``permutation(n)`` call per epoch; an implementation property,
    not a documented one, so the tests check both.
    """

    def __init__(self, rows, batch_size: int, rng):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.rows = rows
        self._n = len(rows)
        self.batch_size = min(batch_size, self._n)
        self._stacked = not isinstance(rng, np.random.Generator)
        self._rngs = list(rng) if self._stacked else [rng]
        self._epochs = max(1, DRAW_BLOCK // self._n)  # epochs per draw
        self._order = np.empty((len(self._rngs), 0), dtype=np.intp)  # the drawn epochs, back to back
        self._cursor = 0

    def next_batch(self):
        n = self._n
        if self._cursor >= self._order.shape[1]:
            block = np.empty((len(self._rngs), self._epochs, n), dtype=np.intp)
            block[...] = np.arange(n)
            for rng, rows in zip(self._rngs, block):
                rng.permuted(rows, axis=1, out=rows)
            self._order = block.reshape(len(self._rngs), -1)
            self._cursor = 0
        start = self._cursor
        self._cursor = min(start + self.batch_size, (start // n + 1) * n)  # a batch ends with its epoch
        idx = self._order[:, start : self._cursor]
        return self.rows.take(idx if self._stacked else idx[0])

    def keep(self, runs: np.ndarray) -> None:
        """Go on with only the runs of the stack where ``runs`` is True."""
        self._rngs = [rng for rng, kept in zip(self._rngs, runs) if kept]
        self._order = self._order[runs]

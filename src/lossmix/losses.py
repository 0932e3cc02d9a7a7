"""Composite loss layer: simplex-weighted loss mixing and its gradients.

Training objectives built from several loss terms combine them linearly,
``L = sum_i lam_i * l_i``. Here the weights are parameterized as
``lam = softmax(mu)`` over learnable exponents ``mu``, which keeps every
weight strictly positive, normalizes them to sum to one (so adding terms
never rescales the objective), and leaves the exponents free for plain
gradient descent. Index 0 is the basic task loss; its exponent stays
frozen at zero, so only the exponents of the auxiliary terms move.

All operations are pure functions of float64 vectors along the last
axis, so a stack of runs passes exponents and losses as ``(R, K+1)``
rows and gets one result row per run. The math is in array kernels that
take the weights ``lam`` as an argument, each exponent gradient built as
``lam * (x - <lam, x>)``. The training engine computes ``lam`` once per
exponent state with ``_softmax``, the only place that exponentiates
(after subtracting the running maximum, so large exponents cannot
overflow), and calls the kernels; the public functions take the checked
value objects and call the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BASIC_INDEX",
    "HPExponents",
    "LossWeights",
    "LossVector",
    "softmax_weights",
    "composite_loss",
    "hp_gradient_empirical",
    "naive_exp_gradient",
    "regularizer_value",
    "regularizer_gradient",
]

# Index of the basic loss term, whose exponent is pinned to zero.
BASIC_INDEX = 0
# Log of the smallest normal float64; exp of anything lower underflows toward 0.
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))


def _as_rows(x, name: str) -> np.ndarray:
    """A vector, or a stack of them with a leading run axis."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be a vector or a stack of rows, got shape {arr.shape}")
    return arr


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.setflags(write=False)
    return out


def _trusted(cls, **fields):
    """``cls(**fields)`` without the constructor's checks.

    The validating constructors guard values that come from outside.
    Values computed from checked inputs (a step's new exponents, weights
    of checked exponents) skip them; a run's state is checked once per
    step by ``harness._faults``.
    """
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class HPExponents:
    """Log-space loss-weight exponents; entry 0 is pinned to zero.

    A vector of length K+1 for one basic plus K >= 1 auxiliary terms, or
    an ``(R, K+1)`` stack of them, one row per run. Only relative
    exponents matter to the weight mapping, so the basic entry carries
    no degree of freedom and must be exactly 0.
    """

    mu: np.ndarray

    def __post_init__(self):
        mu = _as_rows(self.mu, "mu")
        if mu.shape[-1] < 2:
            raise ValueError("need at least one auxiliary term (length >= 2)")
        if not np.all(np.isfinite(mu)):
            raise ValueError("exponents must be finite")
        if np.any(mu[..., BASIC_INDEX] != 0.0):
            raise ValueError("exponent of the basic loss must be 0")
        object.__setattr__(self, "mu", _frozen_copy(mu))

    @classmethod
    def from_auxiliary(cls, aux) -> "HPExponents":
        """Build from a vector of the K free auxiliary exponents, prepending the basic 0."""
        return cls(np.concatenate(([0.0], np.asarray(aux, dtype=np.float64))))


@dataclass(frozen=True)
class LossWeights:
    """Strictly positive per-term weights that sum to one (per row of a stack)."""

    lam: np.ndarray

    def __post_init__(self):
        lam = _as_rows(self.lam, "lam")
        if lam.shape[-1] < 2:
            raise ValueError("need at least two weights")
        if not np.all(np.isfinite(lam)):
            raise ValueError("weights must be finite")
        if np.any(lam <= 0.0):
            raise ValueError("weights must be strictly positive")
        sums = lam.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError(f"weights must sum to 1 within 1e-12, got {sums!r}")
        object.__setattr__(self, "lam", _frozen_copy(lam))


@dataclass(frozen=True)
class LossVector:
    """Batch-mean loss values per term (per row of a stack); entry 0 is the basic task loss."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_rows(self.values, "values")
        if values.shape[-1] < 1:
            raise ValueError("need at least one loss value")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"loss values must be finite, got {values!r}")
        object.__setattr__(self, "values", _frozen_copy(values))


def _softmax(m: np.ndarray) -> np.ndarray:
    """``exp(m_i) / sum_j exp(m_j)`` along the last axis, floored at the smallest normal float."""
    e = np.exp(np.maximum(m - np.maximum.reduce(m, axis=-1, keepdims=True), _LOG_TINY))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_weights(mu: HPExponents) -> LossWeights:
    """Map exponents to mixture weights, ``exp(mu_i) / sum_j exp(mu_j)``.

    Invariant under adding a constant to every exponent; always returns
    a strictly positive vector summing to one, one per row of ``mu``. An
    exponent more than ~708 below the largest gets the smallest normal
    float as its unnormalized weight instead of underflowing to 0.
    """
    return _trusted(LossWeights, lam=_softmax(mu.mu))


def composite_loss(weights: LossWeights, losses: LossVector) -> float | np.ndarray:
    """Weighted sum of the loss terms: the training objective, one value per row of a stack.

    For a single run the result is a float (``np.float64``).
    """
    lam, l = weights.lam, losses.values
    if lam.shape != l.shape:
        raise ValueError(f"shape mismatch: {lam.shape} weights vs {l.shape} losses")
    return np.add.reduce(lam * l, axis=-1)


def _softmax_gradient(lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of ``<lam, x>`` w.r.t. the exponents of ``lam = softmax(mu)``, for ``x`` held fixed.

    It is ``lam * (x - <lam, x>)``: each entry is its weight times how
    far its term sits above the weighted level. Entry 0 is set to
    exactly 0 because the basic exponent never moves.

    The weighted level is subtracted twice. Once a weight nears 1, its
    own entry ``x_i - <lam, x>`` is a difference of two nearly equal
    numbers, and a single pass leaves only the rounding error of
    ``<lam, x>`` in it. The second pass works on the centred ``x`` and
    removes that error, so every entry keeps the accuracy of the pairwise
    form ``lam_i * sum_j lam_j (x_i - x_j)``.
    """
    x = x - np.add.reduce(lam * x, axis=-1, keepdims=True)
    grad = lam * (x - np.add.reduce(lam * x, axis=-1, keepdims=True))
    grad[..., BASIC_INDEX] = 0.0
    return grad


def hp_gradient_empirical(mu: HPExponents, losses: LossVector) -> np.ndarray:
    """Gradient of the weighted training loss w.r.t. each exponent.

    Entry i (i >= 1) is ``lam_i * (l_i - <lam, l>)``, which can take
    either sign: a term whose loss sits above the current weighted level
    is pushed down, one below it is pushed up. Entry 0 is exactly 0.
    """
    l = losses.values
    if mu.mu.shape != l.shape:
        raise ValueError(f"shape mismatch: {mu.mu.shape} exponents vs {l.shape} losses")
    return _softmax_gradient(_softmax(mu.mu), l)


def naive_exp_gradient(mu: HPExponents, losses: LossVector) -> np.ndarray:
    """Exponent gradient under plain un-normalized exponential weights.

    Without the normalizing denominator the gradient is exp(mu_i) * l_i,
    strictly positive whenever every loss value is positive, so every
    update would shrink every weight toward zero. Kept as the testable
    counter-example that the simplex weighting exists to fix.
    """
    l = losses.values
    m = mu.mu
    if m.size != l.size:
        raise ValueError(f"length mismatch: {m.size} exponents vs {l.size} losses")
    if np.any(l <= 0.0):
        raise ValueError("loss values must be strictly positive for the naive form")
    return np.exp(m) * l


def _softplus(x: np.ndarray) -> np.ndarray:
    # max(x, 0) + log1p(exp(-|x|)) never overflows
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` as ``exp(-log(1 + exp(-x)))``, one expression that never overflows.

    Within 4e-15 relative of the exact value wherever the result is a normal float.
    """
    return np.exp(-np.logaddexp(0.0, -x))


def _regularizer_value(lam: np.ndarray, m: np.ndarray) -> np.ndarray:
    """:func:`regularizer_value` of the exponents ``m``, whose weights are ``lam``."""
    return (lam * np.log(lam)).sum(axis=-1) + _softplus(m[..., 1:]).sum(axis=-1)


def regularizer_value(mu: HPExponents) -> float:
    """Exponent regularizer at unit strength: negated weight entropy plus softplus terms.

    That is ``sum_i lam_i log lam_i + sum_{i >= 1} softplus(mu_i)``. The
    entropy part favors weights spread evenly over the loss terms; the
    softplus part, summed over the auxiliary exponents only, bounds how
    far any exponent can grow. One value per row of a stack. The decay
    strength rho multiplies it at the caller.
    """
    return _regularizer_value(_softmax(mu.mu), mu.mu)


def _regularizer_gradient(lam: np.ndarray, m: np.ndarray) -> np.ndarray:
    """:func:`regularizer_gradient` of the exponents ``m``, whose weights are ``lam``."""
    grad = _softmax_gradient(lam, m)
    grad[..., 1:] += _sigmoid(m[..., 1:])
    return grad


def regularizer_gradient(mu: HPExponents) -> np.ndarray:
    """Gradient of the exponent regularizer at unit strength.

    Entry i (i >= 1) is the entropy part ``lam_i * (mu_i - <lam, mu>)``
    plus the softplus part ``sigmoid(mu_i)``; entry 0 is exactly 0. The
    decay strength rho is applied once, by the optimizer update.
    """
    return _regularizer_gradient(_softmax(mu.mu), mu.mu)

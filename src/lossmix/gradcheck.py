"""Finite-difference oracles for every analytic gradient in the package.

The oracle side only ever calls scalar *value* functions (weighted loss,
regularizer value, model losses), never the analytic gradient code it
checks. Per trial, the relative error is the largest entrywise
difference measured against the largest gradient entry of that trial
(analytic or numeric, floored at 1e-8), so near-zero components cannot
spuriously dominate while genuinely wrong entries still register.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .losses import HPExponents, LossVector, composite_loss, hp_gradient_empirical
from .losses import regularizer_gradient, regularizer_value, softmax_weights
from .models import make_synthetic_dataset

__all__ = [
    "GradCheckReport",
    "central_fd",
    "check_hp_gradients",
    "check_reg_gradients",
    "check_model_gradients",
]

ERROR_FLOOR = 1e-8


@dataclass(frozen=True)
class GradCheckReport:
    """Aggregate of an analytic-vs-numeric comparison over random trials."""

    name: str
    n_trials: int
    tolerance: float
    max_relative_error: float
    max_absolute_error: float
    worst_index: int
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def central_fd(fn, x, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector.

    Entry i is (fn(x + h e_i) - fn(x - h e_i)) / (2 h).
    """
    if not h > 0.0:
        raise ValueError(f"h must be > 0, got {h!r}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fp = float(fn(xp))
        fm = float(fn(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value near coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def _numeric(fn, x) -> np.ndarray:
    """Central differences of ``fn`` at ``x``; all infinite where ``fn`` goes non-finite, so the trial fails."""
    try:
        return central_fd(fn, x)
    except ValueError:
        return np.full(np.shape(x), np.inf)


def _aggregate(name, tol, trials) -> GradCheckReport:
    """Fold (analytic, numeric) gradient pairs into a report.

    A non-finite entry on either side is an infinite error at its index,
    so the report fails; so does a report over no trials, which checked nothing.
    """
    n_trials = 0
    max_rel = 0.0
    max_abs = 0.0
    worst = -1
    for analytic, numeric in trials:
        n_trials += 1
        diff = np.abs(analytic - numeric)
        diff[~np.isfinite(diff)] = np.inf
        err = float(diff.max())
        denom = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), ERROR_FLOOR)
        rel = err / denom if err < np.inf else np.inf
        if rel > max_rel:
            max_rel = rel
            worst = int(np.argmax(diff))
        max_abs = max(max_abs, err)
    return GradCheckReport(
        name=name,
        n_trials=n_trials,
        tolerance=tol,
        max_relative_error=max_rel,
        max_absolute_error=max_abs,
        worst_index=worst,
        passed=n_trials > 0 and max_rel < tol,
    )


def _exponent_trials(analytic, value, n_trials, k_range, seed, draw=lambda rng, k: ()):
    """Pairs of ``analytic(mu, *extra)`` and central differences of ``value(mu, *extra)``.

    Each trial draws K from ``k_range``, then K auxiliary exponents
    N(0, 2^2) to exercise the max-subtraction paths, then ``extra =
    draw(rng, K)``. Differences are taken over the free (auxiliary)
    coordinates only, since the basic exponent is frozen.
    """
    rng = np.random.default_rng(seed)
    k_range = tuple(k_range)
    for _ in range(n_trials):
        k = int(rng.choice(k_range))
        aux = rng.normal(0.0, 2.0, size=k)
        extra = draw(rng, k)
        numeric = _numeric(lambda free: value(HPExponents.from_auxiliary(free), *extra), aux)
        yield analytic(HPExponents.from_auxiliary(aux), *extra)[1:], numeric


def check_hp_gradients(
    n_trials: int = 100,
    k_range=(1, 2, 3, 4, 5),
    tol: float = 1e-6,
    seed: int = 0,
) -> GradCheckReport:
    """Exponent gradient of the weighted loss vs central differences.

    Losses are drawn |N(0,1)| + 0.1 per trial.
    """
    trials = _exponent_trials(
        hp_gradient_empirical,
        lambda mu, losses: composite_loss(softmax_weights(mu), losses),
        n_trials, k_range, seed,
        draw=lambda rng, k: (LossVector(np.abs(rng.normal(size=k + 1)) + 0.1),),
    )
    return _aggregate("hp_gradient_empirical", tol, trials)


def check_reg_gradients(
    n_trials: int = 100,
    k_range=(1, 2, 3, 4, 5),
    tol: float = 1e-6,
    seed: int = 0,
) -> GradCheckReport:
    """Regularizer gradient vs central differences of its unit-strength value."""
    trials = _exponent_trials(regularizer_gradient, regularizer_value, n_trials, k_range, seed)
    return _aggregate("regularizer_gradient", tol, trials)


def check_model_gradients(model, n_trials: int = 50, tol: float = 1e-5, seed: int = 0) -> GradCheckReport:
    """Model parameter gradient vs central differences of the weighted loss.

    Each trial draws fresh parameters, a random simplex weight vector,
    and a random 16-row mini-batch from a 128-row dataset generated off
    the model spec.
    """
    rng = np.random.default_rng(seed)
    pool, _ = make_synthetic_dataset(model.spec, seed, 128, 1)
    n_terms = len(model.loss_names)

    def trials():
        for _ in range(n_trials):
            w = model.init_params(rng) + 0.2 * rng.normal(size=model.n_params)
            lam = rng.dirichlet(np.ones(n_terms))
            lam = np.maximum(lam, 1e-9)
            lam = lam / lam.sum()
            batch = pool.take(rng.choice(len(pool), size=16, replace=False))
            numeric = _numeric(lambda wv: lam @ model.losses(wv, batch), w)
            yield model.param_gradient(w, batch, lam), numeric

    return _aggregate(f"param_gradient[{model.spec.kind}]", tol, trials())

"""Joint update rules for model parameters and loss-weight exponents.

Two step families are provided: SGD with momentum and decoupled weight
decay, and AdamW. In both, the loss-weight exponents receive the same
treatment as the regular parameters, with two twists: the exponent
regularizer enters the update decoupled from the momentum buffers,
scaled once by the decay factor ``hp_decay`` (``losses`` computes the
regularizer and its gradient at unit strength), and index 0 (the basic
loss) never moves because its gradient entries are identically zero.

Each family is one moment rule applied to both blocks by one array
kernel, ``_advance``, which the training engine calls on its plain-array
state. ``sgdw_step`` and ``adamw_step`` check their inputs once, call the
kernel, and return fresh states without checking them (the caller judges
divergence). Both step one run or a stack of runs on a leading run axis.
An exponent gradient of ``None`` freezes the exponents: only the
parameter block steps, and the exponent state is returned as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import BASIC_INDEX, HPExponents, _regularizer_gradient, _softmax, _trusted
from .losses import regularizer_gradient  # imported only as the lookup point bench/tracing.py wraps

__all__ = [
    "OptimizerConfig",
    "ParamState",
    "HPState",
    "init_param_state",
    "init_hp_state",
    "schedule_multiplier",
    "sgdw_step",
    "adamw_step",
]

SCHEDULES = ("constant", "cosine", "step")


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared knobs for both step families.

    ``alpha`` is the base learning rate and ``lr_scale`` an extra
    multiplier on it (useful to replicate a baseline whose un-normalized
    weights summed to something other than one). ``hp_decay`` scales the
    exponent regularizer; 0 turns it off. ``beta2`` and ``adam_eps``
    only matter for the AdamW steps.
    """

    alpha: float
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    hp_decay: float = 0.5
    init_epsilon: float = 0.1
    schedule: str = "constant"
    milestones: tuple[int, ...] = ()
    step_factor: float = 0.1
    total_steps: int = 5000
    lr_scale: float = 1.0
    grad_clip: float = 0.0
    adam_eps: float = 1e-8

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha!r}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1!r}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {self.beta2!r}")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if self.hp_decay < 0.0:
            raise ValueError("hp_decay must be >= 0")
        if not 0.0 < self.init_epsilon < math.inf:
            raise ValueError(f"init_epsilon must be finite and > 0, got {self.init_epsilon!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not self.lr_scale > 0.0:
            raise ValueError("lr_scale must be > 0")
        if self.grad_clip < 0.0:
            raise ValueError("grad_clip must be >= 0")
        object.__setattr__(self, "milestones", tuple(int(m) for m in self.milestones))

    @property
    def effective_alpha(self) -> float:
        return self.alpha * self.lr_scale


@dataclass
class ParamState:
    """Model parameter vector with its optimizer moment buffers."""

    w: np.ndarray
    m: np.ndarray
    v: np.ndarray  # second moment, used by the AdamW step only


@dataclass
class HPState:
    """Loss-weight exponents with their optimizer moment buffers.

    ``n`` is the first moment on the exponent gradient; its basic entry
    stays zero because no gradient ever flows to the frozen exponent.
    """

    mu: HPExponents
    n: np.ndarray
    v: np.ndarray


def init_param_state(w0) -> ParamState:
    w = np.asarray(w0, dtype=np.float64).copy()
    if not np.all(np.isfinite(w)):
        raise ValueError("initial parameters must be finite")
    return ParamState(w=w, m=np.zeros_like(w), v=np.zeros_like(w))


def init_hp_state(n_aux: int, epsilon: float) -> HPState:
    """Uniform start: every auxiliary exponent at log(epsilon), moments zero."""
    if n_aux < 1:
        raise ValueError("need at least one auxiliary loss term")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    mu = HPExponents.from_auxiliary(np.full(n_aux, math.log(epsilon)))
    return HPState(mu=mu, n=np.zeros(n_aux + 1), v=np.zeros(n_aux + 1))


def schedule_multiplier(t: int, config: OptimizerConfig) -> float:
    """Learning-rate multiplier at step t (1-based, within the step budget)."""
    if not 1 <= t <= config.total_steps:
        raise ValueError(f"step {t} outside [1, {config.total_steps}]")
    if config.schedule == "constant":
        return 1.0
    if config.schedule == "cosine":
        return 0.5 * (1.0 + math.cos(math.pi * t / config.total_steps))
    return config.step_factor ** sum(1 for m in config.milestones if t > m)


def _clipped(g: np.ndarray, limit: float) -> np.ndarray:
    """Scale each run's gradient down to norm ``limit`` when it is longer."""
    if limit <= 0.0:
        return g
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    return g * (limit / np.maximum(norm, limit))


def _momentum(m, v, g, lr: float, step: int, config: OptimizerConfig):
    """SGD momentum: the new first moment is the step itself; ``v`` is unused."""
    m = config.beta1 * m + lr * g
    return m, v, m


def _adam(m, v, g, lr: float, step: int, config: OptimizerConfig):
    """Adam moments with bias correction at ``step`` (1-based)."""
    b1, b2 = config.beta1, config.beta2
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** step)
    v_hat = v / (1.0 - b2 ** step)
    return m, v, lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)


def _advance(moments, state: tuple, g, h, lam, t: int, config: OptimizerConfig) -> tuple:
    """The state ``(w, m, v, mu, n, u)`` after one step of ``moments`` on each block, unchecked.

    ``lam`` are the weights of ``mu``, for the regularizer gradient. ``h``
    None steps the parameter block alone and passes the exponent block on.
    """
    w, m, v, mu, n, u = state
    lr = schedule_multiplier(t, config) * config.effective_alpha
    m, v, dw = moments(m, v, _clipped(g, config.grad_clip), lr, t, config)
    w_new = w - dw
    if config.weight_decay > 0.0:
        w_new = w_new - lr * config.weight_decay * w
    if h is None:
        return w_new, m, v, mu, n, u
    n, u, dmu = moments(n, u, _clipped(h, config.grad_clip), lr, t, config)
    mu_new = mu - dmu
    if config.hp_decay > 0.0:
        mu_new = mu_new - lr * config.hp_decay * _regularizer_gradient(lam, mu)
    return w_new, m, v, mu_new, n, u


def _step(moments, params: ParamState, hps: HPState, g, h, t: int, config: OptimizerConfig):
    """Check one step's gradients against the states, then take it with :func:`_advance`."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != params.w.shape:
        raise ValueError(f"parameter gradient shape {g.shape} != {params.w.shape}")
    mu = hps.mu.mu
    if h is not None:
        h = np.asarray(h, dtype=np.float64)
        if h.shape != mu.shape:
            raise ValueError(f"exponent gradient shape {h.shape} != {mu.shape}")
        if np.logical_or.reduce(h[..., BASIC_INDEX], axis=None):
            raise ValueError("gradient entry for the frozen basic exponent must be 0")
    state = (params.w, params.m, params.v, mu, hps.n, hps.v)
    lam = _softmax(mu) if h is not None and config.hp_decay > 0.0 else None  # read by the regularizer only
    w, m, v, mu, n, u = _advance(moments, state, g, h, lam, t, config)
    if h is None:
        return ParamState(w=w, m=m, v=v), hps
    return ParamState(w=w, m=m, v=v), HPState(mu=_trusted(HPExponents, mu=mu), n=n, v=u)


def sgdw_step(params: ParamState, hps: HPState, g, h, t: int, config: OptimizerConfig) -> tuple[ParamState, HPState]:
    """One joint SGDW-with-momentum update.

    With eta the schedule multiplier and a the effective learning rate:

        m  <- beta1 m + eta a g          n  <- beta1 n + eta a h
        w  <- w - m - eta a wd w         mu <- mu - n - eta a rho dR(mu)

    where dR(mu)_i = lam_i (mu_i - <lam, mu>) + sigmoid(mu_i) is the
    unit-strength regularizer gradient at the previous exponents (0 for
    i = 0) and rho = ``hp_decay``. States may carry a leading run
    axis, ``(R, P)`` and ``(R, K+1)``; every run then takes the same step.
    The new state is returned unchecked: the caller decides which runs
    diverged. ``h`` None freezes the exponents: only ``w`` and its
    moments step, and ``hps`` is returned as given.
    """
    return _step(_momentum, params, hps, g, h, t, config)


def adamw_step(params: ParamState, hps: HPState, g, h, t: int, config: OptimizerConfig) -> tuple[ParamState, HPState]:
    """One joint AdamW update with bias correction at step ``t`` on both moment pairs.

    Weight decay on ``w`` and the exponent regularizer on ``mu`` both
    enter decoupled from the adaptive part, each scaled by eta * alpha.
    Stacked states and ``h`` None are handled as in :func:`sgdw_step`.
    """
    return _step(_adam, params, hps, g, h, t, config)

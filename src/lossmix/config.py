"""Experiment configuration: flat ``key = value`` files plus overrides.

The file format is one assignment per line, ``#`` comments, blank lines
ignored. List values are comma-separated; grid axes are semicolon-
separated lists. Unknown keys are rejected so typos fail loudly.
Overrides are ``key=value`` strings applied after the file, last one
wins per key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .models import ToyModelSpec
from .optim import OptimizerConfig

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "build_config", "parse_config_text", "CONFIG_KEYS"]

MODES = ("learned", "fixed")
OPTIMIZER_KINDS = ("sgdw", "adamw")


class ConfigError(ValueError):
    """Bad config file, unknown key, or invalid value."""


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(v) for v in s.split(",") if v.strip())


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(",") if v.strip())


def _axes(s: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(part) for part in s.split(";") if part.strip())


# key -> parser; everything lands in one flat namespace
CONFIG_KEYS = {
    "model": str,
    "n_features": int,
    "hidden_units": int,
    "noise_std": float,
    "jitter_std": float,
    "harm_scale": float,
    "duplicate_term": int,
    "optimizer": str,
    "alpha": float,
    "beta1": float,
    "beta2": float,
    "weight_decay": float,
    "hp_decay": float,
    "init_epsilon": float,
    "adam_eps": float,
    "grad_clip": float,
    "schedule": str,
    "schedule_milestones": _ints,
    "schedule_factor": float,
    "total_steps": int,
    "lr_scale": float,
    "mode": str,
    "fixed_weights": _floats,
    "grid_axes": _axes,
    "seeds": _ints,
    "data_seed": int,
    "n_train": int,
    "n_val": int,
    "batch_size": int,
    "record_every": int,
    "out_dir": str,
    "epsilon_sweep": _floats,
    "cluster_threshold": float,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; nested specs are built by key."""

    model: ToyModelSpec = field(default_factory=ToyModelSpec)
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(alpha=0.05))
    optimizer_kind: str = "sgdw"
    mode: str = "learned"
    fixed_weights: tuple[float, ...] = ()
    grid_axes: tuple[tuple[float, ...], ...] = ()
    seeds: tuple[int, ...] = (0,)
    data_seed: int = 0
    n_train: int = 32
    n_val: int = 256
    batch_size: int = 8
    record_every: int = 100
    out_dir: str = "runs"
    epsilon_sweep: tuple[float, ...] = ()
    cluster_threshold: float = 0.05

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.optimizer_kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZER_KINDS}, got {self.optimizer_kind!r}")
        if self.mode == "fixed":
            if not self.fixed_weights:
                raise ConfigError("fixed mode requires fixed_weights")
            if any(w <= 0 for w in self.fixed_weights):
                raise ConfigError("fixed_weights must be strictly positive")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if self.n_train < 1 or self.n_val < 1:
            raise ConfigError("n_train and n_val must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if not self.cluster_threshold > 0:
            raise ConfigError("cluster_threshold must be > 0")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat key = value lines into a {key: parsed value} mapping."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_config(values: dict) -> ExperimentConfig:
    """Assemble the nested config objects from a flat mapping."""
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    try:
        model = ToyModelSpec(
            kind=values.get("model", ToyModelSpec.kind),
            n_features=values.get("n_features", ToyModelSpec.n_features),
            hidden_units=values.get("hidden_units", ToyModelSpec.hidden_units),
            noise_std=values.get("noise_std", ToyModelSpec.noise_std),
            jitter_std=values.get("jitter_std", ToyModelSpec.jitter_std),
            harm_scale=values.get("harm_scale", ToyModelSpec.harm_scale),
            duplicate_term=values.get("duplicate_term", ToyModelSpec.duplicate_term),
        )
        optimizer = OptimizerConfig(
            alpha=values.get("alpha", 0.05),
            beta1=values.get("beta1", 0.9),
            beta2=values.get("beta2", 0.999),
            weight_decay=values.get("weight_decay", 0.0),
            hp_decay=values.get("hp_decay", 0.5),
            init_epsilon=values.get("init_epsilon", 0.1),
            schedule=values.get("schedule", "constant"),
            milestones=values.get("schedule_milestones", ()),
            step_factor=values.get("schedule_factor", 0.1),
            total_steps=values.get("total_steps", 5000),
            lr_scale=values.get("lr_scale", 1.0),
            grad_clip=values.get("grad_clip", 0.0),
            adam_eps=values.get("adam_eps", 1e-8),
        )
        return ExperimentConfig(
            model=model,
            optimizer=optimizer,
            optimizer_kind=values.get("optimizer", "sgdw"),
            mode=values.get("mode", "learned"),
            fixed_weights=values.get("fixed_weights", ()),
            grid_axes=values.get("grid_axes", ()),
            seeds=values.get("seeds", (0,)),
            data_seed=values.get("data_seed", 0),
            n_train=values.get("n_train", 32),
            n_val=values.get("n_val", 256),
            batch_size=values.get("batch_size", 8),
            record_every=values.get("record_every", 100),
            out_dir=values.get("out_dir", "runs"),
            epsilon_sweep=values.get("epsilon_sweep", ()),
            cluster_threshold=values.get("cluster_threshold", 0.05),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def apply_overrides(values: dict, overrides) -> dict:
    """Apply key=value override strings on top of parsed values, last wins."""
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](val.strip())
        except ValueError as exc:
            raise ConfigError(f"bad override value for {key!r}: {exc}") from exc
    return out


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read a config file, apply overrides, and build the typed config."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = parse_config_text(text, source=str(path))
    values = apply_overrides(values, overrides)
    return build_config(values)


def with_epsilon(config: ExperimentConfig, epsilon: float) -> ExperimentConfig:
    return replace(config, optimizer=replace(config.optimizer, init_epsilon=epsilon))

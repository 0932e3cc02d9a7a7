"""Experiment configuration: flat ``key = value`` files plus overrides.

The file format is one assignment per line, ``#`` comments, blank lines
ignored. List values are comma-separated; grid axes are semicolon-
separated lists. An empty value is an empty list, and a blank entry in
a list (``0,,1`` or a trailing ``,``) is an error. Unknown keys are
rejected so typos fail loudly.
Overrides are ``key=value`` strings applied after the file, last one
wins per key.

Each key is stated once, as a field of ``ToyModelSpec``,
``OptimizerConfig`` or ``ExperimentConfig``: the field's name is the key
(``_RENAMED`` lists the four exceptions), its annotation picks the
parser and its default is the key's default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .models import ToyModelSpec
from .optim import OptimizerConfig

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "build_config", "parse_config_text", "CONFIG_KEYS"]

MODES = ("learned", "fixed")
OPTIMIZER_KINDS = ("sgdw", "adamw")


class ConfigError(ValueError):
    """Bad config file, unknown key, or invalid value."""


def _entries(s: str, sep: str) -> list[str]:
    """The ``sep``-separated entries of ``s``: none for an empty value, ``ValueError`` for a blank one."""
    entries = s.split(sep) if s.strip() else []
    if not all(entry.strip() for entry in entries):
        raise ValueError(f"blank entry in {s!r}")
    return entries


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _entries(s, ","))


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in _entries(s, ","))


def _axes(s: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(part) for part in _entries(s, ";"))


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
        if self.mode == "fixed" and not self.fixed_weights:
            raise ConfigError("fixed mode requires fixed_weights")
        if not all(self.grid_axes):
            raise ConfigError(f"grid_axes must not have an empty axis, got {self.grid_axes!r}")
        axes = [("grid_axes", axis) for axis in self.grid_axes]
        for name, values in [("fixed_weights", self.fixed_weights), ("epsilon_sweep", self.epsilon_sweep), *axes]:
            if not all(0.0 < v < math.inf for v in values):
                raise ConfigError(f"{name} must be finite and strictly positive, got {values!r}")
        if not sum(self.fixed_weights) < math.inf:
            raise ConfigError(f"fixed_weights sum to more than the largest float: {self.fixed_weights!r}")
        if not 1.0 + sum(max(axis, default=0.0) for axis in self.grid_axes) < math.inf:
            raise ConfigError(f"the largest grid point sums to more than the largest float: {self.grid_axes!r}")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds!r}")
        if min(self.seeds) < 0 or self.data_seed < 0:
            raise ConfigError(f"seeds and data_seed must be >= 0, got {self.seeds!r} and {self.data_seed!r}")
        if self.n_train < 1 or self.n_val < 1:
            raise ConfigError("n_train and n_val must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if not self.cluster_threshold > 0:
            raise ConfigError("cluster_threshold must be > 0")


# field annotation -> parser of a key's text value
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _ints,
    "tuple[float, ...]": _floats,
    "tuple[tuple[float, ...], ...]": _axes,
}
# config key -> the field it sets, where the two names differ
_RENAMED = {
    "model": "kind",
    "optimizer": "optimizer_kind",
    "schedule_milestones": "milestones",
    "schedule_factor": "step_factor",
}
# ExperimentConfig's nested fields, and the dataclass each holds; None is ExperimentConfig itself
_SECTIONS = {"model": ToyModelSpec, "optimizer": OptimizerConfig, None: ExperimentConfig}


def _key_tables() -> tuple[dict, dict]:
    """Per config key, its parser and the (section, field name) it sets."""
    key_of = {name: key for key, name in _RENAMED.items()}
    parsers, targets = {}, {}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            if cls is ExperimentConfig and f.name in _SECTIONS:
                continue  # a nested spec: its own fields are the keys
            key = key_of.get(f.name, f.name)
            parsers[key] = _PARSERS[f.type]
            targets[key] = (section, f.name)
    return parsers, targets


# key -> parser; everything lands in one flat namespace
CONFIG_KEYS, _TARGETS = _key_tables()


def _parse(assignment: str, where: str = "", what: str = "") -> tuple:
    """``(key, parsed value)`` of one ``key = value``; ``where`` and ``what`` place it in error messages."""
    key, _, text = assignment.partition("=")
    key = key.strip()
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}unknown {what}key {key!r}")
    try:
        return key, CONFIG_KEYS[key](text.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}bad {what}value for {key!r}: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat key = value lines into a {key: parsed value} mapping."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = _parse(line, where=f"{source}:{lineno}: ")
        values[key] = value
    return values


def build_config(values: dict) -> ExperimentConfig:
    """Set the given keys on the default config; every other field keeps its dataclass default."""
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    changes: dict = {section: {} for section in _SECTIONS}
    for key, value in values.items():
        section, name = _TARGETS[key]
        changes[section][name] = value
    base = ExperimentConfig()
    try:
        return replace(
            base,
            model=replace(base.model, **changes["model"]),
            optimizer=replace(base.optimizer, **changes["optimizer"]),
            **changes[None],
        )
    except ValueError as exc:  # a nested spec's check; ConfigError is a ValueError too
        raise ConfigError(str(exc)) from exc


def apply_overrides(values: dict, overrides) -> dict:
    """Apply key=value override strings on top of parsed values, last wins."""
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = _parse(item, what="override ")
        out[key] = value
    return out


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read a config file (``OSError`` if unreadable), apply overrides, and build the typed config."""
    path = Path(path)
    values = parse_config_text(path.read_text(), source=str(path))
    values = apply_overrides(values, overrides)
    return build_config(values)


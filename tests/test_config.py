"""Tests for the flat config-file parser and overrides."""

import dataclasses

import pytest

from lossmix.config import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    build_config,
    load_config,
    parse_config_text,
)
from lossmix.models import ToyModelSpec
from lossmix.optim import OptimizerConfig

FULL = """
# demo experiment
model = multiloss_linear_regression
n_features = 16
noise_std = 0.5
jitter_std = 0.5
harm_scale = 16.0
optimizer = sgdw
alpha = 0.05            # learning rate
beta1 = 0.9
hp_decay = 1.0
init_epsilon = 0.1
schedule = constant
total_steps = 3000
mode = learned
grid_axes = 0.1,0.3,1.0 ; 0.1,0.3,1.0
seeds = 0,1,2
data_seed = 7
n_train = 32
n_val = 512
batch_size = 8
record_every = 100
out_dir = runs
epsilon_sweep = 0.001,0.01,0.1,1,10
cluster_threshold = 0.05
"""


class TestParsing:
    def test_full_file(self):
        values = parse_config_text(FULL)
        assert values["alpha"] == 0.05
        assert values["seeds"] == (0, 1, 2)
        assert values["grid_axes"] == ((0.1, 0.3, 1.0), (0.1, 0.3, 1.0))
        assert values["epsilon_sweep"] == (0.001, 0.01, 0.1, 1.0, 10.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rate = 0.1")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("alpha = 0.1\ntotal_steps = soon")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("alpha 0.1")

    @pytest.mark.parametrize(
        "line", ["seeds = 0,,1", "grid_axes = 0.1;;0.3", "epsilon_sweep = 0.1,1,", "grid_axes = 0.1; ,"],
        ids=["doubled-comma", "doubled-semicolon", "trailing-comma", "blank-axis"],
    )
    def test_blank_entry_reports_key_and_line(self, line):
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=f"^<config>:2: bad value for '{key}': blank entry"):
            parse_config_text("alpha = 0.1\n" + line)

    def test_empty_value_is_an_empty_list(self):
        assert parse_config_text("seeds =\ngrid_axes = \nepsilon_sweep =") == {
            "seeds": (), "grid_axes": (), "epsilon_sweep": ()
        }


class TestBuild:
    def test_round_trip_nested_objects(self):
        cfg = build_config(parse_config_text(FULL))
        assert cfg.model.kind == "multiloss_linear_regression"
        assert cfg.model.harm_scale == 16.0
        assert cfg.optimizer.alpha == 0.05
        assert cfg.optimizer.schedule == "constant"
        assert cfg.mode == "learned"
        assert cfg.seeds == (0, 1, 2)

    def test_defaults_from_empty(self):
        cfg = build_config({})
        assert cfg.mode == "learned"
        assert cfg.optimizer_kind == "sgdw"
        assert cfg.batch_size == 8

    def test_fixed_mode_requires_weights(self):
        with pytest.raises(ConfigError, match="fixed_weights"):
            build_config({"mode": "fixed"})

    def test_invalid_nested_value_becomes_config_error(self):
        with pytest.raises(ConfigError):
            build_config({"alpha": -1.0})

    @pytest.mark.parametrize(
        "values",
        [
            {"mode": "fixed", "fixed_weights": (1.0, float("nan"), 1.0)},
            {"fixed_weights": (1.0, float("inf"))},
            {"fixed_weights": (1e308, 1e308)},
            {"grid_axes": ((0.1, float("nan")), (1.0,))},
            {"grid_axes": ((0.1,), (float("inf"),))},
            {"grid_axes": ((0.1,), (0.0,))},
            {"seeds": (0, -1)},
            {"seeds": (0, 1, 0)},
            {"data_seed": -1},
            {"epsilon_sweep": (0.1, -1.0)},
            {"epsilon_sweep": (0.1, float("nan"))},
            {"init_epsilon": float("inf")},
            {"grid_axes": ((1.0, 1e308), (1e308,))},
            {"hp_decay": float("nan")},
            {"weight_decay": float("nan")},
            {"adam_eps": 0.0},
            {"adam_eps": -1.0},
            {"schedule_factor": -1.0},
            {"alpha": float("inf")},
            {"grad_clip": float("nan")},
            {"grad_clip": float("inf")},
            {"noise_std": float("nan")},
            {"jitter_std": float("nan")},
            {"harm_scale": float("inf")},
        ],
        ids=["fixed-nan", "fixed-inf", "fixed-sum-overflow", "grid-nan", "grid-inf", "grid-zero",
             "negative-seed", "duplicate-seeds", "negative-data-seed", "negative-epsilon", "nan-epsilon", "inf-init-epsilon",
             "grid-sum-overflow", "nan-hp-decay", "nan-weight-decay", "zero-adam-eps", "negative-adam-eps",
             "negative-schedule-factor", "inf-alpha", "nan-grad-clip", "inf-grad-clip", "nan-noise-std",
             "nan-jitter-std", "inf-harm-scale"],
    )
    def test_bad_value_is_config_error(self, values):
        with pytest.raises(ConfigError):
            build_config(values)

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            build_config({"mode": "auto"})


class TestOverrides:
    def test_apply_and_last_wins(self):
        values = apply_overrides({"alpha": 0.05}, ["alpha=0.1", "alpha=0.2", "seeds=5,6"])
        assert values["alpha"] == 0.2
        assert values["seeds"] == (5, 6)

    def test_unknown_override(self):
        with pytest.raises(ConfigError, match="unknown override"):
            apply_overrides({}, ["bogus=1"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["alpha"])

    def test_bad_override_value(self):
        with pytest.raises(ConfigError, match="bad override"):
            apply_overrides({}, ["total_steps=many"])


class TestLoad:
    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(FULL)
        cfg = load_config(path, ["seeds=9", "alpha=0.01"])
        assert cfg.seeds == (9,)
        assert cfg.optimizer.alpha == 0.01

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.cfg")

    def test_empty_grid_axis_rejected(self, tmp_path):
        """An axis with no values would make an empty grid; the config refuses it, for every command."""
        path = tmp_path / "exp.cfg"
        path.write_text(FULL)
        with pytest.raises(ConfigError, match="bad override value for 'grid_axes': blank entry"):
            load_config(path, ["grid_axes=0.1; ,"])  # text cannot spell an empty axis
        with pytest.raises(ConfigError, match="grid_axes must not have an empty axis"):
            build_config({"grid_axes": ((0.1,), ())})


# config key -> the field it sets, where the names differ
RENAMED = {
    "model": "kind",
    "optimizer": "optimizer_kind",
    "schedule_milestones": "milestones",
    "schedule_factor": "step_factor",
}

# one valid non-default text per key, and the value it must parse to
NON_DEFAULT = {
    "model": ("tiny_mlp_consistency", "tiny_mlp_consistency"),
    "n_features": ("5", 5),
    "hidden_units": ("7", 7),
    "noise_std": ("0.25", 0.25),
    "jitter_std": ("0.75", 0.75),
    "harm_scale": ("2", 2.0),
    "duplicate_term": ("2", 2),
    "optimizer": ("adamw", "adamw"),
    "alpha": ("0.2", 0.2),
    "beta1": ("0.5", 0.5),
    "beta2": ("0.99", 0.99),
    "weight_decay": ("0.01", 0.01),
    "hp_decay": ("2", 2.0),
    "init_epsilon": ("0.3", 0.3),
    "adam_eps": ("1e-6", 1e-6),
    "grad_clip": ("1.5", 1.5),
    "schedule": ("step", "step"),
    "schedule_milestones": ("10, 20", (10, 20)),
    "schedule_factor": ("0.5", 0.5),
    "total_steps": ("7", 7),
    "mode": ("fixed", "fixed"),
    "fixed_weights": ("1,2,3", (1.0, 2.0, 3.0)),
    "grid_axes": ("0.1,1 ; 0.5", ((0.1, 1.0), (0.5,))),
    "seeds": ("3,4", (3, 4)),
    "data_seed": ("11", 11),
    "n_train": ("40", 40),
    "n_val": ("50", 50),
    "batch_size": ("4", 4),
    "record_every": ("10", 10),
    "out_dir": ("elsewhere", "elsewhere"),
    "epsilon_sweep": ("0.01,0.1", (0.01, 0.1)),
    "cluster_threshold": ("0.2", 0.2),
}
# keys that are only valid together with another
NEEDS = {"mode": {"fixed_weights": (1.0, 2.0, 3.0)}}


def _flat_fields(cfg: ExperimentConfig) -> dict:
    """(section, field name) -> value over the three dataclasses; section None is ExperimentConfig."""
    flat = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            flat.update({(f.name, g.name): getattr(value, g.name) for g in dataclasses.fields(value)})
        else:
            flat[(None, f.name)] = value
    return flat


_KEY_OF = {name: key for key, name in RENAMED.items()}
# config key -> (section, field name), read off the dataclasses
TARGETS = {_KEY_OF.get(name, name): (section, name) for section, name in _flat_fields(ExperimentConfig())}


class TestKeyTable:
    def test_keys_are_the_dataclass_fields(self):
        assert set(CONFIG_KEYS) == set(TARGETS) == set(NON_DEFAULT)
        assert len(TARGETS) == len(_flat_fields(ExperimentConfig()))

    def test_defaults_are_the_dataclass_defaults(self):
        assert build_config({}) == ExperimentConfig()

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_key_parses_and_sets_its_field_only(self, key):
        text, value = NON_DEFAULT[key]
        parsed = parse_config_text(f"{key} = {text}")[key]
        assert repr(parsed) == repr(value)  # the parser matches the field's type
        base = NEEDS.get(key, {})
        before = _flat_fields(build_config(base))
        after = _flat_fields(build_config({**base, key: parsed}))
        assert {k for k in before if before[k] != after[k]} == {TARGETS[key]}
        assert repr(after[TARGETS[key]]) == repr(value)

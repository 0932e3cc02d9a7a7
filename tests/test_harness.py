"""Tests for the experiment harness: runs, grids, studies, export."""

import csv
import importlib.util
import io
import json
import math
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lossmix.cli
from lossmix import harness, losses, models, optim
from lossmix.config import ConfigError, ExperimentConfig, load_config
from lossmix.harness import (
    GridPointResult,
    GridSearchResult,
    RunResult,
    SeedStudyReport,
    TrajectoryRecord,
    _faults,
    _score,
    _train_stack,
    export_results,
    import_results,
    grid_summary,
    normalize_weights,
    read_rows,
    run_grid_search,
    run_init_sweep,
    run_seed_study,
    run_training,
    seed_study_summary,
    trajectory_columns,
)
from lossmix.models import (
    MLP_KIND,
    ConsistencyMLPModel,
    DuplicatedTermModel,
    LinearMultiLossModel,
    ToyModelSpec,
)
from lossmix.optim import OptimizerConfig


def small_config(**kw):
    """Fast linear-task config for harness plumbing tests."""
    defaults = dict(
        model=ToyModelSpec(kind="multiloss_linear_regression", n_features=8, noise_std=0.5,
                           jitter_std=0.5, harm_scale=4.0),
        optimizer=OptimizerConfig(alpha=0.05, beta1=0.9, hp_decay=1.0, init_epsilon=0.1,
                                  schedule="constant", total_steps=300),
        seeds=(0, 1),
        data_seed=7,
        n_train=24,
        n_val=64,
        batch_size=8,
        record_every=50,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def assert_same_records(a, b):
    """Equal record lists, field by field and bitwise."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        for f in fields(TrajectoryRecord):
            assert np.array_equal(getattr(ra, f.name), getattr(rb, f.name)), f.name


def stdlib_text(rows, fmt):
    """What ``csv.writer`` or ``json.dump(..., indent=2)`` writes for trajectory ``rows``: the writer's oracle."""
    columns = trajectory_columns((rows.shape[1] - 4) // 3)
    table = [[int(row[0])] + row[1:].tolist() for row in rows]
    fh = io.StringIO(newline="")
    if fmt == "csv":
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(table)
    else:
        json.dump([dict(zip(columns, values)) for values in table], fh, indent=2)
    return fh.getvalue()


def file_text(path):
    with Path(path).open(newline="") as fh:
        return fh.read()


def same_values(a, b):
    """Equal shapes and values, NaN matching NaN, and the same sign on every number."""
    numbers = ~np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a[numbers]), np.signbit(b[numbers]))
    )


def same_run(a, b):
    """Bitwise the same trajectory, divergence step and reason."""
    return (
        np.array_equal(a.rows, b.rows)
        and (a.diverged, a.diverged_step, a.diverged_reason) == (b.diverged, b.diverged_step, b.diverged_reason)
    )


# the two model kinds at small sizes, for tests that hold for both
SMALL_SPECS = (small_config().model, ToyModelSpec(kind=MLP_KIND, n_features=6, hidden_units=5))


class TestRunTraining:
    def test_learned_run_trains_and_records(self):
        result = run_training(small_config(), 0)
        assert not result.diverged
        ts = [rec.t for rec in result.trajectory]
        assert ts == [50, 100, 150, 200, 250, 300]
        assert result.final_val < 1.0  # initial val is ~1.3 on this task
        assert result.wall_time > 0.0

    def test_trajectory_validity(self):
        result = run_training(small_config(), 0)
        for rec in result.trajectory:
            assert rec.mu[0] == 0.0
            assert abs(rec.lam.sum() - 1.0) <= 1e-12
            # recorded weights are exactly the softmax of recorded exponents
            e = np.exp(rec.mu - rec.mu.max())
            np.testing.assert_allclose(rec.lam, e / e.sum(), atol=1e-12)

    def test_composite_column_is_composite_loss(self):
        rows = run_training(small_config(), 0).rows
        columns = trajectory_columns(3)
        lam = rows[:, [columns.index(f"lambda_{i}") for i in range(3)]]
        l = rows[:, [columns.index(f"l_{i}") for i in range(3)]]
        recomputed = losses.composite_loss(losses.LossWeights(lam), losses.LossVector(l))
        assert np.array_equal(recomputed, rows[:, columns.index("L_e")])

    def test_fixed_mode_weights_never_move(self):
        cfg = small_config(mode="fixed", fixed_weights=(1.0, 0.25, 0.1))
        result = run_training(cfg, 0)
        expected = normalize_weights((1.0, 0.25, 0.1))
        for rec in result.trajectory:
            np.testing.assert_allclose(rec.lam, expected, atol=1e-12)
            assert rec.regularizer == 0.0
        mus = np.array([rec.mu for rec in result.trajectory])
        assert np.all(mus == mus[0])

    def test_fixed_mode_weight_arity_checked(self):
        cfg = small_config(mode="fixed", fixed_weights=(1.0, 0.5))
        with pytest.raises(ConfigError):
            run_training(cfg, 0)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            run_training(small_config(), -1)

    def test_nearly_basic_only_baseline(self):
        cfg = small_config(mode="fixed", fixed_weights=(0.998, 0.001, 0.001))
        result = run_training(cfg, 0)
        assert not result.diverged
        assert result.final_val < 1.0

    def test_weights_computed_once_per_step(self, monkeypatch):
        calls = []
        softmax = harness._softmax
        monkeypatch.setattr(harness, "_softmax", lambda m: calls.append(1) or softmax(m))
        steps = 120
        run_training(small_config(optimizer=replace(small_config().optimizer, total_steps=steps)), 0)
        assert len(calls) == steps + 1  # the start, then once per update

    def test_bitwise_reproducible(self):
        cfg = small_config()
        a = run_training(cfg, 3)
        b = run_training(cfg, 3)
        assert np.array_equal(a.rows, b.rows)

    def test_seeds_differ(self):
        cfg = small_config()
        a = run_training(cfg, 0)
        b = run_training(cfg, 1)
        assert not np.array_equal(a.rows, b.rows)

    def test_divergence_flagged_with_partial_trajectory(self):
        cfg = small_config(
            optimizer=OptimizerConfig(alpha=1e12, beta1=0.9, hp_decay=1.0, total_steps=300)
        )
        result = run_training(cfg, 0)
        assert result.diverged
        assert result.diverged_step is not None
        assert result.diverged_reason == "exponent left the representable range"
        assert len(result.trajectory) < 6

    def test_best_val_tracked(self):
        result = run_training(small_config(), 0)
        vals = [rec.val_basic_loss for rec in result.trajectory]
        assert result.best_val == min(vals)
        assert result.best_val_step in [rec.t for rec in result.trajectory]

    def test_best_val_takes_the_first_tied_minimum(self):
        def run(vals):
            rows = np.zeros((len(vals), 10))
            rows[:, 0] = 10 * np.arange(1, len(vals) + 1)
            rows[:, -1] = vals
            return RunResult(0, "learned", None, np.zeros(3), rows, False, None, None, 0.0)

        tied = run([0.5, 0.2, 0.3, 0.2])
        assert (tied.best_val, tied.best_val_step) == (0.2, 20)
        assert tied.final_val == 0.2 and tied.final.t == 40
        skips_non_finite = run([np.nan, np.inf, 0.4])
        assert (skips_non_finite.best_val, skips_non_finite.best_val_step) == (0.4, 30)
        for none in (run([]), run([np.inf, np.nan])):
            assert (none.best_val, none.best_val_step) == (math.inf, 0)
        assert run([]).final is None and run([]).final_val == math.inf


def counted(monkeypatch, cls, name, calls=None):
    """The list (``calls``, or a new one) that gets ``name`` once per call of ``cls.name`` for the rest of the test."""
    calls = [] if calls is None else calls
    method = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: calls.append(name) or method(self, *args))
    return calls


# a model spec, and the classes whose methods a run of it calls (the wrapper first, then its base)
MODEL_CASES = pytest.mark.parametrize(
    "spec, classes",
    [
        (small_config().model, (LinearMultiLossModel,)),
        (ToyModelSpec(kind=MLP_KIND, n_features=4, hidden_units=5), (ConsistencyMLPModel,)),
        (replace(small_config().model, duplicate_term=1), (DuplicatedTermModel, LinearMultiLossModel)),
    ],
    ids=["linear", "mlp", "linear-dup"],
)


class TestModelCalls:
    """The engine evaluates the model once per step, and only the basic loss at each record step."""

    STEPS = 120  # records at steps 50, 100 and 120

    def config(self, spec):
        return small_config(model=spec, optimizer=replace(small_config().optimizer, total_steps=self.STEPS))

    @MODEL_CASES
    def test_one_fused_evaluation_per_step(self, monkeypatch, spec, classes):
        fused = [counted(monkeypatch, cls, "losses_and_gradient") for cls in classes]
        halves = [counted(monkeypatch, cls, name) for cls in classes for name in ("losses", "param_gradient")]
        result = run_training(self.config(spec), 0)
        assert not result.diverged
        assert [len(calls) for calls in fused] == [self.STEPS] * len(classes)
        assert not any(halves)

    @MODEL_CASES
    def test_basic_loss_once_per_record_step(self, monkeypatch, spec, classes):
        basic = counted(monkeypatch, classes[0], "basic_loss")
        result = run_training(self.config(spec), 0)
        assert len(basic) == len(result.rows) == 3
        report = run_seed_study(replace(self.config(spec), seeds=(0, 1, 2)))  # one call serves the whole stack
        assert len(basic) == 6 and all(len(r.rows) == 3 for r in report.runs)

    def test_validation_scored_after_the_last_step(self, monkeypatch):
        """A 300-step MLP study scores its 30 records after its last step: no validation product runs between steps."""
        calls = []
        for name in ("losses_and_gradient", "basic_loss"):
            counted(monkeypatch, ConsistencyMLPModel, name, calls)
        optimizer = OptimizerConfig(alpha=0.01, hp_decay=1.0, init_epsilon=0.1, total_steps=300)
        cfg = small_config(model=SMALL_SPECS[1], optimizer_kind="adamw", optimizer=optimizer, seeds=(0, 1, 2),
                           record_every=10)
        report = run_seed_study(cfg)
        assert all(not run.diverged and len(run.rows) == 30 for run in report.runs)
        assert calls == ["losses_and_gradient"] * 300 + ["basic_loss"] * 30


class TestGridSearch:
    def test_one_point_grid_equals_fixed_run(self):
        cfg = small_config(grid_axes=((0.25,), (0.1,)), seeds=(0,))
        grid = run_grid_search(cfg)
        fixed = run_training(replace(cfg, mode="fixed", fixed_weights=(1.0, 0.25, 0.1)), 0)
        assert len(grid.points) == 1
        assert np.array_equal(grid.points[0].runs[0].rows, fixed.rows)

    def test_normalization_conformance(self):
        cfg = small_config(grid_axes=((0.25, 1.0), (0.1,)), seeds=(0,))
        grid = run_grid_search(cfg)
        for point in grid.points:
            raw = np.asarray(point.raw_point)
            np.testing.assert_allclose(point.lam, raw / raw.sum(), atol=1e-12)
            for run in point.runs:
                np.testing.assert_allclose(run.trajectory[0].lam, raw / raw.sum(), atol=1e-12)

    def test_fixed_weights_are_the_trained_weights(self):
        # at the demo axes, normalize_weights(raw) and the softmax the engine trains on differ in the last digit
        cfg = small_config(grid_axes=((0.1, 0.3, 1.0), (0.1, 0.3, 1.0)), seeds=(0, 1))
        lam_columns = [trajectory_columns(3).index(f"lambda_{i}") for i in range(3)]
        for point in run_grid_search(cfg).points:
            for run in point.runs:
                assert len(run.rows) and (run.rows[:, lam_columns] == run.fixed_weights).all()

    def test_point_weights_are_its_runs_weights(self):
        cfg = small_config(grid_axes=((0.1, 0.3, 1.0), (0.1, 0.3, 1.0)), seeds=(0, 1))
        for point in run_grid_search(cfg).points:
            for run in point.runs:
                assert np.array_equal(point.lam, run.fixed_weights)
                assert np.array_equal(point.lam, run.final.lam)

    def test_best_point_selected_by_mean_val(self):
        cfg = small_config(grid_axes=((0.1, 1.0), (0.1,)), seeds=(0, 1))
        grid = run_grid_search(cfg)
        means = [p.mean_val for p in grid.points]
        assert grid.best_index == int(np.argmin(means))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_grid_search(small_config())


class TestNormalizeWeights:
    def test_sum_overflow_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="largest float"):
                normalize_weights([1.0, 1e308, 1e308])

    def test_sum_at_the_largest_float_still_normalizes(self):
        big = np.finfo(np.float64).max / 2
        np.testing.assert_array_equal(normalize_weights([big, big]), [0.5, 0.5])


class TestStackedEngine:
    """Drivers train all their runs in one stack; each row must behave as a lone run."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"mode": "fixed", "fixed_weights": (1.0, 0.25, 0.1)},
            {
                "model": ToyModelSpec(kind="tiny_mlp_consistency", n_features=6, hidden_units=5),
                "optimizer_kind": "adamw",
                "optimizer": OptimizerConfig(alpha=0.01, hp_decay=1.0, init_epsilon=0.1, total_steps=300),
            },
        ],
        ids=["linear-sgdw-learned", "linear-fixed", "mlp-adamw-learned"],
    )
    def test_stack_matches_single_runs(self, overrides):
        cfg = small_config(**overrides)
        seeds = (0, 1, 5)
        stacked = run_seed_study(replace(cfg, seeds=seeds)).runs
        for run, seed in zip(stacked, seeds):
            alone = run_training(cfg, seed)
            assert not run.diverged and not alone.diverged
            assert same_run(run, alone)

    def test_ragged_last_batch_matches_single_runs(self):
        cfg = small_config(n_train=30, batch_size=8)  # epochs of 8, 8, 8, 6
        stacked = run_seed_study(replace(cfg, seeds=(0, 1))).runs
        for run in stacked:
            assert same_run(run, run_training(cfg, run.seed))

    @pytest.mark.parametrize("starts", [(0.1,), (0.1, 1.0, 0.01)], ids=["one-start", "three-starts"])
    def test_one_list_of_runs_per_start_in_seed_order(self, monkeypatch, starts):
        """Every start runs on every seed; each start's exponents are computed once, not once per run."""
        calls = []
        start = harness._start
        monkeypatch.setattr(harness, "_start", lambda *args: calls.append(1) or start(*args))
        cfg = small_config(seeds=(4, 0, 2), optimizer=replace(small_config().optimizer, total_steps=20))
        stack = _train_stack(cfg, starts)
        assert len(stack) == len(calls) == len(starts)
        for runs, eps in zip(stack, starts):
            assert [run.seed for run in runs] == [4, 0, 2]
            for run, seed in zip(runs, cfg.seeds):
                assert np.array_equal(run.initial_mu, [0.0, math.log(eps), math.log(eps)])
                alone = run_training(replace(cfg, optimizer=replace(cfg.optimizer, init_epsilon=eps)), seed)
                assert same_run(run, alone)

    def test_diverging_demo_grid_rows_match_single_runs(self):
        """Rows of a shared-seed stack diverge one by one and the rest go on, each as it would alone."""
        overrides = ["alpha=1.0", "record_every=10", "total_steps=500"]
        cfg = load_config(Path(__file__).parents[1] / "configs" / "demo.cfg", overrides)
        grid = run_grid_search(cfg)
        steps = [run.diverged_step for point in grid.points for run in point.runs if run.diverged]
        assert 0 < len(steps) < 27 and len(set(steps)) > 1  # several divergences at different steps
        for point in grid.points:
            alone = replace(cfg, mode="fixed", fixed_weights=point.raw_point)
            for run in point.runs:
                assert same_run(run, run_training(alone, run.seed))

    def test_shared_seeds_share_one_generator_and_one_batch(self, monkeypatch):
        """A 9-point x 3-seed grid draws 3 initial parameter vectors and gathers (3, ...) batches to its last step.

        The demo grid at alpha 1 has rows that diverge; the stack keeps its layout all the same. An init
        sweep's epsilons share its one seed's draw and batch.
        """
        inits = counted(monkeypatch, LinearMultiLossModel, "init_params")
        shapes = []
        fused = LinearMultiLossModel.losses_and_gradient

        def record(self, w, batch, lam):
            shapes.append((w.shape, batch.inputs.shape))
            return fused(self, w, batch, lam)

        monkeypatch.setattr(LinearMultiLossModel, "losses_and_gradient", record)
        axes = ((0.1, 0.3, 1.0), (0.1, 0.3, 1.0))
        demo = Path(__file__).parents[1] / "configs" / "demo.cfg"
        diverging = load_config(demo, ["alpha=1.0", "record_every=10", "total_steps=500"])
        for cfg in (small_config(grid_axes=axes, seeds=(0, 1, 2)), diverging):
            inits.clear()
            shapes.clear()
            grid = run_grid_search(cfg)
            d = cfg.model.n_features
            assert len(inits) == 3
            assert set(shapes) == {((9, 3, d), (3, 3, 8, d))} and len(shapes) == cfg.optimizer.total_steps
        assert any(run.diverged for point in grid.points for run in point.runs)
        inits.clear()
        shapes.clear()
        cfg = small_config(epsilon_sweep=(0.001, 0.1, 1.0, 10.0), seeds=(3, 5))
        run_init_sweep(cfg)  # 4 epsilons on the first seed: one draw, batches of one seed
        assert len(inits) == 1
        assert set(shapes) == {((4, 1, 8), (1, 3, 8, 8))} and len(shapes) == cfg.optimizer.total_steps
        inits.clear()
        shapes.clear()
        run_seed_study(small_config(seeds=(0, 1, 2, 3)))  # a seed study shares nothing: one row per seed
        assert len(inits) == 4
        assert set(shapes) == {((4, 8), (4, 3, 8, 8))}

    def test_stopped_rows_that_fault_again_keep_their_first_stop(self, monkeypatch):
        """A learned row restarts from zeros when it stops and may fault again; the run keeps its first stop."""
        found = []
        check = harness._faults
        monkeypatch.setattr(harness, "_faults", lambda *args: found.append(check(*args)) or found[-1])
        demo = Path(__file__).parents[1] / "configs" / "demo.cfg"
        cfg = load_config(demo, ["alpha=2.0", "total_steps=3000", "record_every=10"])
        runs = run_seed_study(cfg).runs
        assert sorted(run.diverged_step for run in runs) == [29, 699, 775]
        row_faults = sum(fault is not None for faults in found if faults for fault in faults)
        assert row_faults > len(runs)  # some stopped rows fault again after their restart
        for run in runs:
            assert run.rows.shape[0] == (run.diverged_step - 1) // 10
            assert same_run(run, run_training(cfg, run.seed))

    def test_diverging_row_leaves_the_others_bitwise_unchanged(self):
        # a raw weight of 1e305 puts its exponent past MU_LIMIT, so those runs diverge at
        # step 1; their rows stay in the stack and restart from zeros, unread
        with_bad = run_grid_search(small_config(grid_axes=((1e305, 0.25), (0.1,)), seeds=(0, 1)))
        without = run_grid_search(small_config(grid_axes=((0.25,), (0.1,)), seeds=(0, 1)))
        for run in with_bad.points[0].runs:
            assert run.diverged and run.diverged_step == 1
            assert run.diverged_reason == "exponent left the representable range"
            assert run.trajectory == []
        for a, b in zip(with_bad.points[1].runs, without.points[0].runs):
            assert not a.diverged
            assert np.array_equal(a.rows, b.rows)
        assert with_bad.best_index == 1

    def test_all_rows_diverged(self):
        cfg = small_config(
            optimizer=OptimizerConfig(alpha=1e12, beta1=0.9, hp_decay=1.0, total_steps=300)
        )
        report = run_seed_study(replace(cfg, seeds=(0, 1)))
        assert all(run.diverged for run in report.runs)
        assert report.final_mu.shape == (0, 3)
        assert math.isnan(report.val_mean)
        grid = run_grid_search(replace(cfg, grid_axes=((0.25, 1.0), (0.1,))))
        assert grid.best_index is None and grid.best_point is None


    def test_init_sweep_rows_match_learned_runs(self):
        for spec in SMALL_SPECS:
            cfg = small_config(model=spec, epsilon_sweep=(0.001, 0.1, 1.0, 10.0), seeds=(3,))
            report = run_init_sweep(cfg)
            for eps, run in zip(cfg.epsilon_sweep, report.runs):
                alone = run_training(replace(cfg, optimizer=replace(cfg.optimizer, init_epsilon=eps)), 3)
                assert run.seed == 3 and run.mode == "learned"
                assert same_run(run, alone)

    def test_grid_rows_match_fixed_runs(self):
        for spec in SMALL_SPECS:
            cfg = small_config(model=spec, grid_axes=((0.1, 1.0, 3.0), (0.25, 2.0)), seeds=(0, 1, 4))
            grid = run_grid_search(cfg)
            assert len(grid.points) == 6
            for point in grid.points:
                alone = replace(cfg, mode="fixed", fixed_weights=point.raw_point)
                for run, seed in zip(point.runs, cfg.seeds):
                    single = run_training(alone, seed)
                    assert run.seed == seed and run.mode == "fixed"
                    assert np.array_equal(run.fixed_weights, single.fixed_weights)
                    assert same_run(run, single)


class TestValidationBlocks:
    """Record steps hold their parameters back and score them in bursts of at most ``VAL_BLOCK`` floats.

    A burst makes, per record, the call its record step would have made, so every row is bitwise
    what ``VAL_BLOCK = 1`` gives, which scores each record at its own step.
    """

    DEMO = Path(__file__).parents[1] / "configs" / "demo.cfg"

    @staticmethod
    def scored(monkeypatch, budget, train):
        """What ``train()`` returns under ``VAL_BLOCK = budget``, and the floats held back at each burst."""
        bursts = []
        monkeypatch.setattr(harness, "VAL_BLOCK", budget)
        monkeypatch.setattr(
            harness, "_score", lambda model, val, pending, rows: bursts.append(sum(w.size for w in pending))
            or _score(model, val, pending, rows)
        )
        return train(), bursts

    @pytest.mark.parametrize("mode", ["learned", "fixed"])
    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=["linear", "mlp"])
    def test_blocks_match_scoring_at_every_record(self, monkeypatch, spec, mode):
        cfg = small_config(model=spec, mode=mode, fixed_weights=(1.0, 0.25, 0.1), seeds=(0, 1, 2), record_every=1,
                           optimizer=replace(small_config().optimizer, total_steps=30))
        per_record = 3 * models.build_model(spec).n_params  # floats one record holds back
        blocked, bursts = self.scored(monkeypatch, 4 * per_record, lambda: run_seed_study(cfg).runs)
        each, singles = self.scored(monkeypatch, 1, lambda: run_seed_study(cfg).runs)
        for a, b in zip(blocked, each):
            assert not a.diverged and len(a.rows) == 30
            assert same_run(a, b)
        assert bursts == [4 * per_record] * 7 + [2 * per_record]  # the last two records after the loop
        assert singles == [per_record] * 30 + [0]  # a budget smaller than a record scores it at once

    def test_runs_that_stop_mid_block(self, monkeypatch):
        cfg = load_config(self.DEMO, ["alpha=1.0", "record_every=1", "total_steps=500"])
        per_record = 27 * cfg.model.n_features
        blocked, bursts = self.scored(monkeypatch, 5 * per_record, lambda: run_grid_search(cfg))
        each, _ = self.scored(monkeypatch, 1, lambda: run_grid_search(cfg))
        runs = [run for point in blocked.points for run in point.runs]
        assert max(bursts) == 5 * per_record
        assert not all(run.diverged for run in runs)
        assert any(run.diverged and len(run.rows) % 5 for run in runs)  # stopped with records held back
        for a, b in zip(runs, (run for point in each.points for run in point.runs)):
            assert same_run(a, b)

    def test_every_run_stops(self, monkeypatch):
        """The loop breaks at step 775 with 774 % 16 = 6 records held back; they are still scored."""
        cfg = load_config(self.DEMO, ["alpha=2.0", "record_every=1", "total_steps=800"])
        per_record = 3 * cfg.model.n_features
        blocked, bursts = self.scored(monkeypatch, 16 * per_record, lambda: run_seed_study(cfg).runs)
        each, _ = self.scored(monkeypatch, 1, lambda: run_seed_study(cfg).runs)
        assert sorted(run.diverged_step for run in blocked) == [29, 699, 775]
        for a, b in zip(blocked, each):
            assert same_run(a, b)
        assert bursts[-1] == 6 * per_record


LOSS, STATE, RANGE = "non-finite loss", "non-finite state after update", "exponent left the representable range"


def fault_case(*rows):
    """``(lvals, w, mu)`` stacks with one row per ``(loss, w, mu)`` entry; a row is fine by default."""
    lvals, w, mu = np.ones((len(rows), 3)), np.zeros((len(rows), 4)), np.zeros((len(rows), 3))
    for r, (loss, w_bad, mu_bad) in enumerate(rows):
        lvals[r, 1], w[r, 2], mu[r, 1] = loss, w_bad, mu_bad
    return lvals, w, mu


class TestFaults:
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([(1.0, 0.0, -2.0), (0.5, 1.0, 700.0)], None),
            ([(np.nan, 0.0, 0.0)], [LOSS]),
            ([(np.inf, np.inf, np.nan)], [LOSS]),
            ([(np.inf, 0.0, 701.0)], [LOSS]),
            ([(1.0, np.inf, 0.0)], [STATE]),
            ([(1.0, 0.0, np.nan)], [STATE]),
            ([(1.0, np.nan, 701.0)], [STATE]),
            ([(1.0, 0.0, -700.5)], [RANGE]),
            (
                [(1.0, 0.0, 0.0), (1.0, 0.0, 750.0), (np.nan, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, -np.inf, 0.0)],
                [None, RANGE, LOSS, None, STATE],
            ),
        ],
    )
    def test_reason_per_row(self, rows, expected):
        assert _faults(*fault_case(*rows)) == expected

    def test_finite_values_whose_sum_overflows_are_no_fault(self):
        lvals, w, mu = fault_case((1.0, 1e308, 0.0), (1.0, 1e308, 0.0))
        with np.errstate(over="ignore"):  # as in the engine
            assert not np.isfinite(w.sum())
            assert _faults(lvals, w, mu) is None

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([(1.0, 0.0, 750.0), (1.0, 0.0, np.nan)], None),
            ([(1.0, 0.0, 750.0), (np.nan, 0.0, 0.0), (1.0, np.inf, 0.0)], [None, LOSS, STATE]),
        ],
    )
    def test_no_exponents_skip_their_checks(self, rows, expected):
        lvals, w, _ = fault_case(*rows)
        assert _faults(lvals, w, None) == expected

    def test_rows_on_two_leading_axes_come_in_row_order(self):
        lvals, w, mu = fault_case((1.0, 0.0, 0.0), (1.0, 0.0, 750.0), (np.nan, 0.0, 0.0), (1.0, 0.0, 0.0))
        tiled = (a.reshape((2, 2, -1)) for a in (lvals, w, mu))
        assert _faults(*tiled) == [None, RANGE, LOSS, None]


class TestSeedStudy:
    def test_fixed_mode_exponents_never_spread(self):
        cfg = small_config(mode="fixed", fixed_weights=(1.0, 0.3, 0.2))
        report = run_seed_study(replace(cfg, seeds=(0, 1, 2)))
        np.testing.assert_array_equal(report.mu_spread_final, np.zeros(3))
        np.testing.assert_array_equal(report.step_spread_max, np.zeros(3))

    def test_requires_two_seeds(self):
        with pytest.raises(ConfigError):
            run_seed_study(small_config(seeds=(0,)))

    def test_range_includes_initialization(self):
        report = run_seed_study(small_config(seeds=(0, 1)))
        # exponents start at log(0.1); the traversed range must cover it
        assert report.mu_range[1] > 0.0

    def test_huge_final_vals_give_finite_std(self):
        # the final vals of two kept runs of a seed study at alpha = 2; their squares overflow
        vals = np.array([3.1367804537947916e194, 2.321582459111403e199])
        runs = [
            RunResult(seed, "learned", None, np.zeros(3), np.array([[1.0, val]]), False, None, None, 0.0)
            for seed, val in enumerate(vals)
        ]
        expected = abs(vals[1] - vals[0]) / math.sqrt(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = GridPointResult((1.0, 1.0, 1.0), np.full(3, 1 / 3), runs)
            report = SeedStudyReport((0, 1), runs, np.zeros((2, 3)), vals, *[np.zeros(3)] * 3)
            stds = [point.std_val, report.val_std]
        for std in stds:
            assert math.isclose(std, expected, rel_tol=1e-12)


class TestStatisticsWithoutKeptRuns:
    """A std needs a kept run: NaN (JSON null) with none, 0.0 with one."""

    @staticmethod
    def runs(*diverged):
        return [
            RunResult(seed, "fixed", None, np.zeros(3), np.array([[1.0, 0.5 + seed]]), bad, 1 if bad else None,
                      "non-finite loss" if bad else None, 0.0)
            for seed, bad in enumerate(diverged)
        ]

    def test_grid_point_with_every_run_diverged(self):
        point = GridPointResult((1.0, 1.0, 1.0), np.full(3, 1 / 3), self.runs(True, True, True))
        assert math.isnan(point.std_val) and point.mean_val == math.inf
        summary = grid_summary(GridSearchResult(points=[point], seeds=(0, 1, 2)))
        row = json.loads(json.dumps(summary))["points"][0]
        assert row["mean_val"] is None and row["std_val"] is None and row["diverged_seeds"] == [0, 1, 2]

    def test_seed_study_with_every_run_diverged(self):
        runs = self.runs(True, True)
        report = SeedStudyReport((0, 1), runs, np.zeros((0, 3)), np.array([]), *[np.full(3, np.nan)] * 3)
        assert math.isnan(report.val_std) and math.isnan(report.val_mean)
        summary = json.loads(json.dumps(seed_study_summary(report)))
        assert summary["val_mean"] is None and summary["val_std"] is None

    def test_one_kept_run_has_zero_std(self):
        runs = self.runs(True, False)
        point = GridPointResult((1.0, 1.0, 1.0), np.full(3, 1 / 3), runs)
        report = SeedStudyReport((0, 1), runs, np.zeros((1, 3)), np.array([1.5]), *[np.zeros(3)] * 3)
        assert point.std_val == 0.0 and report.val_std == 0.0


class TestFrozenExponentSteps:
    """Fixed stacks step the parameters alone (``h`` None); learned ones always pass an exponent gradient."""

    @pytest.mark.parametrize(
        "driver, frozen",
        [
            (lambda: run_training(small_config(), 0), False),
            (lambda: run_seed_study(small_config(optimizer_kind="adamw")), False),
            (lambda: run_init_sweep(small_config(epsilon_sweep=(0.1, 1.0))), False),
            (lambda: run_training(small_config(mode="fixed", fixed_weights=(1.0, 0.25, 0.1)), 0), True),
            (lambda: run_grid_search(small_config(grid_axes=((0.1, 1.0), (0.3,)))), True),
        ],
        ids=["train", "seed-study-adamw", "init-sweep", "fixed-train", "grid"],
    )
    def test_exponent_gradient_passed_per_mode(self, monkeypatch, driver, frozen):
        passed = []
        advance = harness._advance
        monkeypatch.setattr(harness, "_advance", lambda *args: passed.append(args[3]) or advance(*args))
        driver()
        assert len(passed) == 300
        assert all((h is None) == frozen for h in passed)


class TestArrayEngine:
    """The engine steps plain arrays: its loop builds no value object and calls no public step or loss shell."""

    @pytest.mark.parametrize(
        "driver",
        [
            lambda cfg: [run_training(cfg, 0)],
            lambda cfg: run_seed_study(replace(cfg, optimizer_kind="adamw")).runs,
            lambda cfg: [run for point in run_grid_search(replace(cfg, grid_axes=((0.1, 1.0), (0.3,)))).points
                         for run in point.runs],
        ],
        ids=["train", "seed-study-adamw", "grid"],
    )
    def test_no_value_objects_and_no_public_functions(self, monkeypatch, driver):
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"the engine called {name}")

            return call

        for name in ("sgdw_step", "adamw_step", "hp_gradient_empirical", "softmax_weights", "regularizer_value"):
            monkeypatch.setattr(harness, name, forbidden(name))
        monkeypatch.setattr(optim, "regularizer_gradient", forbidden("regularizer_gradient"))
        built = []  # the class name of every value object built, with or without its checks
        wrappers = (optim.ParamState, optim.HPState, losses.HPExponents, losses.LossVector, losses.LossWeights)

        def counted_init(init):
            def call(obj, *args, **kwargs):
                built.append(type(obj).__name__)
                init(obj, *args, **kwargs)

            return call

        for cls in wrappers:
            monkeypatch.setattr(cls, "__init__", counted_init(cls.__init__))
        trusted = losses._trusted

        def counted_trusted(cls, **fields):
            if cls in wrappers:
                built.append(cls.__name__)
            return trusted(cls, **fields)

        for module in (losses, optim, models, harness):
            monkeypatch.setattr(module, "_trusted", counted_trusted, raising=False)

        def objects_built(steps):
            built.clear()
            runs = driver(small_config(optimizer=replace(small_config().optimizer, total_steps=steps)))
            assert runs and all(not run.diverged and run.final.t == steps for run in runs)
            return sorted(built)

        # learned starts build their exponents once, in ``optim.init_hp_state``; no step builds any
        assert objects_built(300) == objects_built(1)


def test_bench_lookup_points_resolve():
    """Every function the benchmark's tracer and call counter wrap is still where they look it up.

    ``bench/tracing.py`` wraps each ``(owner, attr)`` through ``vars(owner)``
    and reports a lookup point it cannot find; ``bench/run.py`` re-imports
    every trajectory with ``harness.import_results``.
    """
    spec = importlib.util.spec_from_file_location("tracing", Path(__file__).parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    triples = tracing.Tracer().replacements(lossmix) + tracing.CallCounter().replacements(lossmix)
    assert len(triples) > 10
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in triples if vars(owner).get(attr) is None]
    assert not missing
    assert callable(vars(harness).get("import_results"))


class TestInitSweep:
    def test_identical_epsilon_and_seed_identical_endpoints(self):
        cfg = small_config(epsilon_sweep=(0.1, 0.1, 1.0))
        report = run_init_sweep(cfg)
        a, b = report.entries[0], report.entries[1]
        np.testing.assert_array_equal(a.final_mu, b.final_mu)
        np.testing.assert_array_equal(a.final_lam, b.final_lam)
        assert a.final_val == b.final_val

    def test_infinite_threshold_single_cluster(self):
        cfg = small_config(epsilon_sweep=(0.01, 0.1, 1.0), cluster_threshold=math.inf)
        report = run_init_sweep(cfg)
        assert report.n_clusters == 1
        assert report.clusters == [[0, 1, 2]]

    def test_requires_two_epsilons(self):
        with pytest.raises(ConfigError):
            run_init_sweep(small_config(), epsilons=(0.1,))

    def test_diverged_runs_are_not_clustered(self):
        cfg = small_config(epsilon_sweep=(0.001, 0.01, 1.0), optimizer=replace(small_config().optimizer, alpha=1e12))
        report = run_init_sweep(cfg)
        assert all(e.diverged for e in report.entries)
        assert report.n_clusters == 0 and report.clusters == [] and report.representatives == []


class TestExportImport:
    def test_csv_round_trip(self, tmp_path):
        result = run_training(small_config(), 0)
        path = tmp_path / "traj.csv"
        export_results(result.rows, "csv", path)
        assert np.array_equal(read_rows(path), result.rows)
        assert_same_records(import_results(path), result.trajectory)

    def test_json_round_trip(self, tmp_path):
        result = run_training(small_config(), 0)
        path = tmp_path / "traj.json"
        export_results(result.rows, "json", path)
        assert np.array_equal(read_rows(path), result.rows)
        assert_same_records(import_results(path), result.trajectory)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_round_trip_bitwise(self, tmp_path, fmt):
        rows = np.array([
            [1.0, 0.0, -0.0, 5e-324, 0.1 + 0.2, 1 / 3, 2 / 3, 1.7976931348623157e308, -2.5e-300, 7.0, 1e-17, 0.0,
             123.456],
            [2.0, 0.0, -745.1, 700.0, 1.0, 5e-324, 1 - 5e-324, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        ])
        path = export_results(rows, fmt, tmp_path / f"traj.{fmt}")
        back = read_rows(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, rows)
        assert np.array_equal(np.signbit(back), np.signbit(rows))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("width", [13, 16])
    @pytest.mark.parametrize("n_rows", [0, 1, 4])
    def test_bytes_match_the_stdlib_writers_on_edge_values(self, tmp_path, fmt, width, n_rows):
        edges = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300, 0.1 + 0.2, -1 / 3, 1e16]
        rows = np.resize(np.array(edges), (n_rows, width))
        rows[:, 0] = [0.0, 1e15, 300.0, 1.7976931348623157e308][:n_rows]
        path = export_results(rows, fmt, tmp_path / f"traj.{fmt}")
        assert file_text(path) == stdlib_text(rows, fmt)
        if n_rows or fmt == "csv":  # an empty JSON list has no header to read the width from
            assert same_values(read_rows(path), rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("step", [1.5, -0.25, 1e15 + 0.5, math.nan, math.inf, -math.inf])
    def test_non_whole_step_rejected(self, tmp_path, fmt, step):
        rows = np.ones((3, 10))
        rows[1, 0] = step
        path = tmp_path / f"traj.{fmt}"
        with pytest.raises(ValueError, match="whole number"):
            export_results(rows, fmt, path)
        assert not path.exists()

    def test_empty_trajectory_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_results(np.empty((0, 13)), "csv", path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows == [trajectory_columns(3)]
        assert read_rows(path).shape == (0, 13)
        assert import_results(path) == []

    def test_schema_arity_for_two_aux_terms(self, tmp_path):
        result = run_training(small_config(), 0)
        path = tmp_path / "traj.csv"
        export_results(result.rows, "csv", path)
        with path.open() as fh:
            header = next(csv.reader(fh))
        assert header == [
            "t", "mu_0", "mu_1", "mu_2", "lambda_0", "lambda_1", "lambda_2",
            "l_0", "l_1", "l_2", "L_e", "L_r", "val_basic_loss",
        ]
        assert sum(1 for c in header if c.startswith("mu_")) == 3
        assert sum(1 for c in header if c.startswith("lambda_")) == 3

    def test_empty_without_arity_rejected(self, tmp_path):
        for rows in ([], np.empty((0, 0)), np.empty((0, 11))):
            with pytest.raises(ValueError):
                export_results(rows, "csv", tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("n_terms", [-1, 0, 1])
    def test_schema_needs_two_terms(self, n_terms):
        with pytest.raises(ValueError, match="n_terms >= 2"):
            trajectory_columns(n_terms)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("width", [4, 7])
    def test_fewer_than_two_terms_rejected(self, tmp_path, fmt, width):
        path = tmp_path / f"x.{fmt}"
        with pytest.raises(ValueError, match="n_terms >= 2"):
            export_results(np.ones((1, width)), fmt, path)
        assert not path.exists()
        names = {4: ["t"], 7: ["t", "mu_0", "lambda_0", "l_0"]}[width] + ["L_e", "L_r", "val_basic_loss"]
        if fmt == "csv":
            path.write_text(",".join(names) + "\n" + ",".join(["1"] * width) + "\n")
        else:
            path.write_text(json.dumps([dict.fromkeys(names, 1.0)]))
        with pytest.raises(ValueError, match="n_terms >= 2"):
            read_rows(path)

    @pytest.mark.parametrize("rows", [1.0, np.float64(2.0), np.array(3.0)])
    def test_zero_d_rows_rejected(self, tmp_path, rows):
        with pytest.raises(ValueError, match=r"\(T, C\) array"):
            export_results(rows, "csv", tmp_path / "x.csv")

    @pytest.mark.parametrize("edit", ["extra", "missing"])
    def test_json_records_carry_the_header_keys(self, tmp_path, edit):
        path = export_results(np.ones((2, 10)), "json", tmp_path / "x.json")
        records = json.loads(path.read_text())
        if edit == "extra":
            records[1]["mu_2"] = 7.0
        else:
            del records[1]["L_r"]
        path.write_text(json.dumps(records))
        with pytest.raises(ValueError, match="exactly the keys"):
            read_rows(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_results(np.empty((0, 13)), "parquet", tmp_path / "x.parquet")

    def test_unwritable_path_has_context(self, tmp_path):
        result = run_training(small_config(), 0)
        target = tmp_path / "missing_dir" / "traj.csv"
        with pytest.raises(OSError, match="traj.csv"):
            export_results(result.rows, "csv", target)

    def test_json_mirrors_column_names(self, tmp_path):
        result = run_training(small_config(), 0)
        path = tmp_path / "traj.json"
        export_results(result.rows, "json", path)
        payload = json.loads(path.read_text())
        assert list(payload[0].keys()) == trajectory_columns(3)

    def test_short_row_rejected(self, tmp_path):
        result = run_training(small_config(), 0)
        path = tmp_path / "traj.csv"
        export_results(result.rows, "csv", path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]  # drop val_basic_loss from the first record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="12 values for 13 columns"):
            import_results(path)


@st.composite
def trajectory_rows(draw):
    """A ``(T, C)`` trajectory of 0-6 rows and 2-5 terms: whole steps up to 1e15, any float elsewhere."""
    n_rows = draw(st.integers(0, 6))
    width = 3 * draw(st.integers(2, 5)) + 4
    steps = draw(st.lists(st.integers(0, 10**15), min_size=n_rows, max_size=n_rows))
    values = draw(st.lists(st.floats(), min_size=n_rows * (width - 1), max_size=n_rows * (width - 1)))
    rows = np.empty((n_rows, width))
    rows[:, 0] = steps
    rows[:, 1:] = np.reshape(values, (n_rows, width - 1))
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=trajectory_rows())
def test_export_writes_the_stdlib_bytes_and_round_trips(rows):
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            path = export_results(rows, fmt, Path(tmp) / f"traj.{fmt}")
            assert file_text(path) == stdlib_text(rows, fmt)
            if len(rows) or fmt == "csv":  # an empty JSON list has no header to read the width from
                assert same_values(read_rows(path), rows)


class TestHelpfulHarmfulConstruction:
    def test_high_harmful_weight_degrades_validation(self):
        # testbed premise: weight on the random-target term only hurts
        low = run_training(
            small_config(mode="fixed", fixed_weights=(1.0, 0.3, 0.001)), 0
        )
        high = run_training(
            small_config(mode="fixed", fixed_weights=(1.0, 0.3, 1.0)), 0
        )
        assert not low.diverged and not high.diverged
        assert high.final_val > low.final_val


class TestSymmetry:
    def test_duplicated_term_trajectories_coincide(self):
        cfg = small_config(
            model=ToyModelSpec(kind="multiloss_linear_regression", n_features=8, noise_std=0.5,
                               jitter_std=0.5, harm_scale=4.0, duplicate_term=1),
        )
        result = run_training(cfg, 0)
        assert not result.diverged
        for rec in result.trajectory:
            assert abs(rec.mu[1] - rec.mu[3]) <= 1e-10

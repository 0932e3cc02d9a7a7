"""Tests for the experiment harness: runs, grids, studies, export."""

import csv
import importlib.util
import json
import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import lossmix.cli
from lossmix import harness, losses, models, optim
from lossmix.config import ConfigError, ExperimentConfig, with_epsilon
from lossmix.harness import (
    GridPointResult,
    GridSearchResult,
    RunResult,
    SeedStudyReport,
    TrajectoryRecord,
    _faults,
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


def rows_close(a, b, tol=1e-12):
    """Same shape, and every recorded value (step numbers included) equal within ``tol`` relative."""
    return a.shape == b.shape and np.allclose(a, b, rtol=tol, atol=tol)


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


def counted(monkeypatch, cls, name):
    """The list that gets one entry per call of ``cls.name`` for the rest of the test."""
    calls = []
    method = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: calls.append(1) or method(self, *args))
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
        report = run_seed_study(self.config(spec), seeds=(0, 1, 2))  # one call serves the whole stack
        assert len(basic) == 6 and all(len(r.rows) == 3 for r in report.runs)


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

    def test_best_point_selected_by_mean_val(self):
        cfg = small_config(grid_axes=((0.1, 1.0), (0.1,)), seeds=(0, 1))
        grid = run_grid_search(cfg)
        means = [p.mean_val for p in grid.points]
        assert grid.best_index == int(np.argmin(means))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_grid_search(small_config())


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
        stacked = run_seed_study(cfg, seeds=seeds).runs
        for run, seed in zip(stacked, seeds):
            alone = run_training(cfg, seed)
            assert not run.diverged and not alone.diverged
            assert rows_close(run.rows, alone.rows)

    def test_ragged_last_batch_matches_single_runs(self):
        cfg = small_config(n_train=30, batch_size=8)  # epochs of 8, 8, 8, 6
        stacked = run_seed_study(cfg, seeds=(0, 1)).runs
        for run in stacked:
            assert rows_close(run.rows, run_training(cfg, run.seed).rows)

    def test_diverging_row_leaves_the_others_bitwise_unchanged(self):
        # a raw weight of 1e305 puts its exponent past MU_LIMIT, so those runs diverge at
        # step 1 and the rows after them move up in the stack
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
        report = run_seed_study(cfg, seeds=(0, 1))
        assert all(run.diverged for run in report.runs)
        assert report.final_mu.shape == (0, 3)
        assert math.isnan(report.val_mean)
        grid = run_grid_search(replace(cfg, grid_axes=((0.25, 1.0), (0.1,))))
        assert grid.best_index is None and grid.best_point is None


    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda c: replace(c, optimizer=replace(c.optimizer, hp_decay=0.0)), "optimizer.hp_decay"),
            (lambda c: replace(c, mode="fixed", fixed_weights=(1.0, 0.5, 0.5)), "mode"),
            (lambda c: replace(c, batch_size=4), "batch_size"),
            (lambda c: replace(c, model=replace(c.model, harm_scale=1.0)), "model.harm_scale"),
        ],
        ids=["hp_decay", "mode", "batch_size", "harm_scale"],
    )
    def test_rows_differing_in_a_shared_setting_rejected(self, change, field):
        cfg = small_config()
        with pytest.raises(ConfigError, match=field):
            _train_stack([cfg, change(cfg)], [0, 1])

    def test_rows_may_differ_in_seed_weights_and_epsilon(self):
        cfg = small_config(mode="fixed", fixed_weights=(1.0, 0.5, 0.5))
        rows = [cfg, replace(with_epsilon(cfg, 1.0), fixed_weights=(1.0, 0.1, 2.0), seeds=(3,))]
        assert not any(run.diverged for run in _train_stack(rows, [0, 1]))


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


class TestSeedStudy:
    def test_duplicated_seed_has_zero_spread(self):
        report = run_seed_study(small_config(), seeds=(4, 4))
        np.testing.assert_array_equal(report.mu_spread_final, np.zeros(3))
        np.testing.assert_array_equal(report.step_spread_max, np.zeros(3))
        assert report.val_std == 0.0

    def test_fixed_mode_exponents_never_spread(self):
        cfg = small_config(mode="fixed", fixed_weights=(1.0, 0.3, 0.2))
        report = run_seed_study(cfg, seeds=(0, 1, 2))
        np.testing.assert_array_equal(report.mu_spread_final, np.zeros(3))
        np.testing.assert_array_equal(report.step_spread_max, np.zeros(3))

    def test_requires_two_seeds(self):
        with pytest.raises(ConfigError):
            run_seed_study(small_config(), seeds=(0,))

    def test_range_includes_initialization(self):
        report = run_seed_study(small_config(), seeds=(0, 1))
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

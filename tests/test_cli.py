"""End-to-end tests of the command-line interface.

The CLI must stay a thin adapter: outputs produced through it are
compared against direct library calls with the same configuration.
"""

import csv
import json

import numpy as np
import pytest

from lossmix import gradcheck
from lossmix.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, main
from lossmix.config import load_config
from lossmix.harness import import_results, read_rows, run_init_sweep, run_training
from lossmix.models import LinearMultiLossModel

CONFIG = """
model = multiloss_linear_regression
n_features = 8
noise_std = 0.5
jitter_std = 0.5
harm_scale = 4.0
optimizer = sgdw
alpha = 0.05
beta1 = 0.9
hp_decay = 1.0
init_epsilon = 0.1
schedule = constant
total_steps = 200
mode = learned
seeds = 0,1
data_seed = 7
n_train = 24
n_val = 64
batch_size = 8
record_every = 50
grid_axes = 0.25,1.0 ; 0.1
epsilon_sweep = 0.05,0.5
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return path


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()


class TestGradcheckCommand:
    def test_passes_and_prints_json(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["gradcheck", "--trials", "25", "--model-trials", "5", "--json", str(report_path)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert len(payload["reports"]) == 4
        assert json.loads(report_path.read_text()) == payload

    def test_no_trials_fail(self, capsys):
        code = main(["gradcheck", "--trials", "0", "--model-trials", "0"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is False
        assert [(r["n_trials"], r["passed"]) for r in payload["reports"]] == [(0, False)] * 4

    @pytest.mark.parametrize(
        "counts", [["--trials", "-3", "--model-trials", "-1"], ["--trials", "-1"], ["--model-trials", "-1"]]
    )
    def test_negative_trials_are_usage_errors(self, capsys, counts):
        assert main(["gradcheck", *counts]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "a trial count must be >= 0" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "a seed must be >= 0" in err

    @pytest.mark.parametrize("option", ["--tol", "--model-tol"])
    @pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf"])
    def test_tolerance_not_finite_and_positive_is_a_usage_error(self, capsys, option, value):
        """Such a check could never pass, so the command refuses it rather than report a failure."""
        assert main(["gradcheck", option, value]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "a tolerance must be finite and > 0" in err

    @pytest.mark.parametrize(
        "option, value, expected",
        [("--trials", "1.5", "a trial count must be an integer"), ("--tol", "abc", "a tolerance must be a number"),
         ("--seed", "x", "a seed must be an integer")],
    )
    def test_unparsable_value_is_a_usage_error_that_says_what_was_expected(self, capsys, option, value, expected):
        assert main(["gradcheck", option, value]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and expected in err
        assert not any(name in err for name in ("_trial_count", "_tolerance", "_seed"))

    def test_impossible_tolerance_fails(self, capsys):
        code = main(["gradcheck", "--trials", "5", "--model-trials", "2", "--tol", "1e-18", "--model-tol", "1e-18"])
        assert code == 1
        capsys.readouterr()

    def test_nan_gradient_fails_with_valid_json(self, capsys, tmp_path, monkeypatch):
        def nan_gradient(mu, losses):
            return np.full(mu.mu.shape, np.nan)

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant}")

        monkeypatch.setattr(gradcheck, "hp_gradient_empirical", nan_gradient)
        report_path = tmp_path / "report.json"
        code = main(["gradcheck", "--trials", "5", "--model-trials", "2", "--json", str(report_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert json.loads(report_path.read_text(), parse_constant=reject) == payload
        assert payload["all_passed"] is False
        hp = payload["reports"][0]
        assert hp["passed"] is False
        assert hp["max_relative_error"] is None and hp["max_absolute_error"] is None

    @pytest.mark.parametrize(
        "target, name, value, failing",
        [
            (gradcheck, "composite_loss", lambda lam, losses: np.nan, 0),
            (LinearMultiLossModel, "losses", lambda self, w, batch: np.full(w.shape[:-1] + (3,), np.nan), 2),
        ],
        ids=["hp-value", "model-losses"],
    )
    def test_non_finite_value_function_fails_with_valid_json(self, capsys, monkeypatch, target, name, value, failing):
        monkeypatch.setattr(target, name, value)
        code = main(["gradcheck", "--trials", "5", "--model-trials", "2"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(f"JSON constant {c}"))
        assert payload["all_passed"] is False
        for i, report in enumerate(payload["reports"]):
            assert report["passed"] is (i != failing)
        bad = payload["reports"][failing]
        assert bad["max_relative_error"] is None and bad["max_absolute_error"] is None


class TestTrainCommand:
    def test_writes_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--config", str(config_path), "--out", str(out)])
        assert code == EXIT_OK
        run_dir = out / "train_seed0"
        assert (run_dir / "trajectory.csv").exists()
        assert (run_dir / "trajectory.json").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["seed"] == 0
        assert summary["diverged"] is False
        assert summary["diverged_reason"] is None
        capsys.readouterr()

    def test_matches_direct_library_call(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_path), "--out", str(out), "--seed", "1"]) == EXIT_OK
        capsys.readouterr()
        cli_records = import_results(out / "train_seed1" / "trajectory.json")
        direct = run_training(load_config(config_path), 1)
        assert len(cli_records) == len(direct.trajectory)
        for a, b in zip(cli_records, direct.trajectory):
            assert a.t == b.t
            assert a.mu.tolist() == b.mu.tolist()
            assert a.val_basic_loss == b.val_basic_loss

    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "io"

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("train", ["--override", "mode=fixed", "--override", "fixed_weights=1,nan,1"]),
            ("train", ["--override", "mode=fixed", "--override", "fixed_weights=1,inf,1"]),
            ("grid", ["--override", "grid_axes=0.1,nan ; 1"]),
            ("grid", ["--override", "grid_axes=0.1 ; inf"]),
            ("train", ["--override", "grid_axes=0.1; ,"]),
            ("seed-study", ["--override", "seeds=0,-1"]),
            ("seed-study", ["--override", "seeds=0,0"]),
            ("grid", ["--override", "seeds=1,1"]),
            ("train", ["--override", "data_seed=-3"]),
            ("train", ["--seed", "-1"]),
            ("init-sweep", ["--override", "epsilon_sweep=0.1,-1"]),
            ("train", ["--override", "hp_decay=nan"]),
            ("train", ["--override", "weight_decay=nan"]),
            ("train", ["--override", "optimizer=adamw", "--override", "adam_eps=0"]),
            ("train", ["--override", "adam_eps=-1"]),
            ("train", ["--override", "schedule=step", "--override", "schedule_milestones=75",
                       "--override", "schedule_factor=-1"]),
            ("train", ["--override", "alpha=inf"]),
            ("train", ["--override", "grad_clip=nan"]),
            ("train", ["--override", "grad_clip=inf"]),
            ("train", ["--override", "noise_std=nan"]),
        ],
        ids=["fixed-nan", "fixed-inf", "grid-nan", "grid-inf", "empty-grid-axis", "negative-seed",
             "duplicate-study-seeds", "duplicate-grid-seeds", "negative-data-seed",
             "train-seed", "negative-epsilon", "nan-hp-decay", "nan-weight-decay", "zero-adam-eps",
             "negative-adam-eps", "negative-schedule-factor", "inf-alpha", "nan-grad-clip", "inf-grad-clip",
             "nan-noise-std"],
    )
    def test_bad_config_exits_3_with_one_json_line(self, config_path, tmp_path, capsys, command, argv):
        out = tmp_path / "out"
        code = main([command, "--config", str(config_path), "--out", str(out), *argv])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not out.exists()

    def test_bad_override_exits_3(self, config_path, capsys):
        code = main(["train", "--config", str(config_path), "--override", "bogus=1"])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_unwritable_out_exits_3_with_one_json_line(self, config_path, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code = main(["train", "--config", str(config_path), "--out", str(blocker / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "io"

    def test_diverged_exits_4_with_partial_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "train", "--config", str(config_path), "--out", str(out),
            "--override", "alpha=1e12",
        ])
        assert code == EXIT_DIVERGED
        captured = capsys.readouterr()
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "diverged"
        assert (out / "train_seed0" / "trajectory.csv").exists()
        summary = json.loads((out / "train_seed0" / "summary.json").read_text())
        assert summary["diverged_reason"] == "exponent left the representable range"

    def test_config_error_exits_3_and_writes_nothing(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "train", "--config", str(config_path), "--out", str(out),
            "--override", "mode=fixed", "--override", "fixed_weights=1,1",
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not out.exists()

    def test_env_var_out_dir(self, config_path, tmp_path, capsys, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("LOSSMIX_OUT_DIR", str(env_out))
        assert main(["train", "--config", str(config_path)]) == EXIT_OK
        assert (env_out / "train_seed0" / "summary.json").exists()
        capsys.readouterr()


class TestGridCommand:
    def test_writes_table_and_runs(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["grid", "--config", str(config_path), "--out", str(out), "--override", "seeds=0,1"])
        assert code == EXIT_OK
        summary = json.loads((out / "grid_summary.json").read_text())
        assert len(summary["points"]) == 2  # 2 x 1 axis grid
        assert (out / "grid_table.csv").exists()
        assert (out / "grid_p00_seed0" / "trajectory.csv").exists()
        assert (out / "grid_p01_seed1" / "summary.json").exists()
        capsys.readouterr()


    def test_table_is_the_summary_and_the_trained_weights(self, config_path, tmp_path, capsys):
        # the demo axes, plus a raw weight whose exponent leaves the range, so its runs diverge at step 1
        out = tmp_path / "out"
        code = main(["grid", "--config", str(config_path), "--out", str(out),
                     "--override", "grid_axes=0.1,0.3,1.0,1e305 ; 0.1,0.3,1.0"])
        assert code == EXIT_DIVERGED
        capsys.readouterr()
        summary = json.loads((out / "grid_summary.json").read_text())
        with (out / "grid_table.csv").open(newline="") as fh:
            table = list(csv.DictReader(fh))
        assert len(table) == len(summary["points"]) == 12
        assert any(p["mean_val"] is None for p in summary["points"])
        for i, (row, p) in enumerate(zip(table, summary["points"])):
            values = [i, *p["raw_point"], *p["lambda"], *(p["per_seed_val"][str(s)] for s in summary["seeds"])]
            cells = [float(c) if c else None for c in row.values()]
            assert cells == [*values, p["mean_val"], p["std_val"]], i
            for seed in summary["seeds"]:
                run = json.loads((out / f"grid_p{i:02d}_seed{seed}" / "summary.json").read_text())
                assert run["fixed_weights"] == p["lambda"]
                rows = read_rows(out / f"grid_p{i:02d}_seed{seed}" / "trajectory.csv")
                assert (rows[:, 4:7] == p["lambda"]).all()

    def test_no_grid_axes_exits_3_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "no_grid.cfg"
        path.write_text("\n".join(line for line in CONFIG.splitlines() if not line.startswith("grid_axes")))
        out = tmp_path / "out"
        code = main(["grid", "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not out.exists()

    def test_all_diverged_exits_4_with_null_best(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "grid", "--config", str(config_path), "--out", str(out),
            "--override", "alpha=1e12", "--override", "total_steps=50",
        ])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "diverged"
        summary = json.loads((out / "grid_summary.json").read_text())
        assert summary["best_index"] is None
        assert summary["points"][0]["diverged_seeds"] == [0, 1]
        assert all(p["mean_val"] is None and p["std_val"] is None for p in summary["points"])
        with (out / "grid_table.csv").open(newline="") as fh:
            table = list(csv.DictReader(fh))
        assert len(table) == len(summary["points"])
        for row in table:  # empty where the summary has null, like the per-seed cells
            assert row["val_seed0"] == row["val_seed1"] == row["mean_val"] == row["std_val"] == "", row
        assert (out / "grid_p01_seed1" / "summary.json").exists()


class TestSeedStudyCommand:
    def test_writes_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["seed-study", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "seed_study_summary.json").read_text())
        assert summary["seeds"] == [0, 1]
        assert len(summary["final_mu"]) == 2
        capsys.readouterr()

    def test_one_seed_exits_3_and_writes_nothing(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["seed-study", "--config", str(config_path), "--out", str(out), "--override", "seeds=0"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not out.exists()

    def test_diverged_exits_4_with_partial_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "seed-study", "--config", str(config_path), "--out", str(out),
            "--override", "alpha=1e12", "--override", "total_steps=50",
        ])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "diverged"
        summary = json.loads((out / "seed_study_summary.json").read_text())
        assert summary["diverged_seeds"] == [0, 1]
        assert summary["val_mean"] is None and summary["val_std"] is None
        run = json.loads((out / "study_seed1" / "summary.json").read_text())
        assert run["diverged"] is True and run["diverged_reason"]


class TestInitSweepCommand:
    def test_writes_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["init-sweep", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "init_sweep_summary.json").read_text())
        assert [e["epsilon"] for e in summary["entries"]] == [0.05, 0.5]
        capsys.readouterr()

    def test_requires_sweep_list(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "init-sweep", "--config", str(config_path), "--out", str(out), "--override", "epsilon_sweep=0.1",
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not out.exists()

    def test_diverged_exits_4_with_null_final_vals(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--override", "alpha=4.0", "--override", "record_every=5"]
        code = main(["init-sweep", "--config", str(config_path), "--out", str(out), *argv])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "diverged"
        summary = json.loads((out / "init_sweep_summary.json").read_text())
        report = run_init_sweep(load_config(config_path, argv[1::2]))
        # both runs diverge after recording a finite validation loss, which the summary does not report
        assert all(r.diverged and np.isfinite(r.final_val) for r in report.runs)
        assert [e["final_val"] for e in summary["entries"]] == [None, None]
        assert summary["clusters"] == report.clusters


@pytest.mark.parametrize(
    "command, driver",
    [
        ("train", "run_training"),
        ("grid", "run_grid_search"),
        ("seed-study", "run_seed_study"),
        ("init-sweep", "run_init_sweep"),
    ],
)
def test_out_under_a_file_fails_before_training(command, driver, config_path, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError(f"{driver} ran although --out cannot be created")

    monkeypatch.setattr(f"lossmix.cli.{driver}", never)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    code = main([command, "--config", str(config_path), "--out", str(blocker / "out" / "deeper")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "io"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "exp.cfg"]  # the check made nothing


class TestExportCommand:
    @pytest.mark.parametrize("text", ['{"a": 1}', "[1, 2]", '[{"t": 1}, {"u": 2}]'], ids=["object", "numbers", "mixed"])
    def test_malformed_json_exits_3_with_one_json_line(self, tmp_path, capsys, text):
        src = tmp_path / "bad.json"
        src.write_text(text)
        code = main(["export", "--input", str(src), "--format", "csv", "--out-file", str(tmp_path / "out.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not (tmp_path / "out.csv").exists()

    def test_round_trip_between_formats(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        src = out / "train_seed0" / "trajectory.csv"
        dst = tmp_path / "converted.json"
        assert main(["export", "--input", str(src), "--format", "json", "--out-file", str(dst)]) == EXIT_OK
        capsys.readouterr()
        a = import_results(src)
        b = import_results(dst)
        assert len(a) == len(b)
        assert all(x.mu.tolist() == y.mu.tolist() for x, y in zip(a, b))

    def test_null_value_exits_3_with_one_json_line(self, tmp_path, capsys):
        from lossmix.harness import export_results

        src = tmp_path / "null.json"
        export_results(np.ones((2, 13)), "json", src)
        src.write_text(src.read_text().replace('"L_e": 1.0', '"L_e": null', 1))
        code = main(["export", "--input", str(src), "--format", "csv", "--out-file", str(tmp_path / "out.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"

    @pytest.mark.parametrize(
        "header", ["t,L_e,L_r,val_basic_loss", "t,mu_0,lambda_0,l_0,L_e,L_r,val_basic_loss"], ids=["K=0", "K=1"]
    )
    def test_fewer_than_two_terms_exit_3(self, tmp_path, capsys, header):
        src = tmp_path / "narrow.csv"
        src.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        code = main(["export", "--input", str(src), "--format", "json", "--out-file", str(tmp_path / "out.json")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not (tmp_path / "out.json").exists()

    def test_record_with_an_extra_key_exits_3(self, tmp_path, capsys):
        from lossmix.harness import export_results

        src = tmp_path / "extra.json"
        export_results(np.ones((2, 10)), "json", src)
        records = json.loads(src.read_text())
        records[1]["mu_2"] = 7.0
        src.write_text(json.dumps(records))
        code = main(["export", "--input", str(src), "--format", "csv", "--out-file", str(tmp_path / "out.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_whole_step_exits_3_and_writes_nothing(self, tmp_path, capsys, fmt):
        from lossmix.harness import trajectory_columns

        src = tmp_path / "half.csv"
        src.write_text(",".join(trajectory_columns(2)) + "\n" + ",".join(["1.5"] + ["1.0"] * 9) + "\n")
        dst = tmp_path / f"out.{fmt}"
        code = main(["export", "--input", str(src), "--format", fmt, "--out-file", str(dst)])
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        err = err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert "whole number" in json.loads(err[0])["message"]
        assert not dst.exists()

    def test_missing_input_exits_3(self, tmp_path, capsys):
        code = main(["export", "--input", str(tmp_path / "nope.csv"), "--format", "json",
                     "--out-file", str(tmp_path / "out.json")])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_header_only_csv_keeps_arity(self, tmp_path, capsys):
        from lossmix.harness import export_results, read_rows

        src = tmp_path / "empty.csv"
        export_results(np.empty((0, 13)), "csv", src)
        dst = tmp_path / "empty2.csv"
        assert main(["export", "--input", str(src), "--format", "csv", "--out-file", str(dst)]) == EXIT_OK
        assert read_rows(dst).shape == (0, 13)
        assert json.loads(capsys.readouterr().out)["records"] == 0
        empty_json = tmp_path / "empty.json"
        assert main(["export", "--input", str(src), "--format", "json", "--out-file", str(empty_json)]) == EXIT_OK
        capsys.readouterr()
        # an empty JSON list carries no header, so its arity is unknown
        code = main(["export", "--input", str(empty_json), "--format", "csv", "--out-file", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "config"

"""Command-line entry point; thin dispatch onto gradcheck and harness.

Exit codes: 0 success, 1 gradient check failed tolerance, 2 usage error,
3 config error or a path that cannot be read or written, 4 training
diverged (partial outputs are still written). Failures print a single
JSON line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .gradcheck import check_hp_gradients, check_model_gradients, check_reg_gradients
from .harness import (
    TrainingDiverged,
    _jsonable,
    export_results,
    grid_summary,
    init_sweep_summary,
    read_rows,
    run_grid_search,
    run_init_sweep,
    run_seed_study,
    run_summary,
    run_training,
    seed_study_summary,
)
from .models import LINEAR_KIND, MLP_KIND, ToyModelSpec, build_model

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DIVERGED = 4

OUT_DIR_ENV = "LOSSMIX_OUT_DIR"

log = logging.getLogger("lossmix")


def _error_line(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to a flat key = value config file")
    sub.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override, repeatable, last one wins",
    )
    sub.add_argument("--out", default=None, help=f"output directory (default: ${OUT_DIR_ENV} or config out_dir)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lossmix", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--model-trials", type=int, default=50)
    p.add_argument("--model-tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="also write the report to this path")

    p = sub.add_parser("train", help="single training run")
    _add_config_args(p)
    p.add_argument("--seed", type=int, default=None, help="run seed (default: first of config seeds)")

    p = sub.add_parser("grid", help="fixed-weight grid search")
    _add_config_args(p)

    p = sub.add_parser("seed-study", help="stability across the configured seeds")
    _add_config_args(p)

    p = sub.add_parser("init-sweep", help="learned runs across initialization scales")
    _add_config_args(p)

    p = sub.add_parser("export", help="convert a trajectory file between csv and json")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=("csv", "json"))
    p.add_argument("--out-file", required=True)

    return parser


def _out_dir(args, config) -> Path:
    """The resolved output directory, checked before training but not yet made.

    Its nearest existing ancestor must be a writable directory, so an
    unusable ``--out`` fails before the runs, not after them. The check
    creates nothing; the caller makes the directory once the runs end.
    """
    path = Path(args.out or os.environ.get(OUT_DIR_ENV) or config.out_dir)
    ancestor = path
    while not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise NotADirectoryError(f"cannot create output directory {path}: {ancestor} is not a writable directory")
    return path


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_run(result, run_dir: Path) -> dict:
    run_dir.mkdir(parents=True, exist_ok=True)
    summary = run_summary(result)
    for fmt in ("csv", "json"):
        export_results(result.rows, fmt, run_dir / f"trajectory.{fmt}")
        summary[f"trajectory_{fmt}"] = str(Path(run_dir.name) / f"trajectory.{fmt}")
    _write_json(run_dir / "summary.json", summary)
    log.info("seed %d: %d records, %.2fs -> %s", result.seed, len(result.rows), result.wall_time, run_dir)
    return summary


def _raise_if_diverged(runs) -> None:
    """Report the earliest divergence among ``runs``; called once their outputs are written."""
    diverged = [r for r in runs if r.diverged]
    if diverged:
        first = min(diverged, key=lambda r: r.diverged_step)
        raise TrainingDiverged(
            first.diverged_step,
            f"{first.diverged_reason} (seed {first.seed}; {len(diverged)} of {len(runs)} runs diverged)",
        )


def cmd_gradcheck(args) -> int:
    reports = [
        check_hp_gradients(n_trials=args.trials, tol=args.tol, seed=args.seed),
        check_reg_gradients(n_trials=args.trials, tol=args.tol, seed=args.seed),
    ] + [
        check_model_gradients(build_model(spec), n_trials=args.model_trials, tol=args.model_tol, seed=args.seed)
        for spec in (
            ToyModelSpec(kind=LINEAR_KIND, n_features=8),
            ToyModelSpec(kind=MLP_KIND, n_features=6, hidden_units=12),
        )
    ]
    payload = {"reports": [r.to_dict() for r in reports], "all_passed": all(r.passed for r in reports)}
    text = json.dumps(_jsonable(payload), indent=2)
    print(text)
    if args.json:
        Path(args.json).write_text(text + "\n")
    return EXIT_OK if payload["all_passed"] else EXIT_FAIL


def cmd_train(args) -> int:
    config = load_config(args.config, args.override)
    seed = args.seed if args.seed is not None else config.seeds[0]
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    out = _out_dir(args, config)
    result = run_training(config, seed)
    out.mkdir(parents=True, exist_ok=True)
    summary = _write_run(result, out / f"train_seed{seed}")
    print(json.dumps(summary, indent=2))
    _raise_if_diverged([result])
    return EXIT_OK


def cmd_grid(args) -> int:
    config = load_config(args.config, args.override)
    out = _out_dir(args, config)
    result = run_grid_search(config)
    out.mkdir(parents=True, exist_ok=True)
    summary = grid_summary(result)
    for i, point in enumerate(result.points):
        for run in point.runs:
            _write_run(run, out / f"grid_p{i:02d}_seed{run.seed}")
    _write_json(out / "grid_summary.json", summary)
    with (out / "grid_table.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        n_terms = result.points[0].lam.size
        writer.writerow(
            ["point_index"]
            + [f"raw_{i}" for i in range(n_terms)]
            + [f"lambda_{i}" for i in range(n_terms)]
            + [f"val_seed{s}" for s in result.seeds]
            + ["mean_val", "std_val"]
        )
        # str() of a float is its repr; a value the JSON summary writes as null is an empty cell
        for i, p in enumerate(result.points):
            per_seed = [None if r.diverged else r.final_val for r in p.runs]
            row = [i, *map(float, p.raw_point), *p.lam.tolist(), *per_seed, p.mean_val, p.std_val]
            writer.writerow(_jsonable(row))
    print(json.dumps(summary, indent=2))
    _raise_if_diverged([run for point in result.points for run in point.runs])
    return EXIT_OK


def cmd_seed_study(args) -> int:
    config = load_config(args.config, args.override)
    out = _out_dir(args, config)
    report = run_seed_study(config)
    out.mkdir(parents=True, exist_ok=True)
    for run in report.runs:
        _write_run(run, out / f"study_seed{run.seed}")
    summary = seed_study_summary(report)
    _write_json(out / "seed_study_summary.json", summary)
    print(json.dumps(summary, indent=2))
    _raise_if_diverged(report.runs)
    return EXIT_OK


def cmd_init_sweep(args) -> int:
    config = load_config(args.config, args.override)
    out = _out_dir(args, config)
    report = run_init_sweep(config)
    out.mkdir(parents=True, exist_ok=True)
    summary = init_sweep_summary(report)
    _write_json(out / "init_sweep_summary.json", summary)
    print(json.dumps(summary, indent=2))
    _raise_if_diverged(report.runs)
    return EXIT_OK


def cmd_export(args) -> int:
    try:
        rows = read_rows(args.input)
        export_results(rows, args.format, args.out_file)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps({"written": args.out_file, "records": len(rows)}))
    return EXIT_OK


_COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "train": cmd_train,
    "grid": cmd_grid,
    "seed-study": cmd_seed_study,
    "init-sweep": cmd_init_sweep,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit(2) for usage errors
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    logging.basicConfig(level=logging.DEBUG if args.verbose > 1 else logging.INFO if args.verbose else logging.WARNING)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        _error_line("config", str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _error_line("io", str(exc))
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        _error_line("diverged", str(exc))
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The lossmix benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload grid-demo --seed 0 --seconds 40 --trace 0

``--trace 0`` repeats the workload's ``lossmix`` command in this process for
about ``--seconds`` and reports the end-to-end metrics of BENCHMARK.json as
medians over the passes. ``--trace 1`` makes one counting, one untraced and
one traced pass and reports the per-layer metrics. Every pass is checked
(see ``check_run``). The last line of standard output is the result,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
where an operation is one training run. A fuller record (machine, seeds,
samples, problems) goes to ``.bench_out/<workload>/seed<n>/``.
bench/README.md explains the workloads and metrics.
"""

import os

# One BLAS thread, here and in the set-up children, before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import CallCounter, Tracer, patched

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
TINY_STEPS = 40  # step budget under --tiny, the self-test's smoke size
# final_val may drift by reduction-order changes but not by a wrong gradient
# (bench/README.md, "Reference values").
REFERENCE = BENCH / "reference.json"
REFERENCE_SEEDS = 20  # reference.json holds seeds 0..REFERENCE_SEEDS-1 of every workload


@dataclass(frozen=True)
class Workload:
    command: str  # lossmix subcommand
    driver: str  # the harness driver the subcommand calls, as cli looks it up
    n_seeds: int  # run seeds drawn from the workload seed
    runs: int  # training runs in one pass
    overrides: dict  # config keys set on top of bench/demo.cfg


# Why each workload exists is written in bench/README.md.
WORKLOADS = {
    "train-linear-sgdw": Workload("train", "run_training", 1, 1, {"total_steps": 20000}),
    "grid-demo": Workload("grid", "run_grid_search", 3, 27, {}),
    "study-mlp-adamw": Workload(
        "seed-study",
        "run_seed_study",
        3,
        3,
        {
            "model": "tiny_mlp_consistency",
            "optimizer": "adamw",
            "alpha": 0.01,
            "record_every": 10,
            "total_steps": 5000,
        },
    ),
}


def run_seeds(name: str, seed: int, n: int) -> list[int]:
    """Distinct run seeds for a workload, a pure function of (name, seed).

    The dataset seed stays the demo's: final_val moves by a factor of 2-3
    across datasets but by a few percent across run seeds, and a metric with
    a bound must be steady across workload seeds.
    """
    return random.Random(f"{name}:{seed}").sample(range(2**31), n)


def write_config(path: Path, values: dict) -> None:
    """bench/demo.cfg with ``values`` substituted for (or appended to) its keys."""
    todo = dict(values)
    lines = []
    for line in (BENCH / "demo.cfg").read_text().splitlines():
        body = line.split("#", 1)[0]
        key = body.partition("=")[0].strip()
        if "=" in body and key in todo:
            line = f"{key} = {todo.pop(key)}"
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in todo.items()]
    path.write_text("\n".join(lines) + "\n")


@dataclass
class Bench:
    """One workload at one seed, with the lossmix package it drives."""

    name: str
    seed: int
    tiny: bool
    lossmix: object
    workload: Workload = field(init=False)
    seeds: list = field(init=False)
    work: Path = field(init=False)

    def __post_init__(self):
        self.workload = WORKLOADS[self.name]
        self.seeds = run_seeds(self.name, self.seed, self.workload.n_seeds)
        self.work = OUT / (f"{self.name}-tiny" if self.tiny else self.name) / f"seed{self.seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        values = {**self.workload.overrides, "seeds": ",".join(map(str, self.seeds))}
        if self.tiny:
            values["total_steps"] = TINY_STEPS
        write_config(self.config, values)

    @property
    def config(self) -> Path:
        return self.work / "workload.cfg"

    @property
    def out(self) -> Path:
        return self.work / "runs"


def import_lossmix():
    """Import lossmix from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import lossmix
    import lossmix.cli

    if Path(lossmix.__file__).resolve().parent != SRC / "lossmix":
        raise ImportError(f"lossmix imported from {lossmix.__file__}, not {SRC}")
    return lossmix


# -- one pass ---------------------------------------------------------------


@dataclass
class Pass:
    code: int | None  # lossmix exit code; None when main raised
    error: str | None
    wall: float  # the whole command, output files included
    driver_s: float  # time inside the harness driver call
    result: object  # what the driver returned
    missing: list  # lookup points that could not be wrapped


def execute(b: Bench, replacements=(), around=nullcontext) -> Pass:
    """Run the workload's command once through ``lossmix.cli.main``."""
    shutil.rmtree(b.out, ignore_errors=True)
    captured = []

    def capture(fn):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            captured.append((result, time.perf_counter() - started))
            return result

        return timed

    argv = [b.workload.command, "--config", str(b.config), "--out", str(b.out)]
    driver = [(b.lossmix.cli, b.workload.driver, capture)]
    code, error = None, None
    with patched(driver + list(replacements)) as missing, redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        try:
            with around():
                code = b.lossmix.cli.main(argv)
        except Exception as exc:  # a crashing command is a failed pass, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
    result, driver_s = captured[0] if captured else (None, math.nan)
    return Pass(code, error, wall, driver_s, result, missing)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def run(self, label: str, issues: list) -> None:
        self.attempted += 1
        self.failed += bool(issues)
        self.problems += [f"{label}: {issue}" for issue in issues]


@dataclass
class Outcome:
    steps: int  # optimizer steps attempted, all runs
    useful_steps: int  # steps in runs that did not diverge
    run_vals: list  # final validation loss per run, for bitwise comparison
    final_val: float


def runs_of(command: str, result) -> list:
    """(RunResult, output directory name) for every run in a driver result."""
    if command == "train":
        return [(result, f"train_seed{result.seed}")]
    if command == "grid":
        return [(r, f"grid_p{i:02d}_seed{r.seed}") for i, p in enumerate(result.points) for r in p.runs]
    return [(r, f"study_seed{r.seed}") for r in result.runs]


def same_records(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(getattr(x, f.name), getattr(y, f.name))
        for x, y in zip(a, b)
        for f in dataclasses.fields(x)
    )


def check_run(harness, run, run_dir: Path) -> list[str]:
    """Everything wrong with one run's outputs; empty when it is correct."""
    issues = []
    if run.diverged:
        issues.append(f"diverged at step {run.diverged_step}")
    for rec in run.trajectory:
        if abs(float(rec.lam.sum()) - 1.0) > 1e-12 or rec.mu[0] != 0.0:
            issues.append(f"weights off the simplex or mu_0 != 0 at step {rec.t}")
            break
    for fmt in ("csv", "json"):
        path = run_dir / f"trajectory.{fmt}"
        try:
            back = harness.import_results(path)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            issues.append(f"{path.name} does not re-import: {exc}")
            continue
        if not same_records(back, run.trajectory):
            issues.append(f"{path.name} differs from the in-memory trajectory")
    return issues


def check_pass(b: Bench, p: Pass, tally: Tally) -> Outcome | None:
    """Count and check every run of a pass; None when the pass produced no result."""
    expected = b.workload.runs
    if p.result is None or p.code is None:
        for i in range(expected):
            tally.run(f"run {i}", [p.error or "the harness driver was never called"])
        return None
    runs = runs_of(b.workload.command, p.result)
    if len(runs) != expected:
        tally.problems.append(f"{len(runs)} runs in a pass, expected {expected}")
    for run, dirname in runs:
        issues = check_run(b.lossmix.harness, run, b.out / dirname)
        if p.code != 0:
            issues.append(f"exit code {p.code}")
        tally.run(dirname, issues)
    steps = [run.diverged_step if run.diverged else run.final.t for run, _ in runs]
    vals = [run.final_val for run, _ in runs]
    if b.workload.command == "grid":
        final_val = p.result.best_point.mean_val
    else:
        kept = [run.final_val for run, _ in runs if not run.diverged]
        final_val = statistics.fmean(kept) if kept else math.inf
    return Outcome(
        steps=sum(steps),
        useful_steps=sum(s for s, (run, _) in zip(steps, runs) if not run.diverged),
        run_vals=vals,
        final_val=final_val,
    )


# -- the two kinds of run -----------------------------------------------------

SETUP_CHILD = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from lossmix.config import load_config
load_config(sys.argv[2])
print(time.perf_counter() - started)
"""


def measure_setup(b: Bench, repeats: int) -> list[float]:
    """Seconds to import lossmix and load the workload config, each in a fresh process."""
    times = []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(b.config)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(child.stdout.split()[-1]))
    return times


def median(values):
    return statistics.median(values) if values else math.nan


def timed_run(b: Bench, seconds: int, tally: Tally):
    """Untraced passes for about ``seconds``; medians of the per-pass figures."""
    setup = measure_setup(b, 2 if b.tiny else SETUP_REPEATS)
    walls, rates, outcomes = [], [], []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        p = execute(b)
        outcome = check_pass(b, p, tally)
        walls.append(p.wall)
        if outcome is not None:
            rates.append(outcome.steps / p.driver_s)
            outcomes.append(outcome)
        del p  # a finished pass's result must not add to the next pass's peak RSS
        # stop when another pass of the same length would overrun the window
        now = time.perf_counter()
        if now - began + (now - pass_began) > seconds:
            break
    values = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "steps_per_s": median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_val": outcomes[0].final_val if outcomes else math.nan,
    }
    samples = {"setup_s": setup, "wall_s": walls, "steps_per_s": rates}
    return values, samples, outcomes


def traced_run(b: Bench, tally: Tally):
    """One counting, one untraced and one traced pass; the per-layer metrics.

    The counting pass goes first and doubles as the warm-up, so that the
    untraced and traced passes, whose difference is the tracing overhead,
    both run warm. A lookup point that could not be wrapped is a problem:
    the metrics that depend on it would read 0.
    """
    counter = CallCounter()
    counted = execute(b, counter.replacements(b.lossmix))
    plain = execute(b)
    tracer = Tracer()
    child_cost = tracer.calibrate()
    traced = execute(b, tracer.replacements(b.lossmix), lambda: tracer.span("cli.main"))
    outcomes = [o for o in (check_pass(b, p, tally) for p in (counted, plain, traced)) if o is not None]
    tracer.save(b.work / "spans.npz")
    values = {}
    if len(outcomes) == 3:
        counting, _, during = outcomes
        values = tracer.layer_metrics(during.steps, during.useful_steps)
        values["harness.numpy_calls_per_step"] = counter.calls / counting.steps
        values["trace.overhead_s"] = traced.wall - plain.wall
    missing = sorted(set(traced.missing + counted.missing))
    if missing:
        tally.problems.append(f"lookup points not found, so not traced: {', '.join(missing)}")
    samples = {
        "wall_s": {"untraced": plain.wall, "traced": traced.wall, "counting": counted.wall},
        "child_cost_us": child_cost * 1e6,
    }
    return values, samples, outcomes


# -- checks across passes, and the record ---------------------------------------


def check_agreement(b: Bench, outcomes: list, tally: Tally) -> None:
    """Passes of one seed agree bitwise; the default seeds match the stored reference."""
    if any(o.run_vals != outcomes[0].run_vals for o in outcomes[1:]):
        tally.problems.append("passes of the same seed disagree on final_val")
    if b.tiny or not outcomes:
        return
    reference = json.loads(REFERENCE.read_text())
    expected = reference["final_val"].get(b.name, {}).get(str(b.seed))
    got = outcomes[0].final_val
    if expected is not None and not abs(got - expected) <= reference["rel_tol"] * abs(expected):
        tally.problems.append(f"final_val {got!r} differs from the reference {expected!r}")


def declared_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_commit():
    """HEAD of the checkout when it is a git clone, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_info(lossmix) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "lossmix": lossmix.__version__,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def finite(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark one lossmix workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; run seeds derive from it")
    parser.add_argument("--seconds", type=int, default=40, help="length of the timed window (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--tiny", action="store_true", help=f"{TINY_STEPS}-step budgets, no reference check")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lossmix" / "__init__.py").is_file():
        print(f"bench/run.py: no lossmix source at {SRC}", file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    lossmix = import_lossmix()
    machine = machine_info(lossmix)
    b = Bench(args.workload, args.seed, args.tiny, lossmix)
    tally = Tally()
    if args.trace:
        values, samples, outcomes = traced_run(b, tally)
    else:
        values, samples, outcomes = timed_run(b, args.seconds, tally)
    check_agreement(b, outcomes, tally)
    metrics = {name: {"value": finite(values.get(name, math.nan)), "unit": unit} for name, unit in units.items()}
    if any(m["value"] is None for m in metrics.values()):
        tally.problems.append("a metric could not be measured")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": b.name,
        "seed": b.seed,
        "trace": args.trace,
        "tiny": b.tiny,
        "run_seeds": b.seeds,
        "commit": git_commit(),
        "machine": machine,
        "passes": len(outcomes),
        "samples": samples,
        "problems": tally.problems,
        "config": b.config.read_text(),
    }
    path = b.work / f"result-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{b.name} seed {b.seed} trace {args.trace}: {len(outcomes)} passes, "
          f"{tally.attempted} runs, {tally.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']!r:>24} {m['unit']}")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

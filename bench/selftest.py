#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny step budgets (a few seconds).

Run from the repository root:

    python3 bench/selftest.py

It checks that
* every workload, untraced and traced, prints a last line with exactly the
  keys correct/attempted/failed/metrics, whose metrics are exactly the ones
  BENCHMARK.json declares for that mode, each a number with its unit, and
  with no failed run;
* the traced grid reads zero_decay_share 1.0 and the learned workloads 0;
* a deliberately corrupted trajectory file counts as one failed operation;
* a traced run in which a lookup point is gone is not correct;
* in a directory holding only BENCHMARK.json and bench/, the benchmark exits
  non-zero without printing a result.
It exits 0 when all of these hold and prints each failure otherwise.
"""

import json
import shutil
import subprocess
import sys

import run

KINDS = {0: "end_to_end", 1: "per_layer"}


def bench(args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_results(failures):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, kind in KINDS.items():
            label = f"{workload} --trace {trace}"
            done = bench(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"])
            if done.returncode != 0:
                failures.append(f"{label}: exit code {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} failed={result['failed']}\n{done.stdout}")
            units = {name: m.get("unit") for name, m in result["metrics"].items()}
            if units != {m["name"]: m["unit"] for m in spec[kind]}:
                failures.append(f"{label}: metrics or units differ from BENCHMARK.json: {units}")
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    failures.append(f"{label}: {name} has no numeric value: {m}")
            if trace:
                share = result["metrics"]["losses.regularizer_gradient.zero_decay_share"]["value"]
                want = 1.0 if workload == "grid-demo" else 0.0
                if share != want:
                    failures.append(f"{label}: zero_decay_share {share}, expected {want}")


def check_corruption(failures):
    b = run.Bench("study-mlp-adamw", 0, True, run.import_lossmix())
    p = run.execute(b)
    victim = b.out / f"study_seed{b.seeds[1]}" / "trajectory.csv"
    lines = victim.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[-1] = repr(float(fields[-1]) * 1.5)  # one validation loss, no longer what was computed
    victim.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    tally = run.Tally()
    run.check_pass(b, p, tally)
    if (tally.attempted, tally.failed) != (3, 1):
        failures.append(f"corrupted trajectory: attempted={tally.attempted} failed={tally.failed}, expected 3 and 1")


def check_missing_lookup_point(failures):
    lossmix = run.import_lossmix()
    b = run.Bench("grid-demo", 0, True, lossmix)
    # fixed-weight runs never call it, so the grid runs as before without it
    saved = lossmix.harness.hp_gradient_empirical
    del lossmix.harness.hp_gradient_empirical
    try:
        tally = run.Tally()
        run.traced_run(b, tally)
    finally:
        lossmix.harness.hp_gradient_empirical = saved
    if tally.failed or not any("harness.hp_gradient_empirical" in p for p in tally.problems):
        failures.append(f"missing lookup point: failed={tally.failed}, problems {tally.problems}")


def check_bare_directory(failures):
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare)
    done = bench(["--workload", "grid-demo", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        failures.append(f"bare directory: exit code {done.returncode}, stdout {done.stdout!r}")
    shutil.rmtree(bare)


def main() -> int:
    failures = []
    for check in (check_results, check_corruption, check_missing_lookup_point, check_bare_directory):
        before = len(failures)
        check(failures)
        print(f"{check.__name__}: {'ok' if len(failures) == before else 'FAILED'}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

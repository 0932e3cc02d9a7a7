#!/usr/bin/env python3
"""Rewrite bench/reference.json: final_val of every workload at seeds
0 .. run.REFERENCE_SEEDS - 1.

Run from the repository root:

    python3 bench/make_reference.py

Each value comes from one untraced pass whose runs all pass the output
checks. Rerun it only in a change that means to alter training results, and
say so: every benchmark run at one of these seeds is checked against them.
"""

import json
import sys

import run


def main() -> int:
    lossmix = run.import_lossmix()
    values = {}
    for name in run.WORKLOADS:
        for seed in range(run.REFERENCE_SEEDS):
            b = run.Bench(name, seed, False, lossmix)
            tally = run.Tally()
            outcome = run.check_pass(b, run.execute(b), tally)
            if tally.problems:
                print(f"{name} seed {seed}: {tally.problems}", file=sys.stderr)
                return 1
            values.setdefault(name, {})[str(seed)] = outcome.final_val
            print(f"{name} seed {seed}: {outcome.final_val!r}", flush=True)
    reference = json.loads(run.REFERENCE.read_text())
    reference["final_val"] = values
    run.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

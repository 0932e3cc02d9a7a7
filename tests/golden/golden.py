"""Golden outputs: a fixed set of CLI commands and what they write.

The set is CI's four determinism commands (300 steps each), a 300-step
MLP SGDW ``train``, the diverging grid (exit 4) and ``lossmix
gradcheck``. Each runs in-process through ``cli.main``. Per file, and
per command's stdout and stderr, the manifest holds the SHA-256 of the
bytes with ``wall_time_sec`` removed and, for a trajectory, its final
row; per command, its exit code.

    PYTHONPATH=src python tests/golden/golden.py

rewrites ``manifest.json`` from the checked-out code. A change that
means to move outputs reruns it and says which files moved and why;
one that does not, leaves the manifest alone.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from lossmix.cli import main

MANIFEST = Path(__file__).with_name("manifest.json")
DEMO = str(Path(__file__).resolve().parents[2] / "configs" / "demo.cfg")

_MLP_ADAMW = ["model=tiny_mlp_consistency", "optimizer=adamw", "alpha=0.01", "record_every=10", "total_steps=300"]
_MLP_SGDW = ["model=tiny_mlp_consistency", "optimizer=sgdw", "record_every=10", "total_steps=300"]
_DIVERGING = ["alpha=1.0", "record_every=10", "total_steps=500"]

# name -> (subcommand, overrides); None runs the subcommand with no config
COMMANDS = {
    "study": ("seed-study", _MLP_ADAMW),
    "grid": ("grid", ["total_steps=300"]),
    "train": ("train", ["total_steps=300"]),
    "sweep": ("init-sweep", ["total_steps=300"]),
    "train_mlp_sgdw": ("train", _MLP_SGDW),
    "grid_diverging": ("grid", _DIVERGING),
    "gradcheck": ("gradcheck", None),
}

_WALL_TIME = re.compile(rb'"wall_time_sec": [^,\n}]*')


def _argv(command: str, overrides, out: Path) -> list[str]:
    if overrides is None:
        return [command]
    return [command, "--config", DEMO, "--out", str(out)] + [a for o in overrides for a in ("--override", o)]


def _final_row(path: Path):
    """The last row of a trajectory file, read with the stdlib; None for an empty trajectory."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return [float(v) for v in rows[-1]] if rows else None
    records = json.loads(path.read_text())
    return [float(v) for v in records[-1].values()] if records else None


def _entry(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(_WALL_TIME.sub(b'"wall_time_sec"', data)).hexdigest()}


def run_all(root: Path) -> dict:
    """Run every command of the set under ``root`` and describe what it wrote, in manifest form."""
    exit_codes, files = {}, {}
    for name, (command, overrides) in COMMANDS.items():
        out = root / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_codes[name] = main(_argv(command, overrides, out))
        files[f"{name}/stdout"] = _entry(stdout.getvalue().encode())
        files[f"{name}/stderr"] = _entry(stderr.getvalue().encode())
        if command == "gradcheck":
            report = json.loads(stdout.getvalue())
            files[f"{name}/stdout"]["all_passed"] = report["all_passed"]
            files[f"{name}/stdout"]["reports"] = [[r["name"], r["n_trials"]] for r in report["reports"]]
        for path in sorted(out.rglob("*")) if out.exists() else []:
            if path.is_file():
                entry = files[path.relative_to(root).as_posix()] = _entry(path.read_bytes())
                if path.stem == "trajectory":
                    entry["final_row"] = _final_row(path)
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "exit_codes": exit_codes,
        "files": files,
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_all(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(manifest['files'])} files -> {MANIFEST}", file=sys.stderr)

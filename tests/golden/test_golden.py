"""The golden command set writes what ``manifest.json`` recorded.

On the numpy minor version the manifest was written with, every file
must match byte for byte (``wall_time_sec`` removed). On another
version the arithmetic may round differently, so the test compares each
trajectory's final row at 1e-9 relative and the gradient check's
verdict, names and trial counts instead. Either way the set of files
and every exit code must match. The test prints which comparison it
made (shown with ``pytest -rA``).
"""

import json
import math

import numpy as np

from golden import MANIFEST, run_all

REL_TOL = 1e-9


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def _close(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL)


def test_outputs_match_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    actual = run_all(tmp_path)
    assert actual["exit_codes"] == expected["exit_codes"]
    assert sorted(actual["files"]) == sorted(expected["files"])

    if _minor(np.__version__) == _minor(expected["numpy"]):
        print(f"numpy {np.__version__} (manifest: {expected['numpy']}): compared the bytes of {len(actual['files'])} files")
        moved = [name for name, e in expected["files"].items() if actual["files"][name]["sha256"] != e["sha256"]]
        assert not moved, f"{len(moved)} files differ from the manifest: {moved[:10]}"
        return

    rows = 0
    for name, e in expected["files"].items():
        if "final_row" in e:
            got, want = actual["files"][name]["final_row"], e["final_row"]
            assert (got is None) == (want is None), name
            assert want is None or (len(got) == len(want) and all(map(_close, got, want))), (name, got, want)
            rows += 1
        if "reports" in e:
            assert actual["files"][name]["all_passed"] is e["all_passed"] is True
            assert actual["files"][name]["reports"] == e["reports"]
    print(
        f"numpy {np.__version__} (manifest: {expected['numpy']}): compared {rows} final rows at {REL_TOL} relative"
        " and the gradient check's reports, not bytes"
    )

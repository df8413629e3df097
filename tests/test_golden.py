"""Golden digest: ``python -m repro --fast --seed 7`` must write exactly
the checked-in result rows and metrics snapshot.

The simulation is deterministic (seeded RNGs, integer-picosecond event
engine), so any byte of difference is a behaviour change.  A change that
means to move an output re-records both files with

    PYTHONPATH=src python -m repro --fast --seed 7 \\
        --json tests/golden/fast_seed7.json \\
        --metrics-out tests/golden/fast_seed7_metrics.json

and lists every changed row in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SRC = str(TESTS.parent / "src")


def _rows(doc):
    """(label, value) rows in file order: one per result row of a
    ``{experiment: [row, ...]}`` document, one per key of a flat one."""
    for key, value in doc.items():
        if isinstance(value, list):
            for index, row in enumerate(value):
                yield f"{key}[{index}]", row
        else:
            yield key, value


def _first_difference(expected: bytes, actual: bytes) -> str:
    want = list(_rows(json.loads(expected)))
    got = list(_rows(json.loads(actual)))
    for (want_label, want_row), (got_label, got_row) in zip(want, got):
        if want_label != got_label:
            return f"row {want_label!r} expected, {got_label!r} written"
        if want_row != got_row:
            return (f"first differing row {want_label}:\n"
                    f"  golden:  {want_row!r}\n  written: {got_row!r}")
    if len(want) != len(got):
        return f"{len(want)} rows golden, {len(got)} written"
    return "same rows, different bytes (formatting or key order)"


def test_fast_seed7_matches_golden(tmp_path):
    rows = tmp_path / "rows.json"
    metrics = tmp_path / "metrics.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "--fast", "--seed", "7",
         "--json", str(rows), "--metrics-out", str(metrics)],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    for written, golden in ((rows, "fast_seed7.json"),
                            (metrics, "fast_seed7_metrics.json")):
        expected = (GOLDEN / golden).read_bytes()
        actual = written.read_bytes()
        assert actual == expected, (
            f"{golden}: {_first_difference(expected, actual)}")

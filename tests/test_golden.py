"""Golden digest: ``python -m repro --fast --seed 7`` must write exactly
the checked-in result rows and metrics snapshot.

The simulation is deterministic (seeded RNGs, integer-picosecond event
engine), so any byte of difference is a behaviour change.  A change that
means to move an output re-records both files with

    PYTHONPATH=src python -m repro --fast --seed 7 \\
        --json tests/golden/fast_seed7.json \\
        --metrics-out tests/golden/fast_seed7_metrics.json

and lists every changed row in CHANGES.md.

The trace plane is pinned by digest: the Chrome-trace file of four
experiments hashes to the checked-in sha256.  Between them they write
the tx/rx/ack/nak/retransmit, power and kernel-stall instants, the
queued and DMA spans, and the utilization, queue-depth and
outstanding-reads series (only incast-sweep, too slow for this suite,
adds cnp, qp_error and the DCQCN rate series).  A change that means to move a trace re-records it with

    PYTHONPATH=src python -m repro fig7 fault-sweep kernel-fault-sweep \\
        cluster-scaling --fast --seed 7 --trace-out trace.json
    sha256sum trace.json | cut -d' ' -f1 > tests/golden/fast_seed7_trace.sha256

The paper's claims are shapes (who wins, by roughly how much), so the
shape assertions read the golden rows themselves: they hold on every run
that matches the golden, and they must still hold on the rows of any
re-record.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.runner import _registry

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


def test_fast_seed7_trace_matches_golden_digest(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "fig7", "fault-sweep",
         "kernel-fault-sweep", "cluster-scaling", "--fast", "--seed", "7",
         "--trace-out", str(trace)],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    expected = (GOLDEN / "fast_seed7_trace.sha256").read_text().strip()
    actual = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert actual == expected, (
        f"--trace-out digest {actual} differs from the golden {expected}")


def _golden_rows():
    return json.loads((GOLDEN / "fast_seed7.json").read_bytes())


def test_golden_rows_keep_the_paper_shapes():
    golden = _golden_rows()
    assert sorted(golden) == sorted(_registry(True))
    assert len(golden) == 25

    # Incast: uncontrolled 8:1 fan-in collapses; DCQCN at least doubles
    # its goodput with a lower p99, fewer tail drops and no QP errors,
    # and does not tax the barely oversubscribed 2:1 case.
    incast = {(r["senders"], r["cc"]): r for r in golden["incast-sweep"]}
    off, on = incast[(8, 0)], incast[(8, 1)]
    assert off["tail_drops"] > 1000
    assert on["goodput_gbps"] >= 2.0 * off["goodput_gbps"]
    assert on["ce_marks"] > 0 and on["cnps"] > 0
    assert on["p99_us"] < off["p99_us"]
    assert on["tail_drops"] < off["tail_drops"]
    assert on["qp_errors"] == 0
    assert incast[(2, 1)]["goodput_gbps"] >= incast[(2, 0)]["goodput_gbps"]

    # Chaos: every point injects its faults and the sweep recovers
    # retransmissions.
    faults = golden["fault-sweep"]
    assert sum(r["recoveries"] for r in faults) > 0
    assert all(r["faults_injected"] > 0 for r in faults)

    # Hostile kernels: no client request fails; at the hottest level the
    # watchdog aborts, the abused kernel quarantines and clients fall
    # back to one-sided READs.
    kernel_faults = golden["kernel-fault-sweep"]
    assert all(r["failed"] == 0 for r in kernel_faults)
    hot = max(kernel_faults, key=lambda r: r["fault_level"])
    assert (hot["aborts_protection"] + hot["aborts_cycle"]
            + hot["aborts_timeout"]) > 0
    assert hot["quarantined"] > 0
    assert hot["strom_fallbacks"] > 0

    # Fig 9: software CRC costs over 30 % at 4 KiB, and StRoM beats
    # READ+SW from 2 KiB up.
    fig9 = {r["object_B"]: r for r in golden["fig9"]}
    assert fig9[4096]["sw_overhead_pct"] > 30
    assert [size for size, r in fig9.items()
            if size >= 2048 and r["strom_us"] >= r["read_sw_us"]] == []


def test_standalone_experiments_match_golden_slices(tmp_path):
    """Run outside the full reproduction, these experiments must write
    the golden's rows for their ids: state leaking from one experiment
    into the next would show up as a difference."""
    ids = ("incast-sweep", "fault-sweep", "kernel-fault-sweep", "fig9",
           "fig10", "fig13a")
    rows = tmp_path / "rows.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "repro", *ids, "--fast",
         "--seed", "7", "--json", str(rows)],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    written = json.loads(rows.read_bytes())
    golden = _golden_rows()
    assert sorted(written) == sorted(ids)
    for experiment in ids:
        assert written[experiment] == golden[experiment], experiment

"""Shared benchmark configuration.

Each ``bench_*`` file regenerates one table/figure of the paper's
evaluation.  The pytest-benchmark timing measures the harness itself
(simulation wall time); the *reproduced values* are attached to each
benchmark's ``extra_info`` and printed, and shape assertions guard the
paper's qualitative claims (who wins, by roughly what factor).

Every scenario additionally reports the zero-copy payload plane's
counter delta — payload bytes materialized as fresh copies vs. handed
across the memory boundary by reference — so a regression that silently
reintroduces per-hop copying shows up in the benchmark log.  Scenarios
that exercise the congestion-control plane likewise get their CC
activity delta (CE marks, CNPs, rate cuts, paced packets) echoed, so a
change that silently stops the control loop from firing is visible.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cc import CC_STATS  # noqa: E402
from repro.core.payload import PAYLOAD_STATS  # noqa: E402


def attach_rows(benchmark, result) -> None:
    """Store an ExperimentResult's rows in the benchmark record and echo
    the table so `pytest benchmarks/ --benchmark-only -s` shows it."""
    benchmark.extra_info["experiment"] = result.experiment_id
    benchmark.extra_info["rows"] = result.rows
    print()
    print(result.format_table())


@pytest.fixture(autouse=True)
def payload_copy_report(request):
    """Print the payload-plane counter delta per benchmark scenario."""
    before = PAYLOAD_STATS.snapshot()
    yield
    after = PAYLOAD_STATS.snapshot()
    copied = after["bytes_copied"] - before["bytes_copied"]
    referenced = after["bytes_referenced"] - before["bytes_referenced"]
    if copied or referenced:
        print(f"\npayload plane [{request.node.name}]: {copied:,} B "
              f"copied, {referenced:,} B by reference")


@pytest.fixture(autouse=True)
def cc_activity_report(request):
    """Print the congestion-control counter delta per benchmark
    scenario (silent for scenarios that never enable the plane)."""
    before = {key: getattr(CC_STATS, key) for key in CC_STATS.__slots__}
    yield
    delta = {key: getattr(CC_STATS, key) - count
             for key, count in before.items()}
    if any(delta.values()):
        print(f"\ncc plane [{request.node.name}]: "
              f"{delta['ce_marks']:,} CE marks, "
              f"{delta['cnps_sent']:,} CNPs, "
              f"{delta['rate_cuts']:,} rate cuts, "
              f"{delta['paced_packets']:,} paced packets")

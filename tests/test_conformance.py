"""Tier-1 conformance: a fixed seed set runs clean under every
invariant monitor, the harness is deterministic, replay lines name the
exact run, and a deliberately injected PSN-skip bug is caught by the
monitors with a replayable seed (mutation check)."""

import pytest

from repro.check import InvariantViolation
from repro.check.harness import (
    ConformanceError,
    derive_run_seed,
    replay_command,
    run_one,
)

#: Small fixed set for tier-1; CI sweeps 25 runs per seed.
_TIER1_SEED = 7
_TIER1_RUNS = 6


def test_fixed_seed_sweep_is_clean():
    rows = [run_one(_TIER1_SEED, index) for index in range(_TIER1_RUNS)]
    assert len(rows) == _TIER1_RUNS
    for row in rows:
        assert row["checks"] > 0
        assert row["violations"] == 0
    # The fixed set exercises all three scenario families.
    scenarios = {row["scenario"] for row in rows}
    assert scenarios == {"raw", "kv", "burst"}


def test_runs_are_deterministic():
    """Same seed, same index -> identical result rows (the property that
    makes a recorded failing seed replayable forever)."""
    for index in (0, 2):
        first = run_one(_TIER1_SEED, index)
        second = run_one(_TIER1_SEED, index)
        assert first == second


def test_replay_command_names_the_run():
    cmd = replay_command(7, 3)
    assert "--seed 7" in cmd
    assert "--runs 1" in cmd
    assert "--first-run 3" in cmd


def test_run_seeds_are_decorrelated():
    seeds = {derive_run_seed(base, index)
             for base in (1, 2, 3) for index in range(10)}
    assert len(seeds) == 30


def test_zero_checks_is_itself_a_failure(monkeypatch):
    """If hook wiring silently broke, every run would pass vacuously;
    the harness treats an assertion count of zero as a failure."""
    from repro.check import monitors

    class _DeadChecker(monitors.InvariantChecker):
        def on_tx(self, nic, packet, qp=None):  # noqa: ARG002
            return None

        def on_rx(self, nic, qp, packet):  # noqa: ARG002
            return None

        def on_dma_commit(self, dma, vaddr, pieces, length):  # noqa: ARG002
            return None

        def on_timer_arm(self, timer, qpn):  # noqa: ARG002
            return None

        def on_qp_error(self, nic, qpn, reason):  # noqa: ARG002
            return None

        def on_switch_enqueue(self, switch, port, packet):  # noqa: ARG002
            return None

        def on_switch_dequeue(self, switch, port, packet):  # noqa: ARG002
            return None

        def on_switch_drop(self, switch, port, packet):  # noqa: ARG002
            return None

        def on_paced(self, cc_name, qpn, machine, pacer, wire_bytes):  # noqa: ARG002
            return None

        def finish(self):
            return None

    monkeypatch.setattr(monitors, "InvariantChecker", _DeadChecker)
    with pytest.raises(ConformanceError, match="monitors never fired"):
        run_one(_TIER1_SEED, 0)


# ---------------------------------------------------------------------------
# Mutation check (ISSUE acceptance criterion): inject a PSN-skip bug
# into the requester and prove the monitors catch it with a replayable
# seed.
# ---------------------------------------------------------------------------

def test_injected_psn_skip_bug_is_caught(monkeypatch):
    from repro.roce import qp as qp_module
    from repro.roce.qp import psn_add

    original = qp_module.RequesterState.allocate_psns
    calls = [0]

    def skipping_allocate(self, count):
        # The injected bug: the third allocation silently burns one PSN,
        # exactly the off-by-one a broken requester pipeline would show.
        calls[0] += 1
        if calls[0] == 3:
            self.next_psn = psn_add(self.next_psn, 1)
        return original(self, count)

    monkeypatch.setattr(qp_module.RequesterState, "allocate_psns",
                        skipping_allocate)
    # Run index 5 of seed 7 is a raw READ/WRITE run with enough traffic
    # to reach the mutated third allocation.
    index = 5
    with pytest.raises(InvariantViolation) as caught:
        run_one(_TIER1_SEED, index)
    violation = caught.value
    assert violation.invariant == "psn-skip"
    assert violation.seed == derive_run_seed(_TIER1_SEED, index)
    assert f"--first-run {index}" in violation.replay
    assert "--seed 7" in violation.replay

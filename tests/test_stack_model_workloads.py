"""Tests for the pipeline budget model and the workload generators."""

import numpy as np
import pytest

from repro.config import HOST_DEFAULT, NIC_10G, NIC_100G
from repro.host.workloads import (
    partition_histogram,
    skewed_tuples,
    uniform_keys,
)
from repro.roce.stack_model import (
    STATE_TABLE_ACCESS_CYCLES,
    line_rate_verdict,
    min_frame_arrival_cycles,
    packet_arrival_cycles,
    rx_stage_budgets,
    worst_stage_cycles,
)


# ---------------------------------------------------------------------------
# Stack budget model (Section 4.1's argument, evaluated)
# ---------------------------------------------------------------------------

def test_min_frame_is_8_cycles_at_10g():
    """'the smallest possible Ethernet frame is 64 B corresponding to 8
    cycles' — with preamble/IFG the arrival budget is comfortably above
    the 5-cycle State Table access."""
    cycles = min_frame_arrival_cycles(NIC_10G)
    assert cycles >= 8.0
    assert worst_stage_cycles(NIC_10G) == STATE_TABLE_ACCESS_CYCLES


def test_10g_sustains_line_rate_for_all_sizes():
    for payload in (1, 64, 512, 1440):
        verdict = line_rate_verdict(NIC_10G, HOST_DEFAULT, payload)
        assert verdict.pipeline_sustains
        assert verdict.effectively_limited_by == "wire"


def test_100g_state_table_oversubscribed_but_masked_by_host():
    """'At 5 cycles, the update step is a potential bottleneck for small
    packets at higher bandwidths.  However ... the message rate at
    higher bandwidths is limited by the host issuing commands.'"""
    verdict = line_rate_verdict(NIC_100G, HOST_DEFAULT, 64)
    assert not verdict.pipeline_sustains          # nominal bottleneck
    assert verdict.host_packet_rate < verdict.stage_packet_rate
    assert verdict.effectively_limited_by == "host-mmio"  # but masked


def test_100g_large_packets_sustain():
    verdict = line_rate_verdict(NIC_100G, HOST_DEFAULT, 1440)
    assert verdict.pipeline_sustains


def test_arrival_cycles_grow_with_payload():
    small = packet_arrival_cycles(NIC_10G, 64)
    large = packet_arrival_cycles(NIC_10G, 1440)
    assert large > small


def test_stage_budgets_structure():
    rx = rx_stage_budgets(NIC_10G)
    assert any(s.name == "process_bth" for s in rx)


# ---------------------------------------------------------------------------
# Workload generators
# ---------------------------------------------------------------------------

def test_uniform_keys_range():
    keys = uniform_keys(10_000, key_space=256, seed=2)
    assert keys.max() < 256
    assert len(np.unique(keys)) > 200  # covers most of the space


def test_skewed_tuples_histogram():
    bits = 4
    values = skewed_tuples(count=40_000, partition_bits=bits,
                           hot_fraction=0.25, hot_share=0.8, seed=4)
    histogram = partition_histogram(values, bits)
    assert sum(histogram) == 40_000
    hot = sum(histogram[:4])       # the 4 hottest of 16 partitions
    assert hot > 0.75 * 40_000     # ~80% of tuples land there


def test_skewed_tuples_validation():
    with pytest.raises(ValueError):
        skewed_tuples(10, 4, hot_fraction=0.0, hot_share=0.5)

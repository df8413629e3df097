"""Tests for the configuration and framing arithmetic."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.config import (
    HOST_DEFAULT,
    NIC_10G,
    NIC_100G,
    NicConfig,
    scaled_config,
)


def test_paper_clock_and_width_constants():
    """Section 3.5 / 7: 8 B @ 156.25 MHz for 10 G; 64 B @ 322 MHz for
    100 G."""
    assert NIC_10G.roce_clock_hz == 156.25e6
    assert NIC_10G.datapath_bytes == 8
    assert NIC_100G.roce_clock_hz == 322e6
    assert NIC_100G.datapath_bytes == 64
    # Data path capacity must cover the line rate (II=1 argument).
    for cfg in (NIC_10G, NIC_100G):
        assert cfg.datapath_bytes * 8 * cfg.roce_clock_hz \
            >= cfg.line_rate_bps


def test_pcie_network_ratio():
    """Section 7: ~6:1 at 10 G, close to 1:1 at 100 G."""
    ratio_10g = NIC_10G.pcie_bandwidth_bps / NIC_10G.line_rate_bps
    ratio_100g = NIC_100G.pcie_bandwidth_bps / NIC_100G.line_rate_bps
    assert 5.0 < ratio_10g < 7.0
    assert 0.9 < ratio_100g < 1.3


def test_pcie_read_latency_footnote7():
    assert NIC_10G.pcie_read_latency == 1_500_000  # 1.5 us in ps
    assert HOST_DEFAULT.dram_latency == 80_000     # 80 ns in ps


def test_tlb_reach():
    assert NIC_10G.tlb_entries * NIC_10G.page_bytes == 32 * 1024 ** 3


def test_clock_period_and_cycles():
    assert NIC_10G.cycles(1) == 6400  # ps
    assert NIC_10G.cycles(5) == 32_000
    assert NIC_100G.cycles(1) == 3106


@pytest.mark.parametrize("nic", [NIC_10G, NIC_100G], ids=["10G", "100G"])
def test_cached_period_gives_the_timebase_integers(nic):
    """The period is rounded once per config; every duration stays the
    integer ``timebase.cycles_to_ps`` gives."""
    from repro.sim import timebase
    for num_bytes in range(9001):
        assert nic.streaming_time(num_bytes) == timebase.cycles_to_ps(
            nic.words(num_bytes), nic.roce_clock_hz)
    for n in range(200):
        assert nic.cycles(n) == timebase.cycles_to_ps(n, nic.roce_clock_hz)
    with pytest.raises(ValueError):
        nic.cycles(-1)
    assert replace(nic, roce_clock_hz=250e6).cycles(1) == 4000


def test_words_and_streaming_time():
    assert NIC_10G.words(1) == 1
    assert NIC_10G.words(8) == 1
    assert NIC_10G.words(9) == 2
    assert NIC_100G.words(1500) == 24
    assert NIC_10G.streaming_time(64) == 8 * 6400


def test_scaled_config():
    wide = scaled_config(NIC_10G, datapath_bytes=32)
    assert wide.datapath_bytes == 32
    assert wide.roce_clock_hz == NIC_10G.roce_clock_hz
    assert NIC_10G.datapath_bytes == 8  # original untouched


def test_max_payload_constants():
    assert config.MAX_PAYLOAD_NO_RETH == 1500 - 44
    assert config.MAX_PAYLOAD_WITH_RETH == 1500 - 60


def test_wire_bytes_for_frame_minimum():
    # Tiny frames pad to the 64 B Ethernet minimum.
    assert config.wire_bytes_for_frame(10) == 64 + 20
    assert config.wire_bytes_for_frame(100) == 100 + 18 + 20


@settings(max_examples=60)
@given(payload=st.integers(min_value=1, max_value=1 << 20))
def test_wire_bytes_monotone(payload):
    assert config.wire_bytes_of_message(payload) \
        <= config.wire_bytes_of_message(payload + 1)


@settings(max_examples=60)
@given(payload=st.integers(min_value=1, max_value=1 << 20))
def test_goodput_below_line_rate(payload):
    assert config.ideal_goodput_bps(payload, 10e9) < 10e9


def test_ideal_efficiency_increases_with_payload():
    small = config.ideal_goodput_bps(64, 10e9)
    large = config.ideal_goodput_bps(1 << 20, 10e9)
    assert large > small


def test_nic_config_is_frozen():
    with pytest.raises(Exception):
        NIC_10G.datapath_bytes = 16

"""Analytical budget of the RoCE stack's pipeline stages (Section 4.1).

The paper argues line rate from cycle counts: the State-Table
interaction in Process BTH takes ~5 cycles per packet, while the
smallest Ethernet frame occupies 8 data-path words at 10 G — so the
pipeline always has slack.  "At 5 cycles, the update step is a potential
bottleneck for small packets at higher bandwidths.  However ... the
message rate at higher bandwidths is limited by the host issuing
commands and not by the packet processing."

This module makes that argument executable for any configuration: it
derives per-stage cycle budgets, the per-packet arrival budget at line
rate, and whether (and where) the pipeline would bottleneck — including
the 100 G case where the State-Table update *is* nominally oversubscribed
for minimum-size packets but masked by the host's message rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .. import config as cfg
from ..config import HostConfig, NicConfig


#: Cycle costs of the receiving data path's stages (Figure 2), per
#: packet.  Header parsing is one word-beat per stage (II=1); the BTH
#: stage additionally serializes the 4-step State Table interaction
#: (Figure 3), "around 5 cycles per packet".
STATE_TABLE_ACCESS_CYCLES = 5


@dataclass(frozen=True)
class StageBudget:
    """One pipeline stage's serial cost per packet."""

    name: str
    cycles_per_packet: int
    #: True if the stage additionally streams the payload (II=1), i.e.
    #: its occupancy grows with packet size and can never bottleneck
    #: below line rate.
    streams_payload: bool


def rx_stage_budgets(config: NicConfig) -> List[StageBudget]:
    """The receiving data path of Figure 2."""
    return [
        StageBudget("process_ip", 2, True),
        StageBudget("process_udp", 1, True),
        StageBudget("process_bth", STATE_TABLE_ACCESS_CYCLES, True),
        StageBudget("packet_dropper", 1, True),
        StageBudget("process_reth_aeth", 2, True),
        StageBudget("dma_cmd_issue", 1, False),
    ]


def packet_arrival_cycles(config: NicConfig, payload_bytes: int) -> float:
    """Clock cycles between back-to-back packet arrivals at line rate.

    The paper's form of this argument: "the smallest possible Ethernet
    frame is 64 B corresponding to 8 cycles" (8 B data path at 10 G).
    """
    headers = (cfg.IPV4_HEADER_BYTES + cfg.UDP_HEADER_BYTES + cfg.BTH_BYTES
               + cfg.RETH_BYTES + cfg.ICRC_BYTES)
    wire = cfg.wire_bytes_for_frame(payload_bytes + headers)
    wire_seconds = wire * 8 / config.line_rate_bps
    return wire_seconds * config.roce_clock_hz


def min_frame_arrival_cycles(config: NicConfig) -> float:
    """Arrival budget for minimum-size frames (worst case)."""
    wire = cfg.MIN_FRAME_BYTES + cfg.ETH_PREAMBLE_IFG_BYTES
    return wire * 8 / config.line_rate_bps * config.roce_clock_hz


def worst_stage_cycles(config: NicConfig) -> int:
    """The slowest per-packet serial stage (the State Table update)."""
    return max(stage.cycles_per_packet
               for stage in rx_stage_budgets(config))


@dataclass(frozen=True)
class LineRateVerdict:
    """Can the pipeline sustain line rate for a given packet size?"""

    payload_bytes: int
    arrival_cycles: float
    worst_stage_cycles: int
    pipeline_sustains: bool
    #: Packets/s the *host* can generate (the masking effect of §4.1).
    host_packet_rate: float
    #: Packets/s the worst stage can absorb.
    stage_packet_rate: float
    effectively_limited_by: str


def line_rate_verdict(config: NicConfig, host: HostConfig,
                      payload_bytes: int) -> LineRateVerdict:
    """The paper's §4.1 argument, evaluated."""
    arrival = packet_arrival_cycles(config, payload_bytes)
    worst = worst_stage_cycles(config)
    sustains = arrival >= worst
    stage_rate = config.roce_clock_hz / worst
    host_rate = 1e12 / (host.mmio_command_cost * 1.06)
    if sustains:
        limit = "wire"
    elif host_rate < stage_rate:
        # Oversubscribed on paper, but the host cannot generate packets
        # fast enough for it to matter (the §4.1/§7.1 masking).
        limit = "host-mmio"
    else:
        limit = "state-table"
    return LineRateVerdict(
        payload_bytes=payload_bytes,
        arrival_cycles=arrival,
        worst_stage_cycles=worst,
        pipeline_sustains=sustains,
        host_packet_rate=host_rate,
        stage_packet_rate=stage_rate,
        effectively_limited_by=limit)



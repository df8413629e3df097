"""Calibration constants for the StRoM system model.

Every timing number the simulation uses lives here, with its provenance:
either stated directly in the paper (clock frequencies, data-path widths,
PCIe read latency, DRAM latency, MTU) or calibrated so that the reproduced
figures match the published shapes (pipeline depths, MMIO issue cost,
software per-byte costs).  Experiments must not hard-code timing constants;
they read them from a :class:`NicConfig` / :class:`HostConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .sim import timebase
from .sim.timebase import NS, US

# ---------------------------------------------------------------------------
# Wire / framing constants (RoCE v2 over IPv4/UDP, Section 2.1)
# ---------------------------------------------------------------------------

#: Ethernet MTU used by the paper's testbed (Figures 5 and 12 captions).
MTU_BYTES = 1500

ETH_HEADER_BYTES = 14
ETH_FCS_BYTES = 4
#: Preamble (7) + SFD (1) + minimum inter-frame gap (12).
ETH_PREAMBLE_IFG_BYTES = 20
IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
BTH_BYTES = 12
RETH_BYTES = 16
AETH_BYTES = 4
ICRC_BYTES = 4
#: Minimum Ethernet frame (without preamble/IFG).
MIN_FRAME_BYTES = 64

#: RoCE v2 UDP destination port (IANA).
ROCE_UDP_PORT = 4791

#: Payload bytes that fit in one MTU-sized packet carrying BTH(+ICRC) only
#: (MIDDLE/LAST packets of a multi-packet message).
MAX_PAYLOAD_NO_RETH = MTU_BYTES - (IPV4_HEADER_BYTES + UDP_HEADER_BYTES
                                   + BTH_BYTES + ICRC_BYTES)
#: Payload bytes for packets that also carry a RETH (FIRST/ONLY packets).
MAX_PAYLOAD_WITH_RETH = MAX_PAYLOAD_NO_RETH - RETH_BYTES


def wire_bytes_for_frame(l3_bytes: int) -> int:
    """Total on-the-wire bytes for one frame with ``l3_bytes`` of IP payload
    *including* the IP header (adds Ethernet framing, FCS, preamble, IFG,
    and pads runt frames to the 64 B Ethernet minimum)."""
    frame = max(l3_bytes + ETH_HEADER_BYTES + ETH_FCS_BYTES, MIN_FRAME_BYTES)
    return frame + ETH_PREAMBLE_IFG_BYTES


# ---------------------------------------------------------------------------
# NIC configuration (Sections 4, 6.1 and 7)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NicConfig:
    """Parameters of one StRoM NIC build.

    The two shipped instances, :data:`NIC_10G` and :data:`NIC_100G`, mirror
    the paper's ADM-PCIE-7V3 (Virtex-7, 10 G) and VCU118 (UltraScale+,
    100 G) deployments.
    """

    name: str
    #: Network line rate in bits per second.
    line_rate_bps: float
    #: RoCE stack clock (Hz).  156.25 MHz at 10 G, 322 MHz at 100 G (§7).
    roce_clock_hz: float
    #: Data-path width in bytes: 8 B at 10 G, 64 B at 100 G (§3.5, §7).
    datapath_bytes: int
    #: DMA engine clock (Hz), 250 MHz for the XDMA core (§4.3).
    dma_clock_hz: float = 250e6
    #: Effective PCIe bandwidth toward host memory (bits/s).  Gen3 x8
    #: (~6:1 vs 10 G network) or Gen3 x16 (~1:1 vs 100 G network) per §7.
    pcie_bandwidth_bps: float = 60e9
    #: Round-trip latency of one PCIe memory *read* issued by the NIC
    #: (paper footnote 7: "roughly 1.5 us").
    pcie_read_latency: int = 1500 * NS
    #: One-way latency of a posted PCIe memory *write* from the NIC.
    pcie_write_latency: int = 450 * NS
    #: Effective PCIe bandwidth multiplier for random (non-sequential)
    #: access patterns, e.g. the shuffle kernel's scattered writes (§7).
    pcie_random_access_factor: float = 0.45
    #: Cycles the RX pipeline needs to parse headers + check PSN state
    #: (the paper quotes ~5 cycles for the State Table interaction alone).
    rx_pipeline_cycles: int = 30
    #: Cycles for the TX path (request handler through IP generation).
    tx_pipeline_cycles: int = 30
    #: Extra cycles of arbitration added by the StRoM integration ("a few
    #: clock cycles", §5.1).
    strom_arbitration_cycles: int = 4
    #: Cable propagation + MAC/PHY latency per direction (direct-attached,
    #: no switch, §6.1).
    wire_propagation: int = 350 * NS
    #: Number of queue pairs the build supports.
    num_queue_pairs: int = 500
    #: Total outstanding RDMA READs across all QPs (Multi-Queue depth).
    max_outstanding_reads: int = 32
    #: Retransmission timeout per queue pair.  The hardware decrements a
    #: fixed interval; the recovery extensions below only engage once a
    #: timeout actually expires, so clean links behave exactly as §4.1.
    retransmit_timeout: int = 100 * US
    #: Consecutive expirations without progress before the QP transitions
    #: to the error state and completes outstanding WRs with error status.
    retransmit_max_retries: int = 8
    #: Ceiling on the exponentially backed-off retransmission deadline.
    retransmit_backoff_cap: int = 1600 * US
    #: Uniform jitter (0..jitter) added to backed-off deadlines so QPs
    #: recovering from one fault event do not retry in lockstep.
    retransmit_jitter: int = 10 * US
    #: TLB capacity (§4.2): 16,384 entries of 2 MB huge pages -> 32 GB.
    tlb_entries: int = 16384
    page_bytes: int = 2 * 1024 * 1024
    #: Validation mode: charge II=1 streaming costs one data-path word at
    #: a time (one timeout per word) instead of one batched timeout per
    #: burst.  Much slower to simulate but picosecond-identical, because
    #: ``cycles(n) == n * cycles(1)`` exactly (see
    #: :func:`repro.sim.timebase.cycles_to_ps`).  The timestamp
    #: equivalence tests flip this flag and assert identical results.
    per_word_accounting: bool = False

    def __post_init__(self) -> None:
        # The integer period, rounded once: cycles() and streaming_time()
        # are then one multiply (the TX/RX paths run several per packet).
        object.__setattr__(self, "_period",
                           timebase.clock_period_ps(self.roce_clock_hz))

    def cycles(self, n: int) -> int:
        """Duration of ``n`` RoCE-clock cycles in picoseconds
        (:func:`repro.sim.timebase.cycles_to_ps`)."""
        if n < 0:
            raise ValueError("cycle count must be non-negative")
        return n * self._period

    def words(self, num_bytes: int) -> int:
        """Data-path words needed to stream ``num_bytes``."""
        return max(1, -(-num_bytes // self.datapath_bytes))

    def streaming_time(self, num_bytes: int) -> int:
        """Time for ``num_bytes`` to stream through a line-rate (II=1)
        pipeline stage — the store-and-forward cost the paper attributes
        to ICRC calculation (§7.1)."""
        return self.words(num_bytes) * self._period

    def streaming_charge(self, env, num_bytes: int):
        """Process helper (use with ``yield from``): charge the II=1
        streaming cost of ``num_bytes``.

        Batched mode (the default) charges one timeout for the whole
        burst; :attr:`per_word_accounting` charges one timeout per
        data-path word.  Both finish at the same picosecond.
        """
        if not self.per_word_accounting:
            yield env.timeout(self.streaming_time(num_bytes))
            return
        word_time = self.cycles(1)
        for _ in range(self.words(num_bytes)):
            yield env.timeout(word_time)


#: 10 G build: ADM-PCIE-7V3, Virtex-7 XC7VX690T, PCIe Gen3 x8 (§6.1).
NIC_10G = NicConfig(
    name="StRoM-10G",
    line_rate_bps=10e9,
    roce_clock_hz=156.25e6,
    datapath_bytes=8,
    pcie_bandwidth_bps=60e9,
)

#: 100 G build: VCU118, UltraScale+ XCVU9P, PCIe Gen3 x16 (§7).
#: The PCIe:network ratio drops to ~1:1, which is why random-access
#: kernels (shuffle) can no longer keep up at line rate (§7).
NIC_100G = NicConfig(
    name="StRoM-100G",
    line_rate_bps=100e9,
    roce_clock_hz=322e6,
    datapath_bytes=64,
    pcie_bandwidth_bps=110e9,
    pcie_read_latency=1300 * NS,
    pcie_write_latency=400 * NS,
    wire_propagation=200 * NS,
)


# ---------------------------------------------------------------------------
# Host configuration (§6.1 testbed: Intel Core i7-7700 @ 3.6 GHz)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HostConfig:
    """Host machine cost model."""

    name: str = "i7-7700"
    cpu_clock_hz: float = 3.6e9
    #: DRAM access latency (paper footnote 7: "roughly 80 ns").
    dram_latency: int = 80 * NS
    #: Peak DRAM bandwidth available to software (bits/s).  Dual-channel
    #: DDR4-2400 gives ~38 GB/s raw; ~28 GB/s sustained for streaming.
    dram_bandwidth_bps: float = 224e9
    #: Cost for the host to issue one NIC command: a single memory-mapped
    #: AVX2 store crossing PCIe (§7.1).  This caps the message rate at
    #: ~9 M msg/s, immaterial at 10 G and binding below 2 KB at 100 G.
    mmio_command_cost: int = 110 * NS
    #: Granularity at which a polling loop observes memory updates.
    poll_interval: int = 70 * NS
    #: Software CRC64 cost per byte (inherently sequential, no SIMD —
    #: paper footnote 8).  Calibrated to the +40 % overhead of Figure 9.
    crc64_ns_per_byte: float = 0.85
    #: Software radix-partition cost per 8 B tuple (hash + buffer copy,
    #: Barthels et al. baseline in Figure 11).
    partition_ns_per_tuple: float = 1.9
    #: Single-thread software HyperLogLog throughput (hash + register
    #: update, memory bound).  Calibrated to Figure 13a: 4.64 Gbit/s.
    hll_single_thread_gbps: float = 4.64
    #: Aggregate memory-bandwidth ceiling for HLL threads in isolation;
    #: concurrent NIC ingest (~25 Gbit/s in Figure 13a) lowers the
    #: effective ceiling to 24.4 Gbit/s, the published 8-thread plateau.
    hll_memory_ceiling_gbps: float = 27.4
    #: TCP/rpcgen RPC invocation latency (one way ~ half of it): dominated
    #: by kernel network stack + socket wakeups (Figures 7 and 8).
    tcp_rpc_base_latency: int = 56 * US
    #: Extra per-byte cost of moving RPC payload through the TCP stack
    #: (multiple copies; Figure 8 "long message passing latency > 256 B").
    tcp_ns_per_byte: float = 2.6
    #: Scheduling jitter applied to TCP RPCs (uniform, +/-).
    tcp_jitter: int = 6 * US


HOST_DEFAULT = HostConfig()


# ---------------------------------------------------------------------------
# Derived ideal lines (the dotted references in Figures 5 and 12)
# ---------------------------------------------------------------------------

def ideal_goodput_bps(payload_bytes: int, line_rate_bps: float) -> float:
    """Ideal application goodput for back-to-back single-packet messages of
    ``payload_bytes`` (RoCE v2 WRITE ONLY framing) at ``line_rate_bps``."""
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    rate = ideal_message_rate(payload_bytes, line_rate_bps)
    return rate * payload_bytes * 8


def ideal_message_rate(payload_bytes: int, line_rate_bps: float) -> float:
    """Ideal messages/second for WRITE ONLY packets of ``payload_bytes``,
    segmented at the MTU if necessary."""
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    wire = wire_bytes_of_message(payload_bytes)
    return line_rate_bps / (wire * 8)


def wire_bytes_of_message(payload_bytes: int) -> int:
    """On-the-wire byte count of one RDMA WRITE message of
    ``payload_bytes``, including MTU segmentation and all framing."""
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    total = 0
    remaining = payload_bytes
    first = True
    while remaining > 0:
        capacity = MAX_PAYLOAD_WITH_RETH if first else MAX_PAYLOAD_NO_RETH
        chunk = min(remaining, capacity)
        headers = (IPV4_HEADER_BYTES + UDP_HEADER_BYTES + BTH_BYTES
                   + (RETH_BYTES if first else 0) + ICRC_BYTES)
        total += wire_bytes_for_frame(chunk + headers)
        remaining -= chunk
        first = False
    return total


def scaled_config(base: NicConfig, **overrides) -> NicConfig:
    """A copy of ``base`` with fields replaced — the paper's 'easy design
    space exploration' knob (§3.5): vary data-path width, clock, QPs."""
    return replace(base, **overrides)

"""Analytic steady-state flow model.

Latency experiments run the detailed packet-level simulation; bulk
throughput experiments (Figures 5b/5c, 11, 12b/12c, 13) use this model,
derived from the *same* configuration constants.  Tests assert that the
two modes agree on overlapping operating points, so the flow model is a
fast projection of the simulator, not an independent guess.

Bottleneck structure (who can be the binding constraint):

- the wire: RoCE v2 framing overhead at the line rate (the dotted
  "ideal" lines of Figures 5 and 12);
- the host: one memory-mapped AVX2 store per message (Section 7.1);
- PCIe: payload must also cross the host bus (1:1 ratio at 100 G);
- outstanding READs: reads additionally obey credits / round-trip time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import config as cfg
from ..config import HostConfig, NicConfig
from ..sim import timebase


@dataclass(frozen=True)
class ThroughputPoint:
    """One operating point of the flow model."""

    payload_bytes: int
    goodput_gbps: float
    message_rate_mops: float
    ideal_goodput_gbps: float
    ideal_message_rate_mops: float
    bottleneck: str


def host_message_rate(host: HostConfig, batch_size: int = 1) -> float:
    """Messages/second the host can issue.

    ``batch_size=1`` is one MMIO store per message (the paper's
    implementation); larger batches amortize the store over a command
    ring (Section 7.1: "Batching of application commands will eliminate
    this limitation").
    """
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    # 2 % of stores hit the slow path (see MmioPath), matching the
    # detailed simulation's long-run average.
    store = host.mmio_command_cost * 1.06
    ring_entry = max(1, host.mmio_command_cost // 8)
    batch_cost = store + (batch_size - 1) * ring_entry
    return batch_size * timebase.SEC / batch_cost


def pcie_goodput_bps(nic: NicConfig, payload_bytes: int,
                     sequential: bool = True) -> float:
    """Payload rate the PCIe link sustains for back-to-back DMA of
    ``payload_bytes`` (TLP overhead included)."""
    from ..nic.dma import PCIE_TLP_OVERHEAD_BYTES
    factor = 1.0 if sequential else nic.pcie_random_access_factor
    efficiency = payload_bytes / (payload_bytes + PCIE_TLP_OVERHEAD_BYTES)
    return nic.pcie_bandwidth_bps * efficiency * factor


def write_throughput(nic: NicConfig, host: HostConfig,
                     payload_bytes: int,
                     batch_size: int = 1) -> ThroughputPoint:
    """Steady-state RDMA WRITE goodput for messages of ``payload_bytes``."""
    ideal_rate = cfg.ideal_message_rate(payload_bytes, nic.line_rate_bps)
    host_rate = host_message_rate(host, batch_size)
    pcie_rate = pcie_goodput_bps(nic, payload_bytes) / (payload_bytes * 8)
    rate = min(ideal_rate, host_rate, pcie_rate)
    if rate == ideal_rate:
        bottleneck = "wire"
    elif rate == host_rate:
        bottleneck = "host-mmio"
    else:
        bottleneck = "pcie"
    return ThroughputPoint(
        payload_bytes=payload_bytes,
        goodput_gbps=rate * payload_bytes * 8 / 1e9,
        message_rate_mops=rate / 1e6,
        ideal_goodput_gbps=ideal_rate * payload_bytes * 8 / 1e9,
        ideal_message_rate_mops=ideal_rate / 1e6,
        bottleneck=bottleneck)


def read_round_trip_ps(nic: NicConfig, host: HostConfig,
                       payload_bytes: int) -> int:
    """First-order READ round-trip estimate (for the credits bound)."""
    request_wire = cfg.wire_bytes_for_frame(
        cfg.IPV4_HEADER_BYTES + cfg.UDP_HEADER_BYTES + cfg.BTH_BYTES
        + cfg.RETH_BYTES + cfg.ICRC_BYTES)
    response_wire = cfg.wire_bytes_of_message(payload_bytes)
    pipeline = nic.cycles(2 * (nic.rx_pipeline_cycles
                               + nic.tx_pipeline_cycles
                               + 2 * nic.strom_arbitration_cycles))
    return (host.mmio_command_cost + nic.pcie_write_latency
            + timebase.transfer_time_ps(request_wire + response_wire,
                                        nic.line_rate_bps)
            + 2 * nic.wire_propagation + pipeline
            + nic.pcie_read_latency + nic.pcie_write_latency)


def read_throughput(nic: NicConfig, host: HostConfig,
                    payload_bytes: int) -> ThroughputPoint:
    """Steady-state RDMA READ goodput (credit-limited for small reads)."""
    ideal_rate = cfg.ideal_message_rate(payload_bytes, nic.line_rate_bps)
    host_rate = host_message_rate(host)
    pcie_rate = pcie_goodput_bps(nic, payload_bytes) / (payload_bytes * 8)
    rtt = read_round_trip_ps(nic, host, payload_bytes)
    credit_rate = nic.max_outstanding_reads * timebase.SEC / rtt
    rate = min(ideal_rate, host_rate, pcie_rate, credit_rate)
    bottleneck = {ideal_rate: "wire", host_rate: "host-mmio",
                  pcie_rate: "pcie", credit_rate: "read-credits"}[rate]
    return ThroughputPoint(
        payload_bytes=payload_bytes,
        goodput_gbps=rate * payload_bytes * 8 / 1e9,
        message_rate_mops=rate / 1e6,
        ideal_goodput_gbps=ideal_rate * payload_bytes * 8 / 1e9,
        ideal_message_rate_mops=ideal_rate / 1e6,
        bottleneck=bottleneck)


# ---------------------------------------------------------------------------
# Figure 11: shuffle execution time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShuffleTimes:
    """Execution time (seconds) of the three Figure 11 approaches."""

    input_mib: int
    sw_write_s: float
    strom_s: float
    write_s: float


def bulk_write_goodput_bps(nic: NicConfig) -> float:
    """Large-transfer goodput: MTU-sized packets at line rate."""
    point = write_throughput(nic, cfg.HOST_DEFAULT,
                             cfg.MAX_PAYLOAD_WITH_RETH)
    return point.goodput_gbps * 1e9


def shuffle_times(nic: NicConfig, host: HostConfig,
                  input_bytes: int) -> ShuffleTimes:
    """Figure 11's three bars for one input size (8 B tuples).

    - RDMA WRITE: pure transmission at bulk goodput.
    - StRoM: same transmission; partitioning happens on the receiving
      NIC at line rate (the kernel's PCIe random-access writes stay below
      the PCIe budget at 10 G, see Section 7 for when they do not) plus
      the histogram RPC and the final buffer flush.
    - SW + RDMA WRITE: a serial partition pass over every tuple on the
      sending CPU (hash + copy), then the same transmission.
    """
    from ..host.cpu import CpuModel
    cpu = CpuModel(host)
    goodput = bulk_write_goodput_bps(nic)
    transmit_s = input_bytes * 8 / goodput

    # StRoM: receiving-side partitioning is a bump in the wire unless the
    # random-access PCIe bandwidth cannot absorb the line rate.
    pcie_random = pcie_goodput_bps(nic, 128, sequential=False)
    strom_rate = min(goodput, pcie_random)
    strom_s = input_bytes * 8 / strom_rate \
        + timebase.to_seconds(2 * nic.pcie_read_latency)  # RPC + flush tail

    num_tuples = input_bytes // 8
    partition_s = timebase.to_seconds(cpu.partition_time(num_tuples))
    sw_s = partition_s + transmit_s

    return ShuffleTimes(input_mib=input_bytes // (1024 * 1024),
                        sw_write_s=sw_s, strom_s=strom_s,
                        write_s=transmit_s)


# ---------------------------------------------------------------------------
# Figure 13: HLL throughput
# ---------------------------------------------------------------------------

def hll_kernel_throughput(nic: NicConfig, host: HostConfig,
                          payload_bytes: int) -> ThroughputPoint:
    """Figure 13b: RDMA WRITE throughput with the HLL kernel as a bump in
    the wire.  The kernel consumes one data-path word per cycle (II=1),
    so its capacity is datapath * clock >= line rate and the write curve
    is unchanged; the pass-through DMA write must also fit PCIe."""
    base = write_throughput(nic, host, payload_bytes)
    kernel_capacity_bps = (nic.datapath_bytes * 8) * nic.roce_clock_hz
    pcie_bps = pcie_goodput_bps(nic, max(payload_bytes, 256))
    limit_gbps = min(kernel_capacity_bps, pcie_bps) / 1e9
    goodput = min(base.goodput_gbps, limit_gbps)
    return ThroughputPoint(
        payload_bytes=payload_bytes,
        goodput_gbps=goodput,
        message_rate_mops=base.message_rate_mops,
        ideal_goodput_gbps=base.ideal_goodput_gbps,
        ideal_message_rate_mops=base.ideal_message_rate_mops,
        bottleneck=base.bottleneck if goodput == base.goodput_gbps
        else "kernel")

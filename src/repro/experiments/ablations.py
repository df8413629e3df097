"""Ablations over the design-space knobs the paper calls out.

- **Interconnect latency** (footnote 7): StRoM's traversal advantage is
  bounded by the PCIe read round trip (~1.5 us); CXL/CAPI-class
  interconnects shrink the per-hop cost.
- **Data-path width** (Sections 3.5/4.1): 8 B -> 64 B at 156.25 MHz
  spans 10-80 Gbit/s, trading on-chip resources for bandwidth.
- **Outstanding READs** (Section 4.1): the Multi-Queue depth bounds the
  read message rate via the bandwidth-delay product.
- **Doorbell batching** (Section 7.1): amortizing the per-message MMIO
  store removes the host-side message-rate cap at 100 G.
"""

from __future__ import annotations

from ..config import HOST_DEFAULT, NIC_10G, NIC_100G, scaled_config
from ..fpga import XCVU9P, estimate_nic_resources
from ..sim.timebase import NS
from . import flowmodel
from .common import ExperimentResult
from .fig07_linked_list import linked_list_experiment

#: Interconnect scenarios: (name, NIC-side read round trip).
INTERCONNECTS = [
    ("PCIe Gen3", 1500 * NS),
    ("CXL-class", 600 * NS),
    ("CAPI-next", 250 * NS),
]


def interconnect_latency_ablation(iterations: int = 10
                                  ) -> ExperimentResult:
    """Footnote 7: how much faster does remote pointer chasing get when
    the FPGA's memory interconnect improves?"""
    result = ExperimentResult(
        experiment_id="ablation-interconnect",
        title="Traversal kernel vs NIC-memory interconnect "
              "(list length 16)",
        columns=["interconnect", "read_rtt_ns", "strom_us",
                 "rdma_read_us", "speedup"],
        notes="each traversal hop costs one interconnect round trip; "
              "CXL/CAPI shrink it (paper footnote 7)")
    for name, rtt in INTERCONNECTS:
        config = scaled_config(NIC_10G, pcie_read_latency=rtt)
        sweep = linked_list_experiment(nic_config=config,
                                       lengths=[16],
                                       iterations=iterations)
        row = sweep.rows[0]
        result.add_row(interconnect=name,
                       read_rtt_ns=rtt // NS,
                       strom_us=row["strom_us"],
                       rdma_read_us=row["rdma_read_us"],
                       speedup=row["rdma_read_us"] / row["strom_us"])
    return result


def datapath_width_ablation() -> ExperimentResult:
    """Sections 3.5/4.1: the data path scales in power-of-two steps from
    8 B to 64 B, giving 10-80 Gbit/s at 156.25 MHz; state structures are
    untouched, so resources grow sublinearly."""
    result = ExperimentResult(
        experiment_id="ablation-datapath",
        title="Data-path width scaling at 156.25 MHz (Section 4.1)",
        columns=["width_B", "line_rate_gbps", "peak_goodput_gbps",
                 "luts_k", "bram", "ffs_k"],
        notes="'The width can be varied from 8 B to 64 B resulting in a "
              "bandwidth of 10-80 Gbit/s at 156.25 MHz'")
    for width in (8, 16, 32, 64):
        line_rate = width * 8 * 156.25e6
        config = scaled_config(NIC_10G, datapath_bytes=width,
                               line_rate_bps=line_rate,
                               pcie_bandwidth_bps=max(60e9, line_rate * 1.2))
        point = flowmodel.write_throughput(config, HOST_DEFAULT, 1 << 20)
        usage = estimate_nic_resources(config, XCVU9P)
        result.add_row(width_B=width,
                       line_rate_gbps=line_rate / 1e9,
                       peak_goodput_gbps=point.goodput_gbps,
                       luts_k=usage.luts / 1000.0,
                       bram=usage.bram_36kb,
                       ffs_k=usage.flip_flops / 1000.0)
    return result


def outstanding_reads_ablation() -> ExperimentResult:
    """Section 4.1: the Multi-Queue's total capacity bounds outstanding
    READs; small depths throttle the read rate to depth/RTT."""
    result = ExperimentResult(
        experiment_id="ablation-outstanding-reads",
        title="READ message rate vs Multi-Queue depth "
              "(64 B payloads, 10 G)",
        columns=["depth", "read_mops", "bottleneck"],
        notes="rate = min(wire, host, outstanding/RTT): the Multi-Queue "
              "must cover the bandwidth-delay product")
    for depth in (1, 2, 4, 8, 16, 32, 64):
        config = scaled_config(NIC_10G, max_outstanding_reads=depth)
        point = flowmodel.read_throughput(config, HOST_DEFAULT, 64)
        result.add_row(depth=depth,
                       read_mops=point.message_rate_mops,
                       bottleneck=point.bottleneck)
    return result


def doorbell_batching_ablation() -> ExperimentResult:
    """Section 7.1: 'Batching of application commands will eliminate
    this limitation of the current implementation.'"""
    result = ExperimentResult(
        experiment_id="ablation-batching",
        title="100 G message rate vs doorbell batch size "
              "(256 B payloads)",
        columns=["batch_size", "write_mops", "goodput_gbps", "bottleneck"],
        notes="one MMIO store per batch amortizes the host command cost")
    for batch in (1, 2, 4, 8, 16, 32):
        point = flowmodel.write_throughput(NIC_100G, HOST_DEFAULT, 256,
                                           batch_size=batch)
        result.add_row(batch_size=batch,
                       write_mops=point.message_rate_mops,
                       goodput_gbps=point.goodput_gbps,
                       bottleneck=point.bottleneck)
    return result

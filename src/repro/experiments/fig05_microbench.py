"""Figures 5 and 12: StRoM RoCE NIC microbenchmarks.

(a) median latency of RDMA read/write with 1st/99th-percentile whiskers,
(b) throughput over payload sizes 64 B - 1 MB with the ideal line,
(c) message rate for small payloads with the ideal line.

The same procedures serve the 10 G build (Figure 5) and the 100 G build
(Figure 12); only the :class:`NicConfig` differs.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import HOST_DEFAULT, NIC_10G, NicConfig
from . import flowmodel
from .common import (
    ExperimentResult,
    measure_read_latency,
    measure_write_latency,
)

LATENCY_PAYLOADS = [64, 128, 256, 512, 1024]
THROUGHPUT_PAYLOADS = [2 ** p for p in range(6, 21)]  # 64 B .. 1 MB
MESSAGE_RATE_PAYLOADS = [64, 256, 1024, 4096]


def latency_experiment(nic_config: NicConfig = NIC_10G,
                       payloads: Optional[List[int]] = None,
                       iterations: int = 50,
                       experiment_id: str = "fig5a") -> ExperimentResult:
    """Figure 5a / 12a."""
    payloads = payloads or LATENCY_PAYLOADS
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=f"RDMA latency on {nic_config.name} "
              "(median, p1/p99 whiskers, us)",
        columns=["payload_B", "write_med_us", "write_p01_us",
                 "write_p99_us", "read_med_us", "read_p01_us",
                 "read_p99_us"],
        notes="write latency = ping-pong RTT/2 (paper methodology)")
    for payload in payloads:
        write = measure_write_latency(nic_config, HOST_DEFAULT, payload,
                                      iterations)
        read = measure_read_latency(nic_config, HOST_DEFAULT, payload,
                                    iterations)
        result.add_row(payload_B=payload,
                       write_med_us=write.median_us,
                       write_p01_us=write.p01_us,
                       write_p99_us=write.p99_us,
                       read_med_us=read.median_us,
                       read_p01_us=read.p01_us,
                       read_p99_us=read.p99_us)
    return result


def throughput_experiment(nic_config: NicConfig = NIC_10G,
                          payloads: Optional[List[int]] = None,
                          experiment_id: str = "fig5b") -> ExperimentResult:
    """Figure 5b / 12b (flow model; detailed spot checks in the tests)."""
    payloads = payloads or THROUGHPUT_PAYLOADS
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=f"RDMA throughput on {nic_config.name} (Gbit/s)",
        columns=["payload_B", "write_gbps", "read_gbps", "ideal_gbps",
                 "bottleneck"])
    for payload in payloads:
        write = flowmodel.write_throughput(nic_config, HOST_DEFAULT, payload)
        read = flowmodel.read_throughput(nic_config, HOST_DEFAULT, payload)
        result.add_row(payload_B=payload,
                       write_gbps=write.goodput_gbps,
                       read_gbps=read.goodput_gbps,
                       ideal_gbps=write.ideal_goodput_gbps,
                       bottleneck=write.bottleneck)
    return result


def message_rate_experiment(nic_config: NicConfig = NIC_10G,
                            payloads: Optional[List[int]] = None,
                            experiment_id: str = "fig5c"
                            ) -> ExperimentResult:
    """Figure 5c / 12c."""
    payloads = payloads or MESSAGE_RATE_PAYLOADS
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=f"RDMA message rate on {nic_config.name} (M msg/s)",
        columns=["payload_B", "write_mops", "read_mops", "ideal_mops",
                 "bottleneck"])
    for payload in payloads:
        write = flowmodel.write_throughput(nic_config, HOST_DEFAULT, payload)
        read = flowmodel.read_throughput(nic_config, HOST_DEFAULT, payload)
        result.add_row(payload_B=payload,
                       write_mops=write.message_rate_mops,
                       read_mops=read.message_rate_mops,
                       ideal_mops=write.ideal_message_rate_mops,
                       bottleneck=write.bottleneck)
    return result

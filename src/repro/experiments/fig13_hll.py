"""Figure 13: HyperLogLog cardinality estimation at 100 G.

(a) software HLL on the CPU while StRoM ingests the data into memory:
    throughput for 1/2/4/8 threads (published: 4.64 / 9.28 / 18.40 /
    24.40 Gbit/s);
(b) HLL as a StRoM kernel: RDMA WRITE throughput with and without the
    kernel on the stream — no overhead, line rate for large payloads.

Both parts also run the *functional* sketch over real data so the
reported estimates carry real HLL error, not a constant.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import HOST_DEFAULT, NIC_100G
from ..host.baselines import CpuHllIngest
from ..host.cpu import CpuModel
from ..algos.hyperloglog import exact_cardinality
from .common import ExperimentResult
from .flowmodel import hll_kernel_throughput, write_throughput

THREAD_COUNTS = [1, 2, 4, 8]
PAYLOADS_13B = [64, 128, 512, 1024, 4096, 16384]
#: Observed aggregate ingest while the CPU runs HLL (Figure 13a setup).
NIC_INGEST_GBPS = 25.0


def hll_cpu_experiment(threads: Optional[List[int]] = None,
                       sample_tuples: int = 200_000) -> ExperimentResult:
    """Figure 13a."""
    threads = threads or THREAD_COUNTS
    rng = np.random.default_rng(13)
    values = rng.integers(0, 2 ** 62, size=sample_tuples, dtype=np.uint64)
    truth = exact_cardinality(values.tolist())
    cpu = CpuModel(HOST_DEFAULT)
    result = ExperimentResult(
        experiment_id="fig13a",
        title="CPU HLL throughput receiving data through StRoM (Gbit/s)",
        columns=["threads", "throughput_gbps", "estimate_error_pct"],
        notes="paper: 4.64 / 9.28 / 18.40 / 24.40 Gbit/s for 1/2/4/8 "
              "threads (memory-bandwidth bound)")
    for n in threads:
        ingest = CpuHllIngest(cpu, threads=n)
        estimate, _cpu_time = ingest.process(values, NIC_INGEST_GBPS)
        result.add_row(
            threads=n,
            throughput_gbps=ingest.throughput_gbps(NIC_INGEST_GBPS),
            estimate_error_pct=100.0 * abs(estimate - truth) / truth)
    return result


def hll_kernel_experiment(payloads: Optional[List[int]] = None
                          ) -> ExperimentResult:
    """Figure 13b."""
    payloads = payloads or PAYLOADS_13B
    result = ExperimentResult(
        experiment_id="fig13b",
        title=f"StRoM Write vs Write+HLL throughput on {NIC_100G.name} "
              "(Gbit/s)",
        columns=["payload_B", "write_gbps", "write_hll_gbps",
                 "overhead_pct"],
        notes="the HLL kernel runs at II=1 (one word/cycle >= line rate): "
              "zero throughput overhead")
    for payload in payloads:
        write = write_throughput(NIC_100G, HOST_DEFAULT, payload)
        with_hll = hll_kernel_throughput(NIC_100G, HOST_DEFAULT, payload)
        overhead = 0.0
        if write.goodput_gbps > 0:
            overhead = 100.0 * (write.goodput_gbps - with_hll.goodput_gbps) \
                / write.goodput_gbps
        result.add_row(payload_B=payload,
                       write_gbps=write.goodput_gbps,
                       write_hll_gbps=with_hll.goodput_gbps,
                       overhead_pct=overhead)
    return result

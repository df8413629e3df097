"""Software baselines the paper compares StRoM against.

- :func:`read_with_sw_check` — Figure 9/10's "READ+SW": one-sided READ
  plus CRC64 verification on the requester's CPU, re-reading over the
  network on failure.
- :class:`SoftwarePartitioner` — Figure 11's "SW + RDMA WRITE" (Barthels
  et al.): partition locally on the CPU, then write each partition buffer
  to remote memory.
- :class:`CpuHllIngest` — Figure 13a: data is received through StRoM into
  host memory and CPU threads run HLL over it, competing with the NIC for
  memory bandwidth.

All flows do the *real* computation (actual CRC64 over the received
bytes, actual partitioning, actual HLL sketch) and charge the calibrated
CPU cost model for the time it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..algos.crc import ChecksummedObject
from ..algos.hashing import radix_hash_array
from ..algos.hyperloglog import HyperLogLog
from .cpu import CpuModel
from .node import Fabric


def read_with_sw_check(fabric: Fabric, local_vaddr: int, remote_vaddr: int,
                       object_size: int, cpu: CpuModel,
                       failure_injector=None):
    """Process helper: Pilaf-style consistent GET on the requester CPU.

    Returns (data, attempts).  ``failure_injector()`` forces the first
    check to fail (a torn read racing a writer); retries re-READ over the
    network, exactly the cost the consistency kernel avoids (at most 64
    retries).
    """
    client = fabric.client
    injected = failure_injector is not None and failure_injector()
    attempts = 0
    data = b""
    for attempt in range(1 + 64):
        attempts += 1
        yield from client.read_sync(fabric.client_qpn, local_vaddr,
                                    remote_vaddr, object_size)
        data = client.space.read(local_vaddr, object_size)
        yield client.cpu_delay(cpu.crc64_time(object_size))
        ok = ChecksummedObject.verify(data)
        if ok and attempt == 0 and injected:
            ok = False
        if ok:
            return data, attempts
    return data, attempts


@dataclass
class PartitionPlan:
    """Result of the local partition pass."""

    partitions: List[np.ndarray]
    cpu_time_ps: int


class SoftwarePartitioner:
    """The sender-side software shuffle of Barthels et al. (Figure 11).

    ``partition`` performs the real radix split (plus the per-tuple CPU
    cost); the caller then transmits each partition with plain writes.
    """

    def __init__(self, cpu: CpuModel, partition_bits: int) -> None:
        if not 0 <= partition_bits <= 10:
            raise ValueError("at most 1024 partitions")
        self.cpu = cpu
        self.partition_bits = partition_bits

    @property
    def num_partitions(self) -> int:
        return 1 << self.partition_bits

    def partition(self, values: np.ndarray) -> PartitionPlan:
        """Split ``values`` (uint64) into per-partition arrays, preserving
        arrival order within each partition."""
        hashes = radix_hash_array(values, self.partition_bits)
        order = np.argsort(hashes, kind="stable")
        sorted_values = values[order]
        sorted_hashes = hashes[order]
        boundaries = np.searchsorted(sorted_hashes,
                                     np.arange(self.num_partitions + 1))
        partitions = [sorted_values[boundaries[i]:boundaries[i + 1]]
                      for i in range(self.num_partitions)]
        cpu_time = self.cpu.partition_time(int(values.size))
        return PartitionPlan(partitions=partitions, cpu_time_ps=cpu_time)


class CpuHllIngest:
    """Figure 13a: RDMA ingest + multi-threaded software HLL.

    The sketch itself is exact (same :class:`HyperLogLog` as the kernel);
    the time charged follows the calibrated thread-scaling roofline.
    """

    def __init__(self, cpu: CpuModel, threads: int,
                 precision: int = 14) -> None:
        if threads < 1:
            raise ValueError("need at least one thread")
        self.cpu = cpu
        self.threads = threads
        self.sketch = HyperLogLog(precision=precision)

    def process(self, values: np.ndarray,
                nic_ingest_gbps: float) -> Tuple[float, int]:
        """Run HLL over ``values``; returns (estimate, cpu_time_ps).

        The threads split the input; per-thread sketches merge at the
        end (merge cost is negligible against the scan)."""
        chunks = np.array_split(values, self.threads)
        for chunk in chunks:
            worker = HyperLogLog(precision=self.sketch.precision)
            worker.add_array(chunk)
            self.sketch.merge(worker)
        cpu_time = self.cpu.hll_time(int(values.size) * 8, self.threads,
                                     nic_ingest_gbps=nic_ingest_gbps)
        return self.sketch.cardinality(), cpu_time

    def throughput_gbps(self, nic_ingest_gbps: float = 25.0) -> float:
        """The steady-state throughput this configuration sustains."""
        return self.cpu.hll_throughput_gbps(self.threads, nic_ingest_gbps)

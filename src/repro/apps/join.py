"""Distributed radix join with on-NIC shuffling (the Section 6.4 use
case end to end).

The paper motivates the shuffle kernel with distributed database joins
(Barthels et al.): the build relation is shuffled across the network
into radix partitions, the probe relation is partitioned locally, and
each partition pair is joined independently with cache-friendly state.

:class:`DistributedRadixJoin` runs the full pipeline over the simulated
fabric: the client streams its relation through the StRoM shuffle kernel
(tuples land pre-partitioned in server memory), the server partitions
its local relation on the CPU, and the per-partition hash join executes
for real — producing the exact multiset join cardinality — while the CPU
cost model charges the build/probe time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..algos.hashing import radix_hash_array
from ..core.rpc import RpcOpcode
from ..host.baselines import SoftwarePartitioner
from ..host.cpu import CpuModel
from ..host.node import Fabric
from ..kernels.shuffle import ShuffleKernel, ShuffleParams, pack_descriptor
from ..sim import timebase
from ..sim.timebase import NS


@dataclass
class JoinResult:
    """Outcome of one distributed join."""

    matches: int                 # |{(r, s) : r.key == s.key}|
    build_tuples: int
    probe_tuples: int
    shuffle_seconds: float       # network + on-NIC partitioning
    local_partition_seconds: float
    join_seconds: float          # build + probe over all partitions
    partitions: int


#: CPU cost per build tuple (hash-table insert in a cache-resident
#: partition) and per probe tuple (lookup), per Balkesen et al.-style
#: radix joins on this class of CPU.
BUILD_NS_PER_TUPLE = 1.5
PROBE_NS_PER_TUPLE = 1.1


class DistributedRadixJoin:
    """Join the client's relation against the server's, shuffling the
    build side through the StRoM shuffle kernel."""

    def __init__(self, fabric: Fabric, partition_bits: int,
                 cpu: CpuModel) -> None:
        if not 0 <= partition_bits <= 10:
            raise ValueError("at most 1024 partitions")
        self.fabric = fabric
        self.partition_bits = partition_bits
        self.cpu = cpu
        self.kernel = ShuffleKernel(fabric.env,
                                    fabric.server.nic.config)
        fabric.server.nic.deploy_kernel(RpcOpcode.SHUFFLE, self.kernel,
                                        sequential_dma=False)

    @property
    def num_partitions(self) -> int:
        return 1 << self.partition_bits

    def execute(self, build_keys: np.ndarray, probe_keys: np.ndarray):
        """Process helper (``yield from`` inside a simulation process).

        ``build_keys`` live in client memory and are shuffled over the
        network; ``probe_keys`` are the server's local relation.
        Returns a :class:`JoinResult`.
        """
        env = self.fabric.env
        client, server = self.fabric.client, self.fabric.server
        build_keys = np.ascontiguousarray(build_keys, dtype=np.uint64)
        probe_keys = np.ascontiguousarray(probe_keys, dtype=np.uint64)
        total_bytes = build_keys.size * 8

        # ---------------- phase 1: shuffle the build side -------------
        capacity = total_bytes * 2 // self.num_partitions + 4096
        regions = [server.alloc(capacity, f"join.part{i}")
                   for i in range(self.num_partitions)]
        table = server.alloc(
            max(4096, self.num_partitions * 16), "join.histogram")
        server.space.write(table.vaddr, b"".join(
            pack_descriptor(r.vaddr, capacity) for r in regions))
        src = client.alloc(total_bytes, "join.build")
        client.space.write(src.vaddr, build_keys.tobytes())
        response = client.alloc(4096, "join.resp")

        shuffle_start = env.now
        params = ShuffleParams(response_vaddr=response.vaddr,
                               descriptor_table_vaddr=table.vaddr,
                               partition_bits=self.partition_bits,
                               total_bytes=total_bytes)
        yield from client.post_rpc(self.fabric.client_qpn,
                                   RpcOpcode.SHUFFLE, params.pack())
        yield from client.post_rpc_write(self.fabric.client_qpn,
                                         RpcOpcode.SHUFFLE, src.vaddr,
                                         total_bytes)
        yield from client.wait_for_data(response.vaddr, 16)
        shuffled, overflowed = struct.unpack(
            "<QQ", client.space.read(response.vaddr, 16))
        if overflowed:
            raise RuntimeError(f"{overflowed} tuples overflowed their "
                               "partition regions")
        shuffle_seconds = timebase.to_seconds(env.now - shuffle_start)

        # ---------------- phase 2: partition the probe side locally ---
        partitioner = SoftwarePartitioner(self.cpu, self.partition_bits)
        plan = partitioner.partition(probe_keys)
        yield server.cpu_delay(plan.cpu_time_ps)
        local_seconds = timebase.to_seconds(plan.cpu_time_ps)

        # ---------------- phase 3: per-partition hash join ------------
        mask = np.uint64(self.num_partitions - 1)
        build_counts = np.bincount(
            radix_hash_array(build_keys, self.partition_bits)
            .astype(np.int64), minlength=self.num_partitions)
        matches = 0
        for index in range(self.num_partitions):
            count = int(build_counts[index])
            if count == 0:
                build_part = np.empty(0, dtype=np.uint64)
            else:
                raw = server.space.read(regions[index].vaddr, count * 8)
                build_part = np.frombuffer(raw, dtype="<u8")
            probe_part = plan.partitions[index]
            matches += _hash_join_count(build_part, probe_part)
        join_ps = int((build_keys.size * BUILD_NS_PER_TUPLE
                       + probe_keys.size * PROBE_NS_PER_TUPLE) * NS)
        yield server.cpu_delay(join_ps)

        return JoinResult(
            matches=matches,
            build_tuples=int(build_keys.size),
            probe_tuples=int(probe_keys.size),
            shuffle_seconds=shuffle_seconds,
            local_partition_seconds=local_seconds,
            join_seconds=timebase.to_seconds(join_ps),
            partitions=self.num_partitions)


def _hash_join_count(build: np.ndarray, probe: np.ndarray) -> int:
    """Exact multiset equi-join cardinality of two key arrays."""
    if build.size == 0 or probe.size == 0:
        return 0
    build_keys, build_counts = np.unique(build, return_counts=True)
    probe_keys, probe_counts = np.unique(probe, return_counts=True)
    common, build_idx, probe_idx = np.intersect1d(
        build_keys, probe_keys, assume_unique=True, return_indices=True)
    del common
    return int(np.sum(build_counts[build_idx].astype(np.int64)
                      * probe_counts[probe_idx].astype(np.int64)))


def reference_join_count(build: np.ndarray, probe: np.ndarray) -> int:
    """Brute-force oracle for tests."""
    from collections import Counter as PyCounter
    build_histogram = PyCounter(build.tolist())
    probe_histogram = PyCounter(probe.tolist())
    return sum(count * probe_histogram.get(key, 0)
               for key, count in build_histogram.items())

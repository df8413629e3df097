"""Figure 11: data shuffling — execution time for partitioning and
transmitting 8 B tuples.

Three approaches: the Barthels et al. software baseline ("SW + RDMA
WRITE": partition pass on the sending CPU, then transmit), StRoM (the
shuffle kernel partitions on the receiving NIC as a bump in the wire),
and plain "RDMA WRITE" (no partitioning — the lower bound).

The published input sizes (128 MB - 1 GB) use the flow model; a
scaled-down detailed run (full kernel, real tuples) validates that the
flow model's StRoM-vs-WRITE gap is faithful.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import HOST_DEFAULT, NIC_10G
from ..core.rpc import RpcOpcode
from ..host import build_fabric
from ..host.baselines import SoftwarePartitioner
from ..host.cpu import CpuModel
from ..kernels.shuffle import ShuffleKernel, ShuffleParams, pack_descriptor
from ..sim import MS, Simulator, timebase
from .common import ExperimentResult, run_proc
from .flowmodel import shuffle_times

INPUT_MIB = [128, 256, 512, 1024]
SEED = 11


def shuffle_experiment(input_mib: Optional[List[int]] = None
                       ) -> ExperimentResult:
    """The published sweep (flow model)."""
    input_mib = input_mib or INPUT_MIB
    result = ExperimentResult(
        experiment_id="fig11",
        title="Data shuffling execution time (s), 8 B tuples",
        columns=["input_MiB", "sw_write_s", "strom_s", "write_s",
                 "strom_vs_write_pct"],
        notes="StRoM partitions as a bump in the wire: within a few % of "
              "a plain WRITE; the SW baseline pays a serial partition "
              "pass")
    for mib in input_mib:
        times = shuffle_times(NIC_10G, HOST_DEFAULT, mib * 1024 * 1024)
        result.add_row(
            input_MiB=mib,
            sw_write_s=times.sw_write_s,
            strom_s=times.strom_s,
            write_s=times.write_s,
            strom_vs_write_pct=100.0 * (times.strom_s - times.write_s)
            / times.write_s)
    return result


def shuffle_detailed_run(num_tuples: int = 16384,
                         partition_bits: int = 3):
    """Scaled-down detailed validation: runs the real shuffle kernel and
    both baselines over the packet-level simulation.

    Returns a dict with the three execution times (seconds) plus
    functional evidence (tuples partitioned per approach).
    """
    total_bytes = num_tuples * 8
    rng = np.random.default_rng(SEED)
    values = rng.integers(0, 2 ** 63, size=num_tuples, dtype=np.uint64)
    num_partitions = 1 << partition_bits

    # ---------------- plain RDMA WRITE --------------------------------
    env = Simulator()
    fabric = build_fabric(env, nic_config=NIC_10G,
                          host_config=HOST_DEFAULT, seed=SEED)
    src = fabric.client.alloc(total_bytes, "src")
    dst = fabric.server.alloc(total_bytes, "dst")
    fabric.client.space.write(src.vaddr, values.tobytes())

    def plain_write():
        start = env.now
        yield from fabric.client.write_sync(fabric.client_qpn, src.vaddr,
                                            dst.vaddr, total_bytes)
        return env.now - start

    write_ps = run_proc(env, plain_write(), limit=10_000 * MS)

    # ---------------- StRoM shuffle kernel ----------------------------
    env = Simulator()
    fabric = build_fabric(env, nic_config=NIC_10G,
                          host_config=HOST_DEFAULT, seed=SEED)
    kernel = ShuffleKernel(env, fabric.server.nic.config)
    fabric.server.nic.deploy_kernel(RpcOpcode.SHUFFLE, kernel,
                                    sequential_dma=False)
    cap = (total_bytes // num_partitions) * 4 + 1024
    regions = [fabric.server.alloc(cap, f"part{i}")
               for i in range(num_partitions)]
    table = fabric.server.alloc(4096, "descriptors")
    fabric.server.space.write(table.vaddr, b"".join(
        pack_descriptor(r.vaddr, cap) for r in regions))
    src = fabric.client.alloc(total_bytes, "src")
    fabric.client.space.write(src.vaddr, values.tobytes())
    response = fabric.client.alloc(4096, "resp")

    def strom_shuffle():
        start = env.now
        params = ShuffleParams(response_vaddr=response.vaddr,
                               descriptor_table_vaddr=table.vaddr,
                               partition_bits=partition_bits,
                               total_bytes=total_bytes)
        yield from fabric.client.post_rpc(fabric.client_qpn,
                                          RpcOpcode.SHUFFLE, params.pack())
        yield from fabric.client.post_rpc_write(
            fabric.client_qpn, RpcOpcode.SHUFFLE, src.vaddr, total_bytes)
        yield from fabric.client.wait_for_data(response.vaddr, 16)
        return env.now - start

    strom_ps = run_proc(env, strom_shuffle(), limit=10_000 * MS)
    strom_tuples = kernel.tuples_partitioned

    # ---------------- SW partition + WRITE ----------------------------
    env = Simulator()
    fabric = build_fabric(env, nic_config=NIC_10G,
                          host_config=HOST_DEFAULT, seed=SEED)
    partitioner = SoftwarePartitioner(CpuModel(HOST_DEFAULT), partition_bits)
    src = fabric.client.alloc(total_bytes, "src")
    dst = fabric.server.alloc(total_bytes + num_partitions * 64, "dst")

    def sw_shuffle():
        start = env.now
        plan = partitioner.partition(values)
        yield fabric.client.cpu_delay(plan.cpu_time_ps)
        offset = 0
        last = None
        for part in plan.partitions:
            if part.size == 0:
                continue
            blob = part.tobytes()
            fabric.client.space.write(src.vaddr + offset, blob)
            last = yield from fabric.client.write(
                fabric.client_qpn, src.vaddr + offset, dst.vaddr + offset,
                len(blob))
            offset += len(blob)
        if last is not None:
            yield last
        return env.now - start

    sw_ps = run_proc(env, sw_shuffle(), limit=10_000 * MS)

    return {
        "write_s": timebase.to_seconds(write_ps),
        "strom_s": timebase.to_seconds(strom_ps),
        "sw_write_s": timebase.to_seconds(sw_ps),
        "strom_tuples": strom_tuples,
        "num_tuples": num_tuples,
    }

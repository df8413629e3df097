"""Figures 9 and 10: consistency-checked remote reads.

Figure 9 varies the object size: plain READ (no check), READ+SW (CRC64
verified on the requester CPU), and StRoM (CRC64 verified by the
consistency kernel on the remote NIC).  Figure 10 varies the failure
rate: on a failed check READ+SW pays another *network* round trip while
StRoM pays only a local PCIe re-read.
"""

from __future__ import annotations

from typing import List, Optional

from ..algos.crc import ChecksummedObject
from ..config import HOST_DEFAULT, NIC_10G
from ..core.rpc import RpcOpcode
from ..host import build_fabric
from ..host.baselines import read_with_sw_check
from ..host.cpu import CpuModel
from ..kernels.consistency import (
    ConsistencyKernel,
    ConsistencyParams,
    seeded_failure_injector,
)
from ..sim import MS, LatencySample, Simulator
from .common import ExperimentResult, run_proc

OBJECT_SIZES = [64, 128, 256, 512, 1024, 2048, 4096]
FAILURE_RATES = [0.0, 0.005, 0.05, 0.5]
FAILURE_SIZES = [64, 512, 4096]


def _setup(object_bytes, failure_rate, seed):
    env = Simulator()
    fabric = build_fabric(env, nic_config=NIC_10G,
                          host_config=HOST_DEFAULT, seed=seed)
    kernel_injector = (seeded_failure_injector(failure_rate, seed + 1)
                       if failure_rate else None)
    kernel = ConsistencyKernel(env, fabric.server.nic.config,
                               failure_injector=kernel_injector)
    fabric.server.nic.deploy_kernel(RpcOpcode.CONSISTENCY, kernel)

    obj = fabric.server.alloc(max(object_bytes, 64) * 2, "object")
    payload = bytes(i % 251 for i in range(
        object_bytes - ChecksummedObject.CHECKSUM_BYTES))
    fabric.server.space.write(obj.vaddr, ChecksummedObject.seal(payload))
    local = fabric.client.alloc(max(object_bytes, 64) * 2, "local")
    return env, fabric, obj, local


def consistency_latency_experiment(object_sizes: Optional[List[int]] = None,
                                   iterations: int = 30) -> ExperimentResult:
    """Figure 9: latency vs object size, no failures."""
    object_sizes = object_sizes or OBJECT_SIZES
    result = ExperimentResult(
        experiment_id="fig9",
        title="Consistent remote read latency vs object size (median us)",
        columns=["object_B", "read_us", "read_sw_us", "strom_us",
                 "sw_overhead_pct", "strom_overhead_pct"],
        notes="READ+SW pays CPU CRC64 (up to ~40% at 4KB); the StRoM "
              "kernel adds ~1 us (<8%)")
    for object_bytes in object_sizes:
        row = _measure_latency(object_bytes, failure_rate=0.0,
                               iterations=iterations, seed=9)
        result.add_row(object_B=object_bytes, **row)
    return result


def failure_rate_experiment(failure_rates: Optional[List[float]] = None,
                            object_sizes: Optional[List[int]] = None,
                            iterations: int = 40) -> ExperimentResult:
    """Figure 10: average latency vs failure rate and object size."""
    failure_rates = failure_rates if failure_rates is not None \
        else FAILURE_RATES
    object_sizes = object_sizes or FAILURE_SIZES
    result = ExperimentResult(
        experiment_id="fig10",
        title="Average read latency under checksum failures (us)",
        columns=["object_B", "failure_rate", "read_sw_us", "strom_us"],
        notes="retries cost a network RTT for READ+SW but only a PCIe "
              "re-read for StRoM (first retry always succeeds)")
    for object_bytes in object_sizes:
        for rate in failure_rates:
            row = _measure_latency(object_bytes, failure_rate=rate,
                                   iterations=iterations, seed=10,
                                   mean=True)
            result.add_row(object_B=object_bytes, failure_rate=rate,
                           read_sw_us=row["read_sw_us"],
                           strom_us=row["strom_us"])
    return result


def _measure_latency(object_bytes, failure_rate, iterations, seed,
                     mean=False):
    env, fabric, obj, local = _setup(object_bytes, failure_rate, seed)
    client = fabric.client
    cpu = CpuModel(HOST_DEFAULT)
    sw_injector = (seeded_failure_injector(failure_rate, seed + 2)
                   if failure_rate else None)

    read_sample = LatencySample("read")
    read_sw_sample = LatencySample("read+sw")
    strom_sample = LatencySample("strom")

    def plain_read():
        start = env.now
        yield from client.read_sync(fabric.client_qpn, local.vaddr,
                                    obj.vaddr, object_bytes)
        read_sample.record(env.now - start)

    def read_sw():
        start = env.now
        data, _attempts = yield from read_with_sw_check(
            fabric, local.vaddr, obj.vaddr, object_bytes, cpu,
            failure_injector=sw_injector)
        assert ChecksummedObject.verify(data)
        read_sw_sample.record(env.now - start)

    def strom():
        start = env.now
        params = ConsistencyParams(response_vaddr=local.vaddr,
                                   object_vaddr=obj.vaddr,
                                   object_size=object_bytes)
        yield from client.post_rpc(fabric.client_qpn,
                                   RpcOpcode.CONSISTENCY, params.pack())
        yield from client.wait_for_data(local.vaddr, 8)
        strom_sample.record(env.now - start)

    def driver():
        for _ in range(iterations):
            yield from plain_read()
            yield from read_sw()
            yield from strom()

    run_proc(env, driver(), limit=iterations * 100 * MS)
    read = read_sample.summary()
    read_sw_summary = read_sw_sample.summary()
    strom_summary = strom_sample.summary()
    pick = (lambda s: s.mean_us) if mean else (lambda s: s.median_us)
    read_us = pick(read)
    return {
        "read_us": read_us,
        "read_sw_us": pick(read_sw_summary),
        "strom_us": pick(strom_summary),
        "sw_overhead_pct":
            100.0 * (pick(read_sw_summary) - read_us) / read_us,
        "strom_overhead_pct":
            100.0 * (pick(strom_summary) - read_us) / read_us,
    }

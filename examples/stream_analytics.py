#!/usr/bin/env python
"""Cardinality statistics as a by-product of data movement (Section 7.2).

A storage node transfers a tuple stream to a compute node at 100 G.  The
HLL kernel on the receiving NIC sketches the stream in flight: the data
still lands in host memory (pass-through), and by the time the transfer
completes the compute node already knows the approximate number of
distinct keys — for free.  The same sketch on the CPU would be memory-
bandwidth bound at ~25 Gbit/s (Figure 13a).  The storage node then
sketches its own buffer on its own NIC (local invocation, Section 3.5).

Run:  python examples/stream_analytics.py
"""

import struct

import numpy as np

from repro import NIC_100G, RpcOpcode, Simulator, build_fabric
from repro.algos import HyperLogLog, exact_cardinality
from repro.config import HOST_DEFAULT
from repro.host.baselines import CpuHllIngest
from repro.host.cpu import CpuModel
from repro.kernels import HllKernel, HllParams
from repro.sim import MS, timebase

NUM_TUPLES = 60_000
DISTINCT = 20_000
PRECISION = 14


def main() -> None:
    env = Simulator()
    fabric = build_fabric(env, nic_config=NIC_100G)
    client, server = fabric.client, fabric.server

    kernel = HllKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.HLL, kernel)

    rng = np.random.default_rng(77)
    tuples = rng.integers(0, DISTINCT, size=NUM_TUPLES,
                          dtype=np.uint64)
    truth = exact_cardinality(tuples.tolist())

    src = client.alloc(NUM_TUPLES * 8, "stream_src")
    client.space.write(src.vaddr, tuples.tobytes())
    landing = server.alloc(NUM_TUPLES * 8, "stream_dst")
    registers = server.alloc(1 << PRECISION, "hll_registers")
    response = client.alloc(4096, "response")

    def ingest():
        start = env.now
        params = HllParams(response_vaddr=response.vaddr,
                           data_vaddr=landing.vaddr,
                           registers_vaddr=registers.vaddr,
                           total_bytes=NUM_TUPLES * 8,
                           precision=PRECISION)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.HLL,
                                   params.pack())
        yield from client.post_rpc_write(fabric.client_qpn, RpcOpcode.HLL,
                                         src.vaddr, NUM_TUPLES * 8)
        yield from client.wait_for_data(response.vaddr, 16)
        return env.now - start

    elapsed = env.run_until_complete(env.process(ingest()),
                                     limit=10_000 * MS)
    env.run()  # drain the register-file write

    estimate, seen = struct.unpack("<QQ",
                                   client.space.read(response.vaddr, 16))
    seconds = timebase.to_seconds(elapsed)
    gbps = NUM_TUPLES * 8 * 8 / seconds / 1e9
    error = 100.0 * abs(estimate - truth) / truth
    bound = HyperLogLog(PRECISION).standard_error
    print(f"transferred {seen} tuples at {gbps:.1f} Gbit/s with in-flight "
          f"HLL")
    print(f"  exact distinct keys : {truth}")
    print(f"  NIC-side estimate   : {estimate}  ({error:.2f}% error, "
          f"expected ~{100 * bound:.2f}%)")

    # The pass-through data is byte-identical in the compute node's RAM.
    assert server.space.read(landing.vaddr, NUM_TUPLES * 8) \
        == tuples.tobytes()
    # The register file in host memory reproduces the same estimate.
    sketch = HyperLogLog.from_register_bytes(
        server.space.read(registers.vaddr, 1 << PRECISION), PRECISION)
    assert int(round(sketch.cardinality())) == estimate

    # Local invocation (Section 3.5): the storage node sketches its own
    # buffer on its own NIC, the kernel's output going to local memory.
    local_kernel = HllKernel(env, client.nic.config)
    client.nic.deploy_kernel(RpcOpcode.HLL, local_kernel)
    local_copy = client.alloc(NUM_TUPLES * 8, "local_pass")
    local_registers = client.alloc(1 << PRECISION, "local_registers")
    local_record = client.alloc(4096, "local_record")

    def sketch_locally():
        params = HllParams(response_vaddr=local_record.vaddr,
                           data_vaddr=local_copy.vaddr,
                           registers_vaddr=local_registers.vaddr,
                           total_bytes=NUM_TUPLES * 8,
                           precision=PRECISION)
        yield from client.post_local_rpc(RpcOpcode.HLL, params.pack())
        yield from client.post_local_rpc_write(RpcOpcode.HLL, src.vaddr,
                                               NUM_TUPLES * 8)
        yield from client.wait_for_data(local_record.vaddr, 16)

    env.run_until_complete(env.process(sketch_locally()),
                           limit=10_000 * MS)
    env.run()
    local_estimate, local_seen = struct.unpack(
        "<QQ", client.space.read(local_record.vaddr, 16))
    local_error = abs(local_estimate - truth) / truth
    print(f"  storage-side estimate: {local_estimate}  "
          f"({100 * local_error:.2f}% error, local invocation)")
    assert local_seen == NUM_TUPLES
    assert local_error <= bound

    # Contrast: the CPU-side sketch is bandwidth-bound (Figure 13a).
    cpu = CpuModel(HOST_DEFAULT)
    for threads in (1, 8):
        sw = CpuHllIngest(cpu, threads=threads, precision=PRECISION)
        sw_gbps = sw.throughput_gbps(nic_ingest_gbps=25.0)
        print(f"  CPU HLL with {threads} thread(s) would sustain "
              f"{sw_gbps:5.2f} Gbit/s")
    print("stream_analytics OK")


if __name__ == "__main__":
    main()

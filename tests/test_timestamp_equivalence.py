"""Batched vs per-word accounting produce identical simulated results.

StRoM's II=1 pipeline argument licenses charging N data-path words as one
timeout of ``n_words * cycle_ps`` (``cycles(n) == n * cycles(1)`` exactly,
see ``repro.sim.timebase.cycles_to_ps``).  These tests run one detailed
experiment per figure family with ``NicConfig.per_word_accounting`` off
(the default, batched) and on (one timeout per word) and assert byte- and
picosecond-identical outcomes.  Per-word mode keeps the kernel glue's
DMA transfers as processes, so these runs are also the oracle for the
glue's callback chains.
"""

import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.algos import ChecksummedObject
from repro.config import HOST_DEFAULT, NIC_10G, NIC_100G
from repro.core import RpcOpcode
from repro.experiments.common import measure_write_latency
from repro.experiments.fig07_linked_list import _measure_for_length
from repro.host import build_fabric
from repro.kernels import (ConsistencyKernel, ConsistencyParams, HllKernel,
                           HllParams, ShuffleKernel, ShuffleParams,
                           pack_descriptor)
from repro.sim import MS, Simulator


def both_modes(nic_config):
    batched = replace(nic_config, per_word_accounting=False)
    per_word = replace(nic_config, per_word_accounting=True)
    return batched, per_word


# ---------------------------------------------------------------------------
# Figure 5a family: WRITE latency on the detailed simulator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nic", [NIC_10G, NIC_100G],
                         ids=["10G", "100G"])
def test_fig5a_write_latency_identical(nic):
    batched, per_word = both_modes(nic)
    a = measure_write_latency(batched, HOST_DEFAULT, payload_bytes=256,
                              iterations=5, seed=3)
    b = measure_write_latency(per_word, HOST_DEFAULT, payload_bytes=256,
                              iterations=5, seed=3)
    assert a == b


# ---------------------------------------------------------------------------
# Figure 7 family: linked-list traversal (READs, StRoM kernel, TCP RPC)
# ---------------------------------------------------------------------------

def test_fig7_traversal_latencies_identical():
    batched, per_word = both_modes(NIC_10G)
    a = _measure_for_length(batched, length=4, iterations=3)
    b = _measure_for_length(per_word, length=4, iterations=3)
    assert a == b


# ---------------------------------------------------------------------------
# Figure 11 family: shuffle kernel detailed session
# ---------------------------------------------------------------------------

def _run_shuffle_session(nic_config):
    """One end-to-end shuffle RPC; returns (end_time_ps, response_bytes,
    partition_bytes)."""
    env = Simulator()
    fabric = build_fabric(env, nic_config=nic_config,
                          host_config=HOST_DEFAULT, seed=5)
    server, client = fabric.server, fabric.client
    kernel = ShuffleKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.SHUFFLE, kernel,
                             sequential_dma=False)

    bits = 2
    num_partitions = 1 << bits
    total_tuples = 400
    rng = np.random.default_rng(5)
    values = rng.integers(0, 2**63, size=total_tuples, dtype=np.uint64)

    partition_cap = total_tuples * 8  # ample room per partition
    regions = [server.alloc(partition_cap, f"part{i}")
               for i in range(num_partitions)]
    table = server.alloc(4096, "descriptors")
    server.space.write(table.vaddr, b"".join(
        pack_descriptor(r.vaddr, partition_cap) for r in regions))

    data = client.alloc(total_tuples * 8, "data")
    client.space.write(data.vaddr, values.tobytes())
    response = client.alloc(4096, "resp")

    def proc():
        params = ShuffleParams(response_vaddr=response.vaddr,
                               descriptor_table_vaddr=table.vaddr,
                               partition_bits=bits,
                               total_bytes=total_tuples * 8)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.SHUFFLE,
                                   params.pack())
        yield from client.post_rpc_write(fabric.client_qpn,
                                         RpcOpcode.SHUFFLE,
                                         data.vaddr, total_tuples * 8)
        yield from client.wait_for_data(response.vaddr, 16)

    env.run_until_complete(env.process(proc()), limit=500 * MS)
    env.run()  # drain posted DMA writes
    response_bytes = client.space.read(response.vaddr, 16)
    partition_bytes = b"".join(server.space.read(r.vaddr, partition_cap)
                               for r in regions)
    return env.now, response_bytes, partition_bytes


def test_fig11_shuffle_session_identical():
    batched, per_word = both_modes(NIC_10G)
    end_a, resp_a, parts_a = _run_shuffle_session(batched)
    end_b, resp_b, parts_b = _run_shuffle_session(per_word)
    # Same picosecond end time, same response, same partitioned bytes.
    assert end_a == end_b
    assert resp_a == resp_b
    assert parts_a == parts_b
    partitioned, overflowed = struct.unpack("<QQ", resp_a)
    assert partitioned == 400 and overflowed == 0


# ---------------------------------------------------------------------------
# Figure 9 / 13 family: consistency-kernel read and HLL RPC-WRITE session
# ---------------------------------------------------------------------------

def _run_consistency_read(nic_config):
    """One CRC64-checked 4 KiB read through the consistency kernel;
    returns (end_time_ps, landed object)."""
    env = Simulator()
    fabric = build_fabric(env, nic_config=nic_config,
                          host_config=HOST_DEFAULT, seed=9)
    server, client = fabric.server, fabric.client
    server.nic.deploy_kernel(RpcOpcode.CONSISTENCY,
                             ConsistencyKernel(env, server.nic.config))
    size = 4096
    obj = server.alloc(size, "object")
    server.space.write(obj.vaddr, ChecksummedObject.seal(
        bytes(i % 251 for i in range(size - 8))))
    local = client.alloc(size, "local")

    def proc():
        params = ConsistencyParams(response_vaddr=local.vaddr,
                                   object_vaddr=obj.vaddr, object_size=size)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.CONSISTENCY,
                                   params.pack())
        yield from client.wait_for_data(local.vaddr + size - 8, 8)

    env.run_until_complete(env.process(proc()), limit=50 * MS)
    return env.now, client.space.read(local.vaddr, size)


def _run_hll_session(nic_config):
    """One 64 KiB RPC-WRITE stream through the HLL kernel; returns
    (end_time_ps, completion record, landed stream, register file)."""
    env = Simulator()
    fabric = build_fabric(env, nic_config=nic_config,
                          host_config=HOST_DEFAULT, seed=13)
    server, client = fabric.server, fabric.client
    server.nic.deploy_kernel(RpcOpcode.HLL,
                             HllKernel(env, server.nic.config))
    size = 64 * 1024
    values = np.random.default_rng(13).integers(
        0, 5000, size=size // 8, dtype=np.uint64)
    data = client.alloc(size, "data")
    client.space.write(data.vaddr, values.tobytes())
    record = client.alloc(4096, "record")
    landing = server.alloc(size + (1 << 14), "landing")

    def proc():
        params = HllParams(response_vaddr=record.vaddr,
                           data_vaddr=landing.vaddr,
                           registers_vaddr=landing.vaddr + size,
                           total_bytes=size)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.HLL,
                                   params.pack())
        yield from client.post_rpc_write(fabric.client_qpn, RpcOpcode.HLL,
                                         data.vaddr, size)
        yield from client.wait_for_data(record.vaddr, 16)

    env.run_until_complete(env.process(proc()), limit=50 * MS)
    env.run()  # drain posted DMA writes
    return (env.now, client.space.read(record.vaddr, 16),
            server.space.read(landing.vaddr, size),
            server.space.read(landing.vaddr + size, 1 << 14))


@pytest.mark.parametrize("nic", [NIC_10G, NIC_100G],
                         ids=["10G", "100G"])
def test_consistency_kernel_read_identical(nic):
    batched, per_word = both_modes(nic)
    a = _run_consistency_read(batched)
    b = _run_consistency_read(per_word)
    assert a == b
    assert ChecksummedObject.verify(a[1])


@pytest.mark.parametrize("nic", [NIC_10G, NIC_100G],
                         ids=["10G", "100G"])
def test_hll_rpc_write_session_identical(nic):
    batched, per_word = both_modes(nic)
    a = _run_hll_session(batched)
    b = _run_hll_session(per_word)
    assert a == b
    assert struct.unpack("<QQ", a[1])[1] == 64 * 1024 // 8

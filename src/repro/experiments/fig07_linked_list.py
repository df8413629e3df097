"""Figure 7: traversing a remote linked list three ways.

Latency of looking up a random key in a remote linked list of length
{4, 8, 16, 32} (value size 64 B) using conventional RDMA READs (one
network round trip per element), the StRoM traversal kernel (one round
trip total, one PCIe access per element), and a TCP/rpcgen RPC executed
by the remote CPU (flat in the list length).
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..config import HOST_DEFAULT, NIC_10G, NicConfig
from ..core.rpc import RpcOpcode
from ..host import build_fabric
from ..host.tcp_rpc import TcpRpcChannel
from ..kernels.traversal import PredicateOp, TraversalKernel, TraversalParams
from ..sim import MS, LatencySample, Simulator
from .common import ExperimentResult, run_proc

LIST_LENGTHS = [4, 8, 16, 32]
VALUE_BYTES = 64
SEED = 7


def _build_linked_list(server, keys, value_bytes):
    """Figure 6 layout: key @ pos 0, next @ pos 2, value ptr @ pos 4."""
    elements = server.alloc(64 * len(keys), "list")
    values = server.alloc(value_bytes * len(keys), "values")
    addresses = [elements.vaddr + 64 * i for i in range(len(keys))]
    for i, key in enumerate(keys):
        value_addr = values.vaddr + value_bytes * i
        server.space.write(value_addr, bytes([(i + 1) % 256]) * value_bytes)
        next_ptr = addresses[i + 1] if i + 1 < len(keys) else 0
        element = (key.to_bytes(8, "little")
                   + next_ptr.to_bytes(8, "little")
                   + value_addr.to_bytes(8, "little"))
        server.space.write(addresses[i], element.ljust(64, b"\x00"))
    return addresses


def linked_list_experiment(nic_config: NicConfig = NIC_10G,
                           lengths: Optional[List[int]] = None,
                           iterations: int = 30) -> ExperimentResult:
    lengths = lengths or LIST_LENGTHS
    result = ExperimentResult(
        experiment_id="fig7",
        title="Remote linked-list traversal latency (median us, "
              f"value {VALUE_BYTES} B)",
        columns=["list_length", "rdma_read_us", "strom_us", "tcp_rpc_us",
                 "read_p99_us", "strom_p99_us", "tcp_p99_us"],
        notes="READ grows linearly (one RTT per hop); StRoM sublinearly "
              "(one PCIe access per hop); TCP RPC is flat")
    for length in lengths:
        rows = _measure_for_length(nic_config, length, iterations)
        result.add_row(list_length=length, **rows)
    return result


def _measure_for_length(nic_config, length, iterations):
    env = Simulator()
    fabric = build_fabric(env, nic_config=nic_config,
                          host_config=HOST_DEFAULT, seed=SEED)
    client, server = fabric.client, fabric.server
    kernel = TraversalKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.TRAVERSAL, kernel)
    tcp = TcpRpcChannel(env, HOST_DEFAULT, seed=SEED)

    keys = [1000 + i for i in range(length)]
    addresses = _build_linked_list(server, keys, VALUE_BYTES)
    entry_buf = client.alloc(64 * 2, "entry")
    value_buf = client.alloc(max(VALUE_BYTES, 64) * 2, "value")
    rng = random.Random(SEED)

    read_sample = LatencySample("read")
    strom_sample = LatencySample("strom")
    tcp_sample = LatencySample("tcp")

    def via_reads(key, position):
        start = env.now
        address = addresses[0]
        for _hop in range(length):
            yield from client.read_sync(fabric.client_qpn, entry_buf.vaddr,
                                        address, 64)
            entry = client.space.read(entry_buf.vaddr, 64)
            entry_key = int.from_bytes(entry[0:8], "little")
            next_ptr = int.from_bytes(entry[8:16], "little")
            value_ptr = int.from_bytes(entry[16:24], "little")
            if entry_key == key:
                yield from client.read_sync(fabric.client_qpn,
                                            value_buf.vaddr, value_ptr,
                                            VALUE_BYTES)
                break
            address = next_ptr
        read_sample.record(env.now - start)

    def via_strom(key):
        start = env.now
        params = TraversalParams(
            response_vaddr=value_buf.vaddr, remote_address=addresses[0],
            value_size=VALUE_BYTES, key=key, key_mask=1,
            predicate_op=PredicateOp.EQUAL, value_ptr_position=4,
            is_relative_position=False, next_element_ptr_position=2,
            next_element_ptr_valid=True)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.TRAVERSAL,
                                   params.pack())
        yield from client.wait_for_data(value_buf.vaddr,
                                        min(VALUE_BYTES, 8))
        strom_sample.record(env.now - start)

    def via_tcp(position):
        start = env.now
        yield from tcp.call(
            request_bytes=32,
            server_work=tcp.linked_list_handler(position + 1, VALUE_BYTES))
        tcp_sample.record(env.now - start)

    def driver():
        for i in range(iterations):
            # Uniform coverage of lookup depths: cycle the positions
            # (same expected hop count as the paper's random pick, but
            # stable medians at small iteration counts).
            position = (i * 7 + rng.randrange(2)) % length
            key = keys[position]
            yield from via_reads(key, position)
            yield from via_strom(key)
            yield from via_tcp(position)

    run_proc(env, driver(), limit=iterations * 100 * MS)
    read = read_sample.summary()
    strom = strom_sample.summary()
    tcp_summary = tcp_sample.summary()
    return {
        "rdma_read_us": read.median_us,
        "strom_us": strom.median_us,
        "tcp_rpc_us": tcp_summary.median_us,
        "read_p99_us": read.p99_us,
        "strom_p99_us": strom.p99_us,
        "tcp_p99_us": tcp_summary.p99_us,
    }

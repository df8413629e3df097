"""Tests for the extension features: local StRoM invocation, send-side
kernels, the Controller register file, ARP, and doorbell batching."""

import struct

import numpy as np
import pytest

from repro.config import HOST_DEFAULT, NIC_10G
from repro.core import RpcOpcode
from repro.experiments import flowmodel
from repro.host import build_fabric
from repro.kernels import (
    GetKernel,
    GetParams,
    HllKernel,
    HllParams,
    pack_ht_entry,
)
from repro.nic.controller import (
    REG_PACKETS_SENT,
    REG_QP_COUNT,
    REG_RPC_MATCHES,
    UnknownRegisterError,
)
from repro.sim import MS, Simulator


def run_proc(env, gen, limit=1000 * MS):
    return env.run_until_complete(env.process(gen), limit=limit)


# ---------------------------------------------------------------------------
# Local StRoM invocation (Sections 3.5 / 5.2)
# ---------------------------------------------------------------------------

def test_local_rpc_get_kernel():
    """A GET kernel invoked by the *local* host: no network traffic, the
    value lands in local memory via DMA."""
    env = Simulator()
    fabric = build_fabric(env)
    server = fabric.server
    kernel = GetKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.GET, kernel)

    table = server.alloc(4096, "ht")
    values = server.alloc(4096, "values")
    response = server.alloc(4096, "resp")
    value = b"local-value" * 4
    server.space.write(values.vaddr, value)
    server.space.write(table.vaddr,
                       pack_ht_entry([(5, values.vaddr, len(value))]))

    packets_before = int(server.nic.packets_sent)

    def proc():
        params = GetParams(response_vaddr=response.vaddr,
                           ht_entry_vaddr=table.vaddr, key=5)
        yield from server.post_local_rpc(RpcOpcode.GET, params.pack())
        yield from server.wait_for_data(response.vaddr, len(value))

    run_proc(env, proc())
    assert server.space.read(response.vaddr, len(value)) == value
    assert kernel.invocations == 1
    assert int(server.nic.packets_sent) == packets_before  # no network


def test_local_rpc_unknown_opcode():
    env = Simulator()
    fabric = build_fabric(env)

    def proc():
        yield from fabric.server.post_local_rpc(0x55, b"\x00" * 16)

    run_proc(env, proc())
    with pytest.raises(Exception):
        env.run()  # the local dispatch process raises KeyError


def test_send_side_hll_kernel():
    """Send-kernel composition (Section 3.5): the *client* streams local
    data through its own HLL kernel, whose output (the completion
    record) is delivered over the network to the server — statistics
    computed on the way out."""
    env = Simulator()
    fabric = build_fabric(env)
    client, server = fabric.client, fabric.server
    kernel = HllKernel(env, client.nic.config)
    client.nic.deploy_kernel(RpcOpcode.HLL, kernel)

    num_tuples = 2000
    rng = np.random.default_rng(3)
    values = rng.integers(0, 500, size=num_tuples, dtype=np.uint64)
    src = client.alloc(num_tuples * 8, "src")
    client.space.write(src.vaddr, values.tobytes())
    passthrough = client.alloc(num_tuples * 8, "pass")
    registers = client.alloc(1 << 14, "regs")
    remote_record = server.alloc(4096, "record")

    def proc():
        params = HllParams(response_vaddr=remote_record.vaddr,
                           data_vaddr=passthrough.vaddr,
                           registers_vaddr=registers.vaddr,
                           total_bytes=num_tuples * 8)
        # Kernel output routed to the connected QP -> remote memory.
        yield from client.post_local_rpc(RpcOpcode.HLL, params.pack(),
                                         output_qpn=fabric.client_qpn)
        yield from client.post_local_rpc_write(
            RpcOpcode.HLL, src.vaddr, num_tuples * 8,
            output_qpn=fabric.client_qpn)
        yield from server.wait_for_data(remote_record.vaddr, 16)

    run_proc(env, proc())
    estimate, seen = struct.unpack(
        "<QQ", server.space.read(remote_record.vaddr, 16))
    truth = len(set(values.tolist()))
    assert seen == num_tuples
    assert abs(estimate - truth) / truth < 0.05


# ---------------------------------------------------------------------------
# Controller register file (Section 4.3)
# ---------------------------------------------------------------------------

def test_controller_counters_after_traffic():
    env = Simulator()
    fabric = build_fabric(env)
    src = fabric.client.alloc(4096, "src")
    dst = fabric.server.alloc(4096, "dst")
    fabric.client.space.write(src.vaddr, b"t" * 512)

    def proc():
        for _ in range(3):
            yield from fabric.client.write_sync(
                fabric.client_qpn, src.vaddr, dst.vaddr, 512)
        stats = yield from fabric.client.read_nic_stats()
        return stats

    stats = run_proc(env, proc())
    assert stats["packets_sent"] == 3
    assert stats["payload_bytes_sent"] == 3 * 512
    assert stats["qp_count"] == 1
    assert stats["retransmits"] == 0
    server_stats = fabric.server.nic.controller.snapshot()
    assert server_stats["acks_sent"] == 3
    assert server_stats["dma_writes"] == 3


def test_controller_register_read_costs_pcie_round_trip():
    env = Simulator()
    fabric = build_fabric(env)

    def proc():
        start = env.now
        value = yield from fabric.client.read_nic_register(REG_QP_COUNT)
        return value, env.now - start

    value, elapsed = run_proc(env, proc())
    assert value == 1
    assert elapsed >= NIC_10G.pcie_read_latency


def test_controller_unknown_register():
    env = Simulator()
    fabric = build_fabric(env)
    with pytest.raises(UnknownRegisterError):
        fabric.client.nic.controller.read_register(0xFFF0)


def test_controller_rpc_match_counter():
    env = Simulator()
    fabric = build_fabric(env)
    kernel = GetKernel(env, fabric.server.nic.config)
    fabric.server.nic.deploy_kernel(RpcOpcode.GET, kernel)
    table = fabric.server.alloc(4096, "ht")
    values = fabric.server.alloc(4096, "v")
    response = fabric.client.alloc(4096, "r")
    fabric.server.space.write(values.vaddr, b"x" * 64)
    fabric.server.space.write(table.vaddr,
                              pack_ht_entry([(1, values.vaddr, 64)]))

    def proc():
        params = GetParams(response_vaddr=response.vaddr,
                           ht_entry_vaddr=table.vaddr, key=1)
        yield from fabric.client.post_rpc(fabric.client_qpn,
                                          RpcOpcode.GET, params.pack())
        yield from fabric.client.wait_for_data(response.vaddr, 64)

    run_proc(env, proc())
    assert fabric.server.nic.controller.read_register(REG_RPC_MATCHES) == 1


# ---------------------------------------------------------------------------
# Doorbell batching (Section 7.1's anticipated fix)
# ---------------------------------------------------------------------------

def test_batched_message_rate_lifts_host_cap():
    single = flowmodel.host_message_rate(HOST_DEFAULT, batch_size=1)
    batched = flowmodel.host_message_rate(HOST_DEFAULT, batch_size=16)
    assert batched > 4 * single


def test_batching_validation():
    with pytest.raises(ValueError):
        flowmodel.host_message_rate(HOST_DEFAULT, batch_size=0)


def test_post_batch_detailed():
    """Batched posting delivers all commands and costs less host time
    than individual MMIO stores."""
    env = Simulator()
    fabric = build_fabric(env)
    src = fabric.client.alloc(8192, "src")
    dst = fabric.server.alloc(8192, "dst")
    fabric.client.space.write(src.vaddr, b"b" * 8192)
    from repro.nic import NicCommand
    from repro.sim import Event

    def proc():
        completions = [Event(env) for _ in range(8)]
        commands = [
            NicCommand(kind="write", qpn=fabric.client_qpn,
                       laddr=src.vaddr + i * 1024,
                       raddr=dst.vaddr + i * 1024, length=1024,
                       completion=completions[i])
            for i in range(8)]
        start = env.now
        yield from fabric.client.mmio.post_batch(commands)
        issue_time = env.now - start
        for completion in completions:
            yield completion
        return issue_time

    issue_time = run_proc(env, proc())
    # One store + 7 ring entries ~ 2x a single store, not 8x.
    assert issue_time < 3 * HOST_DEFAULT.mmio_command_cost
    assert fabric.server.space.read(dst.vaddr, 8192) == b"b" * 8192

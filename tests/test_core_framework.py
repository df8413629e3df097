"""Unit tests for the StRoM kernel framework (Listing 1 interface, RPC
marshalling, and the kernel registry)."""

import pytest

from repro.config import NIC_10G
from repro.core import (
    KernelRegistry,
    KernelStreams,
    MAX_PARAM_BYTES,
    MemCmd,
    PREAMBLE_SIZE,
    RoceMeta,
    RpcOpcode,
    RpcPreamble,
    StromKernel,
    pack_params,
)
from repro.sim import Simulator, US


# ---------------------------------------------------------------------------
# RPC parameter marshalling
# ---------------------------------------------------------------------------

def test_preamble_roundtrip():
    preamble = RpcPreamble(response_vaddr=0x7F12_3456_789A)
    parsed = RpcPreamble.unpack(preamble.pack())
    assert parsed.response_vaddr == 0x7F12_3456_789A


def test_pack_params_with_body():
    blob = pack_params(RpcPreamble(1), b"body-bytes")
    assert blob[PREAMBLE_SIZE:] == b"body-bytes"
    assert RpcPreamble.unpack(blob).response_vaddr == 1


def test_pack_params_size_limit():
    with pytest.raises(ValueError):
        pack_params(RpcPreamble(0), b"x" * MAX_PARAM_BYTES)


def test_short_params_rejected():
    with pytest.raises(ValueError):
        RpcPreamble.unpack(b"\x00" * 4)


def test_rpc_opcodes_are_distinct():
    values = [int(op) for op in RpcOpcode]
    assert len(values) == len(set(values))


# ---------------------------------------------------------------------------
# MemCmd / RoceMeta
# ---------------------------------------------------------------------------

def test_memcmd_validation():
    with pytest.raises(ValueError):
        MemCmd(vaddr=0, length=0)
    with pytest.raises(ValueError):
        MemCmd(vaddr=-4, length=8)
    cmd = MemCmd(vaddr=0x1000, length=64, is_write=True)
    assert cmd.is_write


def test_rocemeta_validation():
    with pytest.raises(ValueError):
        RoceMeta(qpn=1, target_vaddr=0, length=-1)


# ---------------------------------------------------------------------------
# KernelStreams / StromKernel plumbing
# ---------------------------------------------------------------------------

def test_kernel_streams_have_the_eight_channels():
    env = Simulator()
    streams = KernelStreams(env)
    for name in ("qpn_in", "param_in", "roce_data_in", "dma_cmd_out",
                 "dma_data_out", "dma_data_in", "roce_meta_out",
                 "roce_data_out"):
        assert hasattr(streams, name)


class _EchoKernel(StromKernel):
    """Minimal kernel: echoes parameters back as an RDMA WRITE."""

    name = "echo"

    def run(self):
        while True:
            invocation = yield from self.next_invocation()
            preamble = RpcPreamble.unpack(invocation.params)
            yield self.charge_cycles(4)
            yield from self.send_to_network(
                invocation.qpn, preamble.response_vaddr,
                invocation.params[PREAMBLE_SIZE:])


def test_custom_kernel_runs_through_streams():
    env = Simulator()
    kernel = _EchoKernel(env, NIC_10G)
    kernel.start()
    sent = []

    def feed():
        yield kernel.streams.qpn_in.put(7)
        yield kernel.streams.param_in.put(
            pack_params(RpcPreamble(0xAA), b"echo!"))

    def collect():
        meta = yield kernel.streams.roce_meta_out.get()
        data = yield kernel.streams.roce_data_out.get()
        sent.append((meta, data))

    env.process(feed())
    env.process(collect())
    env.run()
    assert len(sent) == 1
    meta, data = sent[0]
    assert meta.qpn == 7
    assert meta.target_vaddr == 0xAA
    assert data == b"echo!"
    assert kernel.invocations == 1


def test_kernel_serve_must_be_overridden():
    from repro.sim import SimulationError
    env = Simulator()
    kernel = StromKernel(env, NIC_10G)
    kernel.start()

    def invoke():
        yield kernel.streams.qpn_in.put(1)
        yield kernel.streams.param_in.put(b"\x00" * 16)

    env.process(invoke())
    # The crash surfaces as an unhandled process failure.
    with pytest.raises(SimulationError):
        env.run()


def test_kernel_timing_helpers():
    env = Simulator()
    kernel = _EchoKernel(env, NIC_10G)

    def proc():
        start = env.now
        yield kernel.charge_cycles(10)
        fixed = env.now - start
        start = env.now
        yield kernel.charge_streaming(64)  # 8 words at 8 B
        streaming = env.now - start
        return fixed, streaming

    fixed, streaming = env.run_until_complete(env.process(proc()))
    assert fixed == 10 * NIC_10G.cycles(1)
    assert streaming == 8 * NIC_10G.cycles(1)


# ---------------------------------------------------------------------------
# KernelRegistry
# ---------------------------------------------------------------------------

def test_registry_match_and_miss_counters():
    env = Simulator()
    registry = KernelRegistry()
    kernel = _EchoKernel(env, NIC_10G)
    registry.deploy(0x42, kernel)
    assert registry.match(0x42) is kernel
    assert registry.match(0x99) is None
    assert int(registry.matches) == 1
    assert int(registry.misses) == 1
    assert registry.deployed_opcodes == [0x42]


def test_registry_redeploy_replaces():
    """Run-time interchangeability (Section 3.3): re-deploying an
    op-code swaps the kernel."""
    env = Simulator()
    registry = KernelRegistry()
    first = _EchoKernel(env, NIC_10G)
    second = _EchoKernel(env, NIC_10G)
    registry.deploy(0x42, first)
    registry.deploy(0x42, second)
    assert registry.match(0x42) is second
    assert registry.deployed_opcodes == [0x42]


def test_registry_fallback_configuration():
    registry = KernelRegistry()
    assert registry.fallback is None
    handler = object()
    registry.set_fallback(handler)
    assert registry.fallback is handler

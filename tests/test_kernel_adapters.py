"""The NIC's kernel glue: the DMA and TX adapters and the RPC-WRITE feed.

Each test drives one path on which the glue waits for a kernel stream
(or drops what it was handed) and pins the run's ``events_created`` and
final clock besides the outcome, so the glue keeps its event stream on
the paths the workload pins in ``test_event_stream.py`` do not reach:

- data arriving after its DMA command or TX metadata;
- a full ``dmaCmdOut`` with the kernel blocked on its put;
- read data that completes after the invocation it belonged to aborted;
- RPC-WRITE payload for a kernel quarantined while it was in flight;
- a kernel whose ``roceDataOut`` or ``dmaDataOut`` length differs from
  its metadata or command, which ends ``env.run()`` in a
  ``SimulationError`` chained from the adapter's ``ValueError``.
"""

import pytest

from repro.core import (RPC_ERROR_TIMEOUT, InvocationBudget, MemCmd,
                        RoceMeta, RpcOpcode, StromKernel)
from repro.core.rpc import RpcPreamble
from repro.host import build_fabric
from repro.kernels import (HllKernel, PredicateOp, TraversalKernel,
                           TraversalParams)
from repro.sim import MS, US, SimulationError, Simulator

_OPCODE = 0x71
_DONE = b"\x01" * 8


class _LateDataKernel(StromKernel):
    """Puts a DMA write command and TX metadata, each a few cycles
    before its data."""

    name = "late-data"

    def __init__(self, env, config, target):
        super().__init__(env, config)
        self.target = target

    def serve(self, invocation, params):
        streams = self.streams
        response = RpcPreamble.unpack(invocation.params).response_vaddr
        yield streams.dma_cmd_out.put(
            MemCmd(vaddr=self.target, length=64, is_write=True))
        yield self.charge_cycles(8)
        yield streams.dma_data_out.put(b"\x11" * 64)
        yield streams.roce_meta_out.put(
            RoceMeta(qpn=invocation.qpn, target_vaddr=response, length=8))
        yield self.charge_cycles(8)
        yield streams.roce_data_out.put(_DONE)


class _ReadFloodKernel(StromKernel):
    """Queues more DMA read commands than ``dmaCmdOut`` holds before it
    takes any data."""

    name = "read-flood"
    READS = 100

    def __init__(self, env, config, source):
        super().__init__(env, config)
        self.source = source
        self.peak = 0
        self.chunks = []

    def serve(self, invocation, params):
        streams = self.streams
        for i in range(self.READS):
            self.peak = max(self.peak, len(streams.dma_cmd_out))
            yield streams.dma_cmd_out.put(
                MemCmd(vaddr=self.source + 64 * i, length=64))
        for _ in range(self.READS):
            self.chunks.append((yield streams.dma_data_in.get()))
        response = RpcPreamble.unpack(invocation.params).response_vaddr
        yield from self.send_to_network(invocation.qpn, response, _DONE)


class _MismatchKernel(StromKernel):
    """Announces 16 B on ``roceMetaOut`` or ``dmaCmdOut`` and sends 8."""

    name = "mismatch"

    def __init__(self, env, config, dma_target=None):
        super().__init__(env, config)
        self.dma_target = dma_target

    def serve(self, invocation, params):
        streams = self.streams
        if self.dma_target is None:
            response = RpcPreamble.unpack(invocation.params).response_vaddr
            yield streams.roce_meta_out.put(RoceMeta(
                qpn=invocation.qpn, target_vaddr=response, length=16))
            yield streams.roce_data_out.put(b"\x00" * 8)
        else:
            yield streams.dma_cmd_out.put(MemCmd(
                vaddr=self.dma_target, length=16, is_write=True))
            yield streams.dma_data_out.put(b"\x00" * 8)


def _invoke(fabric, opcode, params, response, wait_bytes=8):
    client = fabric.client
    yield from client.post_rpc(fabric.client_qpn, opcode, params)
    yield from client.wait_for_data(response, wait_bytes)


def _run(env, gen):
    env.run_until_complete(env.process(gen), limit=10 * MS)
    env.run()  # drain posted DMA writes


def test_data_after_its_command_or_metadata_is_awaited():
    env = Simulator()
    fabric = build_fabric(env)
    client, server = fabric.client, fabric.server
    target = server.alloc(4096, "target").vaddr
    response = client.alloc(4096, "response").vaddr
    server.nic.deploy_kernel(
        _OPCODE, _LateDataKernel(env, server.nic.config, target))

    _run(env, _invoke(fabric, _OPCODE, RpcPreamble(response).pack(),
                      response))
    assert server.space.read(target, 64) == b"\x11" * 64
    assert client.space.read(response, 8) == _DONE
    assert (env.events_created, env.now) == (54, 101_660_400)


def test_full_dma_cmd_out_blocks_the_kernel_until_the_adapter_drains():
    env = Simulator()
    fabric = build_fabric(env)
    client, server = fabric.client, fabric.server
    source = server.alloc(64 * _ReadFloodKernel.READS, "source").vaddr
    blocks = [bytes([i]) * 64 for i in range(_ReadFloodKernel.READS)]
    server.space.write(source, b"".join(blocks))
    response = client.alloc(4096, "response").vaddr
    kernel = _ReadFloodKernel(env, server.nic.config, source)
    server.nic.deploy_kernel(_OPCODE, kernel)

    _run(env, _invoke(fabric, _OPCODE, RpcPreamble(response).pack(),
                      response))
    assert kernel.peak == kernel.streams.dma_cmd_out.capacity == 64
    assert kernel.chunks == blocks
    assert client.space.read(response, 8) == _DONE
    assert (env.events_created, env.now) == (247, 252_731_300)


def test_read_data_of_an_aborted_invocation_is_dropped():
    """The deadline (1 us) fires while the first element read (1.5 us
    PCIe latency) is in flight: the kernel aborts, and the adapter
    drops the read's data instead of queueing it for the next
    invocation."""
    env = Simulator()
    fabric = build_fabric(env)
    client, server = fabric.client, fabric.server
    kernel = TraversalKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.TRAVERSAL, kernel,
                             budget=InvocationBudget(deadline_ps=1 * US))
    element = server.alloc(4096, "list").vaddr
    server.space.write(element, (7).to_bytes(8, "little").ljust(64, b"\0"))
    response = client.alloc(4096, "response").vaddr
    params = TraversalParams(
        response_vaddr=response, remote_address=element, value_size=64,
        key=7, key_mask=1, predicate_op=PredicateOp.EQUAL,
        value_ptr_position=4, is_relative_position=False,
        next_element_ptr_position=2, next_element_ptr_valid=True)
    reads = server.nic.dma.reads

    _run(env, _invoke(fabric, RpcOpcode.TRAVERSAL, params.pack(), response))
    assert int.from_bytes(client.space.read(response, 8), "little") \
        == RPC_ERROR_TIMEOUT
    assert kernel.aborts == 1
    assert int(reads) == 1
    assert len(kernel.streams.dma_data_in) == 0
    assert (env.events_created, env.now) == (52, 102_598_000)


def test_rpc_write_payload_for_a_kernel_quarantined_in_flight_is_dropped():
    env = Simulator()
    fabric = build_fabric(env)
    client, server = fabric.client, fabric.server
    nic = server.nic
    kernel = HllKernel(env, nic.config)
    nic.deploy_kernel(RpcOpcode.HLL, kernel, budget=InvocationBudget())
    size = 16 * 1024
    source = client.alloc(size, "stream").vaddr
    dropped = nic.packets_dropped
    before = int(dropped)
    stream = kernel.streams.roce_data_in

    env.process(client.post_rpc_write(fabric.client_qpn, RpcOpcode.HLL,
                                      source, size))
    env.run(until=6_704_400)  # the stream's second packet lands
    assert len(stream) == 2
    kernel.guard.quarantined = True
    env.run()
    fed = len(stream)
    assert fed == 2
    # The server receives only the stream's packets (ACKs go the
    # other way).
    assert int(dropped) - before == int(nic.packets_received) - fed > 0
    assert (env.events_created, env.now) == (87, 115_836_000)


@pytest.mark.parametrize("stream", ["roceDataOut", "dmaDataOut"])
def test_length_mismatch_ends_the_run_in_simulation_error(stream):
    env = Simulator()
    fabric = build_fabric(env)
    client, server = fabric.client, fabric.server
    response = client.alloc(4096, "response").vaddr
    dma_target = server.alloc(4096, "target").vaddr \
        if stream == "dmaDataOut" else None
    server.nic.deploy_kernel(
        _OPCODE, _MismatchKernel(env, server.nic.config, dma_target))

    env.process(client.post_rpc(fabric.client_qpn, _OPCODE,
                                RpcPreamble(response).pack()))
    with pytest.raises(SimulationError) as info:
        env.run(until=1 * MS)
    cause = info.value.__cause__
    assert isinstance(cause, ValueError)
    kind = "TX" if stream == "roceDataOut" else "DMA write"
    assert str(cause) == \
        f"kernel mismatch: {kind} length mismatch (8 != 16)"
    assert (env.events_created, env.now) == (31, 1_500_400)

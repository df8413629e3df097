"""The engine's event stream, pinned.

Every entry the simulator schedules draws one id from a single counter,
and same-picosecond entries dispatch in id order.  A change that keeps
the stream keeps every same-time tie, so per-op latencies, outputs and
counters all stay bit-identical.  These three seeded runs pin the
stream's length (``events_created``), the final clock and a counter
snapshot exactly: a refactor of a per-packet hop (switch, cable, DMA,
retransmission timer, TX pipeline) that adds, drops or reorders a
scheduled entry fails here.

- a 2-host 16 KiB WRITE then READ with the burst fold off;
- a 4:1 ECN + DCQCN incast through one switch with a shallow buffer
  (tail drops, CNPs, pacing, per-packet timer re-arms);
- a pair under 5 % Gilbert-Elliott loss (go-back-N, timer expiry and
  backoff);
- the kernel plane on a pair: a CRC64-checked read, a 32-hop list
  traversal, a 64 KiB HyperLogLog RPC-WRITE session, a local invocation
  answered to ``LOCAL_QPN`` and a guarded kernel whose DMA write and
  read commands the adapter refuses.
"""

import struct

import numpy as np

from repro.algos import ChecksummedObject
from repro.cc import CcConfig
from repro.cc.plane import CC_STATS
from repro.cluster import build_star
from repro.cluster.switch import SwitchConfig
from repro.core import (RPC_ERROR_PROTECTION, MemCmd, ProtectionDomain,
                        StromKernel)
from repro.core.guard import ABORT_SENTINEL
from repro.core.rpc import RpcOpcode, RpcPreamble
from repro.host import build_fabric
from repro.kernels import (ConsistencyKernel, ConsistencyParams, HllKernel,
                           HllParams, PredicateOp, TraversalKernel,
                           TraversalParams)
from repro.kernels.hll import COMPLETION_RECORD
from repro.net import GilbertElliott, LinkFaults
from repro.obs import registry_for
from repro.runmode import override
from repro.sim import MS, Simulator

#: Counter name suffixes summed over the whole registry.
_SUFFIXES = (".pkts_tx", ".pkts_rx", ".acks_tx", ".naks_tx",
             ".nic.retransmits", ".expirations", ".recoveries",
             ".delivered", ".dropped", ".wire_bytes", ".tail_drops",
             ".ce_marks", ".cnps_tx", ".cnps_rx", ".dma.writes")


def _snapshot(env):
    flat = registry_for(env).snapshot().as_flat_dict()
    return {suffix: sum(v for k, v in flat.items() if k.endswith(suffix))
            for suffix in _SUFFIXES}


def _write_read_pair():
    env = Simulator()
    with override(fold=False):
        fabric = build_fabric(env)
        size = 16 * 1024
        src = fabric.client.alloc(size, "src")
        dst = fabric.server.alloc(size, "dst")
        back = fabric.client.alloc(size, "back")
        fabric.client.space.write(src.vaddr, bytes(range(256)) * 64)

        def workload():
            yield from fabric.client.write_sync(
                fabric.client_qpn, src.vaddr, dst.vaddr, size)
            yield from fabric.client.read_sync(
                fabric.client_qpn, back.vaddr, dst.vaddr, size)

        env.run_until_complete(env.process(workload()), limit=10 * MS)
    assert fabric.client.space.read(back.vaddr, size) == \
        bytes(range(256)) * 64
    return env


def _ecn_incast():
    env = Simulator()
    cluster = build_star(env, num_hosts=5, seed=3,
                         switch_config=SwitchConfig(buffer_frames=16))
    receiver = cluster.hosts[0]
    qpns = {host.name: cluster.connect(host, receiver)[0]
            for host in cluster.hosts[1:]}
    cluster.enable_congestion_control(CcConfig())

    def sender(host, qpn):
        local = host.alloc(16384).vaddr
        remote = receiver.alloc(16384).vaddr
        outstanding = []
        for _ in range(12):
            completion = yield from host.write(qpn, local, remote, 16384)
            outstanding.append(completion)
            if len(outstanding) >= 3:
                yield outstanding.pop(0)
        for completion in outstanding:
            yield completion

    senders = [env.process(sender(host, qpns[host.name]))
               for host in cluster.hosts[1:]]
    paced_before = CC_STATS.paced_packets
    env.run_until_complete(env.process(_join(env, senders)),
                           limit=100 * MS)
    return env, CC_STATS.paced_packets - paced_before


def _join(env, processes):
    yield env.all_of(processes)


def _lossy_pair():
    env = Simulator()
    fabric = build_fabric(env, faults=LinkFaults(
        burst=GilbertElliott.from_mean_loss(0.05, burst_frames=6.0),
        seed=1))
    size = 64 * 1024
    src = fabric.client.alloc(size, "src")
    dst = fabric.server.alloc(size, "dst")
    fabric.client.space.write(src.vaddr, b"\xa5" * size)

    def workload():
        for _ in range(4):
            yield from fabric.client.write_sync(
                fabric.client_qpn, src.vaddr, dst.vaddr, size)

    env.run_until_complete(env.process(workload()), limit=500 * MS)
    assert fabric.server.space.read(dst.vaddr, size) == b"\xa5" * size
    return env


def _counters(pkts_tx=0, pkts_rx=0, acks_tx=0, naks_tx=0, retransmits=0,
              expirations=0, recoveries=0, delivered=0, dropped=0,
              wire_bytes=0, tail_drops=0, ce_marks=0, cnps=0,
              dma_writes=0):
    return {".pkts_tx": pkts_tx, ".pkts_rx": pkts_rx, ".acks_tx": acks_tx,
            ".naks_tx": naks_tx, ".nic.retransmits": retransmits,
            ".expirations": expirations, ".recoveries": recoveries,
            ".delivered": delivered, ".dropped": dropped,
            ".wire_bytes": wire_bytes, ".tail_drops": tail_drops,
            ".ce_marks": ce_marks, ".cnps_tx": cnps, ".cnps_rx": cnps,
            ".dma.writes": dma_writes}


def test_write_read_pair_event_stream_is_pinned():
    env = _write_read_pair()
    assert (env.events_created, env.now) == (113, 38_466_000)
    assert _snapshot(env) == _counters(
        pkts_tx=26, pkts_rx=26, acks_tx=1, delivered=26,
        wire_bytes=34_944, dma_writes=24)


def test_ecn_incast_event_stream_is_pinned():
    env, paced = _ecn_incast()
    assert (env.events_created, env.now) == (14_705, 1_261_176_759)
    assert paced == 1064
    assert _snapshot(env) == _counters(
        pkts_tx=1353, pkts_rx=1063, acks_tx=88, naks_tx=17,
        retransmits=634, expirations=8, recoveries=8, delivered=2416,
        dropped=290, wire_bytes=3_112_784, tail_drops=290, ce_marks=188,
        cnps=38, dma_writes=576)


def test_lossy_pair_event_stream_is_pinned():
    env = _lossy_pair()
    assert (env.events_created, env.now) == (1143, 581_175_132)
    assert _snapshot(env) == _counters(
        pkts_tx=222, pkts_rx=209, acks_tx=9, naks_tx=3, retransmits=26,
        expirations=2, recoveries=1, delivered=209, dropped=13,
        wire_bytes=312_620, dma_writes=184)


class _OutOfBoundsKernel(StromKernel):
    """Issues one DMA write and one DMA read outside its protection
    domain straight onto ``dmaCmdOut`` (past the issue helpers'
    checks), so the adapter's ``admit_dma`` gate refuses both."""

    name = "out-of-bounds"

    def __init__(self, env, config, target):
        super().__init__(env, config)
        self.target = target

    def serve(self, invocation, params):
        streams = self.streams
        yield streams.dma_cmd_out.put(
            MemCmd(vaddr=self.target, length=64, is_write=True))
        yield streams.dma_data_out.put(b"\x5a" * 64)
        yield streams.dma_cmd_out.put(MemCmd(vaddr=self.target, length=64))
        data = yield streams.dma_data_in.get()
        assert data is ABORT_SENTINEL
        raise self.guard.take_abort()


_ROGUE_OPCODE = 0x70


def _kernel_plane():
    env = Simulator()
    fabric = build_fabric(env)
    client, server = fabric.client, fabric.server
    nic = server.nic
    fenced = server.alloc(4096, "fenced")
    server.space.write(fenced.vaddr, b"\xa5" * 64)
    kernels = {RpcOpcode.CONSISTENCY: ConsistencyKernel(env, nic.config),
               RpcOpcode.TRAVERSAL: TraversalKernel(env, nic.config),
               RpcOpcode.HLL: HllKernel(env, nic.config),
               _ROGUE_OPCODE: _OutOfBoundsKernel(env, nic.config,
                                                 fenced.vaddr)}
    for opcode, kernel in kernels.items():
        nic.deploy_kernel(opcode, kernel, protection=ProtectionDomain()
                          if opcode == _ROGUE_OPCODE else None)

    obj = server.alloc(4096, "object")
    sealed = ChecksummedObject.seal(bytes(i % 251 for i in range(4088)))
    server.space.write(obj.vaddr, sealed)
    hops = 32
    elements = server.alloc(64 * hops, "list").vaddr
    values = server.alloc(64 * hops, "values").vaddr
    for i in range(hops):
        server.space.write(values + 64 * i, bytes([i + 1]) * 64)
        next_ptr = elements + 64 * (i + 1) if i + 1 < hops else 0
        server.space.write(elements + 64 * i, struct.pack(
            "<QQQ", 1000 + i, next_ptr, values + 64 * i).ljust(64, b"\0"))
    stream_bytes = 64 * 1024
    tuples = np.random.default_rng(4).integers(
        0, 3000, size=stream_bytes // 8, dtype=np.uint64)
    stream = client.alloc(stream_bytes, "stream")
    client.space.write(stream.vaddr, tuples.tobytes())
    landing = server.alloc(stream_bytes + (1 << 14), "hll").vaddr
    out = client.alloc(3 * 4096, "out").vaddr
    local_out = server.alloc(4096, "local_out").vaddr
    qpn = fabric.client_qpn

    def traversal(response, key):
        return TraversalParams(
            response_vaddr=response, remote_address=elements,
            value_size=64, key=key, key_mask=1,
            predicate_op=PredicateOp.EQUAL, value_ptr_position=4,
            is_relative_position=False, next_element_ptr_position=2,
            next_element_ptr_valid=True).pack()

    def workload():
        yield from client.post_rpc(qpn, RpcOpcode.CONSISTENCY,
                                   ConsistencyParams(
                                       response_vaddr=out,
                                       object_vaddr=obj.vaddr,
                                       object_size=4096).pack())
        yield from client.wait_for_data(out + 4088, 8)
        yield from client.post_rpc(qpn, RpcOpcode.TRAVERSAL,
                                   traversal(out + 4096, 1000 + hops - 1))
        yield from client.wait_for_data(out + 4096, 8)
        yield from client.post_rpc(qpn, RpcOpcode.HLL, HllParams(
            response_vaddr=out + 8192, data_vaddr=landing,
            registers_vaddr=landing + stream_bytes,
            total_bytes=stream_bytes).pack())
        yield from client.post_rpc_write(qpn, RpcOpcode.HLL, stream.vaddr,
                                         stream_bytes)
        yield from client.wait_for_data(out + 8192, COMPLETION_RECORD.size)
        yield from server.post_local_rpc(RpcOpcode.TRAVERSAL,
                                         traversal(local_out, 1005))
        yield from server.wait_for_data(local_out, 8)
        yield from client.post_rpc(qpn, _ROGUE_OPCODE,
                                   RpcPreamble(out + 12288).pack())
        yield from client.wait_for_data(out + 12288, 8)

    env.run_until_complete(env.process(workload()), limit=10 * MS)
    env.run()  # drain posted DMA writes
    assert client.space.read(out, 4096) == sealed
    assert client.space.read(out + 4096, 64) == bytes([hops]) * 64
    seen = COMPLETION_RECORD.unpack(
        client.space.read(out + 8192, COMPLETION_RECORD.size))[1]
    assert seen == stream_bytes // 8
    assert server.space.read(landing, stream_bytes) == tuples.tobytes()
    assert server.space.read(local_out, 64) == bytes([6]) * 64
    assert int.from_bytes(client.space.read(out + 12288, 8), "little") \
        == RPC_ERROR_PROTECTION
    assert server.space.read(fenced.vaddr, 64) == b"\xa5" * 64
    return env, nic, kernels.values()


def _kernel_snapshot(env, nic, kernels):
    flat = registry_for(env).snapshot().as_flat_dict()
    names = (".pkts_tx", ".pkts_rx", ".acks_tx", ".pkts_dropped",
             ".dma.reads", ".dma.writes", ".dma.bytes_read",
             ".dma.bytes_written")
    counters = {suffix: sum(v for k, v in flat.items()
                            if k.endswith(suffix)) for suffix in names}
    registry = nic.registry
    return (counters,
            {kernel.name: (kernel.invocations, kernel.aborts)
             for kernel in kernels},
            (int(registry.matches), int(registry.misses)))


def test_kernel_plane_event_stream_is_pinned():
    env, nic, kernels = _kernel_plane()
    assert (env.events_created, env.now) == (865, 244_284_547)
    assert _kernel_snapshot(env, nic, kernels) == (
        {".pkts_tx": 65, ".pkts_rx": 65, ".acks_tx": 9, ".pkts_dropped": 0,
         ".dma.reads": 42, ".dma.writes": 54, ".dma.bytes_read": 72_192,
         ".dma.bytes_written": 86_168},
        {"consistency": (1, 0), "traversal": (2, 0), "hll": (1, 0),
         "out-of-bounds": (1, 1)},
        (6, 0))

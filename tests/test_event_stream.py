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
  backoff).
"""

from repro.cc import CcConfig
from repro.cc.plane import CC_STATS
from repro.cluster import build_star
from repro.cluster.switch import SwitchConfig
from repro.host import build_fabric
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

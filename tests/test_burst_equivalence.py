"""Burst fast path: folded and per-packet execution are bit-identical.

The fold's correctness contract (see ``repro.roce.burst``) is that a
clean-path multi-packet message costs O(1) scheduler events while every
observable — completion timestamps, destination memory, every non-burst
metric — is exactly what the per-packet machinery would have produced,
and that any slow-path trigger mid-flight *unfolds* the message at the
correct PSN boundary.  Each test here runs the same seeded scenario
twice (folding forced off, then on) and asserts the two runs are
indistinguishable, sweeping interference offsets so unfolds land in
every pipeline stage: TX, first hop, switch ingress/queue/egress,
second hop, and the DMA write-back tail.
"""

import random

import pytest

from repro.cluster.topology import build_pair, build_star
from repro.config import (MAX_PAYLOAD_NO_RETH, MAX_PAYLOAD_WITH_RETH,
                          NIC_100G)
from repro.core.payload import PAYLOAD_STATS
from repro.obs import registry_for
from repro.roce import burst
from repro.runmode import active, override
from repro.sim import MS, US, Simulator

# Invariant monitors hook every per-packet edge, so the burst plane
# refuses to fold while a checker is attached (see repro.check.monitors)
# — under REPRO_CHECK=1 both runs are per-packet and the folds>0
# assertions below cannot hold.  Burst correctness has its own CI leg
# (REPRO_VALIDATE=1).
pytestmark = pytest.mark.skipif(
    active().check,
    reason="monitors disable burst folding by design")

MTU_PAYLOAD = 1456
BIG = 256 * 1024


def _snapshot(cluster):
    """Every metric except the burst bookkeeping counters (those count
    folds, which differ between the two runs by design), plus each
    NIC's TLB counters: plain attributes outside the registry that the
    host reads as controller registers, and that the fold charges in
    closed form instead of per packet."""
    snap = {k: v for k, v in
            registry_for(cluster.env).snapshot().as_flat_dict().items()
            if ".burst." not in k}
    for host in cluster.hosts:
        tlb = host.nic.tlb
        snap[f"{host.name}.tlb"] = (tlb.lookups, tlb.cache_hits,
                                    tlb.splits)
    return snap


def _folds(sim):
    return sum(v for k, v in
               registry_for(sim).snapshot().as_flat_dict().items()
               if k.endswith(".burst.folds"))


def _unfolds(sim):
    return sum(v for k, v in
               registry_for(sim).snapshot().as_flat_dict().items()
               if k.endswith(".burst.unfolds"))


def _dual(scenario, *args):
    """Run ``scenario`` with folding off and on; assert equivalence.
    Returns the folding-on simulator for fold/unfold-count asserts."""
    with override(fold=False):
        rows_off, mem_off, cluster_off = scenario(*args)
    with override(fold=True):
        rows_on, mem_on, cluster_on = scenario(*args)
    assert rows_on == rows_off
    assert mem_on == mem_off
    snap_off, snap_on = _snapshot(cluster_off), _snapshot(cluster_on)
    if snap_on != snap_off:
        diff = {k: (snap_off.get(k), snap_on.get(k))
                for k in set(snap_off) | set(snap_on)
                if snap_off.get(k) != snap_on.get(k)}
        raise AssertionError(f"metric divergence: {diff}")
    return cluster_on.env


def _drive(sim, driver, extras=()):
    for proc in extras:
        sim.process(proc)
    main = sim.process(driver)
    sim.run_until_complete(main, limit=10_000 * MS)
    sim.run()


# ---------------------------------------------------------------------------
# Direct cable (build_pair)
# ---------------------------------------------------------------------------

def _pair():
    sim = Simulator()
    cluster = build_pair(sim, nic_config=NIC_100G)
    return sim, cluster, cluster.hosts[0], cluster.hosts[1]


def _pair_scenario(seed):
    """Seeded random verb mix straddling the fold threshold, both
    directions, with occasional back-to-back ops."""
    sim, cluster, client, server = _pair()
    rng = random.Random(seed)
    sizes = [1, 1456, 3 * MTU_PAYLOAD, 4 * MTU_PAYLOAD, 8192,
             40_000, 64 * 1024, BIG]
    src = client.alloc(BIG, "src")
    dst = server.alloc(BIG, "dst")
    client.space.write(src.vaddr, bytes(i % 251 for i in range(BIG)))
    server.space.write(dst.vaddr, bytes(i % 241 for i in range(BIG)))
    ops = [(rng.choice(("write", "read")), rng.choice(sizes))
           for _ in range(10)]
    rows = []

    def driver():
        for index, (verb, size) in enumerate(ops):
            if verb == "write":
                yield from client.write_sync(1, src.vaddr, dst.vaddr,
                                             size)
            else:
                yield from client.read_sync(1, src.vaddr, dst.vaddr,
                                            size)
            rows.append((index, verb, size, sim.now))

    _drive(sim, driver())
    mem = (bytes(client.space.read(src.vaddr, BIG)),
           bytes(server.space.read(dst.vaddr, BIG)))
    return rows, mem, cluster


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_pair_mixed_verbs_equivalent(seed):
    sim = _dual(_pair_scenario, seed)
    assert _folds(sim) > 0


def _write_size_for(packets):
    """Byte count that segments into exactly ``packets`` WRITE packets
    (the first carries a RETH and holds slightly less payload)."""
    return MAX_PAYLOAD_WITH_RETH + (packets - 1) * MAX_PAYLOAD_NO_RETH


def _threshold_scenario(packets):
    sim, cluster, client, server = _pair()
    size = _write_size_for(packets)
    src = client.alloc(size, "src")
    dst = server.alloc(size, "dst")
    client.space.write(src.vaddr, bytes(i % 199 for i in range(size)))
    rows = []

    def driver():
        yield from client.write_sync(1, src.vaddr, dst.vaddr, size)
        rows.append(sim.now)

    _drive(sim, driver())
    return rows, bytes(server.space.read(dst.vaddr, size)), cluster


@pytest.mark.parametrize("packets", [3, 4, 5])
def test_fold_threshold_straddle(packets):
    sim = _dual(_threshold_scenario, packets)
    # Folding engages exactly from FOLD_MIN_PACKETS up.
    assert (_folds(sim) > 0) == (packets >= burst.FOLD_MIN_PACKETS)


def _interfered_pair_scenario(offset_ps, interfere):
    """One big WRITE with a slow-path trigger injected mid-flight."""
    sim, cluster, client, server = _pair()
    src = client.alloc(BIG, "src")
    dst = server.alloc(BIG, "dst")
    back = server.alloc(4096, "back")
    rsp = client.alloc(4096, "rsp")
    client.space.write(src.vaddr, bytes(i % 251 for i in range(BIG)))
    server.space.write(back.vaddr, b"\x5a" * 4096)
    rows = []

    def driver():
        yield from client.write_sync(1, src.vaddr, dst.vaddr, BIG)
        rows.append(("write", sim.now))

    def interferer():
        yield sim.timeout(offset_ps)
        result = interfere(sim, cluster, client, server, back, rsp, src)
        if result is not None:
            yield from result
        rows.append(("interfered", sim.now))

    _drive(sim, driver(), extras=[interferer()])
    mem = (bytes(server.space.read(dst.vaddr, BIG)),
           bytes(client.space.read(rsp.vaddr, 4096)))
    return rows, mem, cluster


def _reverse_write(sim, cluster, client, server, back, rsp, src):
    return server.write_sync(1, back.vaddr, rsp.vaddr, 4096)


def _latency_spike(sim, cluster, client, server, back, rsp, src):
    cable = cluster.access_cables[client.name]
    cable.set_extra_latency(3 * US)

    def clear():
        yield sim.timeout(5 * US)
        cable.set_extra_latency(0)
    sim.process(clear())
    return None


def _link_flap(sim, cluster, client, server, back, rsp, src):
    cable = cluster.access_cables[client.name]
    cable.set_up(False)

    def raise_carrier():
        yield sim.timeout(4 * US)
        cable.set_up(True)
    sim.process(raise_carrier())
    return None


def _source_store(sim, cluster, client, server, back, rsp, src):
    # Raw host store into the in-flight send buffer: the folded WRITE
    # must unfold so not-yet-fetched packets pick up the new bytes with
    # exactly the per-packet memory ordering.
    client.space.write(src.vaddr + BIG // 2, b"\xaa" * 64)
    return None


def _cc_enable(sim, cluster, client, server, back, rsp, src):
    cluster.enable_congestion_control()
    return None


_PAIR_TRIGGERS = {
    "reverse_write": _reverse_write,
    "latency_spike": _latency_spike,
    "link_flap": _link_flap,
    "source_store": _source_store,
    "cc_enable": _cc_enable,
}

#: Offsets chosen to land in the TX window, mid-wire, and the DMA tail
#: of a 256 KiB transfer at 100G (~21 us serialization).
_OFFSETS_US = [1, 5, 12, 20]


@pytest.mark.parametrize("trigger", sorted(_PAIR_TRIGGERS))
@pytest.mark.parametrize("offset_us", _OFFSETS_US)
def test_pair_unfold_triggers(trigger, offset_us):
    if trigger == "source_store" and active().validate:
        # Copy-validation mode treats any mid-flight send-buffer store
        # as an aliasing error, in per-packet and folded runs alike.
        pytest.skip("mid-flight send-buffer stores are illegal under "
                    "copy validation")
    _dual(_interfered_pair_scenario, offset_us * US,
          _PAIR_TRIGGERS[trigger])


def test_unfold_counter_increments():
    sim = _dual(_interfered_pair_scenario, 5 * US, _link_flap)
    assert _unfolds(sim) > 0


def _late_write_scenario():
    """A 256 KiB WRITE and READ posted at 2**62 ps: the int64 columns
    could wrap past there, so the fold must refuse and send per
    packet."""
    sim, cluster, client, server = _pair()
    src = client.alloc(BIG, "src")
    dst = server.alloc(BIG, "dst")
    client.space.write(src.vaddr, bytes(i % 251 for i in range(BIG)))
    server.space.write(dst.vaddr, bytes(i % 241 for i in range(BIG)))
    rows = []

    def driver():
        yield sim.timeout(burst.COLUMN_LIMIT_PS)
        yield from client.write_sync(1, src.vaddr, dst.vaddr, BIG)
        rows.append(("write", sim.now))
        yield from client.read_sync(1, src.vaddr + 1, dst.vaddr, BIG - 1)
        rows.append(("read", sim.now))

    main = sim.process(driver())
    sim.run_until_complete(main,
                           limit=burst.COLUMN_LIMIT_PS + 10_000 * MS)
    sim.run()
    mem = (bytes(client.space.read(src.vaddr, BIG)),
           bytes(server.space.read(dst.vaddr, BIG)))
    return rows, mem, cluster


def test_write_past_column_range_runs_per_packet():
    sim = _dual(_late_write_scenario)
    assert _folds(sim) == 0


def _straddle_scenario(offset_ps):
    """WRITE, READ, then a WRITE unfolded mid-flight by a reverse write,
    with every source and destination straddling a huge-page boundary
    at different offsets: packets split into two TLB pieces, the
    write-back lands as two physical runs, and the destination TLB is
    charged for a prefix at the unfold."""
    sim, cluster, client, server = _pair()
    page = client.space.page_bytes
    local = client.alloc(page + BIG, "local").vaddr
    remote = server.alloc(page + BIG, "remote").vaddr
    back = server.alloc(4096, "back")
    rsp = client.alloc(4096, "rsp")
    src = local + page - BIG // 2 - 3
    dst = remote + page - BIG // 3 - 1
    pattern = bytes(range(251)) * (BIG // 251 + 1)
    client.space.write(src, pattern[:BIG])
    server.space.write(dst, pattern[7:BIG + 7])
    server.space.write(back.vaddr, b"\x5a" * 4096)
    rows = []

    def interferer():
        yield sim.timeout(offset_ps)
        yield from server.write_sync(1, back.vaddr, rsp.vaddr, 4096)
        rows.append(("interfered", sim.now))

    def driver():
        yield from client.read_sync(1, src, dst, BIG)
        rows.append(("read", sim.now))
        yield from client.write_sync(1, src, dst, BIG)
        rows.append(("write", sim.now))
        sim.process(interferer())
        yield from client.write_sync(1, src + 1, dst + 2, BIG)
        rows.append(("write", sim.now))

    _drive(sim, driver())
    mem = (bytes(client.space.read(src, BIG)),
           bytes(server.space.read(dst, BIG + 2)),
           bytes(client.space.read(rsp.vaddr, 4096)))
    return rows, mem, cluster


@pytest.mark.parametrize("offset_us", [1, 12, 20])
def test_pair_page_straddle_equivalent(offset_us):
    sim = _dual(_straddle_scenario, offset_us * US)
    assert _folds(sim) == 3
    assert _unfolds(sim) == 1


# ---------------------------------------------------------------------------
# One-switch leg (build_star)
# ---------------------------------------------------------------------------

def _star_scenario(offset_ps, interfere):
    """h0 -> h1 big WRITE through the switch, with interference."""
    sim = Simulator()
    cluster = build_star(sim, 3, nic_config=NIC_100G)
    h0, h1, h2 = cluster.hosts
    qp01, _ = cluster.connect(h0, h1)
    qp21, _ = cluster.connect(h2, h1)
    src = h0.alloc(BIG, "src")
    dst = h1.alloc(BIG, "dst")
    side_src = h2.alloc(8192, "side_src")
    side_dst = h1.alloc(8192, "side_dst")
    h0.space.write(src.vaddr, bytes(i % 251 for i in range(BIG)))
    h2.space.write(side_src.vaddr, b"\x3c" * 8192)
    rows = []

    def driver():
        yield from h0.write_sync(qp01, src.vaddr, dst.vaddr, BIG)
        rows.append(("write", sim.now))

    def interferer():
        yield sim.timeout(offset_ps)
        result = interfere(sim, cluster, h1, h2, qp21, side_src,
                           side_dst)
        if result is not None:
            yield from result
        rows.append(("interfered", sim.now))

    _drive(sim, driver(), extras=[interferer()])
    mem = (bytes(h1.space.read(dst.vaddr, BIG)),
           bytes(h1.space.read(side_dst.vaddr, 8192)))
    return rows, mem, cluster


def _third_host_write(sim, cluster, h1, h2, qp21, side_src, side_dst):
    # A competing flow crosses the switch mid-flight: the ingress
    # guard must unfold before its first frame can interleave.
    return h2.write_sync(qp21, side_src.vaddr, side_dst.vaddr, 8192)


def _port_blackout(sim, cluster, h1, h2, qp21, side_src, side_dst):
    switch = cluster.switches[0]
    switch.set_port_up(1, False)

    def restore():
        yield sim.timeout(4 * US)
        switch.set_port_up(1, True)
    sim.process(restore())
    return None


def _access_spike(sim, cluster, h1, h2, qp21, side_src, side_dst):
    cable = cluster.access_cables[h1.name]
    cable.set_extra_latency(2 * US)

    def clear():
        yield sim.timeout(6 * US)
        cable.set_extra_latency(0)
    sim.process(clear())
    return None


def _cc_enable(sim, cluster, h1, h2, qp21, side_src, side_dst):
    # DCQCN switched on mid-flight: ECN marking at the switch's shared
    # enqueue (frames the unfold re-injects included) and the CC plane
    # on every NIC.
    cluster.enable_congestion_control()
    return None


_STAR_TRIGGERS = {
    "third_host_write": _third_host_write,
    "port_blackout": _port_blackout,
    "egress_cable_spike": _access_spike,
    "cc_enable": _cc_enable,
}


def _off_path_faults(sim, cluster, h1, h2, qp21, side_src, side_dst):
    # A link flap, a latency spike and a power cycle on the third host's
    # access cable and NIC: none is a hop of the h0 -> h1 fold, so the
    # analytic schedule stays authoritative.
    cable = cluster.access_cables[h2.name]
    cable.set_up(False)
    cable.set_extra_latency(2 * US)
    h2.nic.power_off()

    def restore():
        yield sim.timeout(4 * US)
        h2.nic.power_on()
        cable.set_extra_latency(0)
        cable.set_up(True)
    sim.process(restore())
    return None


def _noop(sim, cluster, h1, h2, qp21, side_src, side_dst):
    return None


def test_star_clean_path_folds():
    sim = _dual(_star_scenario, 9_000 * MS, _noop)
    assert _folds(sim) > 0
    assert _unfolds(sim) == 0


def _large_point_scenario(runs):
    """Eight 256 KiB WRITEs, then eight READs, between two 100 G hosts
    through the switch.  Appends its rows to ``runs``; the last row is
    the payload bytes the run copied."""
    sim = Simulator()
    cluster = build_star(sim, 2, nic_config=NIC_100G, seed=1)
    h0, h1 = cluster.hosts
    qp01, _ = cluster.connect(h0, h1)
    src = h0.alloc(BIG, "src")
    dst = h1.alloc(BIG, "dst")
    h0.space.write(src.vaddr, bytes(i % 251 for i in range(BIG)))
    rows = []

    def driver():
        for _ in range(8):
            yield from h0.write_sync(qp01, src.vaddr, dst.vaddr, BIG)
        rows.append(("writes", sim.now))
        for _ in range(8):
            yield from h0.read_sync(qp01, src.vaddr, dst.vaddr, BIG)
        rows.append(("reads", sim.now))

    copied = PAYLOAD_STATS.bytes_copied
    _drive(sim, driver())
    rows.append(("copied", PAYLOAD_STATS.bytes_copied - copied))
    runs.append(rows)
    mem = (bytes(h0.space.read(src.vaddr, BIG)),
           bytes(h1.space.read(dst.vaddr, BIG)))
    return rows, mem, cluster


def test_star_large_point_pinned():
    """The zero-copy payload plane's large-message point: exact
    completion times (36.2 / 35.9 Gbit/s per direction), every packet
    folded, and no payload byte copied on any hop."""
    runs = []
    sim = _dual(_large_point_scenario, runs)
    assert runs[-1] == [("writes", 463_506_760), ("reads", 930_639_112),
                        ("copied", 0)]
    assert sum(v for k, v in
               registry_for(sim).snapshot().as_flat_dict().items()
               if k.endswith(".burst.folded_packets")) == 2896
    assert _unfolds(sim) == 0


@pytest.mark.parametrize("trigger", sorted(_STAR_TRIGGERS))
@pytest.mark.parametrize("offset_us", _OFFSETS_US)
def test_star_unfold_triggers(trigger, offset_us):
    sim = _dual(_star_scenario, offset_us * US, _STAR_TRIGGERS[trigger])
    assert _unfolds(sim) > 0


def test_star_third_host_unfolds():
    sim = _dual(_star_scenario, 5 * US, _third_host_write)
    assert _unfolds(sim) > 0


@pytest.mark.parametrize("offset_us", [1, 5, 12])
def test_star_off_path_faults_keep_fold(offset_us):
    sim = _dual(_star_scenario, offset_us * US, _off_path_faults)
    assert _folds(sim) == 1
    assert _unfolds(sim) == 0


def _symmetric_posts_scenario():
    """Two senders post multi-packet WRITEs to one receiver at the
    same instant (the incast pattern): the first poster's fold must be
    handed back to the per-packet machinery at the second sender's
    post time, *before* the competitor creates any events — otherwise
    the replay loses every same-picosecond event-order tie the
    per-packet schedule would have won."""
    sim = Simulator()
    cluster = build_star(sim, 3, nic_config=NIC_100G)
    h0, h1, h2 = cluster.hosts
    qp01, _ = cluster.connect(h0, h1)
    qp21, _ = cluster.connect(h2, h1)
    size = 64 * 1024
    src0 = h0.alloc(size, "src0")
    src2 = h2.alloc(size, "src2")
    dst0 = h1.alloc(size, "dst0")
    dst2 = h1.alloc(size, "dst2")
    h0.space.write(src0.vaddr, bytes(i % 251 for i in range(size)))
    h2.space.write(src2.vaddr, bytes(i % 241 for i in range(size)))
    rows = []

    def writer(tag, host, qpn, src, dst):
        for burst_no in range(3):
            yield from host.write_sync(qpn, src.vaddr, dst.vaddr, size)
            rows.append((tag, burst_no, sim.now))

    _drive(sim, writer("h0", h0, qp01, src0, dst0),
           extras=[writer("h2", h2, qp21, src2, dst2)])
    mem = (bytes(h1.space.read(dst0.vaddr, size)),
           bytes(h1.space.read(dst2.vaddr, size)))
    return sorted(rows), mem, cluster


def test_star_symmetric_posts_equivalent():
    sim = _dual(_symmetric_posts_scenario)
    assert _unfolds(sim) > 0

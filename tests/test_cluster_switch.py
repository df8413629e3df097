"""Switch unit/integration tests: MAC learning, flooding, isolation,
tail-drop.  RDMA traffic between >2 NICs crosses a real learning switch
here — the thing the paper's two-node testbed deliberately removed."""

import pytest

from repro.cluster import SWITCH_DEFAULT, Switch, SwitchConfig, build_star
from repro.config import NIC_10G
from repro.host.node import HostNode
from repro.net.arp import mac_for_ip
from repro.net.link import Cable
from repro.sim import MS, Simulator


def _run(env, gen, limit=2_000 * MS):
    return env.run_until_complete(env.process(gen), limit=limit)


def _write(env, src, dst, qpn, payload):
    """RDMA-write ``payload`` from src to dst; returns dst's buffer."""
    s_buf = src.alloc(len(payload), "src")
    d_buf = dst.alloc(len(payload), "dst")
    src.space.write(s_buf.vaddr, payload)

    def go():
        yield from src.write_sync(qpn, s_buf.vaddr, d_buf.vaddr,
                                  len(payload))

    _run(env, go())
    return dst.space.read(d_buf.vaddr, len(payload))


def _bare_switch(env, num_hosts, config=SWITCH_DEFAULT):
    """Hosts wired to a switch with *no* gratuitous announcements: the
    MAC table starts empty, so learning/flooding is observable."""
    switch = Switch(env, config)
    hosts = []
    for i in range(num_hosts):
        host = HostNode(env, f"n{i}", ip=0x0A000001 + i, seed=10 + i)
        cable = Cable(env, bits_per_second=NIC_10G.line_rate_bps,
                      propagation=NIC_10G.wire_propagation,
                      name=f"link{i}")
        host.nic.attach(cable, "a")
        switch.attach(cable, "b")
        hosts.append(host)
    return switch, hosts


def test_flood_then_learn():
    env = Simulator()
    switch, hosts = _bare_switch(env, 3)
    h0, h1, _ = hosts
    h0.nic.create_queue_pair(1, 1, h1.nic.ip)
    h1.nic.create_queue_pair(1, 1, h0.nic.ip)

    assert switch._mac_table.get(mac_for_ip(h0.nic.ip)) is None
    payload = bytes(range(64))
    assert _write(env, h0, h1, 1, payload) == payload

    # First frame toward h1 had an unknown destination: flooded once.
    assert switch.frames_flooded.value == 1
    # Both endpoints were learned from traffic (data frame + ACK).
    assert switch._mac_table.get(mac_for_ip(h0.nic.ip)) == 0
    assert switch._mac_table.get(mac_for_ip(h1.nic.ip)) == 1
    # A second transfer is pure known-unicast: flood count is unchanged.
    assert _write(env, h0, h1, 1, payload[::-1]) == payload[::-1]
    assert switch.frames_flooded.value == 1
    assert switch.frames_forwarded.value > 0


def test_flooded_frames_do_not_corrupt_third_party():
    env = Simulator()
    switch, hosts = _bare_switch(env, 3)
    h0, h1, h2 = hosts
    h0.nic.create_queue_pair(1, 1, h1.nic.ip)
    h1.nic.create_queue_pair(1, 1, h0.nic.ip)

    bystander = h2.alloc(256, "bystander")
    before = h2.space.read(bystander.vaddr, 256)
    dropped_before = h2.nic.packets_dropped.value
    payload = b"\xAB" * 128
    assert _write(env, h0, h1, 1, payload) == payload
    # The flooded copy reached h2, which silently dropped it (no QP for
    # it) and wrote nothing.
    assert h2.nic.packets_dropped.value > dropped_before
    assert h2.space.read(bystander.vaddr, 256) == before


def test_gratuitous_announce_at_link_up():
    env = Simulator()
    cluster = build_star(env, num_hosts=4)
    switch = cluster.switches[0]
    # The topology builder announces every host on its access port, so
    # the table is fully populated before any traffic.
    for index, host in enumerate(cluster.hosts):
        assert switch._mac_table.get(mac_for_ip(host.nic.ip)) == index
    # Steady-state traffic therefore never floods.
    h0, h1 = cluster.hosts[0], cluster.hosts[1]
    qpn0, _ = cluster.connect(h0, h1)
    payload = b"\x5A" * 96
    assert _write(env, h0, h1, qpn0, payload) == payload
    assert switch.frames_flooded.value == 0


def test_no_cross_talk_between_port_pairs():
    """Two disjoint flows with identical QPNs through one switch: each
    payload lands only at its own destination."""
    env = Simulator()
    cluster = build_star(env, num_hosts=4)
    h0, h1, h2, h3 = cluster.hosts
    qpn_a, _ = cluster.connect(h0, h1)
    qpn_b, _ = cluster.connect(h2, h3)
    assert qpn_a == qpn_b  # same QPN on both flows: the worst case

    pay_a, pay_b = b"\x11" * 128, b"\xEE" * 128
    bufs = {}
    for src, dst, pay, tag in ((h0, h1, pay_a, "a"), (h2, h3, pay_b, "b")):
        s = src.alloc(len(pay), "src")
        d = dst.alloc(len(pay), "dst")
        src.space.write(s.vaddr, pay)
        bufs[tag] = (src, dst, s, d, pay)

    def both():
        done_a = yield from bufs["a"][0].write(
            qpn_a, bufs["a"][2].vaddr, bufs["a"][3].vaddr, 128)
        done_b = yield from bufs["b"][0].write(
            qpn_b, bufs["b"][2].vaddr, bufs["b"][3].vaddr, 128)
        yield env.all_of([done_a, done_b])

    _run(env, both())
    assert h1.space.read(bufs["a"][3].vaddr, 128) == pay_a
    assert h3.space.read(bufs["b"][3].vaddr, 128) == pay_b
    assert cluster.switches[0].frames_flooded.value == 0


def test_tail_drop_and_recovery():
    """A one-frame output buffer forces tail-drops under a burst; RoCE
    go-back-N still delivers the full payload."""
    env = Simulator()
    config = SwitchConfig(buffer_frames=1)
    switch, hosts = _bare_switch(env, 3, config=config)
    h0, h1, h2 = hosts
    # Two senders converge on h2's port to overrun its 1-frame queue.
    h0.nic.create_queue_pair(1, 1, h2.nic.ip)
    h2.nic.create_queue_pair(1, 1, h0.nic.ip)
    h1.nic.create_queue_pair(1, 2, h2.nic.ip)
    h2.nic.create_queue_pair(2, 1, h1.nic.ip)
    switch.announce(h0.nic.ip, 0)
    switch.announce(h1.nic.ip, 1)
    switch.announce(h2.nic.ip, 2)

    nbytes = 64 * 1024
    pay0 = bytes((i * 7) & 0xFF for i in range(nbytes))
    pay1 = bytes((i * 13) & 0xFF for i in range(nbytes))
    s0, s1 = h0.alloc(nbytes), h1.alloc(nbytes)
    d0, d1 = h2.alloc(nbytes), h2.alloc(nbytes)
    h0.space.write(s0.vaddr, pay0)
    h1.space.write(s1.vaddr, pay1)

    def both():
        c0 = yield from h0.write(1, s0.vaddr, d0.vaddr, nbytes)
        c1 = yield from h1.write(1, s1.vaddr, d1.vaddr, nbytes)
        yield env.all_of([c0, c1])

    _run(env, both(), limit=20_000 * MS)
    assert switch.frames_dropped.value > 0
    assert switch.ports[2].tail_drops.value == switch.frames_dropped.value
    assert h2.space.read(d0.vaddr, nbytes) == pay0
    assert h2.space.read(d1.vaddr, nbytes) == pay1


def test_filter_same_port_destination():
    env = Simulator()
    switch, hosts = _bare_switch(env, 2)
    # Claim h1's MAC lives on h0's own port: frames toward it must be
    # filtered, not forwarded or flooded.
    switch.learn(mac_for_ip(hosts[1].nic.ip), 0)
    switch.learn(mac_for_ip(hosts[0].nic.ip), 0)
    h0, h1 = hosts
    h0.nic.create_queue_pair(1, 1, h1.nic.ip)
    h1.nic.create_queue_pair(1, 1, h0.nic.ip)
    s = h0.alloc(64)
    d = h1.alloc(64)

    def go():
        completion = yield from h0.write(1, s.vaddr, d.vaddr, 64)
        # Never completes: every frame is filtered at the switch.  Give
        # the simulation a bounded window instead of waiting.
        yield env.timeout(1 * MS)
        assert not completion.triggered

    _run(env, go(), limit=2_000 * MS)
    assert switch.frames_filtered.value > 0
    assert switch.frames_forwarded.value == 0


def test_switch_port_validation():
    env = Simulator()
    switch = Switch(env)
    with pytest.raises(ValueError):
        switch.learn(b"\x02\x00\x00\x00\x00\x01", 0)
    cable = Cable(env, bits_per_second=NIC_10G.line_rate_bps,
                  propagation=NIC_10G.wire_propagation)
    with pytest.raises(ValueError):
        switch.attach(cable, side="c")
    assert switch.attach(cable, side="b") == 0
    assert len(switch.ports) == 1

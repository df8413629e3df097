"""Multiple queue pairs between one node pair: per-QP state isolation
(Section 4.1), duplicate-frame tolerance, and concurrent flows."""

import pytest

from repro.cluster import build_pair
from repro.host import build_fabric
from repro.net import LinkFaults
from repro.sim import MS, Simulator


def run_proc(env, gen, limit=5000 * MS):
    return env.run_until_complete(env.process(gen), limit=limit)


def _pair_with_second_qp(env, faults=None):
    """The two-node testbed plus one more queue pair; on the symmetric
    pair ``Cluster.connect`` allocates the same QPN on both sides."""
    cluster = build_pair(env, faults=faults)
    client, server = cluster.hosts
    qp2, server_qp2 = cluster.connect(client, server)
    assert qp2 == server_qp2
    return cluster, client, server, qp2


def test_add_queue_pair_allocates_fresh_qpns():
    """Each added queue pair gets the next QPN, the same on both NICs."""
    env = Simulator()
    cluster, client, server, qp2 = _pair_with_second_qp(env)
    qp3 = cluster.connect(client, server)
    assert qp2 == 2 and qp3 == (3, 3)
    assert len(client.nic.qps) == 3


def test_concurrent_flows_on_independent_qps():
    env = Simulator()
    _, client, server, qp2 = _pair_with_second_qp(env)
    size = 8192
    src = client.alloc(2 * size, "src")
    dst = server.alloc(2 * size, "dst")
    client.space.write(src.vaddr, b"1" * size)
    client.space.write(src.vaddr + size, b"2" * size)

    def flow(qpn, offset):
        for _ in range(4):
            yield from client.write_sync(
                qpn, src.vaddr + offset, dst.vaddr + offset, size)

    def driver():
        done = env.all_of([
            env.process(flow(1, 0)),
            env.process(flow(qp2, size)),
        ])
        yield done

    run_proc(env, driver())
    assert server.space.read(dst.vaddr, size) == b"1" * size
    assert server.space.read(dst.vaddr + size, size) == b"2" * size


def test_psn_spaces_are_independent():
    env = Simulator()
    _, client, server, qp2 = _pair_with_second_qp(env)
    src = client.alloc(4096, "src")
    dst = server.alloc(4096, "dst")
    client.space.write(src.vaddr, b"z" * 64)

    def driver():
        for _ in range(5):
            yield from client.write_sync(1, src.vaddr, dst.vaddr, 64)
        yield from client.write_sync(qp2, src.vaddr, dst.vaddr, 64)

    run_proc(env, driver())
    qp1_state = client.nic.qps.get(1)
    qp2_state = client.nic.qps.get(qp2)
    assert qp1_state.requester.next_psn == 5
    assert qp2_state.requester.next_psn == 1


def test_loss_on_one_qp_does_not_block_another():
    """Go-back-N recovery is per queue pair: a retransmitting QP must
    not delay traffic on a healthy one beyond wire sharing."""
    env = Simulator()
    _, client, server, qp2 = _pair_with_second_qp(
        env, faults=LinkFaults(drop_probability=0.15, seed=13))
    src = client.alloc(65536, "src")
    dst = server.alloc(2 * 65536, "dst")
    client.space.write(src.vaddr, b"q" * 65536)
    finished = {}

    def flow(qpn, offset):
        yield from client.write_sync(qpn, src.vaddr,
                                     dst.vaddr + offset, 65536)
        finished[qpn] = env.now

    def driver():
        yield env.all_of([
            env.process(flow(1, 0)),
            env.process(flow(qp2, 65536)),
        ])

    run_proc(env, driver(), limit=60_000 * MS)
    assert server.space.read(dst.vaddr, 65536) == b"q" * 65536
    assert server.space.read(dst.vaddr + 65536, 65536) == b"q" * 65536


def test_duplicate_frames_are_absorbed():
    """Duplicated frames must be acknowledged but not re-applied, and
    all data must still arrive exactly correct."""
    env = Simulator()
    fabric = build_fabric(env, faults=LinkFaults(
        duplicate_probability=0.3, seed=17))
    size = 16384
    src = fabric.client.alloc(size, "src")
    dst = fabric.server.alloc(size, "dst")
    payload = bytes(i % 253 for i in range(size))
    fabric.client.space.write(src.vaddr, payload)

    def driver():
        for _ in range(3):
            yield from fabric.client.write_sync(
                fabric.client_qpn, src.vaddr, dst.vaddr, size)

    run_proc(env, driver(), limit=10_000 * MS)
    assert fabric.server.space.read(dst.vaddr, size) == payload
    assert int(fabric.cable.frames_duplicated) >= 1
    assert int(fabric.server.nic.duplicates) >= 1


def test_duplicate_and_loss_combined():
    env = Simulator()
    fabric = build_fabric(env, faults=LinkFaults(
        drop_probability=0.05, duplicate_probability=0.1, seed=23))
    size = 12000
    src = fabric.client.alloc(size, "src")
    dst = fabric.server.alloc(size, "dst")
    payload = bytes(i % 71 for i in range(size))
    fabric.client.space.write(src.vaddr, payload)

    def driver():
        for _ in range(4):
            yield from fabric.client.write_sync(
                fabric.client_qpn, src.vaddr, dst.vaddr, size)
        yield from fabric.client.read_sync(
            fabric.client_qpn, src.vaddr, dst.vaddr, size)

    run_proc(env, driver(), limit=60_000 * MS)
    assert fabric.server.space.read(dst.vaddr, size) == payload


def test_fault_validation():
    with pytest.raises(ValueError):
        LinkFaults(duplicate_probability=2.0)

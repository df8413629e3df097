"""Protocol stress tests: randomized workloads over lossy links must
always converge to correct memory contents (the go-back-N invariant)."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import build_fabric
from repro.net import LinkFaults
from repro.obs import registry_for
from repro.runmode import FAULT_SEED_ENV
from repro.sim import MS, Simulator


def run_workload(seed, drop, corrupt, num_ops, duplicate=0.0):
    """Random mix of writes and reads under fault injection; returns the
    fabric for post-run verification."""
    env = Simulator()
    fabric = build_fabric(env, faults=LinkFaults(
        drop_probability=drop, corrupt_probability=corrupt,
        duplicate_probability=duplicate, seed=seed))
    rng = random.Random(seed)
    region_size = 1 << 16
    client_buf = fabric.client.alloc(region_size, "c")
    server_buf = fabric.server.alloc(region_size, "s")

    expected_server = bytearray(region_size)
    journal = []

    def workload():
        for op_index in range(num_ops):
            offset = rng.randrange(0, region_size - 4096)
            length = rng.choice([64, 256, 1500, 4096])
            blob = bytes([rng.randrange(1, 256)]) * length
            if rng.random() < 0.7:
                fabric.client.space.write(client_buf.vaddr + offset, blob)
                yield from fabric.client.write_sync(
                    fabric.client_qpn, client_buf.vaddr + offset,
                    server_buf.vaddr + offset, length)
                expected_server[offset:offset + length] = blob
                journal.append(("write", offset, length))
            else:
                yield from fabric.client.read_sync(
                    fabric.client_qpn, client_buf.vaddr + offset,
                    server_buf.vaddr + offset, length)
                got = fabric.client.space.read(
                    client_buf.vaddr + offset, length)
                want = bytes(expected_server[offset:offset + length])
                assert got == want, \
                    f"read mismatch at op {op_index} offset {offset}"
                journal.append(("read", offset, length))

    try:
        env.run_until_complete(env.process(workload()),
                               limit=num_ops * 500 * MS)
        # Final state: server memory matches the journal of applied
        # writes.
        got = fabric.server.space.read(server_buf.vaddr, region_size)
        assert got == bytes(expected_server)
    except Exception:
        # Reproduction aid: the exact fault schedule depends only on
        # this seed; pin it to replay the failing run.
        print(f"protocol-stress failure: cable fault seed = "
              f"{fabric.cable.fault_seed} (export "
              f"{FAULT_SEED_ENV}={fabric.cable.fault_seed} to replay)",
              file=sys.stderr)
        raise
    return fabric


def test_stress_clean_link():
    fabric = run_workload(seed=1, drop=0.0, corrupt=0.0, num_ops=40)
    assert int(fabric.client.nic.retransmitted) == 0
    # The same invariants, read through the metrics registry: a clean
    # link produces no retransmits, NAKs, drops, or timer expirations
    # on either side.
    snap = registry_for(fabric.env).snapshot()
    assert snap["cable.dropped"] == 0
    assert snap["cable.corrupted"] == 0
    assert snap["cable.delivered"] > 0
    for host in ("client", "server"):
        assert snap[f"{host}.nic.retransmits"] == 0
        assert snap[f"{host}.nic.naks_tx"] == 0
        assert snap[f"{host}.nic.pkts_dropped"] == 0
        assert snap[f"{host}.nic.timer.expirations"] == 0


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_stress_lossy_link(seed):
    fabric = run_workload(seed=seed, drop=0.05, corrupt=0.0, num_ops=25)
    # With 5% loss over hundreds of packets, recovery must have kicked in.
    snap = registry_for(fabric.env).snapshot()
    assert snap["cable.dropped"] > 0
    # every drop of a request or response leaves a retransmission (or a
    # timer expiration that triggered one) somewhere in the fabric
    total_retx = snap["client.nic.retransmits"] \
        + snap["server.nic.retransmits"]
    assert total_retx >= 1
    # registry counters and the NIC attributes are the same instruments
    assert snap["client.nic.retransmits"] == \
        int(fabric.client.nic.retransmitted)
    assert snap["server.nic.retransmits"] == \
        int(fabric.server.nic.retransmitted)


def test_stress_corrupting_link():
    """Corrupted frames survive the wire but fail ICRC at the receiving
    NIC's packet dropper; the retransmission path re-delivers clean
    copies end-to-end (memory converges in run_workload)."""
    fabric = run_workload(seed=5, drop=0.0, corrupt=0.05, num_ops=25)
    snap = registry_for(fabric.env).snapshot()
    assert snap["cable.corrupted"] > 0
    # every corrupted frame is delivered (never lost by the cable) and
    # then silently discarded by a NIC, so drops at the packet level
    # must at least cover the corruption count
    assert snap["cable.dropped"] == 0
    nic_drops = snap["client.nic.pkts_dropped"] \
        + snap["server.nic.pkts_dropped"]
    assert nic_drops >= snap["cable.corrupted"]
    assert snap["client.nic.retransmits"] \
        + snap["server.nic.retransmits"] >= 1


def test_stress_duplicating_link():
    """Duplicate deliveries exercise the responder's duplicate-PSN
    region (acks/re-executes, never re-applies) and the requester's
    stale-ACK tolerance; contents still converge."""
    fabric = run_workload(seed=7, drop=0.0, corrupt=0.0, num_ops=25,
                          duplicate=0.08)
    snap = registry_for(fabric.env).snapshot()
    assert snap["cable.duplicated"] > 0
    # the responder classified re-deliveries as duplicates (write path
    # re-acks, read path re-executes idempotently)
    assert snap["client.nic.duplicates"] \
        + snap["server.nic.duplicates"] >= 1
    # duplicates alone never trigger recovery machinery
    assert snap["client.nic.timer.expirations"] == 0


def test_stress_duplicates_with_loss():
    """Duplicates + drops together: stale ACKs arrive for PSNs the
    requester already retired while go-back-N is mid-recovery."""
    run_workload(seed=8, drop=0.05, corrupt=0.0, num_ops=20,
                 duplicate=0.08)


def test_stress_hostile_link():
    run_workload(seed=6, drop=0.08, corrupt=0.05, num_ops=15)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=10, max_value=10_000))
def test_stress_random_seeds_property(seed):
    run_workload(seed=seed, drop=0.04, corrupt=0.02, num_ops=10)


def test_interleaved_bidirectional_traffic():
    """Both sides write simultaneously; both memories converge."""
    env = Simulator()
    fabric = build_fabric(env)
    size = 32 * 1024
    c_src = fabric.client.alloc(size, "c_src")
    c_dst = fabric.client.alloc(size, "c_dst")
    s_src = fabric.server.alloc(size, "s_src")
    s_dst = fabric.server.alloc(size, "s_dst")
    fabric.client.space.write(c_src.vaddr, b"C" * size)
    fabric.server.space.write(s_src.vaddr, b"S" * size)

    def client_side():
        for i in range(8):
            yield from fabric.client.write_sync(
                fabric.client_qpn, c_src.vaddr + i * 4096,
                s_dst.vaddr + i * 4096, 4096)

    def server_side():
        for i in range(8):
            yield from fabric.server.write_sync(
                fabric.server_qpn, s_src.vaddr + i * 4096,
                c_dst.vaddr + i * 4096, 4096)

    done = env.all_of([
        env.process(client_side()), env.process(server_side())])

    def waiter():
        yield done

    env.run_until_complete(env.process(waiter()), limit=1000 * MS)
    assert fabric.server.space.read(s_dst.vaddr, size) == b"C" * size
    assert fabric.client.space.read(c_dst.vaddr, size) == b"S" * size


def test_full_duplex_no_throughput_collapse():
    """The two cable directions are independent (Figure 2's separated
    data paths): bidirectional bulk traffic should take barely longer
    than unidirectional, not 2x."""
    def run(bidirectional):
        env = Simulator()
        fabric = build_fabric(env)
        size = 256 * 1024
        c_src = fabric.client.alloc(size, "c_src")
        s_dst = fabric.server.alloc(size, "s_dst")
        fabric.client.space.write(c_src.vaddr, b"a" * size)
        procs = []

        def c_to_s():
            yield from fabric.client.write_sync(
                fabric.client_qpn, c_src.vaddr, s_dst.vaddr, size)

        procs.append(env.process(c_to_s()))
        if bidirectional:
            s_src = fabric.server.alloc(size, "s_src")
            c_dst = fabric.client.alloc(size, "c_dst")
            fabric.server.space.write(s_src.vaddr, b"b" * size)

            def s_to_c():
                yield from fabric.server.write_sync(
                    fabric.server_qpn, s_src.vaddr, c_dst.vaddr, size)

            procs.append(env.process(s_to_c()))

        def waiter():
            yield env.all_of(procs)
            return env.now

        return env.run_until_complete(env.process(waiter()),
                                      limit=1000 * MS)

    uni = run(False)
    bidi = run(True)
    assert bidi < uni * 1.3

"""Tests for the event-trace facility and its NIC integration."""

import pytest

from repro.host import build_fabric
from repro.net import LinkFaults
from repro.obs import observe
from repro.sim import MS, EventTrace, Simulator


def test_trace_records_and_filters():
    env = Simulator()
    trace = EventTrace(env)
    trace.record("nic-a", "tx", psn=0)
    trace.record("nic-a", "rx", psn=0)
    trace.record("nic-b", "tx", psn=1)
    assert len(trace) == 3
    assert trace.count(source="nic-a") == 2
    assert trace.count(event="tx") == 2
    assert trace.count(source="nic-b", event="tx") == 1
    assert trace.summary() == {"tx": 2, "rx": 1}


def test_trace_capacity_bound():
    env = Simulator()
    trace = EventTrace(env, capacity=2)
    for i in range(5):
        trace.record("s", "e", i=i)
    assert len(trace) == 2
    assert trace.dropped == 3
    assert "dropped" in trace.dump()


def test_trace_clear_and_dump():
    env = Simulator()
    trace = EventTrace(env)
    trace.record("s", "e")
    assert "e" in trace.dump()
    trace.clear()
    assert len(trace) == 0


def test_trace_validation():
    env = Simulator()
    with pytest.raises(ValueError):
        EventTrace(env, capacity=0)


def test_nic_trace_clean_write():
    """A clean single-packet write: one tx, one ack back, no NAKs or
    retransmissions anywhere."""
    with observe() as session:
        env = Simulator()
        fabric = build_fabric(env)
    (trace,) = session.traces
    client, server = fabric.client.nic.name, fabric.server.nic.name
    src = fabric.client.alloc(4096, "src")
    dst = fabric.server.alloc(4096, "dst")
    fabric.client.space.write(src.vaddr, b"x" * 256)

    def proc():
        yield from fabric.client.write_sync(fabric.client_qpn, src.vaddr,
                                            dst.vaddr, 256)

    env.run_until_complete(env.process(proc()), limit=10 * MS)
    assert trace.count(source=client, event="tx") == 1
    assert trace.count(source=client, event="rx") == 1  # the ACK
    assert trace.count(source=client, event="retransmit") == 0
    assert trace.count(source=server, event="ack") == 1
    assert trace.count(source=server, event="nak") == 0
    tx = trace.filter(source=client, event="tx")[0]
    assert tx.details["opcode"] == "WRITE_ONLY"
    assert tx.details["payload"] == 256


def test_nic_trace_records_retransmissions_under_loss():
    with observe() as session:
        env = Simulator()
        fabric = build_fabric(env, faults=LinkFaults(drop_probability=0.25,
                                                     seed=5))
    (trace,) = session.traces
    src = fabric.client.alloc(8192, "src")
    dst = fabric.server.alloc(8192, "dst")
    fabric.client.space.write(src.vaddr, b"y" * 8192)

    def proc():
        for _ in range(4):
            yield from fabric.client.write_sync(
                fabric.client_qpn, src.vaddr, dst.vaddr, 8192)

    env.run_until_complete(env.process(proc()), limit=200 * MS)
    client = fabric.client.nic.name
    assert trace.count(source=client, event="retransmit") >= 1
    assert trace.count(source=client, event="retransmit") == int(
        fabric.client.nic.retransmitted)

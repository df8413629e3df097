"""Tests for the event-trace facility and its NIC integration."""

import pytest

from repro.host import build_fabric
from repro.net import LinkFaults
from repro.obs import observe
from repro.sim import MS, EventTrace, Simulator


def _count(trace, source, event):
    return sum(1 for r in trace.records
               if r.source == source and r.event == event)


def test_trace_records_and_filters():
    env = Simulator()
    trace = EventTrace(env)
    trace.record("nic-a", "tx", psn=0)
    trace.record("nic-a", "rx", psn=0)
    trace.record("nic-b", "tx", psn=1)
    assert [(r.source, r.event, r.details) for r in trace.records] == [
        ("nic-a", "tx", {"psn": 0}), ("nic-a", "rx", {"psn": 0}),
        ("nic-b", "tx", {"psn": 1})]
    assert _count(trace, "nic-b", "tx") == 1


def test_trace_capacity_bound():
    env = Simulator()
    trace = EventTrace(env, capacity=2)
    for i in range(5):
        trace.record("s", "e", i=i)
    assert [r.details["i"] for r in trace.records] == [0, 1]
    assert trace.dropped == 3


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
    assert _count(trace, client, "tx") == 1
    assert _count(trace, client, "rx") == 1  # the ACK
    assert _count(trace, client, "retransmit") == 0
    assert _count(trace, server, "ack") == 1
    assert _count(trace, server, "nak") == 0
    (tx,) = [r for r in trace.records
             if r.source == client and r.event == "tx"]
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
    assert _count(trace, client, "retransmit") >= 1
    assert _count(trace, client, "retransmit") == int(
        fabric.client.nic.retransmitted)

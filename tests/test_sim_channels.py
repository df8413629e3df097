"""Unit tests for Stream FIFOs and shared resources."""

import pytest

from repro.sim import NS, US, BandwidthLink, Resource, Simulator, Stream


# ---------------------------------------------------------------------------
# Stream
# ---------------------------------------------------------------------------

def test_stream_fifo_order():
    sim = Simulator()
    stream = Stream(sim)
    received = []

    def producer():
        for i in range(5):
            yield stream.put(i)
            yield sim.timeout(1 * NS)

    def consumer():
        for _ in range(5):
            item = yield stream.get()
            received.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_stream_get_blocks_until_put():
    sim = Simulator()
    stream = Stream(sim)
    log = []

    def consumer():
        item = yield stream.get()
        log.append((sim.now, item))

    def producer():
        yield sim.timeout(4 * US)
        yield stream.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert log == [(4 * US, "x")]


def test_stream_put_blocks_when_full():
    sim = Simulator()
    stream = Stream(sim, capacity=1)
    log = []

    def producer():
        yield stream.put("a")
        log.append(("a", sim.now))
        yield stream.put("b")  # must wait for the consumer
        log.append(("b", sim.now))

    def consumer():
        yield sim.timeout(3 * US)
        item = yield stream.get()
        assert item == "a"

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert log == [("a", 0), ("b", 3 * US)]


def test_stream_try_put_full():
    sim = Simulator()
    stream = Stream(sim, capacity=2)
    assert stream.try_put(1)
    assert stream.try_put(2)
    assert not stream.try_put(3)
    assert len(stream) == 2


def test_stream_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Stream(sim, capacity=0)


def test_stream_many_waiting_consumers_fifo():
    sim = Simulator()
    stream = Stream(sim)
    results = []

    def consumer(tag):
        item = yield stream.get()
        results.append((tag, item))

    def producer():
        yield sim.timeout(1 * NS)
        for i in range(3):
            yield stream.put(i)

    for tag in "abc":
        sim.process(consumer(tag))
    sim.process(producer())
    sim.run()
    assert results == [("a", 0), ("b", 1), ("c", 2)]


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_mutual_exclusion():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []

    def worker(tag):
        yield resource.acquire()
        log.append((tag, "in", sim.now))
        yield sim.timeout(10 * NS)
        log.append((tag, "out", sim.now))
        resource.release()

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert log == [
        ("a", "in", 0),
        ("a", "out", 10 * NS),
        ("b", "in", 10 * NS),
        ("b", "out", 20 * NS),
    ]


def test_resource_capacity_two():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    done = []

    def worker(tag):
        yield resource.acquire()
        yield sim.timeout(10 * NS)
        resource.release()
        done.append((tag, sim.now))

    for tag in "abc":
        sim.process(worker(tag))
    sim.run()
    assert done == [("a", 10 * NS), ("b", 10 * NS), ("c", 20 * NS)]


def test_resource_release_without_acquire():
    sim = Simulator()
    resource = Resource(sim)
    with pytest.raises(RuntimeError):
        resource.release()


# ---------------------------------------------------------------------------
# BandwidthLink
# ---------------------------------------------------------------------------

def test_bandwidth_link_serialization_time():
    sim = Simulator()
    link = BandwidthLink(sim, bits_per_second=10e9)
    # 1250 bytes at 10 Gbit/s = 1 us
    assert link.occupancy_ps(1250) == US


def test_bandwidth_link_serializes_transfers():
    sim = Simulator()
    link = BandwidthLink(sim, bits_per_second=10e9)
    finish = []

    def mover(tag):
        duration = link.occupancy_ps(1250)
        start = link.reserve(duration)
        yield sim.timeout(start + duration - sim.now)
        finish.append((tag, sim.now))

    sim.process(mover("a"))
    sim.process(mover("b"))
    sim.run()
    assert finish == [("a", US), ("b", 2 * US)]
    assert link.free_at == link.busy_time == 2 * US


def test_bandwidth_link_overhead():
    sim = Simulator()
    link = BandwidthLink(sim, bits_per_second=10e9,
                         per_transfer_overhead_bytes=250)
    assert link.occupancy_ps(1000) == US

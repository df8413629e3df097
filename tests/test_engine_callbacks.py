"""Callback entries: ``Simulator.call_at`` / ``call_soon`` and parked
stream getters.

A callback entry is a queue entry that runs ``fn(arg)`` on dispatch —
no Event, no generator resume.  It shares the eid counter with events,
so same-picosecond order across both kinds (and across the heap and the
ready deque) is plain scheduling order.
"""

import pytest

from repro.sim import NS, SimulationError, Simulator, Stream


def test_same_time_entries_dispatch_in_eid_order_across_kinds():
    sim = Simulator()
    order = []

    def waiter(tag, delay):
        yield sim.timeout(delay)
        order.append(tag)

    # Heap: event, callback, event, callback — all due at 10 ns.
    sim.process(waiter("ev-a", 10 * NS))
    sim.run(until=0)     # bootstrap: the timeout above is now queued
    sim.call_at(10 * NS, order.append, "cb-b")
    sim.process(waiter("ev-c", 10 * NS))
    sim.run(until=0)
    sim.call_at(10 * NS, order.append, "cb-d")
    sim.run()
    assert order == ["ev-a", "cb-b", "ev-c", "cb-d"]


def test_heap_and_ready_interleave_by_eid():
    """A heap entry due now with a lower eid beats a ready entry, and a
    callback's call_soon lands behind an Event succeeded before it."""
    sim = Simulator()
    order = []

    def at_five(_arg):
        order.append("heap-cb")
        done = sim.event()
        done.callbacks.append(lambda _ev: order.append("ready-ev"))
        done.succeed()
        sim.call_soon(order.append, "ready-cb")

    sim.call_at(5 * NS, at_five)
    sim.call_at(5 * NS, order.append, "heap-cb-2")
    sim.run()
    assert order == ["heap-cb", "heap-cb-2", "ready-ev", "ready-cb"]


def test_events_created_counts_callback_entries():
    sim = Simulator()
    before = sim.events_created
    sim.call_soon(lambda _arg: None)
    sim.call_at(3, lambda _arg: None)
    assert sim.events_created == before + 2
    sim.timeout(1)
    assert sim.events_created == before + 3
    sim.run()
    assert sim.events_created == before + 3  # dispatch draws nothing


def test_call_at_rejects_negative_delay():
    with pytest.raises(ValueError):
        Simulator().call_at(-1, print)


def test_call_soon_dispatches_before_earlier_call_at_due_later():
    """Under both dispatch loops, a ready callback entry runs at the
    current time before a heap callback entry scheduled ahead of it but
    due later."""
    for loop in ("run", "run_until_complete"):
        sim = Simulator()
        seen = []
        done = sim.event()

        def late(_arg):
            seen.append(("late", sim.now))
            done.succeed()

        sim.call_at(7, late)
        sim.call_soon(lambda _arg: seen.append(("now", sim.now)))
        if loop == "run":
            sim.run()
        else:
            sim.run_until_complete(done)
        assert seen == [("now", 0), ("late", 7)], loop


def test_run_until_stops_before_later_callbacks():
    sim = Simulator()
    seen = []
    sim.call_at(5, seen.append, 5)
    sim.call_at(15, seen.append, 15)
    sim.run(until=10)
    assert seen == [5] and sim.now == 10
    sim.run()
    assert seen == [5, 15] and sim.now == 15


def test_run_until_complete_driven_by_callbacks():
    sim = Simulator()
    done = sim.event()
    sim.call_at(20, lambda _arg: done.succeed("ok"))

    def main():
        value = yield done
        return value

    assert sim.run_until_complete(sim.process(main())) == "ok"
    assert sim.now == 20


def test_run_until_complete_limit_and_deadlock_with_callbacks():
    sim = Simulator()
    sim.call_at(1_000, lambda _arg: None)

    def forever():
        yield sim.event()

    with pytest.raises(SimulationError, match="time limit"):
        sim.run_until_complete(sim.process(forever()), limit=500)

    sim = Simulator()
    sim.call_soon(lambda _arg: None)
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(sim.process(forever()))


def test_callback_exception_propagates_out_of_run():
    sim = Simulator()

    def boom(_arg):
        raise KeyError("from a callback")

    sim.call_at(3, boom)
    with pytest.raises(KeyError):
        sim.run()
    assert sim.now == 3


def test_parked_getter_served_fifo_with_event_getters():
    sim = Simulator()
    stream = Stream(sim)
    got = []

    def consumer(tag):
        item = yield stream.get()
        got.append((tag, item))

    sim.process(consumer("ev-1"))
    sim.run()
    stream.park(lambda item: got.append(("cb", item)))
    sim.process(consumer("ev-2"))
    sim.run()
    before = sim.events_created
    stream.put("x")
    stream.try_put("y")
    stream.put_many(["z", "w"])
    # One entry per hand-off, event and callback getters alike.
    assert sim.events_created == before + 3
    sim.run()
    assert got == [("ev-1", "x"), ("cb", "y"), ("ev-2", "z")]
    assert len(stream) == 1 and stream.get().value == "w"


def test_parked_getter_is_one_shot():
    sim = Simulator()
    stream = Stream(sim)
    got = []
    stream.park(got.append)
    stream.put(1)
    stream.put(2)
    sim.run()
    assert got == [1] and len(stream) == 1

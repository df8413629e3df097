"""Fast-path engine contracts: slotted events, ready-deque FIFO order
and Stream fairness under contention."""

import pytest

from repro.sim import Simulator, Stream
from repro.sim.core import SimulationError
from repro.sim.events import Event, Process, Timeout
from repro.sim.resources import Resource


# ---------------------------------------------------------------------------
# Slotted events with real default attributes (no getattr probes)
# ---------------------------------------------------------------------------

def test_event_classes_use_slots():
    env = Simulator()
    for obj in (Event(env), env.timeout(1),
                env.process(x for x in [])):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.some_new_attribute = 1


def test_event_has_real_default_flags():
    env = Simulator()
    event = Event(env)
    # Real attributes, not getattr probes: reading them never raises.
    assert event._defused is False
    assert event._waiter is None
    assert Event.__slots__ == ("env", "callbacks", "_value", "_ok",
                               "_defused", "_waiter")
    assert Process.__slots__ == ("_generator",)


def test_unhandled_failure_still_raises():
    env = Simulator()
    event = Event(env)
    event.fail(RuntimeError("boom"))
    with pytest.raises(SimulationError):
        env.run()


def test_defused_failure_does_not_raise():
    env = Simulator()
    event = Event(env)
    event._defused = True
    event.fail(RuntimeError("boom"))
    env.run()  # no SimulationError


def test_callbacks_list_still_works_alongside_waiter():
    """A process waiter plus explicit callbacks on the same event."""
    env = Simulator()
    gate = Event(env)
    seen = []

    def waiterproc():
        value = yield gate
        seen.append(("process", value))

    env.process(waiterproc())

    def trigger():
        yield env.timeout(5)
        gate.succeed("v")

    env.process(trigger())
    gate.callbacks.append(lambda ev: seen.append(("callback", ev.value)))
    env.run()
    # The explicit callback was registered before the process blocked on
    # the gate (processes only start running inside env.run()), so it
    # fires first — same registration-order semantics as a plain
    # callbacks list.
    assert seen == [("callback", "v"), ("process", "v")]


# ---------------------------------------------------------------------------
# Ready-deque dispatch preserves global same-timestamp FIFO order
# ---------------------------------------------------------------------------

def test_succeed_before_zero_timeout_fires_first():
    env = Simulator()
    order = []
    gate = Event(env)
    gate.succeed()          # ready deque, eid a
    zero = env.timeout(0)   # heap, eid b > a

    def wait(ev, tag):
        yield ev
        order.append(tag)

    env.process(wait(gate, "gate"))
    env.process(wait(zero, "timeout"))
    env.run()
    assert order == ["gate", "timeout"]


def test_zero_timeout_before_succeed_fires_first():
    env = Simulator()
    order = []
    zero = env.timeout(0)   # heap, eid a
    gate = Event(env)
    gate.succeed()          # ready deque, eid b > a

    def wait(ev, tag):
        yield ev
        order.append(tag)

    env.process(wait(zero, "timeout"))
    env.process(wait(gate, "gate"))
    env.run()
    assert order == ["timeout", "gate"]


def test_interleaved_same_time_events_keep_scheduling_order():
    env = Simulator()
    order = []

    def note(tag, delay):
        yield env.timeout(delay)
        order.append(tag)

    # All fire at t=10; processes were started in a, b, c order.
    env.process(note("a", 10))
    env.process(note("b", 10))
    env.process(note("c", 10))
    env.run()
    assert order == ["a", "b", "c"]


def test_triggered_event_dispatches_now_before_later_timeout():
    env = Simulator()
    order = []
    env.timeout(7).callbacks.append(lambda _e: order.append(("timeout",
                                                             env.now)))
    gate = Event(env)
    gate.succeed()  # the triggered event is due immediately
    gate.callbacks.append(lambda _e: order.append(("gate", env.now)))
    env.run()
    assert order == [("gate", 0), ("timeout", 7)]


# ---------------------------------------------------------------------------
# Stream FIFO fairness under contention
# ---------------------------------------------------------------------------

def test_items_leave_in_put_order():
    env = Simulator()
    stream = Stream(env, capacity=4)
    got = []

    def producer():
        for i in range(10):
            yield stream.put(i)

    def consumer():
        for _ in range(10):
            item = yield stream.get()
            got.append(item)
            yield env.timeout(1)

    env.process(producer())
    proc = env.process(consumer())
    env.run_until_complete(proc)
    assert got == list(range(10))


def test_blocked_getters_served_longest_waiting_first():
    env = Simulator()
    stream = Stream(env)
    served = []

    def getter(tag):
        item = yield stream.get()
        served.append((tag, item))

    def feed():
        yield env.timeout(5)
        for i in range(3):
            yield stream.put(i)

    # Getters block in g0, g1, g2 order before any item exists.
    for tag in ("g0", "g1", "g2"):
        env.process(getter(tag))
    env.process(feed())
    env.run()
    # Earliest-blocked getter receives the earliest item.
    assert served == [("g0", 0), ("g1", 1), ("g2", 2)]


def test_blocked_putters_admitted_in_fifo_order():
    env = Simulator()
    stream = Stream(env, capacity=1)
    admitted = []
    got = []

    def putter(tag, item):
        yield stream.put(item)
        admitted.append(tag)

    def drain():
        for _ in range(4):
            yield env.timeout(10)
            got.append((yield stream.get()))

    env.process(putter("p0", "a"))  # fills capacity immediately
    env.process(putter("p1", "b"))  # blocks
    env.process(putter("p2", "c"))  # blocks behind p1
    env.process(putter("p3", "d"))  # blocks behind p2
    proc = env.process(drain())
    env.run_until_complete(proc)
    assert admitted == ["p0", "p1", "p2", "p3"]
    assert got == ["a", "b", "c", "d"]


def test_capacity_one_pingpong_alternates_producers():
    """Two contending producers on a capacity-1 stream are never
    starved: admissions alternate."""
    env = Simulator()
    stream = Stream(env, capacity=1)
    got = []

    def producer(tag):
        for i in range(5):
            yield stream.put((tag, i))

    def consumer():
        for _ in range(10):
            got.append((yield stream.get()))
            yield env.timeout(1)

    env.process(producer("x"))
    env.process(producer("y"))
    proc = env.process(consumer())
    env.run_until_complete(proc)
    tags = [tag for tag, _ in got]
    assert tags.count("x") == 5 and tags.count("y") == 5
    # Exact FIFO admission: x's first put fills the capacity, x's second
    # put blocks, then y's first put blocks behind it — after which the
    # two producers strictly alternate until x runs out.
    assert got == [("x", 0), ("x", 1), ("y", 0), ("x", 2), ("y", 1),
                   ("x", 3), ("y", 2), ("x", 4), ("y", 3), ("y", 4)]
    # Per-producer item order is preserved.
    assert [i for tag, i in got if tag == "x"] == list(range(5))
    assert [i for tag, i in got if tag == "y"] == list(range(5))


def test_fast_singleton_value_read_synchronously():
    env = Simulator()
    stream = Stream(env)

    def proc():
        yield stream.put("v")
        item = yield stream.get()
        assert item == "v"
        return item

    assert env.run_until_complete(env.process(proc())) == "v"


# ---------------------------------------------------------------------------
# Resource fast path
# ---------------------------------------------------------------------------

def test_resource_fast_acquire_still_enforces_capacity():
    env = Simulator()
    res = Resource(env, capacity=2)
    held_at = []

    def worker(tag):
        yield res.acquire()
        held_at.append((tag, env.now))
        yield env.timeout(10)
        res.release()

    for tag in ("a", "b", "c"):
        env.process(worker(tag))
    env.run()
    times = dict(held_at)
    assert times["a"] == 0 and times["b"] == 0
    assert times["c"] == 10  # had to wait for a release
    assert res.in_use == 0

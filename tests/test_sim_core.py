"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.sim import (
    NS,
    US,
    SimulationError,
    Simulator,
    timebase,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_timeout_advances_time():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(5 * US)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [5 * US]


def test_zero_delay_timeout_runs_at_same_time():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(0)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_events_at_same_time_fifo_order():
    sim = Simulator()
    order = []

    def make(tag):
        def proc():
            yield sim.timeout(10 * NS)
            order.append(tag)
        return proc

    for tag in range(5):
        sim.process(make(tag)())
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_limit():
    sim = Simulator()
    log = []

    def proc():
        while True:
            yield sim.timeout(1 * US)
            log.append(sim.now)

    sim.process(proc())
    sim.run(until=5 * US + 1)
    assert log == [1 * US, 2 * US, 3 * US, 4 * US, 5 * US]
    assert sim.now == 5 * US + 1


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return 42

    result = sim.run_until_complete(sim.process(proc()))
    assert result == 42


def test_process_waits_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(3 * NS)
        return "done"

    def parent():
        value = yield sim.process(child())
        return (sim.now, value)

    assert sim.run_until_complete(sim.process(parent())) == (3 * NS, "done")


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return str(exc)

    assert sim.run_until_complete(sim.process(parent())) == "boom"


def test_unhandled_process_crash_raises():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        raise RuntimeError("unwatched crash")

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_complete_deadlock_detection():
    sim = Simulator()

    def proc():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(sim.process(proc()))


def test_run_until_complete_time_limit():
    sim = Simulator()

    def proc():
        yield sim.timeout(10 * US)

    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_complete(sim.process(proc()), limit=1 * US)


def test_manual_event_succeed():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(7 * NS)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(7 * NS, "open")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(RuntimeError):
        gate.succeed(2)


def test_any_of_returns_first():
    sim = Simulator()

    def proc():
        fast = sim.timeout(1 * NS, value="fast")
        slow = sim.timeout(9 * NS, value="slow")
        result = yield sim.any_of([fast, slow])
        return list(result.values())

    assert sim.run_until_complete(sim.process(proc())) == ["fast"]


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        a = sim.timeout(1 * NS, value="a")
        b = sim.timeout(9 * NS, value="b")
        result = yield sim.all_of([a, b])
        return (sim.now, sorted(result.values()))

    assert sim.run_until_complete(sim.process(proc())) == (9 * NS, ["a", "b"])


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()

    def proc():
        timeout = sim.timeout(1 * NS, value="v")
        yield sim.timeout(5 * NS)  # the first timeout is processed meanwhile
        value = yield timeout
        return (sim.now, value)

    assert sim.run_until_complete(sim.process(proc())) == (5 * NS, "v")


def test_timebase_conversions():
    assert timebase.from_seconds(1e-6) == US
    assert timebase.to_micros(US) == 1.0
    assert timebase.to_seconds(timebase.SEC) == 1.0
    assert timebase.clock_period_ps(156.25e6) == 6400
    assert timebase.clock_period_ps(250e6) == 4000
    assert timebase.cycles_to_ps(5, 156.25e6) == 32000


def test_transfer_time():
    # 1250 bytes at 10 Gbit/s = 1 us
    assert timebase.transfer_time_ps(1250, 10e9) == US


def test_transfer_time_rejects_negative():
    with pytest.raises(ValueError):
        timebase.transfer_time_ps(-1, 10e9)


def _dispatch_order(schedule, loop):
    """Dispatch what ``schedule(sim, log, done)`` queues under ``loop``
    (``"run"`` or ``"run_until_complete"``) and return the log.  The last
    entry the scenario expects succeeds ``done``, which is what stops
    ``run_until_complete``."""
    sim = Simulator()
    log = []
    done = sim.event()
    schedule(sim, log, done)
    if loop == "run":
        sim.run()
    else:
        sim.run_until_complete(done)
    return log


def _stamp(sim, log, tag, done=None):
    def callback(_event):
        log.append((tag, sim.now))
        if done is not None:
            done.succeed()
    return callback


def test_heap_entry_due_now_with_lower_eid_dispatches_first():
    """Both dispatch loops break a same-picosecond tie between the heap
    and the ready deque by eid: a heap entry due now that was scheduled
    first runs before the ready head."""
    def schedule(sim, log, done):
        sim.timeout(0).callbacks.append(_stamp(sim, log, "heap"))
        ready = sim.event()
        ready.succeed()
        ready.callbacks.append(_stamp(sim, log, "ready", done))

    for loop in ("run", "run_until_complete"):
        assert _dispatch_order(schedule, loop) == [("heap", 0),
                                                   ("ready", 0)], loop


def test_ready_entry_dispatches_before_future_heap_entry():
    def schedule(sim, log, done):
        sim.timeout(5 * NS).callbacks.append(
            _stamp(sim, log, "heap", done))
        ready = sim.event()
        ready.succeed()
        ready.callbacks.append(_stamp(sim, log, "ready"))

    for loop in ("run", "run_until_complete"):
        assert _dispatch_order(schedule, loop) == [("ready", 0),
                                                   ("heap", 5 * NS)], loop


def test_events_created_counter_peek_does_not_advance():
    sim = Simulator()
    base = sim.events_created
    assert sim.events_created == base  # reading twice is stable
    sim.timeout(1)
    sim.event().succeed()
    assert sim.events_created == base + 2

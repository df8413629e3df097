"""The simulator core: an integer-picosecond event loop.

Usage::

    sim = Simulator()

    def pinger():
        yield sim.timeout(5 * US)
        print("ping at", sim.now)

    sim.process(pinger())
    sim.run()

The engine keeps two queues that together form one global FIFO:

- ``_queue``: a binary heap of ``(time, eid, fn, arg)`` entries due in
  the future (timeouts, :meth:`call_at`);
- ``_ready``: a plain deque of ``(eid, fn, arg)`` entries due *at the
  current time* (``succeed``/``fail``, process bootstraps and
  terminations, :meth:`call_soon`) — a deque append/popleft is several
  times cheaper than a heap push/pop, and these "due now" entries
  dominate busy simulations.

An entry is one of two kinds.  An *event entry* has ``fn is None`` and
carries an :class:`Event` in ``arg``: dispatch resumes its waiting
process and runs its callbacks.  A *callback entry* carries a plain
function: dispatch runs ``fn(arg)`` — no Event object, no generator
resume.  Per-packet hops that only ever do "wait, then run this" (cable
arrivals, switch ports, posted DMA writes, retransmission countdowns,
the NIC's kernel glue) use callback entries.

Both queues draw entry ids (eids) from one counter, and the dispatch
loop always picks the lower eid when a heap entry is due at the current
timestamp, so same-time entries are processed in exactly the order they
were scheduled — identical semantics to a single heap, at a fraction of
the cost.  Every scheduled entry of either kind draws exactly one eid at
the moment it is scheduled, and nothing else draws one, so
:attr:`Simulator.events_created` counts scheduled entries of both kinds
and replacing an Event by a callback entry scheduled at the same point
keeps every same-picosecond tie (the eid contract).  The two dispatch
loops, :meth:`Simulator.run` and :meth:`Simulator.run_until_complete`,
differ only in their stop condition.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import wraps
from heapq import heappop
from itertools import count
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from .events import _PENDING, AllOf, AnyOf, Event, Process, Timeout


class SimulationError(RuntimeError):
    """Raised when a failed event (e.g. a crashed process) has no waiters."""


def terminated(_arg=None) -> None:
    """The no-op entry a callback chain schedules where the process it
    replaces terminated: ``env.call_soon(terminated)`` draws the eid the
    process's termination drew, and dispatching it does nothing."""


def process_step(method: Callable[[Any, Any], None]) -> Callable:
    """Decorate a method run as a callback entry (``self.env`` is its
    simulator) that stands in for a step of a process: an exception it
    raises fails one event, drawing the entry the crashed process drew,
    so ``env.run()`` ends in :class:`SimulationError` chained from it
    instead of the exception escaping the dispatch loop raw."""
    @wraps(method)
    def step(self, arg=None) -> None:
        try:
            method(self, arg)
        except Exception as exc:
            self.env.event().fail(exc)
    return step


class Simulator:
    """A deterministic discrete-event simulator.

    Events scheduled at the same timestamp are processed in scheduling
    order (FIFO), which makes runs reproducible.
    """

    def __init__(self, start_time: int = 0) -> None:
        self._now = int(start_time)
        self._queue: List[Tuple[int, int, Optional[Callable], Any]] = []
        self._ready: Deque[Tuple[int, Optional[Callable], Any]] = deque()
        self._eid = count()
        #: Bound ``__next__`` of the eid counter: every trigger path draws
        #: an id, so saving the ``next()`` dispatch is measurable.
        self._next_eid = self._eid.__next__
        #: The folded burst flight in progress, if any.  Every send path
        #: unfolds it before it may fold, so there is at most one; hops
        #: with slow-path activity ask it (see repro.roce.burst).
        self.fold = None
        #: Each folded path's metrics counters, resolved at its first
        #: fold (keyed by the flight's path).
        self.fold_counters = {}
        #: Each folded path's last schedule computed with no floor
        #: binding, relative to its start (see repro.roce.burst).
        self.fold_schedules = {}

    # ------------------------------------------------------------------
    # Time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    def call_at(self, delay: int, fn: Callable[[Any], Any],
                arg: Any = None) -> None:
        """Run ``fn(arg)`` ``delay`` picoseconds from now.

        A callback entry: it draws its eid now, exactly where a
        ``timeout(delay)`` would, and its dispatch is one plain call.
        There is no handle to cancel it; a stale callback checks its
        own state and returns."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue,
                       (self._now + delay, self._next_eid(), fn, arg))

    def call_soon(self, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Run ``fn(arg)`` at the current time, after every entry already
        due now (the callback analogue of ``Event.succeed``)."""
        self._ready.append((self._next_eid(), fn, arg))

    @property
    def events_created(self) -> int:
        """Total entries ever scheduled, event and callback entries alike
        (the next eid to be issued).

        Reads the counter without advancing it; benchmarks divide this by
        simulated payload bytes to report events-per-simulated-byte.
        """
        return self._eid.__reduce__()[1][0]

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event succeeding after ``delay`` picoseconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def any_of(self, events: List[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: List[Event]) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue empties or simulated time reaches ``until``."""
        if until is not None and until < self._now:
            raise ValueError("cannot run until a time in the past")
        queue = self._queue
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        while True:
            if ready:
                if queue and queue[0][0] == self._now \
                        and queue[0][1] < ready[0][0]:
                    self._now, _, fn, event = pop(queue)
                else:
                    _, fn, event = popleft()
            elif queue:
                if until is not None and queue[0][0] > until:
                    self._now = until
                    return
                self._now, _, fn, event = pop(queue)
            else:
                break
            if fn is not None:
                fn(event)
                continue
            waiter = event._waiter
            callbacks = event.callbacks
            event.callbacks = None
            if waiter is not None:
                event._waiter = None
                waiter._resume(event)
            if callbacks:
                for callback in callbacks:
                    callback(event)
            elif (waiter is None and not event._ok
                    and not event._defused):
                raise SimulationError(
                    f"unhandled failure in {event!r}: {event._value!r}"
                ) from event._value
        if until is not None:
            self._now = until

    def run_until_complete(self, process: Process,
                           limit: Optional[int] = None) -> Any:
        """Run until ``process`` terminates; return its value.

        ``limit`` bounds the simulated time; exceeding it raises
        :class:`SimulationError` (useful to catch deadlocked protocols in
        tests).
        """
        process._defused = True  # we observe the outcome ourselves
        queue = self._queue
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        # ``process.triggered`` tested inline, like ``_waiter`` and ``_ok``.
        while process._value is _PENDING:
            if ready:
                if queue and queue[0][0] == self._now \
                        and queue[0][1] < ready[0][0]:
                    self._now, _, fn, event = pop(queue)
                else:
                    _, fn, event = popleft()
            elif queue:
                if limit is not None and queue[0][0] > limit:
                    raise SimulationError(
                        f"time limit {limit} ps exceeded at t={self._now} ps")
                self._now, _, fn, event = pop(queue)
            else:
                raise SimulationError(
                    "deadlock: event queue empty before process finished")
            if fn is not None:
                fn(event)
                continue
            waiter = event._waiter
            callbacks = event.callbacks
            event.callbacks = None
            if waiter is not None:
                event._waiter = None
                waiter._resume(event)
            if callbacks:
                for callback in callbacks:
                    callback(event)
            elif (waiter is None and not event._ok
                    and not event._defused):
                raise SimulationError(
                    f"unhandled failure in {event!r}: {event._value!r}"
                ) from event._value
        if not process.ok:
            raise process.value
        return process.value

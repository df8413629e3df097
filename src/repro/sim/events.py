"""Event primitives for the discrete-event engine.

The design follows the classic simpy shape: an :class:`Event` carries a value
(or an exception), may be *triggered* (scheduled on the event queue) and,
once it is popped from the queue, is *processed* — at which point all its
callbacks run.  :class:`Process` wraps a generator; the generator advances by
yielding events and is resumed when the yielded event is processed.

Fast path: the overwhelmingly common waiter is a single process blocked on
a single event (a timeout, a stream hand-off, a resource grant).  That case
is tracked in the dedicated :attr:`Event._waiter` slot instead of the
``callbacks`` list, so the hot loop never allocates a bound method or walks
a list; ``callbacks`` remains fully supported for multi-waiter events
(conditions, explicit subscribers).  All event classes use ``__slots__``.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .core import Simulator

#: Sentinel stored in ``Event._value`` before the event has a value.
_PENDING = object()


class Event:
    """A condition that may happen at a point in simulated time.

    Processes wait on events with ``yield event``.  Events succeed with a
    value (:meth:`succeed`) or fail with an exception (:meth:`fail`); failed
    events re-raise inside every waiting process.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "_interrupt", "_waiter")

    def __init__(self, env: "Simulator") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        #: True once a condition (AnyOf/AllOf) or the driver observes the
        #: outcome itself; unhandled failures then do not crash the run.
        self._defused = False
        #: True for interrupt poke events (failures by construction that
        #: must not be treated as process crashes).
        self._interrupt = False
        #: Fast-path single waiter: the Process to resume on processing.
        self._waiter = None

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value and scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._ready.append((env._next_eid(), None, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._ready.append((env._next_eid(), None, self))
        return self

    def __repr__(self) -> str:
        state = "processed" if self.callbacks is None else (
            "triggered" if self._value is not _PENDING else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds ``delay`` picoseconds after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + schedule: timeouts are the hottest
        # allocation in the simulator, so they go straight onto the heap.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._interrupt = False
        self._waiter = None
        self.delay = delay
        heappush(env._queue,
                 (env._now + delay, env._next_eid(), None, self))


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running generator; also an event that triggers when it terminates.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event is processed the generator resumes with the event's value (or the
    event's exception is thrown into it).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Simulator",
                 generator: Generator[Event, Any, Any]) -> None:
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError("Process requires a generator")
        self._generator = generator
        self._target: Optional[Event] = None
        # Bootstrap: resume the process immediately at the current time.
        bootstrap = Event(env)
        bootstrap._value = None
        bootstrap._waiter = self
        env._ready.append((env._next_eid(), None, bootstrap))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    @property
    def is_waiting(self) -> bool:
        """True while the process is suspended on an event.

        False before the bootstrap resume runs and after termination;
        interrupting is only well-defined while this is True (a process
        that has not started yet would re-attach to its first yielded
        event *after* the interrupt detached nothing).
        """
        return self._target is not None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise RuntimeError("cannot interrupt a terminated process")
        target = self._target
        if target is not None and target.callbacks is not None:
            # Stop waiting on the current target.
            if target._waiter is self:
                target._waiter = None
            else:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        env = self.env
        poke = Event(env)
        poke._waiter = self
        poke._ok = False
        poke._value = Interrupt(cause)
        poke._interrupt = True  # do not treat as a normal failure
        env._ready.append((env._next_eid(), None, poke))

    def _resume(self, event: Event) -> None:
        generator = self._generator
        try:
            while True:
                try:
                    if event._ok:
                        target = generator.send(event._value)
                    else:
                        target = generator.throw(event._value)
                except StopIteration as stop:
                    self._target = None
                    self.succeed(stop.value)
                    return
                if not isinstance(target, Event):
                    raise RuntimeError(
                        f"process yielded a non-event: {target!r}")
                if target.callbacks is None:
                    # Already happened: resume immediately with its value.
                    event = target
                    continue
                # Suspend.  Single-waiter fast path: no bound-method
                # allocation, no callback-list traversal on processing.
                if target._waiter is None and not target.callbacks:
                    target._waiter = self
                else:
                    target.callbacks.append(self._resume)
                self._target = target
                return
        except BaseException as exc:
            # The generator itself raised: the process fails.  If nobody is
            # waiting on it, the simulator surfaces the error.
            self._target = None
            self._ok = False
            self._value = exc
            env = self.env
            env._ready.append((env._next_eid(), None, self))


class AnyOf(Event):
    """Succeeds when the first of ``events`` succeeds.

    Its value is a dict mapping the already-triggered events to their values.
    A failure of any constituent event fails the condition.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Simulator", events: List[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._check(event)
                break
            event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed({ev: ev._value for ev in self._events if ev.processed})


class AllOf(Event):
    """Succeeds when every one of ``events`` has succeeded."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Simulator", events: List[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = 0
        for event in self._events:
            if event.processed:
                if not event._ok:
                    event._defused = True
                    self.fail(event._value)
                    return
                continue
            self._remaining += 1
            event.callbacks.append(self._check)
        if self._remaining == 0 and not self.triggered:
            self.succeed({ev: ev._value for ev in self._events})

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({ev: ev._value for ev in self._events})

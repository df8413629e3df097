"""FIFO channels between processes.

:class:`Stream` models a Vivado-HLS ``stream<T>`` / hardware FIFO: bounded
capacity, blocking put when full, blocking get when empty, strict FIFO order.
StRoM kernels (Listing 1 of the paper) communicate exclusively over such
streams, so this is the main inter-module plumbing of the NIC model.

Fairness guarantees (tested in ``tests/test_engine_fastpath.py``):

- **Items** leave in exactly the order they were put (FIFO).
- **Blocked getters** are served longest-waiting-first: when items arrive,
  the getter that blocked earliest receives the earliest item.
- **Blocked putters** are admitted longest-waiting-first as capacity frees
  up, so under capacity-1 ping-pong contention producers alternate fairly
  and no putter is starved.

Fast path: a ``put`` that does not block and a ``get`` that finds an item
return a *pre-triggered singleton event* — an already-processed event the
scheduler never sees.  Yielding it resumes the process immediately (same
timestamp, zero heap traffic).  The singleton is reused per stream, so the
returned event is only valid until the next ``put``/``get`` on the same
stream: yield it right away (as every caller in this codebase does) or read
``.value`` synchronously.  Blocking puts/gets return ordinary events.

Callback getters: a server written as plain callbacks (no process) may
:meth:`~Stream.park` a function in the getter queue instead of blocking
on an event.  It waits its turn FIFO with blocked event getters, and the
hand-off that serves it is one ``call_soon(fn, item)`` drawn at exactly
the point an event getter's ``succeed`` would draw its entry id.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional, Tuple

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

#: Marker in the getter queue: a parked callback, served by call_soon.
_CALLBACK = -2


class Stream:
    """A bounded FIFO connecting producer and consumer processes.

    ``capacity=None`` means unbounded (puts never block).  ``capacity=n``
    mirrors an n-deep hardware FIFO.
    """

    def __init__(self, env: "Simulator", capacity: Optional[int] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be at least 1 (or None)")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        #: Blocked getters, FIFO: (event, None) for a blocked get, (fn,
        #: _CALLBACK) for a parked callback getter.
        self._getters: Deque[Tuple[Any, Optional[int]]] = deque()
        #: Blocked putters, FIFO: (event, item).
        self._putters: Deque[Tuple[Event, Any]] = deque()
        # Reusable pre-triggered singleton for the non-blocking fast path.
        fast = Event(env)
        fast._value = None
        fast.callbacks = None  # processed: yielding it resumes inline
        self._fast = fast

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Yieldable event that completes once ``item`` is in the FIFO."""
        if self._getters and not self._items:
            # Hand the item straight to the longest-waiting consumer.
            self._hand_off(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            event = Event(self.env)
            self._putters.append((event, item))
            return event
        fast = self._fast
        fast._value = None
        return fast

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the FIFO is full."""
        if self._getters and not self._items:
            self._hand_off(item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Yieldable event whose value is the next item."""
        items = self._items
        if items:
            item = items.popleft()
            if self._putters:
                self._admit_waiting_putter()
            fast = self._fast
            fast._value = item
            return fast
        event = Event(self.env)
        self._getters.append((event, None))
        return event

    def park(self, fn) -> None:
        """Queue a callback getter: the next item handed to it arrives
        as ``fn(item)`` from a ``call_soon`` entry.  One-shot, like a
        blocked :meth:`get`; the caller parks again when it is idle and
        the stream is empty (take queued items with :meth:`get` first:
        parking on a non-empty stream would wait for the *next* put)."""
        self._getters.append((fn, _CALLBACK))

    def clear(self) -> int:
        """Discard every *queued* item; returns the count removed.

        Only the FIFO contents are dropped — blocked getters stay
        blocked and blocked putters are admitted into the freed
        capacity, so callers other than the stream's sole consumer
        must not use this.
        """
        dropped = len(self._items)
        self._items.clear()
        if self._putters:
            self._admit_waiting_putter()
        return dropped

    def discard(self, item: Any) -> int:
        """Remove every queued occurrence of ``item`` (identity
        compare); returns the count removed.  Same caveats as
        :meth:`clear`."""
        items = self._items
        kept = [x for x in items if x is not item]
        dropped = len(items) - len(kept)
        if dropped:
            items.clear()
            items.extend(kept)
            if self._putters:
                self._admit_waiting_putter()
        return dropped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _hand_off(self, item: Any) -> None:
        """Serve the longest-waiting getter with ``item``."""
        getter, want = self._getters.popleft()
        if want is None:
            getter.succeed(item)
        else:
            self.env.call_soon(getter, item)

    def _admit_waiting_putter(self) -> None:
        """Move blocked putters' items into freed capacity, FIFO (only a
        bounded stream has blocked putters)."""
        putters = self._putters
        items = self._items
        capacity = self.capacity
        while putters and len(items) < capacity:
            event, item = putters.popleft()
            items.append(item)
            event.succeed()

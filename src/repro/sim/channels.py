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
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Tuple

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

#: Marker in the getter queue: a ``get_many`` with no item limit.
_TAKE_ALL = -1
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
        #: Blocked getters, FIFO: (event, want) where ``want`` is None for
        #: a single-item get, _TAKE_ALL or a positive int for get_many;
        #: (fn, _CALLBACK) for a parked callback getter.
        self._getters: Deque[Tuple[Event, Optional[int]]] = deque()
        #: Blocked putters, FIFO: (event, pending-items list).
        self._putters: Deque[Tuple[Event, List[Any]]] = deque()
        # Reusable pre-triggered singleton for the non-blocking fast path.
        fast = Event(env)
        fast._value = None
        fast.callbacks = None  # processed: yielding it resumes inline
        self._fast = fast

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # ------------------------------------------------------------------
    # Single-item operations
    # ------------------------------------------------------------------
    def put(self, item: Any) -> Event:
        """Yieldable event that completes once ``item`` is in the FIFO."""
        if self._getters and not self._items:
            # Hand the item straight to the longest-waiting consumer.
            self._hand_off(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            event = Event(self.env)
            self._putters.append((event, [item]))
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

    def try_get(self) -> Any:
        """Non-blocking get; returns None if empty (use :meth:`is_empty`
        first when None is a legal item)."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._putters:
            self._admit_waiting_putter()
        return item

    def peek(self) -> Any:
        """The next item without consuming it; raises if empty."""
        if not self._items:
            raise LookupError(f"peek() on empty stream {self.name!r}")
        return self._items[0]

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
    # Bulk operations
    # ------------------------------------------------------------------
    def put_many(self, items) -> Event:
        """Yieldable event that completes once *all* of ``items`` are in
        the FIFO (or handed to waiting consumers), in order.

        One event covers the whole batch, so N items cost one suspension
        at most instead of N — the bulk analogue of an N-word burst
        through an II=1 pipeline.
        """
        pending = list(items)
        if not pending:
            fast = self._fast
            fast._value = None
            return fast
        # Serve blocked consumers first, longest-waiting first.
        index = 0
        total = len(pending)
        while self._getters and not self._items and index < total:
            getter, want = self._getters.popleft()
            if want is None:
                getter.succeed(pending[index])
                index += 1
            elif want == _CALLBACK:
                self.env.call_soon(getter, pending[index])
                index += 1
            else:
                take = total - index if want == _TAKE_ALL \
                    else min(want, total - index)
                getter.succeed(pending[index:index + take])
                index += take
        if index:
            pending = pending[index:]
        if pending:
            room = None if self.capacity is None \
                else self.capacity - len(self._items)
            if room is None or room >= len(pending):
                self._items.extend(pending)
                pending = []
            else:
                if room > 0:
                    self._items.extend(pending[:room])
                    pending = pending[room:]
                event = Event(self.env)
                self._putters.append((event, pending))
                return event
        fast = self._fast
        fast._value = None
        return fast

    def get_many(self, max_items: Optional[int] = None) -> Event:
        """Yieldable event whose value is a non-empty *list* of items.

        Returns every immediately available item (bounded by
        ``max_items``); blocks until at least one item arrives when the
        FIFO is empty.  Draining a burst costs one resume instead of one
        per item.
        """
        if max_items is not None and max_items < 1:
            raise ValueError("max_items must be at least 1 (or None)")
        items = self._items
        if items:
            if max_items is None or max_items >= len(items):
                batch = list(items)
                items.clear()
            else:
                batch = [items.popleft() for _ in range(max_items)]
            if self._putters:
                self._admit_waiting_putter()
            fast = self._fast
            fast._value = batch
            return fast
        event = Event(self.env)
        self._getters.append(
            (event, _TAKE_ALL if max_items is None else max_items))
        return event

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _hand_off(self, item: Any) -> None:
        """Serve the longest-waiting getter with ``item``."""
        getter, want = self._getters.popleft()
        if want is None:
            getter.succeed(item)
        elif want == _CALLBACK:
            self.env.call_soon(getter, item)
        else:
            getter.succeed([item])

    def _admit_waiting_putter(self) -> None:
        """Move items from blocked putters into freed capacity, FIFO."""
        while self._putters and not self.is_full:
            event, pending = self._putters[0]
            while pending and not self.is_full:
                self._items.append(pending.pop(0))
            if pending:
                return  # head putter still partially blocked
            self._putters.popleft()
            event.succeed()

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"<Stream {self.name!r} {len(self._items)}/{cap}>"

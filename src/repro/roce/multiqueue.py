"""The Multi-Queue data structure (Section 4.1).

Supports multiple outstanding RDMA READs per queue pair: logically one
linked list per QP, physically two fixed-size arrays in on-chip memory —
one holding per-list head/tail metadata, one holding the pooled elements
(value, next pointer, tail flag).  Each list grows at runtime, but the
*combined* length of all lists is fixed, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List


@dataclass
class _ListMeta:
    head: int = -1
    tail: int = -1
    length: int = 0


@dataclass
class _Element:
    value: Any = None
    next_index: int = -1
    is_tail: bool = False
    in_use: bool = False


class MultiQueueFullError(Exception):
    """The shared element pool is exhausted."""


class MultiQueue:
    """Fixed-pool, per-QP FIFO lists.

    ``num_queues`` is the number of queue pairs (compile-time parameter),
    ``total_elements`` the combined capacity (total outstanding READs).
    """

    def __init__(self, num_queues: int, total_elements: int) -> None:
        if num_queues < 1 or total_elements < 1:
            raise ValueError("need at least one queue and one element")
        self.num_queues = num_queues
        self.total_elements = total_elements
        self._meta: List[_ListMeta] = [_ListMeta() for _ in range(num_queues)]
        self._pool: List[_Element] = [_Element()
                                      for _ in range(total_elements)]
        self._free: List[int] = list(range(total_elements))

    # ------------------------------------------------------------------
    def _meta_for(self, queue: int) -> _ListMeta:
        if not 0 <= queue < self.num_queues:
            raise IndexError(f"queue {queue} out of range")
        return self._meta[queue]

    # ------------------------------------------------------------------
    def push(self, queue: int, value: Any) -> None:
        """Append ``value`` to the tail of ``queue``'s list.

        Raises :class:`MultiQueueFullError` when the shared pool is
        exhausted — the hardware analogue is back-pressure on the
        requester, which bounds outstanding READs.
        """
        meta = self._meta_for(queue)
        if not self._free:
            raise MultiQueueFullError(
                f"all {self.total_elements} elements in use")
        index = self._free.pop()
        element = self._pool[index]
        element.value = value
        element.next_index = -1
        element.is_tail = True
        element.in_use = True
        if meta.tail >= 0:
            previous = self._pool[meta.tail]
            previous.next_index = index
            previous.is_tail = False
        else:
            meta.head = index
        meta.tail = index
        meta.length += 1

    def pop(self, queue: int) -> Any:
        """Remove and return the head of ``queue``'s list."""
        meta = self._meta_for(queue)
        if meta.head < 0:
            raise LookupError(f"queue {queue} is empty")
        index = meta.head
        element = self._pool[index]
        value = element.value
        meta.head = element.next_index
        meta.length -= 1
        if element.is_tail:
            meta.tail = -1
            meta.head = -1
        element.value = None
        element.in_use = False
        self._free.append(index)
        return value

    def peek(self, queue: int) -> Any:
        """Return (without removing) the head of ``queue``'s list."""
        meta = self._meta_for(queue)
        if meta.head < 0:
            raise LookupError(f"queue {queue} is empty")
        return self._pool[meta.head].value

    def is_empty(self, queue: int) -> bool:
        return self._meta_for(queue).length == 0

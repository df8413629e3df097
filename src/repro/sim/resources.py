"""Shared-resource primitives.

:class:`Resource` is a counting semaphore with FIFO queueing, used for
mutual exclusion (e.g. a single TX pipeline) or limited parallelism.

:class:`BandwidthLink` serializes transfers over a shared link of fixed
bandwidth: each transfer occupies the link for ``bytes * 8 / rate`` and
transfers queue in FIFO order.  The PCIe link between the NIC and host
memory is modelled this way, which is what makes the 100 G "PCIe ratio
close to 1:1" effect of Section 7 emerge naturally.  Each cable
direction is one too.  :func:`fifo_ends` is the lane's column form: the
end times a run of jobs gets from :meth:`BandwidthLink.reserve_after`,
computed for the whole run at once (the burst fold's schedule).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

import numpy as np

from . import timebase
from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator


#: Column values stay below this (int64 cumsums wrap silently); a
#: schedule that could reach it is refused and runs per packet.
COLUMN_LIMIT_PS = 1 << 62


def fifo_ends(start: np.ndarray, dur: np.ndarray, floor: int) -> np.ndarray:
    """End times of a FIFO server fed jobs in order: ``end[i] =
    max(end[i-1], start[i]) + dur[i]`` with ``end[-1] = floor``.

    Unrolled, ``end[i] = cum[i] + max(floor, max_{j<=i} start[j] -
    cum[j-1])`` (``cum`` the running sum of ``dur``): one cumsum and one
    prefix-max scan over int64.  Raises OverflowError — refusing the
    fold — when the last (largest) end reaches :data:`COLUMN_LIMIT_PS`;
    the caller keeps ``max(floor, start) + sum(dur)`` below it, so
    nothing wraps first."""
    cum = dur.cumsum()
    lead = start - cum
    lead += dur
    if lead[0] < floor:
        lead[0] = floor   # the floor joins every prefix max through lead[0]
    np.maximum.accumulate(lead, out=lead)
    lead += cum
    if lead[-1] >= COLUMN_LIMIT_PS:
        raise OverflowError("schedule exceeds the int64 column range")
    return lead


class Resource:
    """Counting semaphore with FIFO discipline."""

    def __init__(self, env: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # Pre-triggered singleton returned by uncontended acquires: the
        # scheduler never sees the grant, the process continues inline.
        # Only valid to yield immediately (all in-tree callers do).
        fast = Event(env)
        fast._value = None
        fast.callbacks = None
        self._fast = fast

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self) -> Event:
        """Yieldable event granting one unit of the resource."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return self._fast
        event = Event(self.env)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit; wakes the longest-waiting acquirer."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching acquire()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class BandwidthLink:
    """A link of fixed bandwidth shared by FIFO-ordered transfers.

    Transfers are serialized: a transfer of ``n`` bytes holds the link for
    its serialization time.  ``per_transfer_overhead_bytes`` charges fixed
    framing/TLP overhead per transfer.

    FIFO discipline is enforced *arithmetically*: :meth:`reserve` hands
    out back-to-back time slots from a running ``free_at`` cursor in call
    order, so a transfer costs one timeout to its slot's end instead of a
    mutex acquire + occupancy + release.  Timestamps are identical to the
    queued-mutex formulation (a caller's slot starts at
    ``max(now, free_at)``, exactly when the mutex would have granted it)
    at a fraction of the event count.
    """

    def __init__(self, env: "Simulator", bits_per_second: float,
                 per_transfer_overhead_bytes: int = 0,
                 name: str = "") -> None:
        if bits_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bits_per_second = bits_per_second
        self.per_transfer_overhead_bytes = per_transfer_overhead_bytes
        self.name = name
        self.bytes_transferred = 0
        self.busy_time = 0
        self._free_at = 0
        #: :meth:`occupancy_ps` memo, keyed by byte count.
        self._occupancy = {}

    @property
    def free_at(self) -> int:
        """Time the last reserved slot ends (the FIFO cursor)."""
        return self._free_at

    def occupancy_ps(self, num_bytes: int) -> int:
        """Serialization time of a transfer of ``num_bytes`` payload,
        memoized per size (the rate and overhead are fixed at
        construction)."""
        duration = self._occupancy.get(num_bytes)
        if duration is None:
            total = num_bytes + self.per_transfer_overhead_bytes
            duration = timebase.transfer_time_ps(total, self.bits_per_second)
            self._occupancy[num_bytes] = duration
        return duration

    def reserve(self, duration: int) -> int:
        """Claim the next ``duration`` picoseconds of link time (FIFO in
        call order); returns the slot's start time, >= now."""
        return self.reserve_after(self.env.now, duration)

    def reserve_after(self, ready: int, duration: int) -> int:
        """Like :meth:`reserve`, but the slot starts no earlier than
        ``ready`` — used to fold a fixed pre-transfer latency into the
        reservation so latency + occupancy cost one timeout.  Equivalent
        to sleeping until ``ready`` and then reserving, provided every
        competing caller pays the same latency (call order == the order
        the sleeps would have finished)."""
        if duration < 0:
            raise ValueError("negative reservation")
        start = self._free_at
        if start < ready:
            start = ready
        self._free_at = start + duration
        self.busy_time += duration
        return start

    def ends(self, start: np.ndarray, dur: np.ndarray) -> np.ndarray:
        """Column form of :meth:`reserve_after`: the end of each of a run
        of jobs (``start[i]``, ``dur[i]``) reserved in order behind the
        cursor, as int64 (:func:`fifo_ends`).  Pure: :meth:`move_cursor`
        commits the run."""
        return fifo_ends(start, dur, self._free_at)

    def move_cursor(self, free_at: int, busy: int, num_bytes: int = 0) -> None:
        """Set the cursor to ``free_at``, adding ``busy`` picoseconds and
        ``num_bytes`` to the totals: commits a run from :meth:`ends` (its
        last end and summed durations), or hands back its unused suffix
        (the last kept end, negative totals)."""
        self._free_at = free_at
        self.busy_time += busy
        self.bytes_transferred += num_bytes

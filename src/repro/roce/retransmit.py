"""Retransmission timers, one per queue pair (Section 4.1).

Hardware keeps an array of time intervals in on-chip memory and a module
continuously decrements the active ones; the behavioural equivalent is a
versioned one-shot timer per QP: re-arming bumps the version so stale
expirations are ignored, and additionally *cancels* the pending
countdown so its wakeup runs no timer logic (see
:meth:`RetransmissionTimer._cancel`).

The countdown is a chain of callback entries, not a process.  It
schedules exactly the entries a countdown process did, at the same
points, so the simulator's event stream (and every same-picosecond tie
in it) is unchanged: a start entry at arm time (the process bootstrap),
the deadline entry when the start runs, a cancel entry plus the
termination entry it schedules when a pending countdown is re-armed or
disarmed (the interrupt poke), and a termination entry after an expiry.
A cancelled deadline entry stays queued and returns at once (the stale
wakeup).  That is four entries per re-arm of a hot QP; removing any of
them changes the event stream.

Recovery semantics beyond the paper's fixed timeout:

- **Exponential backoff with jitter.**  Consecutive expirations without
  forward progress double the next deadline (capped), and backoff rounds
  add a seeded uniform jitter so many QPs recovering from one event do
  not retry in lockstep.  The *first* expiration of a round fires at
  exactly ``timeout`` — matching the hardware's fixed interval — so
  clean-link behaviour is unchanged.
- **Bounded retry budget.**  After ``max_retries`` consecutive
  expirations the timer gives up and calls ``on_exhausted(qpn)`` instead
  of retrying forever; the NIC uses this to transition the QP into an
  error state that completes outstanding work requests with error
  status.
- **Progress tracking.**  :meth:`note_progress` resets the consecutive
  count; if expirations had occurred, the episode is counted as a
  *recovery* (the ``<name>.recoveries`` counter the fault-sweep CI gate
  asserts on).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from ..algos.hashing import fnv1a64
from ..obs.runtime import observers_for, registry_for
from ..sim import Simulator, terminated


class _Countdown:
    """One armed countdown of one QP."""

    __slots__ = ("qpn", "version", "delay", "waiting")

    def __init__(self, qpn: int, version: int, delay: int) -> None:
        self.qpn = qpn
        self.version = version
        self.delay = delay
        #: True from the start entry until expiry or cancellation.
        self.waiting = False


class RetransmissionTimer:
    """Per-QP one-shot retransmission timers.

    ``callback(qpn)`` is called when a timer armed for ``qpn`` expires
    without being re-armed or disarmed; if it returns a generator, that
    runs as a new simulation process.  With a ``max_retries`` budget,
    ``on_exhausted(qpn)`` replaces the callback once the budget is
    spent.
    """

    def __init__(self, env: Simulator, timeout: int,
                 callback: Callable[[int], object],
                 name: str = "timer",
                 max_retries: Optional[int] = None,
                 backoff_cap: Optional[int] = None,
                 jitter: int = 0,
                 on_exhausted: Optional[Callable[[int], object]] = None
                 ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if max_retries is not None and max_retries < 1:
            raise ValueError("retry budget must allow at least one retry")
        if backoff_cap is not None and backoff_cap < timeout:
            raise ValueError("backoff cap must be >= the base timeout")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.env = env
        self.timeout = timeout
        self.callback = callback
        self.name = name
        self.max_retries = max_retries
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.on_exhausted = on_exhausted
        self._rng = random.Random(fnv1a64(name.encode()) & 0x7FFF_FFFF)
        self._versions: Dict[int, int] = {}
        self._armed: Dict[int, bool] = {}
        #: Consecutive expirations without progress, per QP.
        self._attempts: Dict[int, int] = {}
        #: The latest countdown per QP (cancelled on re-arm).
        self._countdowns: Dict[int, _Countdown] = {}
        #: The countdown whose expiry is running (a re-arm from inside
        #: the callback must not cancel it).
        self._expiring: Optional[_Countdown] = None
        #: Absolute expiry time of the armed timer, per QP (the burst
        #: fast path gates folds on the deadline landing after the
        #: analytically scheduled completion).
        self._deadline: Dict[int, int] = {}
        self.obs = observers_for(env)
        metrics = registry_for(env)
        self.expirations = metrics.counter(f"{name}.expirations")
        #: Episodes where expirations happened but progress resumed.
        self.recoveries = metrics.counter(f"{name}.recoveries")
        #: QPs whose retry budget ran out (error-state transitions).
        self.exhaustions = metrics.counter(f"{name}.exhaustions")

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def attempts(self, qpn: int) -> int:
        """Consecutive expirations without progress for ``qpn``."""
        return self._attempts.get(qpn, 0)

    def next_delay(self, qpn: int) -> int:
        """The deadline the next :meth:`arm` call would set: exponential
        in the consecutive-expiration count, capped, jittered after the
        first round."""
        attempts = self._attempts.get(qpn, 0)
        delay = self.timeout << min(attempts, 32)
        if self.backoff_cap is not None:
            delay = min(delay, self.backoff_cap)
        if attempts > 0 and self.jitter:
            delay += self._rng.randrange(self.jitter + 1)
        return delay

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self, qpn: int) -> None:
        """(Re)start the timer for ``qpn``."""
        if self.obs is not None:
            self.obs.on_timer_arm(self, qpn)
        self._cancel(qpn)
        version = self._versions.get(qpn, 0) + 1
        self._versions[qpn] = version
        self._armed[qpn] = True
        delay = self.next_delay(qpn)
        self._deadline[qpn] = self.env.now + delay
        countdown = _Countdown(qpn, version, delay)
        self._countdowns[qpn] = countdown
        self.env.call_soon(self._start, countdown)

    def disarm(self, qpn: int) -> None:
        """Cancel the timer for ``qpn`` (no-op if not armed)."""
        self._armed[qpn] = False
        self._versions[qpn] = self._versions.get(qpn, 0) + 1
        self._deadline.pop(qpn, None)
        self._cancel(qpn)

    def is_armed(self, qpn: int) -> bool:
        return self._armed.get(qpn, False)

    def deadline(self, qpn: int) -> Optional[int]:
        """Absolute expiry time of the armed timer, or None."""
        if not self._armed.get(qpn, False):
            return None
        return self._deadline.get(qpn)

    def note_progress(self, qpn: int) -> None:
        """Forward progress happened (new ACK / data): reset the backoff
        and, if the QP had been expiring, count one recovery."""
        if self._attempts.get(qpn, 0) > 0:
            self.recoveries.add()
            self._attempts[qpn] = 0

    def _cancel(self, qpn: int) -> None:
        """Cancel the pending countdown so its wakeup runs no timer
        logic (the version bump alone would leave it live until the
        stale deadline)."""
        countdown = self._countdowns.pop(qpn, None)
        if countdown is not None and countdown.waiting \
                and countdown is not self._expiring:
            countdown.waiting = False
            self.env.call_soon(self._cancelled)

    def _cancelled(self, _arg) -> None:
        self.env.call_soon(terminated)

    def _start(self, countdown: _Countdown) -> None:
        if self._versions.get(countdown.qpn) != countdown.version:
            # Cancelled before it started (same-tick disarm/re-arm):
            # finish without scheduling a deadline at all.
            self.env.call_soon(terminated)
            return
        countdown.waiting = True
        self.env.call_at(countdown.delay, self._expire, countdown)

    def _expire(self, countdown: _Countdown) -> None:
        if not countdown.waiting:
            return  # cancelled: a stale wakeup
        countdown.waiting = False
        qpn = countdown.qpn
        if self._armed.get(qpn) and \
                self._versions.get(qpn) == countdown.version:
            self._expiring = countdown
            try:
                self._fire(qpn)
            finally:
                self._expiring = None
        self.env.call_soon(terminated)

    def _fire(self, qpn: int) -> None:
        self._armed[qpn] = False
        self._deadline.pop(qpn, None)
        self.expirations.add()
        attempts = self._attempts.get(qpn, 0) + 1
        self._attempts[qpn] = attempts
        if self.max_retries is not None and attempts > self.max_retries:
            self.exhaustions.add()
            self._attempts[qpn] = 0
            handler = self.on_exhausted
            if handler is None:
                return
            result = handler(qpn)
        else:
            result = self.callback(qpn)
        # Allow generator callbacks (processes) as well as plain calls.
        if result is not None and hasattr(result, "send"):
            self.env.process(result)

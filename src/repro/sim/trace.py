"""Event tracing: a lightweight flight recorder for simulations.

Inside a :func:`repro.obs.observe` session every simulator gets one
:class:`EventTrace` (its observer slot's), and every packet
transmission, reception, ack/nak, and retransmission is recorded with
its timestamp.  Used by the debugging workflow and by tests that assert
on protocol-level behaviour (e.g. "exactly one NAK was sent", "no
retransmissions happened on a clean link").

Two record shapes:

- **instants** (:class:`TraceRecord`) — a point in time ("tx", "nak");
- **spans** (:class:`SpanRecord`) — a begin/end pair with a duration
  (a DMA transfer, a frame's residency in a switch queue, one kernel
  invocation).  Open a span with :meth:`EventTrace.begin_span`, close
  it with :meth:`EventTrace.end_span`; spans that are still open when
  the run ends simply stay open (exporters skip them).

:func:`repro.obs.chrome_trace.export_chrome_trace` turns both into
Chrome trace-event JSON loadable in Perfetto.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional


if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator


@dataclass(frozen=True)
class TraceRecord:
    """One traced event."""

    time_ps: int
    source: str
    event: str
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class SpanRecord:
    """One traced duration: begun, and possibly ended."""

    begin_ps: int
    source: str
    name: str
    details: Dict[str, object] = field(default_factory=dict)
    end_ps: Optional[int] = None

    @property
    def is_open(self) -> bool:
        return self.end_ps is None

    @property
    def duration_ps(self) -> int:
        if self.end_ps is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_ps - self.begin_ps


class EventTrace:
    """Bounded in-memory event recorder."""

    def __init__(self, env: "Simulator", capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.records: List[TraceRecord] = []
        self.spans: List[SpanRecord] = []
        self.dropped = 0

    def record(self, source: str, event: str, **details: object) -> None:
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(TraceRecord(time_ps=self.env.now,
                                        source=source, event=event,
                                        details=details))

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin_span(self, source: str, name: str,
                   **details: object) -> Optional[SpanRecord]:
        """Open a span at the current time; returns the handle to pass
        to :meth:`end_span` (None when the capacity is exhausted —
        ``end_span(None)`` is a no-op, so call sites need no guard)."""
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return None
        span = SpanRecord(begin_ps=self.env.now, source=source,
                          name=name, details=details)
        self.spans.append(span)
        return span

    def end_span(self, span: Optional[SpanRecord],
                 **details: object) -> None:
        """Close ``span`` at the current time; extra details merge in."""
        if span is None:
            return
        if span.end_ps is not None:
            raise ValueError(f"span {span.name!r} already ended")
        span.end_ps = self.env.now
        if details:
            span.details.update(details)

    def end_span_at(self, span: Optional[SpanRecord], delay: int,
                    **details: object) -> None:
        """Close ``span`` ``delay`` ps from now, from a callback entry of
        the trace's own."""
        self.env.call_at(delay, self._end_later, (span, details))

    def _end_later(self, span_details) -> None:
        span, details = span_details
        self.end_span(span, **details)

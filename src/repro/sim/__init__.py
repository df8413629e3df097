"""Discrete-event simulation engine underpinning the StRoM model.

Public surface:

- :class:`Simulator` — the integer-picosecond event loop.
- :class:`Event`, :class:`Process`, :class:`Timeout` — event primitives
  (processes are generators that ``yield`` events).
- :class:`Stream` — bounded FIFO, the analogue of a Vivado-HLS stream.
- :class:`Resource`, :class:`BandwidthLink` — contention primitives.
- :mod:`repro.sim.timebase` — time-unit constants and converters.
- :class:`LatencySample` — latency measurement.
"""

from . import timebase
from .channels import Stream
from .core import SimulationError, Simulator, process_step, terminated
from .events import AllOf, AnyOf, Event, Process, Timeout
from .resources import BandwidthLink, Resource
from .stats import LatencySample, LatencySummary, percentile
from .timebase import MS, NS, PS, SEC, US
from .trace import EventTrace, SpanRecord, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthLink",
    "Event",
    "EventTrace",
    "SpanRecord",
    "TraceRecord",
    "LatencySample",
    "LatencySummary",
    "MS",
    "NS",
    "PS",
    "Process",
    "Resource",
    "SEC",
    "SimulationError",
    "Simulator",
    "Stream",
    "Timeout",
    "US",
    "percentile",
    "process_step",
    "terminated",
    "timebase",
]

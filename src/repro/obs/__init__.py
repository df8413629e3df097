"""Unified observability: metrics registry, spans, Chrome-trace export.

The StRoM evaluation is built out of per-stage breakdowns (Figures 5,
7, 9, 11 are all "where did the nanoseconds go" plots), so the
simulator needs a first-class way to see inside its own data path.
This package provides it:

- :class:`MetricsRegistry` — named :class:`Counter` / :class:`Gauge`
  instruments with hierarchical dotted names
  (``nic0.qp3.retransmits``), snapshot/diff/merge, and a flat-dict
  export consumed by benchmarks and experiments.
- :mod:`repro.obs.chrome_trace` — turns an
  :class:`~repro.sim.trace.EventTrace` (instants + spans) and sampled
  gauge series into Chrome trace-event JSON loadable in Perfetto
  (https://ui.perfetto.dev).
- :mod:`repro.obs.runtime` — per-:class:`~repro.sim.Simulator`
  attachment (``registry_for(env)`` and the observer slot
  ``observers_for(env)``) and the :func:`observe` session that the CLI's
  ``--trace-out`` / ``--metrics-out`` flags use to capture whole
  experiment runs.

Instrumented components hold their registry and observer slot from
construction; the slot is ``None`` unless the run is observed, so an
unobserved run pays one test per hook site.
"""

from .chrome_trace import chrome_trace_events, export_chrome_trace
from .metrics import (
    Counter,
    Gauge,
    MetricsError,
    MetricsRegistry,
    MetricsSnapshot,
)
from .runtime import (ObsSession, Observers, observe, observers_for,
                      registry_for)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsSession",
    "Observers",
    "chrome_trace_events",
    "export_chrome_trace",
    "observe",
    "observers_for",
    "registry_for",
]

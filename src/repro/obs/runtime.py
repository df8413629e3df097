"""Per-simulation observability wiring and run-wide capture sessions.

Every instrumented component asks for its simulator's registry at
construction time::

    from ..obs.runtime import registry_for, trace_for
    self.metrics = registry_for(env)       # always exists (cheap)
    self.trace = trace_for(env)            # None unless observing

``registry_for`` lazily attaches one :class:`MetricsRegistry` per
:class:`~repro.sim.Simulator`; counters are therefore always live (they
are just Python ints behind an attribute), while *tracing* and *gauge
sampling* stay off unless an :func:`observe` session is active — the
``trace_for`` result is ``None`` and hot paths skip their hooks on the
usual ``if trace is not None`` check.

:func:`observe` is how the CLI's ``--trace-out`` / ``--metrics-out``
flags (and the test suite) capture whole runs::

    with observe() as session:
        run_experiments(["cluster-scaling"], fast=True)
    session.write_trace("run.json")
    session.write_metrics("metrics.json")

Any Simulator created *inside* the block gets an
:class:`~repro.sim.trace.EventTrace` and sampling-enabled registry,
and the session collects them all for merged export.  A session with
``tracing=False`` (``--metrics-out`` alone) samples gauges but keeps
only their latest values: the time series feed only the trace export.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

from ..sim.trace import EventTrace
from .chrome_trace import export_chrome_trace
from .metrics import MetricsRegistry, MetricsSnapshot

#: Attribute names used to attach observability state to a Simulator.
_REGISTRY_ATTR = "_obs_registry"
_TRACE_ATTR = "_obs_trace"

#: The active capture session, if any (one at a time; nesting raises).
_active: Optional["ObsSession"] = None


class ObsSession:
    """Collects the registries and traces of every Simulator created
    while the session is active."""

    def __init__(self, tracing: bool = True, sampling: bool = True,
                 trace_capacity: int = 1_000_000) -> None:
        self.tracing = tracing
        self.sampling = sampling
        self.trace_capacity = trace_capacity
        self.registries: List[MetricsRegistry] = []
        self.traces: List[EventTrace] = []

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merged_metrics(self, series: bool = True) -> MetricsRegistry:
        return MetricsRegistry.merge(self.registries, name="session",
                                     series=series)

    def metrics_snapshot(self) -> MetricsSnapshot:
        # Scalars only: the merged time series would be built and
        # sorted for nothing.
        return self.merged_metrics(series=False).snapshot()

    def chrome_trace(self) -> dict:
        return export_chrome_trace(self.traces,
                                   registry=self.merged_metrics())

    # ------------------------------------------------------------------
    # Artifact output
    # ------------------------------------------------------------------
    def write_metrics(self, path: str) -> None:
        self.metrics_snapshot().write_json(path)

    def write_trace(self, path: str) -> None:
        export_chrome_trace(self.traces, path=path,
                            registry=self.merged_metrics())


def registry_for(env) -> MetricsRegistry:
    """The simulator's metrics registry (created on first use)."""
    registry = getattr(env, _REGISTRY_ATTR, None)
    if registry is None:
        # A session that does not trace keeps no gauge series: only the
        # Chrome-trace export reads them.
        registry = MetricsRegistry(
            sampling_enabled=_active.sampling if _active else False,
            keep_series=_active.tracing if _active else True)
        setattr(env, _REGISTRY_ATTR, registry)
        if _active is not None:
            _active.registries.append(registry)
    return registry


def trace_for(env) -> Optional[EventTrace]:
    """The simulator's shared EventTrace, or None when not observing.

    Components cache the result at construction; the usual
    ``if self.trace is not None`` guard keeps disabled-mode hot paths
    free of tracing work.
    """
    trace = getattr(env, _TRACE_ATTR, None)
    if trace is None and _active is not None and _active.tracing:
        trace = EventTrace(env, capacity=_active.trace_capacity)
        setattr(env, _TRACE_ATTR, trace)
        _active.traces.append(trace)
    return trace


@contextmanager
def observe(tracing: bool = True, sampling: bool = True,
            trace_capacity: int = 1_000_000):
    """Capture every simulation built inside the ``with`` block."""
    global _active
    if _active is not None:
        raise RuntimeError("an observe() session is already active")
    session = ObsSession(tracing=tracing, sampling=sampling,
                         trace_capacity=trace_capacity)
    _active = session
    try:
        yield session
    finally:
        _active = None

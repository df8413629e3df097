"""Per-simulation observability wiring: the observer slot and sessions.

Every instrumented component asks for its simulator's registry and
observer slot once, at construction::

    self.metrics = registry_for(env)       # always exists (cheap)
    self.obs = observers_for(env)          # None unless observed

Counters are always live (Python ints behind an attribute).  Everything
that *watches* the datapath — the :class:`~repro.sim.trace.EventTrace`,
gauge sampling and the invariant monitors of :mod:`repro.check` — sits
behind the one :class:`Observers` slot, which is ``None`` unless an
:func:`observe` session or the monitors are attached.  So a hook site
costs an unobserved run one ``if self.obs is not None`` test, and each
hook runs what the monitors, the trace and the gauge sampler do at that
program point.

:func:`observe` is how the CLI's ``--trace-out`` / ``--metrics-out``
flags (and the test suite) capture whole runs::

    with observe() as session:
        run_experiments(["cluster-scaling"], fast=True)
    session.write_trace("run.json")
    session.write_metrics("metrics.json")

Any Simulator created *inside* the block gets an EventTrace and gauge
sampling, and the session collects them all for merged export.  A
session with ``tracing=False`` (``--metrics-out`` alone) samples gauges
but keeps only their latest values: the time series feed only the trace
export.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

from ..runmode import active
from ..sim.trace import EventTrace
from .chrome_trace import export_chrome_trace
from .metrics import MetricsRegistry, MetricsSnapshot

#: Attribute names used to attach observability state to a Simulator.
_REGISTRY_ATTR = "_obs_registry"
_SLOT_ATTR = "_observers"

#: Records (and, separately, spans) one session trace keeps per run.
_TRACE_CAPACITY = 1_000_000

#: The active capture session, if any (one at a time; nesting raises).
_active: Optional["ObsSession"] = None


class ObsSession:
    """Collects the registries and traces of every Simulator created
    while the session is active."""

    def __init__(self, tracing: bool = True) -> None:
        self.tracing = tracing
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

    # ------------------------------------------------------------------
    # Artifact output
    # ------------------------------------------------------------------
    def write_metrics(self, path: str) -> None:
        self.metrics_snapshot().write_json(path)

    def write_trace(self, path: str) -> None:
        export_chrome_trace(self.traces, path=path,
                            registry=self.merged_metrics())


class _Untraced:
    """The trace of a slot whose run keeps none (monitors alone): every
    record is dropped and every span handle is None."""

    __slots__ = ()

    def record(self, source: str, event: str, **details: object) -> None:
        pass

    def begin_span(self, source: str, name: str, **details: object):
        return None

    def end_span(self, span, **details: object) -> None:
        pass

    def end_span_at(self, span, delay: int, **details: object) -> None:
        pass


_UNTRACED = _Untraced()


class Observers:
    """The observer slot of one simulator: its trace, whether gauges
    are sampled, and one hook per datapath program point.

    This class records and samples; the hooks only the monitors act on
    are no-ops here.  :class:`repro.check.monitors.InvariantChecker`
    subclasses it and overrides them, so a checked run's slot is the
    checker itself.  Hooks never yield, allocate simulation events or
    touch seeded RNGs.
    """

    def __init__(self, env, trace, sampling_enabled: bool) -> None:
        self.env = env
        #: The simulator's EventTrace (a dropping stand-in when the run
        #: keeps none).
        self.trace = trace
        #: Gauges take time-series samples (only inside a session).
        self.sampling_enabled = sampling_enabled

    # ------------------------------------------------------------------
    # Trace and gauges
    # ------------------------------------------------------------------
    def record(self, source: str, event: str, **details: object) -> None:
        self.trace.record(source, event, **details)

    def begin_span(self, source: str, name: str, **details: object):
        return self.trace.begin_span(source, name, **details)

    def end_span(self, span, **details: object) -> None:
        self.trace.end_span(span, **details)

    def end_span_at(self, span, delay: int, **details: object) -> None:
        self.trace.end_span_at(span, delay, **details)

    def sample(self, gauge, value: float) -> None:
        """One point of ``gauge``'s series (monitors alone take none)."""
        if self.sampling_enabled:
            gauge.sample(self.env.now, value)

    # ------------------------------------------------------------------
    # NIC, retransmission timer and kernel guard
    # ------------------------------------------------------------------
    def on_nic(self, nic) -> None:
        """A NIC was built (its retransmission timer with it)."""

    def on_tx(self, nic, packet, qp=None) -> None:
        """A frame is handed to a NIC's TX path, data and control alike
        (before the powered test: a crashed NIC still consumed its
        PSN)."""

    def on_rx(self, nic, qp, packet) -> None:
        """An uncorrupted frame arrived for a known QP."""

    def on_timer_arm(self, timer, qpn: int) -> None:
        """A retransmission timer is (re)armed for ``qpn``."""

    def on_qp_error(self, nic, qpn: int, reason: str) -> None:
        """``qpn`` finished its error transition."""
        self.trace.record(nic.name, "qp_error", qpn=qpn, reason=reason)

    def on_kernel_dma(self, nic, kernel, cmd) -> None:
        """A guarded kernel's DMA command is about to reach the engine."""

    def on_kernel_serve(self, kernel) -> None:
        """A guarded kernel is about to serve an invocation."""

    def on_kernel_finish(self, kernel) -> None:
        """A guarded invocation completed cleanly."""

    # ------------------------------------------------------------------
    # DMA and the CC pacer
    # ------------------------------------------------------------------
    def on_dma_commit(self, dma, vaddr: int, pieces, length: int) -> None:
        """A DMA write's ``pieces`` are about to land in memory."""

    def on_pacer_idle(self, cc_name: str, qpn: int) -> None:
        """``qpn`` passes its pacer unthrottled."""

    def on_paced(self, cc_name: str, qpn: int, machine, pacer,
                 wire_bytes: int) -> None:
        """A throttled QP's pacer released ``wire_bytes``."""

    # ------------------------------------------------------------------
    # Switch output queues
    # ------------------------------------------------------------------
    def on_switch_enqueue(self, switch, port, packet) -> None:
        """``packet`` entered ``port``'s output queue."""
        port._span_queue.append(self.trace.begin_span(
            port.name, "queued", psn=packet.bth.psn,
            opcode=packet.bth.opcode.name))
        self.sample(port.depth_gauge, len(port.queue))

    def on_switch_drop(self, switch, port, packet) -> None:
        """``port``'s full output queue tail-dropped ``packet``."""

    def on_switch_dequeue(self, switch, port, packet) -> None:
        """``packet`` left ``port``'s output queue."""
        if port._span_queue:
            self.trace.end_span(port._span_queue.popleft())
        self.sample(port.depth_gauge, len(port.queue))


def registry_for(env) -> MetricsRegistry:
    """The simulator's metrics registry (created on first use)."""
    registry = getattr(env, _REGISTRY_ATTR, None)
    if registry is None:
        # A session that does not trace keeps no gauge series: only the
        # Chrome-trace export reads them.
        registry = MetricsRegistry(
            keep_series=_active.tracing if _active else True)
        setattr(env, _REGISTRY_ATTR, registry)
        if _active is not None:
            _active.registries.append(registry)
    return registry


def observers_for(env) -> Optional[Observers]:
    """The simulator's observer slot, or None when nothing observes it.

    A slot appears on first use inside an :func:`observe` session or
    while the run mode turns the monitors on (``REPRO_CHECK``);
    :func:`repro.check.install_monitors` attaches one explicitly.
    Components cache the result at construction.
    """
    slot = getattr(env, _SLOT_ATTR, None)
    if slot is None:
        if active().check:
            from ..check.monitors import InvariantChecker
            slot = install_observers(env, InvariantChecker)
        elif _active is not None:
            slot = install_observers(env, Observers)
    return slot


def install_observers(env, cls) -> Observers:
    """``env``'s slot, created as a ``cls`` (:class:`Observers` or a
    subclass) with the active session's trace and sampling.  Components
    bind the slot at construction, so a slot of another class cannot be
    swapped in later."""
    slot = getattr(env, _SLOT_ATTR, None)
    if slot is not None:
        if not isinstance(slot, cls):
            raise RuntimeError(f"the simulator's observer slot is already "
                               f"a {type(slot).__name__}: attach before "
                               f"building the topology")
        return slot
    trace = _UNTRACED
    if _active is not None and _active.tracing:
        trace = EventTrace(env, capacity=_TRACE_CAPACITY)
        _active.traces.append(trace)
    slot = cls(env, trace, _active is not None)
    setattr(env, _SLOT_ATTR, slot)
    return slot


@contextmanager
def observe(tracing: bool = True):
    """Capture every simulation built inside the ``with`` block."""
    global _active
    if _active is not None:
        raise RuntimeError("an observe() session is already active")
    session = ObsSession(tracing=tracing)
    _active = session
    try:
        yield session
    finally:
        _active = None

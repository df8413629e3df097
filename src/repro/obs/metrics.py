"""The metrics registry: named instruments with hierarchical names.

Modelled on RecoNIC's per-block statistics registers: every component
registers its counters under a dotted hierarchical name
(``h0.nic.retransmits``, ``star.sw0.p2.tail_drops``) in one
per-simulation :class:`MetricsRegistry`, and a whole run can be dumped,
diffed against an earlier snapshot, or merged across shards with plain
dictionary semantics.

Two instrument kinds:

- :class:`Counter` — monotonically increasing (packets, bytes, drops);
- :class:`Gauge` — a level (queue depth, window occupancy) with an
  optional sampled time series for the Chrome-trace counter tracks.

Registration is create-or-get: asking twice for the same name and kind
returns the same instrument (so two components that legitimately share
a name share the instrument), while asking for an existing name with a
*different* kind raises :class:`MetricsError` — a name can never mean
two things.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple


class MetricsError(ValueError):
    """Name collision between instruments of different kinds."""


class Instrument:
    """Base class: a named measurement owned by one registry."""

    kind = "instrument"
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("instrument name must be non-empty")
        self.name = name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Counter(Instrument):
    """A monotonically increasing counter."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"<Counter {self.name!r}={self.value}>"


class Gauge(Instrument):
    """A level that moves both ways, with an optional sampled series.

    :meth:`set` updates the current value; :meth:`sample` additionally
    appends a ``(time_ps, value)`` point to the time series unless the
    gauge was built with ``keep_series=False`` (its registry's setting:
    only a trace export reads the series).  Datapath gauges are sampled
    through the simulator's observer slot
    (:meth:`repro.obs.runtime.Observers.sample`), so the series costs
    nothing when no session observes the run.
    """

    kind = "gauge"
    __slots__ = ("value", "series", "keep_series")

    def __init__(self, name: str, keep_series: bool = True) -> None:
        super().__init__(name)
        self.value = 0.0
        self.series: List[Tuple[int, float]] = []
        self.keep_series = keep_series

    def set(self, value: float) -> None:
        self.value = value

    def sample(self, time_ps: int, value: float) -> None:
        """Update the value and record one time-series point."""
        self.value = value
        if self.keep_series:
            self.series.append((time_ps, value))

    def __repr__(self) -> str:
        return f"<Gauge {self.name!r}={self.value} " \
               f"({len(self.series)} samples)>"


class MetricsSnapshot:
    """A frozen flat-dict view of a registry at one point in time.

    Keys are instrument names; values are plain numbers, so a snapshot
    serializes directly to JSON.
    """

    def __init__(self, values: Dict[str, float]) -> None:
        self._values = values

    def as_flat_dict(self) -> Dict[str, float]:
        """Flat ``name -> number`` dict, keys sorted."""
        return {k: self._values[k] for k in sorted(self._values)}

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def get(self, name: str, default: float = 0) -> float:
        return self._values.get(name, default)

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, no whitespace surprises)."""
        return json.dumps(self.as_flat_dict(), indent=2, sort_keys=True) \
            + "\n"

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())


class MetricsRegistry:
    """A namespace of instruments for one simulation.

    ``keep_series=False`` makes the registry's gauges keep only their
    latest sampled value, not the time series.
    """

    def __init__(self, name: str = "", keep_series: bool = True) -> None:
        self.name = name
        self.keep_series = keep_series
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    # Registration (create-or-get)
    # ------------------------------------------------------------------
    def _register(self, name: str, cls, **options) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricsError(
                    f"{name!r} is already a {existing.kind}, cannot "
                    f"re-register as {cls.kind}")
            return existing
        instrument = cls(name, **options)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._register(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._register(name, Gauge, keep_series=self.keep_series)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __iter__(self):
        """Instruments in name order (deterministic exports)."""
        for name in sorted(self._instruments):
            yield self._instruments[name]

    def sampled_gauges(self) -> List[Gauge]:
        """Gauges that collected at least one time-series point."""
        return [inst for inst in self
                if isinstance(inst, Gauge) and inst.series]

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot({inst.name: inst.value for inst in self})

    @classmethod
    def merge(cls, registries: Iterable["MetricsRegistry"],
              name: str = "", series: bool = True) -> "MetricsRegistry":
        """Combine several registries (per-shard, per-host) into one.

        Same-named counters sum, and gauges keep the maximum level (the
        natural cluster-wide reading for depths and windows) and, with
        ``series``, every sampled point in time order.  A name carrying
        different kinds in different registries raises
        :class:`MetricsError`.  The result owns copies; mutating the
        inputs afterwards does not affect it.
        """
        merged = cls(name, keep_series=series)
        for registry in registries:
            for inst in registry:
                if isinstance(inst, Counter):
                    merged.counter(inst.name).add(inst.value)
                else:
                    target = merged.gauge(inst.name)
                    target.set(max(target.value, inst.value))
                    if series:
                        target.series.extend(inst.series)
        for gauge in merged.sampled_gauges():
            gauge.series.sort(key=lambda point: point[0])
        return merged

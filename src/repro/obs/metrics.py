"""The metrics registry: named instruments with hierarchical names.

Modelled on RecoNIC's per-block statistics registers: every component
registers its counters under a dotted hierarchical name
(``h0.nic.retransmits``, ``star.sw0.p2.tail_drops``) in one
per-simulation :class:`MetricsRegistry`, and a whole run can be dumped,
diffed against an earlier snapshot, or merged across shards with plain
dictionary semantics.

Three instrument kinds:

- :class:`Counter` — monotonically increasing (packets, bytes, drops);
- :class:`Gauge` — a level (queue depth, window occupancy) with an
  optional sampled time series for the Chrome-trace counter tracks;
- :class:`Histogram` — a value distribution whose percentiles agree
  exactly with :func:`repro.sim.stats.percentile`.

Registration is create-or-get: asking twice for the same name and kind
returns the same instrument (so two components that legitimately share
a name share the instrument), while asking for an existing name with a
*different* kind raises :class:`MetricsError` — a name can never mean
two things.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.stats import percentile

#: Percentiles exported for every histogram in a snapshot.
HISTOGRAM_PERCENTILES = (0.50, 0.99)


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
    only a trace export reads the series).  Call sites on hot paths
    guard the sample with the owning registry's ``sampling_enabled``
    flag so the series costs nothing when off.
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


class Histogram(Instrument):
    """A value distribution; percentiles match ``sim.stats.percentile``."""

    kind = "histogram"
    __slots__ = ("values",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.values: List[float] = []

    def record(self, value: float) -> None:
        self.values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self.values.extend(values)

    def __len__(self) -> int:
        return len(self.values)

    def percentile(self, fraction: float) -> float:
        if not self.values:
            raise ValueError(f"no values recorded for {self.name!r}")
        return percentile(sorted(self.values), fraction)

    def percentiles(self, fractions: Iterable[float]) -> Dict[float, float]:
        if not self.values:
            raise ValueError(f"no values recorded for {self.name!r}")
        ordered = sorted(self.values)
        return {f: percentile(ordered, f) for f in fractions}


class MetricsSnapshot:
    """A frozen flat-dict view of a registry at one point in time.

    Keys are instrument names (histograms flatten into ``name.count``,
    ``name.min`` … ``name.p99``); values are plain numbers, so a
    snapshot serializes directly to JSON and diffs with dictionary
    arithmetic.
    """

    def __init__(self, values: Dict[str, float],
                 monotonic: Dict[str, bool]) -> None:
        self._values = dict(values)
        self._monotonic = dict(monotonic)

    def as_flat_dict(self) -> Dict[str, float]:
        """Flat ``name -> number`` dict, keys sorted."""
        return {k: self._values[k] for k in sorted(self._values)}

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def get(self, name: str, default: float = 0) -> float:
        return self._values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self._values == other._values

    def diff(self, older: "MetricsSnapshot") -> "MetricsSnapshot":
        """The change since ``older``: monotonic entries (counters,
        histogram counts/sums) subtract; levels keep the newer value."""
        values = {}
        for name, value in self._values.items():
            if self._monotonic.get(name):
                values[name] = value - older.get(name, 0)
            else:
                values[name] = value
        return MetricsSnapshot(values, self._monotonic)

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, no whitespace surprises)."""
        return json.dumps(self.as_flat_dict(), indent=2, sort_keys=True) \
            + "\n"

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())


class MetricsRegistry:
    """A namespace of instruments for one simulation.

    ``sampling_enabled`` gates gauge sampling; call sites check it
    before calling :meth:`Gauge.sample`, so disabled sampling costs one
    attribute load and a branch.  ``keep_series=False`` makes the
    registry's gauges keep only their latest sampled value, not the
    time series.
    """

    def __init__(self, name: str = "", sampling_enabled: bool = False,
                 keep_series: bool = True) -> None:
        self.name = name
        self.sampling_enabled = sampling_enabled
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

    def histogram(self, name: str) -> Histogram:
        return self._register(name, Histogram)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        """Instruments in name order (deterministic exports)."""
        for name in sorted(self._instruments):
            yield self._instruments[name]

    def instruments(self, prefix: str = "") -> List[Instrument]:
        """All instruments whose name starts with ``prefix``, sorted."""
        return [inst for inst in self if inst.name.startswith(prefix)]

    def sampled_gauges(self) -> List[Gauge]:
        """Gauges that collected at least one time-series point."""
        return [inst for inst in self
                if isinstance(inst, Gauge) and inst.series]

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        values: Dict[str, float] = {}
        monotonic: Dict[str, bool] = {}
        for inst in self:
            if isinstance(inst, Counter):
                values[inst.name] = inst.value
                monotonic[inst.name] = True
            elif isinstance(inst, Gauge):
                values[inst.name] = inst.value
                monotonic[inst.name] = False
            else:
                assert isinstance(inst, Histogram)
                values[f"{inst.name}.count"] = len(inst.values)
                monotonic[f"{inst.name}.count"] = True
                if inst.values:
                    values[f"{inst.name}.sum"] = sum(inst.values)
                    monotonic[f"{inst.name}.sum"] = True
                    values[f"{inst.name}.min"] = min(inst.values)
                    values[f"{inst.name}.max"] = max(inst.values)
                    pct = inst.percentiles(HISTOGRAM_PERCENTILES)
                    for fraction, value in pct.items():
                        key = f"{inst.name}.p{int(fraction * 100):02d}"
                        values[key] = value
        return MetricsSnapshot(values, monotonic)

    @classmethod
    def merge(cls, registries: Iterable["MetricsRegistry"],
              name: str = "", series: bool = True) -> "MetricsRegistry":
        """Combine several registries (per-shard, per-host) into one.

        Same-named counters sum, histograms pool their values, and
        gauges keep the maximum level (the natural cluster-wide reading
        for depths and windows) and, with ``series``, every sampled
        point in time order.  A name carrying different kinds in
        different registries raises :class:`MetricsError`.  The result
        owns copies; mutating the inputs afterwards does not affect it.
        """
        merged = cls(name, keep_series=series)
        for registry in registries:
            for inst in registry:
                if isinstance(inst, Counter):
                    merged.counter(inst.name).add(inst.value)
                elif isinstance(inst, Gauge):
                    target = merged.gauge(inst.name)
                    target.set(max(target.value, inst.value))
                    if series:
                        target.series.extend(inst.series)
                else:
                    merged.histogram(inst.name).extend(inst.values)
        for gauge in merged.sampled_gauges():
            gauge.series.sort(key=lambda point: point[0])
        return merged

"""Measurement helpers: latency probes and percentile summaries.

The paper reports median latency with 1st/99th-percentile whiskers
(Figures 5, 7, 8, 9, 12).  :class:`LatencySample` collects individual
measurements from repeated simulated operations and produces exactly those
summary statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List

from . import timebase


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Linear-interpolation percentile of an already-sorted list."""
    if not sorted_values:
        raise ValueError("percentile of empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = fraction * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


@dataclass(frozen=True)
class LatencySummary:
    """Median and whisker statistics of a latency sample, in microseconds."""

    count: int
    median_us: float
    p01_us: float
    p99_us: float
    mean_us: float
    min_us: float
    max_us: float

class LatencySample:
    """Accumulates latency measurements (picoseconds) and summarizes them."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values_ps: List[int] = []

    def record(self, latency_ps: int) -> None:
        if latency_ps < 0:
            raise ValueError("negative latency")
        self._values_ps.append(latency_ps)

    def __len__(self) -> int:
        return len(self._values_ps)

    @classmethod
    def merge(cls, samples: Iterable["LatencySample"],
              name: str = "") -> "LatencySample":
        """Combine several samples (per-client, per-shard) into one.

        The result owns a copy of every measurement, so mutating the
        inputs afterwards does not affect it.  Merging preserves nothing
        about ordering — only the distribution matters for percentiles.
        """
        merged = cls(name)
        for sample in samples:
            merged._values_ps.extend(sample._values_ps)
        return merged

    def percentiles(self, fractions: Iterable[float]) -> Dict[float, float]:
        """Arbitrary percentiles (in microseconds) of the sample.

        ``fractions`` is a list like ``[0.50, 0.95, 0.99]``; each must be
        within [0, 1].  One sort serves the whole list.
        """
        if not self._values_ps:
            raise ValueError(f"no measurements recorded for {self.name!r}")
        values = sorted(timebase.to_micros(v) for v in self._values_ps)
        return {fraction: percentile(values, fraction)
                for fraction in fractions}

    def summary(self) -> LatencySummary:
        if not self._values_ps:
            raise ValueError(f"no measurements recorded for {self.name!r}")
        values = sorted(timebase.to_micros(v) for v in self._values_ps)
        return LatencySummary(
            count=len(values),
            median_us=percentile(values, 0.50),
            p01_us=percentile(values, 0.01),
            p99_us=percentile(values, 0.99),
            mean_us=sum(values) / len(values),
            min_us=values[0],
            max_us=values[-1],
        )

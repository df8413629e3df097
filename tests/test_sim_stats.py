"""Unit tests for the measurement helpers."""

import pytest

from repro.obs.metrics import Counter
from repro.sim import US, LatencySample, percentile


def test_percentile_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == 2.5


def test_percentile_single_value():
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_latency_sample_summary():
    sample = LatencySample("writes")
    for value in [1 * US, 2 * US, 3 * US, 4 * US, 5 * US]:
        sample.record(value)
    summary = sample.summary()
    assert summary.count == 5
    assert summary.median_us == 3.0
    assert summary.min_us == 1.0
    assert summary.max_us == 5.0
    assert summary.mean_us == 3.0
    assert summary.p01_us < summary.median_us < summary.p99_us


def test_latency_sample_rejects_negative():
    sample = LatencySample()
    with pytest.raises(ValueError):
        sample.record(-1)


def test_latency_sample_empty_summary():
    with pytest.raises(ValueError):
        LatencySample().summary()


def test_latency_sample_merge():
    a = LatencySample("a")
    for value in [1 * US, 3 * US]:
        a.record(value)
    b = LatencySample("b")
    b.record(2 * US)
    merged = LatencySample.merge([a, b], name="both")
    assert merged.name == "both"
    assert len(merged) == 3
    assert merged.summary().median_us == 2.0
    # Sources are untouched and the merged copy is independent.
    assert len(a) == 2 and len(b) == 1
    merged.record(4 * US)
    assert len(a) == 2


def test_latency_sample_merge_empty():
    merged = LatencySample.merge([])
    assert len(merged) == 0
    with pytest.raises(ValueError):
        merged.summary()
    with pytest.raises(ValueError):
        merged.percentiles([0.5])


def test_latency_sample_percentiles_configurable():
    sample = LatencySample()
    for value in [1 * US, 2 * US, 3 * US, 4 * US]:
        sample.record(value)
    pct = sample.percentiles([0.0, 0.5, 0.9, 1.0])
    assert pct[0.0] == 1.0
    assert pct[0.5] == 2.5  # interpolated, matching percentile()
    assert pct[1.0] == 4.0
    assert pct[0.5] < pct[0.9] < pct[1.0]


def test_counter():
    counter = Counter("packets")
    counter.add()
    counter.add(4)
    assert int(counter) == 5
    with pytest.raises(ValueError):
        counter.add(-1)

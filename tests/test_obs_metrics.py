"""Tests for the metrics registry: instruments, snapshots, merge."""

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    MetricsError,
    MetricsRegistry,
    observers_for,
    registry_for,
)
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------

def test_counter_is_monotonic():
    c = Counter("nic0.pkts")
    c.add()
    c.add(4)
    assert c.value == 5
    assert int(c) == 5
    with pytest.raises(ValueError):
        c.add(-1)


def test_gauge_set_vs_sample():
    g = Gauge("sw0.p1.queue_depth")
    g.set(3)
    assert g.value == 3
    assert g.series == []
    g.sample(1000, 7)
    g.sample(2000, 2)
    assert g.value == 2
    assert g.series == [(1000, 7), (2000, 2)]


def test_instrument_requires_name():
    with pytest.raises(ValueError):
        Counter("")


# ---------------------------------------------------------------------------
# Registration semantics
# ---------------------------------------------------------------------------

def test_create_or_get_returns_shared_instrument():
    reg = MetricsRegistry()
    a = reg.counter("nic0.qp3.retransmits")
    b = reg.counter("nic0.qp3.retransmits")
    assert a is b
    a.add()
    assert b.value == 1
    assert len(reg) == 1


def test_kind_collision_raises():
    reg = MetricsRegistry()
    reg.counter("x.depth")
    with pytest.raises(MetricsError):
        reg.gauge("x.depth")
    # the original registration survives the failed re-registration
    assert reg.get("x.depth").kind == "counter"


def test_prefix_lookup_is_sorted():
    reg = MetricsRegistry()
    reg.counter("nic0.qp2.retransmits")
    reg.counter("nic0.qp1.retransmits")
    reg.counter("nic1.qp1.retransmits")
    names = [i.name for i in reg.instruments("nic0.")]
    assert names == ["nic0.qp1.retransmits", "nic0.qp2.retransmits"]
    assert len(reg.instruments()) == 3


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def _loaded_registry():
    reg = MetricsRegistry()
    reg.counter("nic0.pkts_tx").add(10)
    reg.gauge("sw0.p0.queue_depth").set(4)
    return reg


def test_snapshot_is_a_sorted_flat_dict():
    reg = _loaded_registry()
    reg.counter("a.first").add(1)
    flat = reg.snapshot().as_flat_dict()
    assert flat == {"a.first": 1, "nic0.pkts_tx": 10,
                    "sw0.p0.queue_depth": 4}
    assert list(flat) == sorted(flat)


def test_snapshot_diff_subtracts_monotonic_keeps_levels():
    reg = _loaded_registry()
    older = reg.snapshot()
    reg.counter("nic0.pkts_tx").add(5)
    reg.gauge("sw0.p0.queue_depth").set(1)
    delta = reg.snapshot().diff(older)
    assert delta["nic0.pkts_tx"] == 5
    assert delta["sw0.p0.queue_depth"] == 1  # level: newer value


def test_snapshot_json_round_trip(tmp_path):
    snap = _loaded_registry().snapshot()
    path = tmp_path / "metrics.json"
    snap.write_json(str(path))
    loaded = json.loads(path.read_text())
    assert loaded == snap.as_flat_dict()
    # deterministic: a second serialization is byte-identical
    assert snap.to_json() == _loaded_registry().snapshot().to_json()


def test_snapshot_equality():
    assert _loaded_registry().snapshot() == _loaded_registry().snapshot()
    other = _loaded_registry()
    other.counter("nic0.pkts_tx").add()
    assert other.snapshot() != _loaded_registry().snapshot()


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------

def test_merge_sums_counters_maxes_gauges():
    a = MetricsRegistry()
    a.counter("nic.retransmits").add(2)
    a.gauge("sw.depth").sample(100, 5)
    b = MetricsRegistry()
    b.counter("nic.retransmits").add(3)
    b.gauge("sw.depth").sample(50, 2)
    b.counter("only_b").add(1)

    merged = MetricsRegistry.merge([a, b], name="all")
    assert merged.counter("nic.retransmits").value == 5
    assert merged.counter("only_b").value == 1
    gauge = merged.gauge("sw.depth")
    assert gauge.value == 5  # max level
    assert gauge.series == [(50, 2), (100, 5)]  # time-sorted
    # merge owns copies: mutating an input does not leak in
    a.counter("nic.retransmits").add(100)
    assert merged.counter("nic.retransmits").value == 5


def test_merge_kind_collision_raises():
    a = MetricsRegistry()
    a.counter("x")
    b = MetricsRegistry()
    b.gauge("x")
    with pytest.raises(MetricsError):
        MetricsRegistry.merge([a, b])


# ---------------------------------------------------------------------------
# Per-simulator attachment
# ---------------------------------------------------------------------------

def test_registry_for_is_per_simulator():
    env1, env2 = Simulator(), Simulator()
    reg1 = registry_for(env1)
    assert registry_for(env1) is reg1
    assert registry_for(env2) is not reg1
    # sampling is off outside an observe() session
    slot = observers_for(env1)
    assert slot is None or not slot.sampling_enabled


# ---------------------------------------------------------------------------
# Sessions without tracing keep no series
# ---------------------------------------------------------------------------

def _observed_transfer(tracing):
    from repro.host import build_fabric
    from repro.obs import observe

    with observe(tracing=tracing) as session:
        env = Simulator()
        fabric = build_fabric(env)
        size = 64 * 1024
        src = fabric.client.alloc(size, "src")
        dst = fabric.server.alloc(size, "dst")
        fabric.client.space.write(src.vaddr, b"s" * size)
        for _ in range(3):
            env.run_until_complete(env.process(fabric.client.write_sync(
                fabric.client_qpn, src.vaddr, dst.vaddr, size)))
    return session


def test_untraced_session_keeps_no_series_and_same_snapshot():
    traced = _observed_transfer(tracing=True)
    untraced = _observed_transfer(tracing=False)
    traced_gauges = [g for r in traced.registries for g in r
                     if isinstance(g, Gauge)]
    untraced_gauges = [g for r in untraced.registries for g in r
                       if isinstance(g, Gauge)]
    assert any(g.series for g in traced_gauges)
    assert untraced_gauges and not any(g.series for g in untraced_gauges)
    # Sampling still ran: the latest values are the traced run's.
    assert [g.value for g in untraced_gauges] \
        == [g.value for g in traced_gauges]
    assert untraced.metrics_snapshot().to_json() \
        == traced.metrics_snapshot().to_json()
    assert not untraced.merged_metrics().sampled_gauges()


def test_merge_without_series_keeps_levels_only():
    a = MetricsRegistry()
    a.gauge("sw.depth").sample(100, 5)
    merged = MetricsRegistry.merge([a], series=False)
    gauge = merged.gauge("sw.depth")
    assert gauge.value == 5 and gauge.series == []
    gauge.sample(200, 1)
    assert gauge.series == [] and gauge.value == 1

"""Tests for spans, the Chrome trace exporter, and whole-run capture."""

import json

import pytest

from repro.cluster.topology import build_star
from repro.experiments import cluster_scaling
from repro.experiments.cluster_scaling import run_cluster_point
from repro.obs import chrome_trace_events, export_chrome_trace, observe
from repro.obs.runtime import observers_for
from repro.runmode import override
from repro.sim import MS, US, EventTrace, Simulator


# ---------------------------------------------------------------------------
# Span invariants
# ---------------------------------------------------------------------------

def test_span_begin_end_duration():
    env = Simulator()
    trace = EventTrace(env)

    def proc():
        span = trace.begin_span("dma", "read", vaddr=64)
        yield env.timeout(3 * US)
        trace.end_span(span, length=256)

    env.run_until_complete(env.process(proc()))
    (span,) = trace.spans
    assert not span.is_open
    assert span.source == "dma"
    assert span.name == "read"
    assert span.begin_ps == 0
    assert span.duration_ps == 3 * US
    assert span.details == {"vaddr": 64, "length": 256}


def test_span_double_end_raises():
    env = Simulator()
    trace = EventTrace(env)
    span = trace.begin_span("s", "n")
    trace.end_span(span)
    with pytest.raises(ValueError):
        trace.end_span(span)
    # ending a capacity-overflow (None) handle is a silent no-op
    trace.end_span(None)


def test_span_capacity_bound():
    env = Simulator()
    trace = EventTrace(env, capacity=2)
    handles = [trace.begin_span("s", "n") for _ in range(4)]
    assert handles[2] is None and handles[3] is None
    assert len(trace.spans) == 2
    assert trace.dropped == 2


def test_nested_spans_keep_ordering():
    """Spans begun later must begin at or after their parents, and the
    span list preserves begin order — the invariant the exporter's
    stable sort relies on."""
    env = Simulator()
    trace = EventTrace(env)

    def proc():
        outer = trace.begin_span("qp", "tx_message")
        yield env.timeout(1 * US)
        inner = trace.begin_span("dma", "read")
        yield env.timeout(1 * US)
        trace.end_span(inner)
        yield env.timeout(1 * US)
        trace.end_span(outer)

    env.run_until_complete(env.process(proc()))
    outer, inner = trace.spans
    assert outer.begin_ps <= inner.begin_ps
    assert inner.end_ps <= outer.end_ps
    assert outer.duration_ps == 3 * US
    assert inner.duration_ps == 1 * US


# ---------------------------------------------------------------------------
# Chrome trace-event schema
# ---------------------------------------------------------------------------

def _synthetic_trace(env):
    trace = EventTrace(env)

    def proc():
        span = trace.begin_span("nic0.qp1", "tx_message", psn=0)
        yield env.timeout(2 * US)
        trace.record("nic0", "ack", psn=0)
        trace.end_span(span)
        trace.begin_span("nic0.dma", "read")  # stays open

    env.run_until_complete(env.process(proc()))
    return trace


def test_chrome_events_schema():
    env = Simulator()
    events = chrome_trace_events(_synthetic_trace(env))
    metadata = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(complete) == 1  # the open span is skipped
    assert len(instants) == 1

    (span,) = complete
    assert span["name"] == "tx_message"
    assert span["cat"] == "nic0.qp1"
    assert span["ts"] == 0.0
    assert span["dur"] == 2.0  # microseconds
    assert span["pid"] == 1
    assert isinstance(span["tid"], int)
    assert span["args"] == {"psn": 0}

    (instant,) = instants
    assert instant["name"] == "ack"
    assert instant["ts"] == 2.0
    assert instant["s"] == "t"

    # every tid used by an event is announced by thread_name metadata
    announced = {m["tid"] for m in metadata}
    assert {e["tid"] for e in complete + instants} <= announced
    names = {m["args"]["name"] for m in metadata}
    assert "nic0.qp1" in names and "nic0" in names

    # events are time-ordered after the metadata block
    timestamps = [e["ts"] for e in events if e["ph"] != "M"]
    assert timestamps == sorted(timestamps)


def test_chrome_export_golden_document(tmp_path):
    """Golden-file check: the exported document for a fixed synthetic
    trace is exactly this JSON, and it round-trips through json.loads."""
    env = Simulator()
    trace = EventTrace(env)

    def proc():
        span = trace.begin_span("src", "work")
        yield env.timeout(1 * US)
        trace.end_span(span)

    env.run_until_complete(env.process(proc()))
    path = tmp_path / "trace.json"
    document = export_chrome_trace(trace, path=str(path))
    golden = {
        "displayTimeUnit": "ns",
        "traceEvents": [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0,
             "args": {"name": "src"}},
            {"ph": "X", "name": "work", "cat": "src", "ts": 0.0,
             "dur": 1.0, "pid": 1, "tid": 0, "args": {}},
        ],
    }
    assert document == golden
    assert json.loads(path.read_text()) == golden
    # deterministic serialization: re-export is byte-identical
    first = path.read_text()
    export_chrome_trace(trace, path=str(path))
    assert path.read_text() == first


def test_counter_tracks_from_sampled_gauges():
    from repro.obs import MetricsRegistry
    env = Simulator()
    trace = EventTrace(env)
    registry = MetricsRegistry()
    registry.gauge("sw0.p0.queue_depth").sample(0, 1)
    registry.gauge("sw0.p0.queue_depth").sample(1_000_000, 3)
    events = chrome_trace_events(trace, registry=registry)
    counters = [e for e in events if e["ph"] == "C"]
    assert [(c["ts"], c["args"]["value"]) for c in counters] == \
        [(0.0, 1), (1.0, 3)]
    assert all(c["name"] == "sw0.p0.queue_depth" for c in counters)


# ---------------------------------------------------------------------------
# Whole-run capture: the acceptance scenario
# ---------------------------------------------------------------------------

def _tiny_cluster_point():
    return run_cluster_point(1, offered_per_shard=40_000.0,
                             window_ps=MS // 2, get_path="strom", seed=3)


def test_observe_captures_cluster_run(tmp_path):
    """A seeded cluster run under observe() must produce spans from at
    least four distinct component kinds (QP, DMA, switch queue, kernel)
    and a snapshot carrying nic, roce-timer, link, and switch counters."""
    with observe() as session:
        _tiny_cluster_point()

    path = tmp_path / "trace.json"
    session.write_trace(str(path))
    document = json.loads(path.read_text())
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    sources = {e["cat"] for e in spans}
    assert any(".qp" in s for s in sources), sources
    assert any(s.endswith(".dma") for s in sources), sources
    assert any(e["name"] == "queued" for e in spans), sources
    assert any(".kernel." in s for s in sources), sources

    snapshot = session.metrics_snapshot()
    flat = snapshot.as_flat_dict()
    assert any(k.endswith(".nic.pkts_tx") for k in flat)
    assert any(k.endswith(".timer.expirations") for k in flat)
    assert any(k.endswith(".utilization") for k in flat)  # link gauge
    assert any(".sw0." in k and k.endswith(".in") for k in flat)
    assert any(k.endswith(".qps.created") for k in flat)

    # artifacts parse back
    trace_path = tmp_path / "run.json"
    metrics_path = tmp_path / "metrics.json"
    session.write_trace(str(trace_path))
    session.write_metrics(str(metrics_path))
    assert json.loads(trace_path.read_text())["traceEvents"]
    assert json.loads(metrics_path.read_text()) == flat


def test_observe_nesting_rejected():
    with observe():
        with pytest.raises(RuntimeError):
            with observe():
                pass  # pragma: no cover


def test_observed_runs_are_deterministic(tmp_path):
    """Two identical seeded cluster runs export byte-identical metrics
    snapshots and Chrome traces."""
    outputs = []
    for i in range(2):
        with observe() as session:
            _tiny_cluster_point()
        trace_path = tmp_path / f"trace{i}.json"
        metrics_path = tmp_path / f"metrics{i}.json"
        session.write_trace(str(trace_path))
        session.write_metrics(str(metrics_path))
        outputs.append((trace_path.read_bytes(),
                        metrics_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_unobserved_runs_attach_no_trace(monkeypatch):
    """Outside observe() (and without monitors), components see no
    observer slot — the disabled-mode invariant the overhead guard in
    benchmarks/bench_engine.py depends on."""
    built = []

    def build_and_keep(*args, **kwargs):
        built.append(build_star(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(cluster_scaling, "build_star", build_and_keep)
    with override(check=False):
        report = _tiny_cluster_point()
        (cluster,) = built
        assert report.completed > 0
        assert observers_for(cluster.env) is None
        components = ([host.nic for host in cluster.hosts]
                      + [host.nic.dma for host in cluster.hosts]
                      + cluster.switches
                      + list(cluster.access_cables.values()))
        assert components
        assert all(component.obs is None for component in components)

"""Figure 5: 10 G StRoM NIC microbenchmarks (latency, throughput,
message rate)."""

from conftest import attach_rows

from repro.config import NIC_10G
from repro.experiments import (
    latency_experiment,
    message_rate_experiment,
    throughput_experiment,
)


def test_fig5a_latency(benchmark):
    result = benchmark.pedantic(
        lambda: latency_experiment(NIC_10G, iterations=20),
        rounds=1, iterations=1)
    attach_rows(benchmark, result)
    writes = [row["write_med_us"] for row in result.rows]
    reads = [row["read_med_us"] for row in result.rows]
    payloads = [row["payload_B"] for row in result.rows]
    # Shape: read costs more than write (full RTT + PCIe fetch vs RTT/2);
    # latency grows with payload.
    for write_us, read_us in zip(writes, reads):
        assert write_us < read_us
    assert writes == sorted(writes)
    assert reads == sorted(reads)
    # Magnitudes: single-digit microseconds at 10 G (Figure 5a's axis).
    assert 1.0 < writes[0] < 6.0
    assert 2.0 < reads[0] < 8.0
    assert payloads[0] == 64


def test_fig5b_throughput(benchmark):
    result = benchmark.pedantic(lambda: throughput_experiment(NIC_10G),
                                rounds=1, iterations=1)
    attach_rows(benchmark, result)
    rows = result.rows
    # Peak: the theoretical 9.4 Gbit/s of RoCE v2 over 10 G (MTU 1500).
    peak = rows[-1]["write_gbps"]
    assert 9.3 < peak < 9.6
    # Small messages are message-rate bound, far below line rate.
    assert rows[0]["write_gbps"] < 0.6 * peak
    # Monotone non-decreasing in payload size.
    write_curve = [r["write_gbps"] for r in rows]
    assert all(b >= a * 0.99 for a, b in zip(write_curve, write_curve[1:]))


def test_fig5c_message_rate(benchmark):
    result = benchmark.pedantic(lambda: message_rate_experiment(NIC_10G),
                                rounds=1, iterations=1)
    attach_rows(benchmark, result)
    rows = result.rows
    # ~7-8 M msg/s at 64 B (the ideal line of Figure 5c tops near 8).
    assert 6.5 < rows[0]["write_mops"] < 8.5
    # At 10 G the wire, not the host, is the limit (Section 6.1).
    assert all(r["bottleneck"] == "wire" for r in rows)
    # Rate falls with payload size.
    rates = [r["write_mops"] for r in rows]
    assert rates == sorted(rates, reverse=True)

"""Incast collapse and recovery: N:1 fan-in with ECN/DCQCN off vs on.

Not a paper figure (the StRoM testbed is switchless); this regenerates
the ``incast-sweep`` experiment's qualitative claim — uncontrolled
incast collapses into go-back-N retransmission storms, and the
congestion-control plane recovers most of the bottleneck line rate.
The conftest ``cc_activity_report`` fixture echoes the plane's counter
delta (CE marks / CNPs / rate cuts / paced packets) for this scenario.
"""

from conftest import attach_rows

from repro.experiments.incast_sweep import incast_sweep_experiment


def test_incast_cc_off_vs_on(benchmark):
    """8:1 fan-in: CC-on must at least double CC-off goodput with a
    lower p99 and fewer tail-drops (``tests/test_golden.py`` asserts
    the same shape on the golden incast-sweep rows)."""
    result = benchmark.pedantic(
        lambda: incast_sweep_experiment(sender_counts=(2, 8), seed=7,
                                        messages=40),
        rounds=1, iterations=1)
    attach_rows(benchmark, result)
    rows = {(row["senders"], row["cc"]): row for row in result.rows}
    off, on = rows[(8, 0)], rows[(8, 1)]
    assert on["goodput_gbps"] >= 2.0 * off["goodput_gbps"]
    assert on["p99_us"] < off["p99_us"]
    assert on["tail_drops"] < off["tail_drops"]
    assert on["qp_errors"] == 0
    # At 2:1 the bottleneck is barely oversubscribed: the plane must
    # not tax the uncongested case into a regression.
    assert rows[(2, 1)]["goodput_gbps"] >= rows[(2, 0)]["goodput_gbps"]

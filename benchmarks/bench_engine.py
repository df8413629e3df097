#!/usr/bin/env python
"""Events/s microbenchmark for the discrete-event engine.

Standalone script (not a pytest-benchmark file): CI runs it directly so a
regression in the engine fast paths fails the build even when simulated
results stay correct.

Scenarios
---------
``timeout_loop``
    One process yielding N timeouts: pure heap + generator dispatch cost.
``stream_pingpong``
    Producer ``put`` + 1 ps timeout, consumer ``get`` over a capacity-8
    Stream: the per-item hand-off pattern every pipeline stage uses.
``pingpong_obs_off``
    ``stream_pingpong`` with the observability hook the instrumented
    components carry — the ``obs is not None`` guard on every item —
    while *no* obs session is active.  This is the cost every
    simulation now pays; the ``--obs-threshold`` guard (default 5 %)
    fails the run if it falls more than that below plain
    ``stream_pingpong``.
``pingpong_obs_on``
    The same loop inside ``repro.obs.observe()``: every item opens and
    closes a span and samples a gauge.  Reported for scale — tracing is
    opt-in, so this rate carries no guard beyond the baseline check.
``rdma_write_256k`` / ``rdma_read_256k``
    End-to-end 256 KiB RDMA WRITE/READ over the two-node 100 G fabric,
    reported in *payload bytes per wall-second*: the large-message gate
    of the zero-copy payload plane.  The payload-plane counters are
    printed per scenario — the clean path must show zero per-hop copy
    bytes.

Usage::

    python benchmarks/bench_engine.py             # full measurement
    python benchmarks/bench_engine.py --smoke     # quick run + regression
                                                  # check vs the baseline
    python benchmarks/bench_engine.py --update-baseline

The checked-in baseline (``bench_engine_baseline.json``) records each
scenario's rate on the *reference host* of ``perfbench/speed.py``: every
repeat of a scenario runs between speed probes, and the best host rate
is divided by the probes' :func:`speed.scale`, so a slower or busier
host reads the same rate as a fast idle one.  It also keeps the rate of
the pre-fast-path ("seed") engine on ``stream_pingpong`` for the
speedup column.  ``--smoke`` exits non-zero if any scenario's
reference-host rate drops more than ``--threshold`` (default 30 %)
below its baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "perfbench"))

from repro.config import NIC_100G  # noqa: E402
from repro.core.payload import PAYLOAD_STATS  # noqa: E402
from repro.host import build_fabric  # noqa: E402
from repro.obs import observe, observers_for, registry_for  # noqa: E402
from repro.runmode import override  # noqa: E402
from repro.sim.channels import Stream  # noqa: E402
from repro.sim.core import Simulator  # noqa: E402
from repro.sim.timebase import MS  # noqa: E402
from speed import probe, scale  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "bench_engine_baseline.json")
RDMA_SIZE = 256 * 1024
#: Minimum speedup of the folded 256 KiB WRITE/READ over the per-packet
#: run measured in the same invocation.
FOLD_SPEEDUP_GATE = 4
#: Speed probes (wall clock, like the scenarios) run before each repeat
#: of a scenario and after its last.
PROBES = 5


def timeout_loop(n: int) -> float:
    sim = Simulator()

    def ticker():
        for _ in range(n):
            yield sim.timeout(1)

    proc = sim.process(ticker())
    start = time.perf_counter()
    sim.run_until_complete(proc)
    return n / (time.perf_counter() - start)


def stream_pingpong(n: int) -> float:
    sim = Simulator()
    stream = Stream(sim, capacity=8)

    def producer():
        for i in range(n):
            yield stream.put(i)
            yield sim.timeout(1)

    def consumer():
        for _ in range(n):
            yield stream.get()

    sim.process(producer())
    proc = sim.process(consumer())
    start = time.perf_counter()
    sim.run_until_complete(proc)
    return n / (time.perf_counter() - start)


def _instrumented_pingpong(n: int) -> float:
    """The ping-pong loop as an instrumented component runs it: cached
    ``obs``/``metrics`` attributes, a per-item guard check, and
    word-batched counter accounting after the loop."""
    sim = Simulator()
    metrics = registry_for(sim)
    obs = observers_for(sim)
    items = metrics.counter("bench.items")
    depth = metrics.gauge("bench.depth")
    stream = Stream(sim, capacity=8)

    def producer():
        for i in range(n):
            yield stream.put(i)
            yield sim.timeout(1)

    def consumer():
        for _ in range(n):
            yield stream.get()
            if obs is not None:
                obs.end_span(obs.begin_span("bench", "item"))
                obs.sample(depth, len(stream))
        items.add(n)

    sim.process(producer())
    proc = sim.process(consumer())
    start = time.perf_counter()
    sim.run_until_complete(proc)
    return n / (time.perf_counter() - start)


def pingpong_obs_off(n: int) -> float:
    return _instrumented_pingpong(n)


def pingpong_obs_on(n: int) -> float:
    with observe():
        return _instrumented_pingpong(n)


def _rdma_large(n: int, kind: str, fold: bool = False) -> float:
    """End-to-end 256 KiB verbs on the 100 G two-node fabric; returns
    payload bytes per wall-second (``n`` only scales the repeat count).
    The per-scenario payload-plane delta and events-per-simulated-byte
    are captured for the report.  ``fold`` selects the burst fast path
    or the per-packet reference, so the pair measures the fold speedup
    on equal footing."""
    reps = 16 if n <= 64_000 else 40
    sim = Simulator()
    fabric = build_fabric(sim, nic_config=NIC_100G)
    src = fabric.client.alloc(RDMA_SIZE, "src")
    dst = fabric.server.alloc(RDMA_SIZE, "dst")
    if kind == "write":
        fabric.client.space.write(src.vaddr,
                                  bytes(i % 251 for i in range(RDMA_SIZE)))
    else:
        fabric.server.space.write(dst.vaddr,
                                  bytes(i % 149 for i in range(RDMA_SIZE)))

    def driver():
        for _ in range(reps):
            if kind == "write":
                yield from fabric.client.write_sync(
                    fabric.client_qpn, src.vaddr, dst.vaddr, RDMA_SIZE)
            else:
                yield from fabric.client.read_sync(
                    fabric.client_qpn, src.vaddr, dst.vaddr, RDMA_SIZE)

    proc = sim.process(driver())
    before = {key: getattr(PAYLOAD_STATS, key)
              for key in PAYLOAD_STATS.__slots__}
    with override(fold=fold):
        start = time.perf_counter()
        sim.run_until_complete(proc, limit=10_000 * MS)
        rate = RDMA_SIZE * reps / (time.perf_counter() - start)
    name = f"rdma_{kind}_256k" + ("_burst" if fold else "")
    PAYLOAD_DELTAS[name] = {key: getattr(PAYLOAD_STATS, key) - count
                            for key, count in before.items()}
    flat = registry_for(sim).snapshot().as_flat_dict()
    EVENT_COSTS[name] = {
        "events_per_kib":
            sim.events_created * 1024 / (RDMA_SIZE * reps),
        "folded_packets": sum(
            v for k, v in flat.items()
            if k.endswith(".burst.folded_packets")),
    }
    return rate


#: Per-scenario payload-plane counter deltas (filled by the rdma
#: scenarios, printed after the table).
PAYLOAD_DELTAS = {}

#: Per-scenario scheduler-event cost (events per simulated KiB) and
#: fold engagement, filled by the rdma scenarios.
EVENT_COSTS = {}


def rdma_write_256k(n: int) -> float:
    return _rdma_large(n, "write")


def rdma_read_256k(n: int) -> float:
    return _rdma_large(n, "read")


def rdma_write_256k_burst(n: int) -> float:
    return _rdma_large(n, "write", fold=True)


def rdma_read_256k_burst(n: int) -> float:
    return _rdma_large(n, "read", fold=True)


SCENARIOS = {
    "timeout_loop": timeout_loop,
    "stream_pingpong": stream_pingpong,
    "pingpong_obs_off": pingpong_obs_off,
    "pingpong_obs_on": pingpong_obs_on,
    "rdma_write_256k": rdma_write_256k,
    "rdma_read_256k": rdma_read_256k,
    "rdma_write_256k_burst": rdma_write_256k_burst,
    "rdma_read_256k_burst": rdma_read_256k_burst,
}


def _probes() -> list:
    return [probe(time.perf_counter) for _ in range(PROBES)]


def measure(n: int, repeats: int):
    """Best rate of each scenario on this host, and that rate on the
    reference host (scaled by the probes taken around its repeats)."""
    results, scaled = {}, {}
    for name, fn in SCENARIOS.items():
        probes, best = [], 0.0
        for _ in range(repeats):
            probes += _probes()
            best = max(best, fn(n))
        probes += _probes()
        results[name] = best
        scaled[name] = best / scale(probes)
    return results, scaled


def load_baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Engine events/s microbenchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="quick run; fail on regression vs baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"rewrite {BASELINE_PATH}")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--obs-threshold", type=float, default=0.05,
                        help="allowed disabled-instrumentation overhead "
                             "vs stream_pingpong (default 0.05)")
    parser.add_argument("--json", metavar="FILE",
                        help="also dump measured rates to FILE")
    args = parser.parse_args(argv)

    n = 50_000 if args.smoke else 200_000
    repeats = 2 if args.smoke else 3
    results, scaled = measure(n, repeats)

    baseline = None
    if os.path.exists(BASELINE_PATH) and not args.update_baseline:
        baseline = load_baseline()

    width = max(len(name) for name in SCENARIOS)
    print(f"{'scenario':<{width}}  {'events/s':>12}  {'reference':>12}"
          f"  {'baseline':>12}  {'ratio':>6}")
    failed = []
    for name, rate in scaled.items():
        base = baseline["rates"].get(name) if baseline else None
        ratio = rate / base if base else float("nan")
        print(f"{name:<{width}}  {results[name]:>12,.0f}  {rate:>12,.0f}  "
              f"{(f'{base:,.0f}' if base else '-'):>12}  "
              f"{(f'{ratio:.2f}' if base else '-'):>6}")
        if base and rate < base * (1.0 - args.threshold):
            failed.append((name, rate, base))
    if baseline and "seed_stream_pingpong" in baseline:
        seed = baseline["seed_stream_pingpong"]
        speedup = results["stream_pingpong"] / seed
        print(f"\nping-pong vs seed engine ping-pong "
              f"({seed:,.0f}/s): {speedup:.1f}x")
    for name, delta in PAYLOAD_DELTAS.items():
        print(f"payload plane [{name}]: "
              f"{delta['bytes_copied']:,} B copied "
              f"({delta['copy_events']} events), "
              f"{delta['bytes_referenced']:,} B by reference "
              f"({delta['ref_events']} events)")
    for name, cost in EVENT_COSTS.items():
        print(f"event cost [{name}]: {cost['events_per_kib']:.2f} "
              f"events/KiB, folded_packets={cost['folded_packets']:,}")
    # Burst fast-path acceptance: the folded datapath must actually
    # fold, copy nothing, and beat the per-packet run by >= the fold
    # gate on the same machine in the same invocation (a ratio, so host
    # speed cancels out).
    for kind in ("write", "read"):
        plain_name = f"rdma_{kind}_256k"
        burst_name = f"{plain_name}_burst"
        speedup = results[burst_name] / results[plain_name]
        print(f"burst 256 KiB {kind} vs per-packet: {speedup:.2f}x")
        if EVENT_COSTS[burst_name]["folded_packets"] == 0:
            failed.append((f"{burst_name} (no folds)",
                           0, results[plain_name]))
        if PAYLOAD_DELTAS[burst_name]["bytes_copied"] != 0:
            failed.append((f"{burst_name} (copied bytes on the clean "
                           f"path)", 0, results[plain_name]))
        if speedup < FOLD_SPEEDUP_GATE:
            failed.append((f"{burst_name} (< {FOLD_SPEEDUP_GATE}x over "
                           f"per-packet)", results[burst_name],
                           results[plain_name] * FOLD_SPEEDUP_GATE))

    # In-run overhead guard: the disabled-mode hooks must cost less than
    # --obs-threshold of the bare engine loop measured this same run
    # (same machine, same interpreter — no cross-machine noise).  The
    # pair is measured interleaved, best-of-N each, so scheduler noise
    # hits both sides alike instead of masquerading as overhead.
    plain = hooked = 0.0
    for _ in range(4):
        plain = max(plain, stream_pingpong(n))
        hooked = max(hooked, pingpong_obs_off(n))
    overhead = 1.0 - hooked / plain
    print(f"disabled-instrumentation overhead vs stream_pingpong: "
          f"{overhead:+.1%} (limit {args.obs_threshold:.0%})")
    obs_failed = hooked < plain * (1.0 - args.obs_threshold)

    if args.update_baseline:
        payload = {"rates": scaled}
        if os.path.exists(BASELINE_PATH):
            # Historical reference rates (seed engine) are measurements
            # of *replaced* code: carry them forward, they cannot be
            # re-measured.
            old = load_baseline()
            payload.update({key: value for key, value in old.items()
                            if key != "rates"})
        with open(BASELINE_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE_PATH}")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"rates": scaled, "host_rates": results}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")

    if obs_failed:
        print(f"REGRESSION: pingpong_obs_off at {hooked:,.0f}/s is more "
              f"than {args.obs_threshold:.0%} below stream_pingpong "
              f"{plain:,.0f}/s", file=sys.stderr)
    if failed:
        for name, rate, base in failed:
            print(f"REGRESSION: {name} at {rate:,.0f}/s is more than "
                  f"{args.threshold:.0%} below baseline {base:,.0f}/s",
                  file=sys.stderr)
    return 1 if (failed or obs_failed) else 0


if __name__ == "__main__":
    raise SystemExit(main())

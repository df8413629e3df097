#!/usr/bin/env python
"""Cluster scale-out benchmark with a checked-in regression gate.

Runs one fixed sharded-KV operating point — 2 shards + 2 clients on one
switch, Zipf(0.99) keys, 95% GETs over the StRoM traversal path — and
compares the *simulated* service metrics against
``bench_cluster_baseline.json``:

- ``achieved_kops`` must not drop more than ``--threshold`` below the
  baseline (the cluster suddenly completing less offered load means a
  scheduling or switch regression);
- ``p99_us`` must not rise more than ``--threshold`` above it (tail
  latency inflation is how queueing bugs surface first).

The simulator is deterministic, so both numbers are exact for a given
code version: drift of any size is a real behaviour change, and the 30%
gate only exists to tolerate *intentional* model refinements without a
baseline churn on every small change.

Usage::

    python benchmarks/bench_cluster.py             # full point
    python benchmarks/bench_cluster.py --smoke     # short window + gate
    python benchmarks/bench_cluster.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.cluster_scaling import run_cluster_point  # noqa: E402
from repro.experiments.fault_sweep import run_fault_point  # noqa: E402
from repro.experiments.incast_sweep import run_incast_point  # noqa: E402
from repro.sim.timebase import MS  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "bench_cluster_baseline.json")

#: The fixed operating point (see module docstring).
SHARDS = 2
OFFERED_PER_SHARD = 120_000.0
WINDOWS = {"smoke": MS, "full": 4 * MS}
#: The degraded scenario: same point under 1% Gilbert-Elliott bursty
#: loss with replica failover enabled (gates the recovery path's
#: goodput the same way the clean gate protects the fast path).
LOSSY_MEAN_LOSS = 0.01
#: The large-message scenario (zero-copy payload plane): 256 KiB
#: WRITEs + READs between two 100 G hosts through the switch.
LARGE_SIZE = 256 * 1024
LARGE_REPS = {"smoke": 8, "full": 32}
#: The incast scenario (congestion-control plane): 8 senders blast one
#: receiver through the shared switch port, with and without ECN/DCQCN.
INCAST_SENDERS = 8
INCAST_MESSAGES = {"smoke": 40, "full": 100}
#: The acceptance bar: congestion control must at least double goodput
#: at 8:1 fan-in (measured: ~4.5x on the checked-in baseline).
INCAST_MIN_SPEEDUP = 2.0


def run_point(mode: str) -> dict:
    start = time.perf_counter()
    report = run_cluster_point(SHARDS,
                               offered_per_shard=OFFERED_PER_SHARD,
                               window_ps=WINDOWS[mode],
                               get_path="strom", seed=1)
    wall = time.perf_counter() - start
    pct = report.latency_percentiles_us()
    return {
        "achieved_kops": report.achieved_ops_per_s / 1e3,
        "p50_us": pct[0.50],
        "p99_us": pct[0.99],
        "issued": report.issued,
        "wall_s": round(wall, 3),
    }


def run_lossy_point(mode: str) -> dict:
    start = time.perf_counter()
    row = run_fault_point(LOSSY_MEAN_LOSS, crash=False, seed=1,
                          num_shards=SHARDS,
                          offered_per_shard=OFFERED_PER_SHARD,
                          window_ps=WINDOWS[mode])
    wall = time.perf_counter() - start
    return {
        "achieved_kops": row["goodput_kops"],
        "p50_us": row["p50_us"],
        "p99_us": row["p99_us"],
        "issued": row["issued"],
        "retransmits": row["retransmits"],
        "recoveries": row["recoveries"],
        "wall_s": round(wall, 3),
    }


def run_large_point(mode: str) -> dict:
    """Large-message point for the zero-copy payload plane: 256 KiB
    WRITEs then READs between two 100 G hosts through the switch.

    The point runs twice — per-packet, then with the burst fast path
    folding the switch leg — and the simulated timestamps must be
    bit-identical between the two (the fold's correctness contract).
    The simulated per-direction goodput is deterministic and gated like
    ``achieved_kops``; the wall-clock payload rates of both runs and
    the payload-plane copy counter are reported (the clean path must
    copy zero bytes and the folded run must actually fold)."""
    from repro.config import NIC_100G
    from repro.core.payload import PAYLOAD_STATS
    from repro.cluster.topology import build_star
    from repro.obs import registry_for
    from repro.runmode import override
    from repro.sim import Simulator

    reps = LARGE_REPS[mode]

    def execute() -> dict:
        env = Simulator()
        cluster = build_star(env, 2, nic_config=NIC_100G, seed=1)
        a, b = cluster.hosts
        qpn_a, _ = cluster.connect(a, b)
        src = a.alloc(LARGE_SIZE, "src")
        dst = b.alloc(LARGE_SIZE, "dst")
        a.space.write(src.vaddr,
                      bytes(i % 251 for i in range(LARGE_SIZE)))
        marks = {}

        def driver():
            for _ in range(reps):
                yield from a.write_sync(qpn_a, src.vaddr, dst.vaddr,
                                        LARGE_SIZE)
            marks["write_ps"] = env.now
            for _ in range(reps):
                yield from a.read_sync(qpn_a, src.vaddr, dst.vaddr,
                                       LARGE_SIZE)
            marks["read_ps"] = env.now - marks["write_ps"]

        proc = env.process(driver())
        before = PAYLOAD_STATS.snapshot()
        start = time.perf_counter()
        env.run_until_complete(proc, limit=1_000 * MS)
        marks["wall"] = time.perf_counter() - start
        after = PAYLOAD_STATS.snapshot()
        marks["copied"] = after["bytes_copied"] - before["bytes_copied"]
        flat = registry_for(env).snapshot().as_flat_dict()
        marks["folded"] = sum(v for k, v in flat.items()
                              if k.endswith(".burst.folded_packets"))
        return marks

    with override(fold=False):
        plain = execute()
    with override(fold=True):
        folded = execute()
    moved = 2 * reps * LARGE_SIZE
    return {
        "write_gbps": 8e12 * reps * LARGE_SIZE / plain["write_ps"] / 1e9,
        "read_gbps": 8e12 * reps * LARGE_SIZE / plain["read_ps"] / 1e9,
        "wall_mb_s": moved / plain["wall"] / 1e6,
        "burst_wall_mb_s": moved / folded["wall"] / 1e6,
        "burst_folded_packets": folded["folded"],
        "burst_identical": int(
            plain["write_ps"] == folded["write_ps"]
            and plain["read_ps"] == folded["read_ps"]),
        "copied_bytes": plain["copied"] + folded["copied"],
        "wall_s": round(plain["wall"] + folded["wall"], 3),
    }


def run_incast_bench(mode: str) -> dict:
    """Incast point for the congestion-control plane: the same seeded
    8:1 fan-in with DCQCN off, then on.  The simulated goodputs are
    deterministic; the gate asserts the on/off ratio and the tail
    improvements rather than absolute rates."""
    messages = INCAST_MESSAGES[mode]
    start = time.perf_counter()
    off = run_incast_point(INCAST_SENDERS, cc=False, seed=7,
                           messages=messages)
    on = run_incast_point(INCAST_SENDERS, cc=True, seed=7,
                          messages=messages)
    wall = time.perf_counter() - start
    return {
        "off_goodput_gbps": off["goodput_gbps"],
        "on_goodput_gbps": on["goodput_gbps"],
        "speedup": round(on["goodput_gbps"] / off["goodput_gbps"], 3),
        "off_p99_us": off["p99_us"],
        "on_p99_us": on["p99_us"],
        "off_tail_drops": off["tail_drops"],
        "on_tail_drops": on["tail_drops"],
        "on_qp_errors": on["qp_errors"],
        "wall_s": round(wall, 3),
    }


def load_baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def check(measured: dict, base: dict, threshold: float) -> list:
    """Gate: throughput must not sink, p99 must not balloon."""
    failures = []
    floor = base["achieved_kops"] * (1.0 - threshold)
    if measured["achieved_kops"] < floor:
        failures.append(
            f"achieved_kops {measured['achieved_kops']:.1f} is more than "
            f"{threshold:.0%} below baseline {base['achieved_kops']:.1f}")
    ceiling = base["p99_us"] * (1.0 + threshold)
    if measured["p99_us"] > ceiling:
        failures.append(
            f"p99_us {measured['p99_us']:.2f} is more than "
            f"{threshold:.0%} above baseline {base['p99_us']:.2f}")
    return failures


def check_large(measured: dict, base: dict, threshold: float) -> list:
    """Gate: simulated large-message goodput must not sink in either
    direction, and the clean datapath must copy zero payload bytes."""
    failures = []
    for key in ("write_gbps", "read_gbps"):
        floor = base[key] * (1.0 - threshold)
        if measured[key] < floor:
            failures.append(
                f"{key} {measured[key]:.2f} is more than {threshold:.0%} "
                f"below baseline {base[key]:.2f}")
    if measured["copied_bytes"]:
        failures.append(
            f"clean path copied {measured['copied_bytes']} payload bytes "
            f"(expected 0: every hop must forward by reference)")
    if not measured["burst_identical"]:
        failures.append(
            "burst fast path changed simulated timestamps "
            "(folded and per-packet runs must be bit-identical)")
    if not measured["burst_folded_packets"]:
        failures.append(
            "burst fast path folded zero packets on the clean "
            "switch-leg path (expected the 256 KiB messages to fold)")
    return failures


def check_incast(measured: dict, base: dict, threshold: float) -> list:
    """Gate: DCQCN must keep paying for itself at 8:1 fan-in — at least
    2x the uncontrolled goodput, with a lower p99, fewer tail-drops,
    and zero retry-exhausted QPs — and the controlled goodput must not
    sink versus the checked-in baseline."""
    failures = []
    if measured["speedup"] < INCAST_MIN_SPEEDUP:
        failures.append(
            f"cc-on goodput is only {measured['speedup']:.2f}x cc-off "
            f"(gate: >= {INCAST_MIN_SPEEDUP:.1f}x)")
    if measured["on_p99_us"] >= measured["off_p99_us"]:
        failures.append(
            f"cc-on p99 {measured['on_p99_us']:.1f} us is not below "
            f"cc-off p99 {measured['off_p99_us']:.1f} us")
    if measured["on_tail_drops"] >= measured["off_tail_drops"]:
        failures.append(
            f"cc-on tail-drops {measured['on_tail_drops']} not below "
            f"cc-off {measured['off_tail_drops']}")
    if measured["on_qp_errors"]:
        failures.append(
            f"{measured['on_qp_errors']} QPs exhausted retries with "
            "congestion control on (expected 0)")
    floor = base["on_goodput_gbps"] * (1.0 - threshold)
    if measured["on_goodput_gbps"] < floor:
        failures.append(
            f"on_goodput_gbps {measured['on_goodput_gbps']:.2f} is more "
            f"than {threshold:.0%} below baseline "
            f"{base['on_goodput_gbps']:.2f}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded-KV cluster benchmark + regression gate")
    parser.add_argument("--smoke", action="store_true",
                        help="short window; fail on regression vs baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"rewrite {BASELINE_PATH} (smoke + full)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--lossy", action="store_true",
                        help=f"run the {LOSSY_MEAN_LOSS:.0%} bursty-loss "
                             "scenario instead of the clean one")
    parser.add_argument("--large", action="store_true",
                        help=f"run the {LARGE_SIZE // 1024} KiB "
                             "large-message scenario instead")
    parser.add_argument("--incast", action="store_true",
                        help=f"run the {INCAST_SENDERS}:1 incast "
                             "scenario (DCQCN off vs on) instead")
    parser.add_argument("--json", metavar="FILE",
                        help="also dump measured metrics to FILE")
    args = parser.parse_args(argv)

    if args.update_baseline:
        payload = {mode: run_point(mode) for mode in WINDOWS}
        payload.update({f"lossy-{mode}": run_lossy_point(mode)
                        for mode in WINDOWS})
        payload.update({f"large-{mode}": run_large_point(mode)
                        for mode in WINDOWS})
        payload.update({f"incast-{mode}": run_incast_bench(mode)
                        for mode in WINDOWS})
        with open(BASELINE_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    window = "smoke" if args.smoke else "full"
    if args.incast:
        mode = f"incast-{window}"
        measured = run_incast_bench(window)
    elif args.large:
        mode = f"large-{window}"
        measured = run_large_point(window)
    elif args.lossy:
        mode = f"lossy-{window}"
        measured = run_lossy_point(window)
    else:
        mode = window
        measured = run_point(window)
    baseline = load_baseline().get(mode) \
        if os.path.exists(BASELINE_PATH) else None

    if args.incast:
        print(f"mode={mode}  senders={INCAST_SENDERS}  "
              f"messages={INCAST_MESSAGES[window]} x 16 KiB per sender  "
              f"(cc off vs on)")
    elif args.large:
        print(f"mode={mode}  hosts=2  message={LARGE_SIZE // 1024} KiB  "
              f"reps={LARGE_REPS[window]} per direction")
    else:
        print(f"mode={mode}  shards={SHARDS}  "
              f"offered={SHARDS * OFFERED_PER_SHARD / 1e3:.0f} kops/s")
    for key in sorted(measured):
        base = baseline.get(key) if baseline else None
        print(f"{key:>14}  {measured[key]:>10.2f}  "
              f"(baseline {base if base is not None else '-'})")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({mode: measured}, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if baseline is None:
        print("no baseline; run with --update-baseline to create one",
              file=sys.stderr)
        return 0
    if args.incast:
        checker = check_incast
    elif args.large:
        checker = check_large
    else:
        checker = check
    failures = checker(measured, baseline, args.threshold)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

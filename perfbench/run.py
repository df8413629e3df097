"""Host-time benchmark of the StRoM simulator.

The simulator is a batch program: each workload describes the load the
*simulated* system sees, and the host runs that work as fast as it can.
The end-to-end metrics are therefore host costs of simulated work, in
CPU time scaled to a reference host by the probe in ``speed.py``; the
simulated results (latency percentiles, goodput, event and fold counts)
are checked outputs, printed beside the metrics.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload kv_get --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
for half of ``--seconds``, then rebuilds with the per-layer tracer
installed and runs traced for the other half, and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md beside
this file for the workloads, the metrics and how outputs are checked.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

# Leave no bytecode caches behind in the checkout.
sys.dont_write_bytecode = True
import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("kv_get", "bulk_256k", "incast_cc", "offload_kernels")
#: Host time is the CPU time of this process.  The simulator is
#: single-threaded and does no I/O while timed, so on an idle host this
#: equals wall-clock time; unlike wall-clock time it leaves out the time
#: the operating system gives to other work.  It counts from process
#: start, so ``setup_s`` includes interpreter start-up and imports.
clock = time.process_time

#: The seed whose per-operation simulated outputs are recorded in
#: reference.json.
DEFAULT_SEED = 1
#: Builds timed per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Every run measures at least this many rounds.
MIN_ROUNDS = 100
#: ``ops_per_host_s`` is the median rate over this many equal shares of
#: the rounds, so a burst of load from elsewhere on the host moves one
#: share, not the metric.
RATE_WINDOWS = 10
#: Environment switches the program reads.  All are cleared before the
#: program is imported; a workload sets only the ones it names.
PROGRAM_SWITCHES = ("REPRO_BURST", "REPRO_BURST_VALIDATE", "REPRO_CHECK",
                    "REPRO_COPY_VALIDATE", "REPRO_FAULT_SEED")


class Driver:
    """Posts-until-deadline policy and per-completion bookkeeping.

    Workloads ask :meth:`more` before posting each operation and report
    each completion through :meth:`complete`, which takes the host
    timestamp rounds are cut from.  With ``probe_every`` set, the
    speed probe runs before the first operation and after every
    ``probe_every`` completions; its own time is kept out of the
    timestamps and the deadline.  The first ``reference_ops``
    completions form the *prefix*: they complete before any stop
    decision can influence the simulation, so their simulated outputs
    and the counters snapshotted at the last of them are identical on
    every run of a seed.
    """

    def __init__(self, instance, workload, seconds, min_ops,
                 probe_every=0):
        self.instance = instance
        self.reference_ops = workload.reference_ops
        self.min_ops = max(min_ops, workload.reference_ops)
        self.seconds = seconds
        self.probe_every = probe_every
        self.probes = []
        self.probe_time = 0.0
        self.deadline = None
        self.stamps = []
        self.prefix = []
        self.prefix_end_ps = 0
        self.snapshot = None
        self.failed = 0

    def more(self):
        return len(self.stamps) < self.min_ops or clock() < self.deadline

    def _probe(self):
        spent = speed.probe()
        self.probes.append(spent)
        self.probe_time += spent
        if self.deadline is not None:
            self.deadline += spent

    def complete(self, op_id, latency_ps, digest, ok, sim_bytes=0):
        self.stamps.append(clock() - self.probe_time)
        if not ok:
            self.failed += 1
        if len(self.prefix) < self.reference_ops:
            self.prefix.append((op_id, latency_ps, digest, ok, sim_bytes))
            if len(self.prefix) == self.reference_ops:
                self.prefix_end_ps = self.instance.env.now
                self.snapshot = self.instance.counters()
        if self.probe_every and len(self.stamps) % self.probe_every == 0:
            self._probe()

    def run(self):
        """Start the workload and run the simulation to completion;
        returns the timed phase's host seconds."""
        if self.probe_every:
            self._probe()
        self.instance.start(self)
        start = clock() - self.probe_time
        self.deadline = start + self.probe_time + self.seconds
        self.start = start
        self.instance.env.run()
        return self.stamps[-1] - start

    def rounds(self, k):
        """Host seconds of each run of ``k`` consecutive completions."""
        cuts = [self.start] + self.stamps[k - 1::k]
        return [b - a for a, b in zip(cuts, cuts[1:])]

    def scaled_rounds(self):
        """Rounds of ``probe_every`` completions in reference-host
        seconds, each scaled by the median of the four probes around it
        (probe ``i`` runs just before round ``i``): the host's speed
        drifts within a run too, and four probes damp each probe's own
        noise."""
        return [seconds * speed.scale(self.probes[max(0, i - 1):i + 3])
                for i, seconds in enumerate(self.rounds(self.probe_every))]


def sim_record(workload, driver):
    """Everything simulated that must repeat exactly for a seed."""
    return {
        "ops": [list(rec[:3]) for rec in driver.prefix],
        "outputs": workload.sim_outputs(driver.prefix, driver.prefix_end_ps),
        "counters": driver.snapshot,
    }


def reference_failures(record, reference):
    """Prefix operations whose simulated latency or result differs from
    the recorded reference, plus one for any differing counter or
    output."""
    bad = sum(1 for got, want in zip(record["ops"], reference["ops"])
              if got != want)
    bad += abs(len(record["ops"]) - len(reference["ops"]))
    if record["outputs"] != reference["outputs"] \
            or record["counters"] != reference["counters"]:
        bad += 1
    return bad


def build_timed(workload, repeats):
    """Build ``repeats`` times, each after one speed probe; returns the
    last instance, the build times and the probe times."""
    times, probes = [], []
    instance = None
    for _ in range(repeats):
        instance = None
        gc.collect()
        probes.append(speed.probe())
        start = clock()
        instance = workload.build()
        times.append(clock() - start)
    return instance, times, probes


def end_to_end(workload, driver, setup_s):
    """The end-to-end metrics, host times scaled to the reference host;
    also returns the round count."""
    from workloads import percentile
    rounds = driver.scaled_rounds()
    k = workload.ops_per_round
    share = len(rounds) // RATE_WINDOWS
    rates = [k * share / sum(rounds[i:i + share])
             for i in range(0, share * RATE_WINDOWS, share)]
    ms = [r * 1e3 for r in rounds]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_host_s": {"value": statistics.median(rates),
                           "unit": "1/s"},
        "round_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "round_ms_p90": {"value": percentile(ms, 0.90), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0, "unit": "MB"},
    }, len(rounds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this workload's reference.json entry "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the simulator sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs --seed {DEFAULT_SEED}")

    for name in PROGRAM_SWITCHES:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    import workloads
    import_s = clock()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    os.environ.update(workload.switches)
    min_ops = MIN_ROUNDS * workload.ops_per_round
    instance, build_times, setup_probes = build_timed(workload,
                                                      SETUP_REPEATS)
    setup_s = (import_s + statistics.median(build_times)) \
        * speed.scale(setup_probes)

    if args.trace:
        # Rounds are not reported from a traced run; each half only has
        # to complete the reference prefix.
        seconds, min_ops = args.seconds / 2, workload.reference_ops
        probe_every = 0
    else:
        seconds, probe_every = args.seconds, workload.ops_per_round
    driver = Driver(instance, workload, seconds, min_ops, probe_every)
    timed_s = driver.run()
    record = sim_record(workload, driver)
    attempted = len(driver.stamps)
    failed = driver.failed + instance.qp_errors()

    if args.record:
        reference = {}
        if os.path.exists(REFERENCE_PATH):
            with open(REFERENCE_PATH) as handle:
                reference = json.load(handle)
        reference[args.workload] = record
        with open(REFERENCE_PATH, "w") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
    elif args.seed == DEFAULT_SEED:
        with open(REFERENCE_PATH) as handle:
            failed += reference_failures(record,
                                         json.load(handle)[args.workload])

    if args.trace:
        import layers
        traced = layers.traced_run(workload, workloads, seconds, min_ops,
                                   Driver, sim_record)
        attempted += traced.attempted
        failed += traced.failed
        if traced.record != record:
            print("traced run changed the simulated outputs",
                  file=sys.stderr)
            failed += max(1, reference_failures(traced.record, record))
        untraced_rate = len(driver.stamps) / timed_s
        metrics = traced.metrics(untraced_rate)
        os.makedirs(OUT_DIR, exist_ok=True)
        traced.tracer.write_spans(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json"))
        layers.print_table(args.workload, traced, metrics)
    else:
        metrics, n_rounds = end_to_end(workload, driver, setup_s)
        print(f"{args.workload} seed={args.seed}: {attempted} ops in "
              f"{timed_s:.3f} host s, {n_rounds} rounds of "
              f"{workload.ops_per_round} ops; builds "
              + ", ".join(f"{t:.3f}" for t in build_times) + " s; host "
              f"speed {speed.scale(driver.probes):.3f} x reference")
        for name, metric in metrics.items():
            print(f"  {name:<16} {metric['value']:12.4f} {metric['unit']}")

    ok_pct = 100.0 * (attempted - failed) / attempted
    print(f"  ok_ops_pct       {ok_pct:12.4f} %")
    print("  simulated: " + json.dumps(record["outputs"], sort_keys=True))
    print("  counters at op " + str(workload.reference_ops) + ": "
          + json.dumps(record["counters"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

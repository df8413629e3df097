"""The traced run: per-layer self time and counts per completed operation.

:func:`traced_run` installs the :class:`~tracer.Tracer`, builds a fresh
system, runs the workload under the same driver as the untraced run and
turns the tracer's self times plus the program's own counters into the
per-layer metrics listed in BENCHMARK.json.  Counts come from the
program's snapshots (``Simulator.events_created``, the ``repro.obs``
registry, ``PAYLOAD_STATS``, ``CC_STATS``, TLB and kernel counters) read
before and after the measured phase, and from the tracer's own
boundaries (process resumes, bytes handed to ``algos`` and ``memory``).
"""

from __future__ import annotations

import time
from collections import deque

from repro.cc.plane import CC_STATS
from repro.core.payload import PAYLOAD_STATS
from tracer import Tracer
from workloads import percentile

#: Layers with a ``<layer>.self_us_per_op`` metric.  ``core`` includes
#: ``core.payload``; the cluster layers other than the switch and the
#: sharded KV service only run during setup.
SELF_TIME_LAYERS = ("sim", "roce", "roce.burst", "nic", "nic.dma",
                    "nic.tlb", "net", "cluster.switch",
                    "cluster.sharded_kv", "cc", "core", "kernels",
                    "algos", "memory", "host", "apps", "obs", "config")

#: Every per-layer metric with its unit, in report order.
METRICS = (
    ("sim.self_us_per_op", "us/op"),
    ("sim.events_per_op", "count/op"),
    ("sim.resumes_per_op", "count/op"),
    ("roce.self_us_per_op", "us/op"),
    ("roce.packets_per_op", "count/op"),
    ("roce.retransmits_per_op", "count/op"),
    ("roce.burst.self_us_per_op", "us/op"),
    ("roce.burst.fold_pct", "%"),
    ("roce.burst.unfolds_per_op", "count/op"),
    ("nic.self_us_per_op", "us/op"),
    ("nic.dma.self_us_per_op", "us/op"),
    ("nic.dma.bytes_per_op", "B/op"),
    ("nic.tlb.self_us_per_op", "us/op"),
    ("nic.tlb.cache_hit_pct", "%"),
    ("net.self_us_per_op", "us/op"),
    ("net.frames_per_op", "count/op"),
    ("cluster.switch.self_us_per_op", "us/op"),
    ("cluster.switch.drops_per_op", "count/op"),
    ("cluster.switch.queue_us_p99", "us"),
    ("cluster.sharded_kv.self_us_per_op", "us/op"),
    ("cc.self_us_per_op", "us/op"),
    ("cc.rate_cuts_per_op", "count/op"),
    ("cc.paced_pct", "%"),
    ("core.self_us_per_op", "us/op"),
    ("core.payload.copied_bytes_per_op", "B/op"),
    ("kernels.self_us_per_op", "us/op"),
    ("kernels.invocations_per_op", "count/op"),
    ("algos.self_us_per_op", "us/op"),
    ("algos.bytes_per_op", "B/op"),
    ("memory.self_us_per_op", "us/op"),
    ("memory.bytes_per_op", "B/op"),
    ("host.self_us_per_op", "us/op"),
    ("apps.self_us_per_op", "us/op"),
    ("obs.self_us_per_op", "us/op"),
    ("config.self_us_per_op", "us/op"),
    ("trace.overhead_pct", "%"),
)


class QueueResidency:
    """Simulated time frames wait in the switches' output queues.

    Hooks ``try_put``/``put``/``get`` of each switch port's queue on the
    instance: the queues are FIFO, so a frame's residency is the time
    between its enqueue and the ``get`` that takes it (zero when it is
    handed straight to a waiting egress loop).  The hooks create no
    simulator events, so the simulation is unchanged.
    """

    def __init__(self, instance):
        self.env = instance.env
        self.samples = []
        for switch in instance.switches:
            for port in switch.ports:
                self._hook(port.queue)

    def _hook(self, queue):
        env = self.env
        samples = self.samples
        waiting = deque()
        put, try_put, get = queue.put, queue.try_put, queue.get

        def enqueue(item, insert):
            handoff = bool(queue._getters) and not queue._items
            result = insert(item)
            if result is not False:
                if handoff:
                    samples.append(0)
                else:
                    waiting.append(env.now)
            return result

        def dequeue():
            if queue._items and waiting:
                samples.append(env.now - waiting.popleft())
            return get()

        queue.put = lambda item: enqueue(item, put)
        queue.try_put = lambda item: enqueue(item, try_put)
        queue.get = dequeue

    def p99_us(self):
        if not self.samples:
            return 0.0
        return percentile(self.samples, 0.99) / 1e6


def program_counts(instance):
    """The program's own counters that per-layer metrics divide by ops."""
    counts = dict(instance.counters())
    nics = [host.nic for host in instance.hosts]
    counts["acks"] = sum(int(nic.acks_sent) for nic in nics)
    counts["tlb_lookups"] = sum(nic.tlb.lookups for nic in nics)
    counts["tlb_hits"] = sum(nic.tlb.cache_hits for nic in nics)
    counts["invocations"] = sum(
        nic.registry.match(op).invocations
        for nic in nics for op in nic.registry.deployed_opcodes)
    counts["rate_cuts"] = CC_STATS.rate_cuts
    counts["paced"] = CC_STATS.paced_packets
    counts["copied_bytes"] = PAYLOAD_STATS.bytes_copied
    return counts


class TracedRun:
    """Outcome of the traced phase."""

    def __init__(self, tracer, driver, record, seconds, cpu_seconds, delta,
                 queues):
        self.tracer = tracer
        self.attempted = len(driver.stamps)
        self.failed = driver.failed + driver.instance.qp_errors()
        self.record = record
        #: Wall-clock seconds (the clock spans use) and CPU seconds (the
        #: clock the untraced run reports) of the traced phase.
        self.seconds = seconds
        self.cpu_seconds = cpu_seconds
        self.delta = delta
        self.queues = queues

    def metrics(self, untraced_ops_per_s):
        ops = self.attempted
        tracer = self.tracer
        d = self.delta
        self_s = tracer.self_seconds(self.seconds)
        values = {f"{layer}.self_us_per_op": self_s[layer] * 1e6 / ops
                  for layer in SELF_TIME_LAYERS}
        data_packets = max(1, d["packets_tx"] - d["acks"])
        index = tracer.index
        values.update({
            "sim.events_per_op": d["events"] / ops,
            "sim.resumes_per_op": d["resumes"] / ops,
            "roce.packets_per_op": d["packets_tx"] / ops,
            "roce.retransmits_per_op": d["retransmits"] / ops,
            "roce.burst.fold_pct": 100.0 * d["folded_packets"]
            / data_packets,
            "roce.burst.unfolds_per_op": d["unfolds"] / ops,
            "nic.dma.bytes_per_op": d["dma_bytes"] / ops,
            "nic.tlb.cache_hit_pct": 100.0 * d["tlb_hits"]
            / max(1, d["tlb_lookups"]),
            "net.frames_per_op": d["frames_delivered"] / ops,
            "cluster.switch.drops_per_op": d["tail_drops"] / ops,
            "cluster.switch.queue_us_p99": self.queues.p99_us(),
            "cc.rate_cuts_per_op": d["rate_cuts"] / ops,
            "cc.paced_pct": 100.0 * d["paced"] / data_packets,
            # Reads by the benchmark's output checks are copies too.
            "core.payload.copied_bytes_per_op": (
                d["copied_bytes"] - tracer.check_bytes[index["memory"]])
            / ops,
            "kernels.invocations_per_op": d["invocations"] / ops,
            "algos.bytes_per_op": tracer.bytes[index["algos"]] / ops,
            "memory.bytes_per_op": tracer.bytes[index["memory"]] / ops,
            "trace.overhead_pct": 100.0 * (
                untraced_ops_per_s / (ops / self.cpu_seconds) - 1.0),
        })
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS}


def traced_run(workload, workloads_module, seconds, min_ops, driver_cls,
               sim_record):
    """Install the tracer, build, and run the workload traced."""
    tracer = Tracer()
    tracer.install(extra_modules=(workloads_module,))
    tracer.calibrate()
    instance = workload.build()
    queues = QueueResidency(instance)
    driver = driver_cls(instance, workload, seconds, min_ops)
    before = program_counts(instance)
    tracer.reset()
    start = time.perf_counter()
    cpu_seconds = driver.run()
    total = time.perf_counter() - start
    after = program_counts(instance)
    delta = {key: after[key] - before[key] for key in after}
    delta["resumes"] = tracer.resumes
    return TracedRun(tracer, driver, sim_record(workload, driver), total,
                     cpu_seconds, delta, queues)


def print_table(workload_name, traced, metrics):
    """Per-layer table: self time per op and its share, then the rest."""
    total = sum(metrics[f"{layer}.self_us_per_op"]["value"]
                for layer in SELF_TIME_LAYERS)
    print(f"{workload_name}: per-layer self time per completed op over "
          f"{traced.attempted} traced ops ({traced.tracer.wrapped} functions "
          f"wrapped, {metrics['trace.overhead_pct']['value']:.0f} % "
          "tracing overhead)")
    for layer in sorted(SELF_TIME_LAYERS, key=lambda name: -metrics[
            f"{name}.self_us_per_op"]["value"]):
        value = metrics[f"{layer}.self_us_per_op"]["value"]
        print(f"  {layer:<20} {value:10.2f} us/op "
              f"{100.0 * value / max(total, 1e-12):6.1f} %")
    for name, metric in metrics.items():
        if not name.endswith(".self_us_per_op"):
            print(f"  {name:<34} {metric['value']:14.4f} {metric['unit']}")


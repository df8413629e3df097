"""Incast sweep: N-to-1 RDMA WRITE fan-in with and without DCQCN.

Not a paper figure — the paper's testbed is switchless by design
(Section 6.1) — but the scale-out question the congestion-control plane
(:mod:`repro.cc`) exists to answer: when N senders simultaneously blast
RDMA WRITEs at one receiver through a shared switch port, does the
fabric collapse (tail-drop -> go-back-N retransmission storms -> QP
retry exhaustion), and how much of the bottleneck line rate does ECN +
DCQCN rate control recover?

Methodology: each operating point builds an (N+1)-host star, connects
one queue pair from every sender to the single receiver, and runs a
windowed stream of fixed-size WRITEs per sender (enough outstanding
messages to overflow the 64-frame egress queue many times over at
N:1).  Goodput is completed payload bytes over the makespan; p50/p99
are per-message completion latencies; drop/mark/CNP/retransmit counts
come from the metrics registry.  Every run is seeded; with the same
``--seed`` the sweep's JSON output is byte-identical across runs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..cc import CcConfig
from ..cluster import build_star
from ..config import HOST_DEFAULT, NIC_10G
from ..obs.runtime import registry_for
from ..sim import MS, Simulator
from ..sim.stats import LatencySample
from .common import ExperimentResult

#: Swept fan-in degrees (senders per receiver).
DEFAULT_SENDER_COUNTS = (2, 4, 8)
#: Payload of every WRITE.
MESSAGE_BYTES = 16384


def _metric_sum(flat: Dict[str, object], suffix: str) -> int:
    return int(sum(v for k, v in flat.items()
                   if k.endswith(suffix) and isinstance(v, (int, float))))


def run_incast_point(senders: int,
                     cc: bool,
                     seed: int = 7,
                     messages: int = 100,
                     window: int = 4,
                     cc_config: Optional[CcConfig] = None
                     ) -> Dict[str, object]:
    """One N:1 operating point; returns a flat JSON-able row.

    Each sender keeps ``window`` WRITEs of ``MESSAGE_BYTES`` in flight
    until it has issued ``messages`` of them.  With congestion control
    off a message that exhausts its QP's retry budget completes with an
    error and is counted in ``errors`` (its bytes never count toward
    goodput) — exactly the silent failure mode the plane removes.
    """
    env = Simulator()
    cluster = build_star(env, num_hosts=senders + 1,
                         nic_config=NIC_10G, host_config=HOST_DEFAULT,
                         seed=seed)
    receiver = cluster.hosts[0]
    sender_hosts = cluster.hosts[1:]
    qpns = {host.name: cluster.connect(host, receiver)[0]
            for host in sender_hosts}
    if cc:
        cluster.enable_congestion_control(cc_config or CcConfig())

    tally = {"completed": 0, "errors": 0, "finish_ps": 0}
    latency = LatencySample("incast")

    def sender_proc(host, qpn):
        local = host.alloc(MESSAGE_BYTES).vaddr
        remote = receiver.alloc(MESSAGE_BYTES).vaddr
        outstanding = []

        def reap(posted_ps, completion):
            if isinstance(completion.value, Exception):
                tally["errors"] += 1
                return
            latency.record(env.now - posted_ps)
            tally["completed"] += 1
            tally["finish_ps"] = max(tally["finish_ps"], env.now)

        for _ in range(messages):
            completion = yield from host.write(qpn, local, remote,
                                               MESSAGE_BYTES)
            outstanding.append((env.now, completion))
            if len(outstanding) >= window:
                posted_ps, head = outstanding.pop(0)
                yield head
                reap(posted_ps, head)
        for posted_ps, head in outstanding:
            yield head
            reap(posted_ps, head)

    for host in sender_hosts:
        env.process(sender_proc(host, qpns[host.name]))
    env.run(until=1000 * MS)

    flat = registry_for(env).snapshot().as_flat_dict()
    makespan_ps = tally["finish_ps"] or env.now
    goodput_bps = (tally["completed"] * MESSAGE_BYTES * 8
                   / (makespan_ps / 1e12))
    pct = (latency.percentiles([0.50, 0.99]) if len(latency)
           else {0.50: 0.0, 0.99: 0.0})
    return {
        "senders": senders,
        "cc": int(cc),
        "completed": tally["completed"],
        "errors": tally["errors"],
        "goodput_gbps": round(goodput_bps / 1e9, 4),
        "p50_us": round(pct[0.50], 3),
        "p99_us": round(pct[0.99], 3),
        "makespan_ms": round(makespan_ps / 1e9, 4),
        "tail_drops": _metric_sum(flat, ".tail_drops"),
        "ce_marks": _metric_sum(flat, ".ce_marks"),
        "cnps": _metric_sum(flat, ".cc.cnps_rx"),
        "rate_cuts": _metric_sum(flat, ".rate_cuts"),
        "retransmits": sum(int(host.nic.retransmitted)
                           for host in cluster.hosts),
        "qp_errors": sum(int(host.nic.qp_errors)
                         for host in cluster.hosts),
    }


def incast_sweep_experiment(
        sender_counts: Sequence[int] = DEFAULT_SENDER_COUNTS,
        seed: int = 7,
        messages: int = 100) -> ExperimentResult:
    """Goodput/p99/drop curves vs fan-in degree, CC off vs on."""
    result = ExperimentResult(
        experiment_id="incast-sweep",
        title="N:1 incast goodput with and without ECN/DCQCN",
        columns=["senders", "cc", "completed", "errors", "goodput_gbps",
                 "p50_us", "p99_us", "makespan_ms", "tail_drops",
                 "ce_marks", "cnps", "retransmits", "qp_errors"],
        notes=(f"star topology, one 10G bottleneck port, seed {seed}; "
               f"{messages} x {MESSAGE_BYTES} B WRITEs per sender, "
               "window 4; cc=1 enables switch ECN marking + "
               "per-QP DCQCN rate control + pacing"))
    for cc in (False, True):
        for senders in sender_counts:
            result.add_row(**run_incast_point(
                senders, cc, seed=seed, messages=messages))
    return result

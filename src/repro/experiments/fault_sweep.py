"""Fault sweep: goodput/p99 degradation under bursty loss and crashes.

Not a paper figure — the paper's reliability evaluation stops at uniform
loss on a clean cable (Section 6.1) — but the question a production
deployment asks of the chaos subsystem (:mod:`repro.faults`): how do the
service's goodput and tail latency degrade as Gilbert-Elliott burst loss
rises, and does a whole-node shard crash degrade throughput *gracefully*
(replica failover) instead of hanging the workload?

Methodology: each operating point builds a 2-shard star (2 servers + 2
clients) with primary/backup replication, offers a fixed open-loop load,
and injects (a) bursty loss on every link at the swept mean rate and
(b) optionally one shard crash at 30 % of the window, restarting at
70 %.  Clients run under a :class:`~repro.cluster.sharded_kv.RetryPolicy`
so crashed shards cost timeouts + failovers, never hangs.  Every run is
seeded; with the same ``--seed`` the sweep's JSON output is
byte-identical across runs.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..cluster import (
    RetryPolicy,
    ShardedKvClient,
    ShardedKvService,
    WorkloadConfig,
    build_star,
    populate,
    run_open_loop,
)
from ..config import HOST_DEFAULT, NIC_10G
from ..faults import FaultSchedule
from ..net.link import GilbertElliott, LinkFaults
from ..obs.runtime import registry_for
from ..sim import MS, Simulator
from .common import ExperimentResult

#: Swept long-run loss rates (mean of the Gilbert-Elliott channel).
DEFAULT_LOSS_LEVELS = (0.0, 0.01, 0.03, 0.10)


def run_fault_point(mean_loss: float,
                    crash: bool,
                    seed: int = 7,
                    num_shards: int = 2,
                    offered_per_shard: float = 60_000.0,
                    window_ps: int = 2 * MS) -> Dict[str, object]:
    """One operating point; returns a flat row of goodput + fault
    counters (plain numbers only, so rows serialize to JSON)."""
    env = Simulator()
    faults = None
    if mean_loss > 0.0:
        faults = LinkFaults(
            burst=GilbertElliott.from_mean_loss(mean_loss, burst_frames=8.0),
            seed=seed)
    cluster = build_star(env, num_hosts=2 * num_shards,
                         nic_config=NIC_10G, host_config=HOST_DEFAULT,
                         faults=faults, seed=seed)
    servers = cluster.hosts[:num_shards]
    client_hosts = cluster.hosts[num_shards:]
    service = ShardedKvService(cluster, servers,
                               replicas=min(2, num_shards))
    populate(service, num_keys=128, value_bytes=128)
    policy = RetryPolicy()
    clients = [ShardedKvClient(cluster, service, node, seed=seed + i,
                               retry_policy=policy)
               for i, node in enumerate(client_hosts)]

    schedule = FaultSchedule(env, seed=seed)
    if crash:
        schedule.crash_shard(int(0.3 * window_ps), service, 0,
                             restart_after=int(0.4 * window_ps))
    schedule.start()

    config = WorkloadConfig(
        offered_ops_per_s=offered_per_shard * num_shards,
        window_ps=window_ps, num_keys=128,
        read_fraction=0.95, value_bytes=128,
        get_path="strom", seed=seed)
    report = run_open_loop(env, clients, config)
    if report.completed != report.issued:
        raise RuntimeError(
            f"fault point did not drain: {report.completed} of "
            f"{report.issued} completed (hang)")

    nics = [host.nic for host in cluster.hosts]
    pct = report.latency_percentiles_us()
    flat = registry_for(env).snapshot().as_flat_dict()
    burst_drops = sum(v for k, v in flat.items()
                      if k.endswith(".burst_drops"))
    kv_counter = lambda suffix: sum(
        v for k, v in flat.items() if k.endswith(f".kv.{suffix}"))
    return {
        "mean_loss": mean_loss,
        "crash": int(crash),
        "offered_kops": config.offered_ops_per_s / 1e3,
        "goodput_kops": report.achieved_ops_per_s / 1e3,
        "p50_us": pct[0.50],
        "p99_us": pct[0.99],
        "issued": report.issued,
        "failed": report.failed,
        "burst_drops": int(burst_drops),
        "retransmits": sum(int(nic.retransmitted) for nic in nics),
        "recoveries": sum(int(nic.timer.recoveries) for nic in nics),
        "qp_errors": sum(int(nic.qp_errors) for nic in nics),
        "timeouts": int(kv_counter("timeouts")),
        "failovers": int(kv_counter("failovers")),
        "faults_injected": int(schedule.injected),
    }


def fault_sweep_experiment(
        loss_levels: Sequence[float] = DEFAULT_LOSS_LEVELS,
        crash_modes: Sequence[bool] = (False, True),
        seed: int = 7,
        offered_per_shard: float = 60_000.0,
        window_ps: int = 2 * MS) -> ExperimentResult:
    """Goodput/p99 degradation curves vs burst loss x crash injection."""
    result = ExperimentResult(
        experiment_id="fault-sweep",
        title="Goodput under bursty loss, link faults, and shard crashes",
        columns=["mean_loss", "crash", "offered_kops", "goodput_kops",
                 "p50_us", "p99_us", "failed", "retransmits",
                 "recoveries", "qp_errors", "timeouts", "failovers",
                 "faults_injected"],
        notes=(f"2 shards + primary/backup replication, seed {seed}; "
               "Gilbert-Elliott loss on every link (mean burst 8 "
               "frames); crash points down shard 0 for 40% of the "
               "window; clients retry with backoff and fail over"))
    for crash in crash_modes:
        for loss in loss_levels:
            result.add_row(**run_fault_point(
                loss, crash, seed=seed,
                offered_per_shard=offered_per_shard,
                window_ps=window_ps))
    return result

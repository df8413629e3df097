"""Scale-out experiment: sharded KV throughput vs shard count.

Not a paper figure — the paper's testbed is two hosts on one cable — but
the natural scale-out question its Section 7 poses: does offloading GETs
to the NIC keep paying off once a *cluster* serves a skewed open-loop
workload through a switch?

Methodology: weak scaling.  Each operating point builds a star of
``S`` server hosts + ``S`` client hosts on one switch, shards the
keyspace by consistent hashing, and offers ``S x per-shard load`` with
Poisson arrivals and Zipf(0.99) keys.  Aggregate achieved throughput
should scale near-linearly with shards for the one-sided paths, while
p50/p99 stay flat; the TCP path saturates its single RPC core per
server first.
"""

from __future__ import annotations

from typing import List, Sequence

from ..cluster import (
    GET_PATHS,
    ShardedKvClient,
    ShardedKvService,
    WorkloadConfig,
    WorkloadReport,
    build_star,
    populate,
    run_open_loop,
)
from ..config import HOST_DEFAULT, NIC_10G
from ..sim import MS, Simulator
from .common import ExperimentResult


def run_cluster_point(num_shards: int,
                      offered_per_shard: float,
                      window_ps: int,
                      get_path: str = "strom",
                      num_keys: int = 256,
                      seed: int = 1) -> WorkloadReport:
    """One operating point: ``num_shards`` servers + as many clients on
    a single switch, offered load scaled with the shard count."""
    env = Simulator()
    cluster = build_star(env, num_hosts=2 * num_shards,
                         nic_config=NIC_10G, host_config=HOST_DEFAULT,
                         seed=seed)
    servers = cluster.hosts[:num_shards]
    client_hosts = cluster.hosts[num_shards:]
    service = ShardedKvService(cluster, servers)
    populate(service, num_keys=num_keys, value_bytes=128)
    clients = [ShardedKvClient(cluster, service, node, seed=seed + i)
               for i, node in enumerate(client_hosts)]
    config = WorkloadConfig(
        offered_ops_per_s=offered_per_shard * num_shards,
        window_ps=window_ps, num_keys=num_keys,
        read_fraction=0.95, value_bytes=128,
        get_path=get_path, seed=seed)
    return run_open_loop_checked(env, clients, config)


def run_open_loop_checked(env: Simulator,
                          clients: List[ShardedKvClient],
                          config: WorkloadConfig) -> WorkloadReport:
    report = run_open_loop(env, clients, config)
    if report.completed != report.issued:
        raise RuntimeError(
            f"open-loop run did not drain: {report.completed} of "
            f"{report.issued} completed")
    return report


def cluster_scaling_experiment(
        shard_counts: Sequence[int] = (1, 2, 3, 4),
        offered_per_shard: float = 120_000.0,
        window_ps: int = 2 * MS) -> ExperimentResult:
    """Aggregate throughput and latency tails, 1..S shards, per path."""
    result = ExperimentResult(
        experiment_id="cluster-scaling",
        title="Sharded KV scale-out on a switched fabric (weak scaling)",
        columns=["path", "shards", "offered_kops", "achieved_kops",
                 "p50_us", "p99_us"],
        notes=("open loop, Poisson arrivals, Zipf(0.99) keys, "
               f"{offered_per_shard / 1e3:.0f} kops/s offered per shard; "
               "TCP GETs serialize on one RPC core per server"))
    for path in GET_PATHS:
        for shards in shard_counts:
            report = run_cluster_point(
                shards, offered_per_shard=offered_per_shard,
                window_ps=window_ps, get_path=path)
            pct = report.latency_percentiles_us()
            result.add_row(
                path=path, shards=shards,
                offered_kops=report.offered_ops_per_s / 1e3,
                achieved_kops=report.achieved_ops_per_s / 1e3,
                p50_us=pct[0.50], p99_us=pct[0.99])
    return result

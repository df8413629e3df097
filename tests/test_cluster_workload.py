"""Open-loop workload generator: Zipf keys, Poisson pacing, accounting."""

import random

import pytest

from repro.cluster import (
    ShardedKvClient,
    ShardedKvService,
    WorkloadConfig,
    ZipfGenerator,
    build_star,
    key_for_rank,
    populate,
    run_open_loop,
)
from repro.experiments.cluster_scaling import run_cluster_point
from repro.experiments.fault_sweep import run_fault_point
from repro.sim import MS, Simulator


# ---------------------------------------------------------------------------
# Key distribution
# ---------------------------------------------------------------------------

def test_zipf_is_deterministic_per_seed():
    a = ZipfGenerator(100, 0.99, random.Random(5))
    b = ZipfGenerator(100, 0.99, random.Random(5))
    draws_a = [a.next() for _ in range(200)]
    draws_b = [b.next() for _ in range(200)]
    assert draws_a == draws_b
    assert all(0 <= r < 100 for r in draws_a)


def test_zipf_is_skewed():
    zipf = ZipfGenerator(1000, 0.99, random.Random(11))
    draws = [zipf.next() for _ in range(5000)]
    top10 = sum(1 for r in draws if r < 10)
    # Zipf(0.99): the ten hottest ranks take a large share; uniform
    # would give ~1%.
    assert top10 / len(draws) > 0.25


def test_zipf_uniform_at_theta_zero():
    zipf = ZipfGenerator(100, 0.0, random.Random(3))
    draws = [zipf.next() for _ in range(5000)]
    top10 = sum(1 for r in draws if r < 10)
    assert 0.05 < top10 / len(draws) < 0.20


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfGenerator(0, 0.5, random.Random(1))
    with pytest.raises(ValueError):
        ZipfGenerator(10, 1.0, random.Random(1))


def test_key_for_rank_is_a_bijection():
    num_keys = 257
    keys = {key_for_rank(rank, num_keys) for rank in range(num_keys)}
    assert keys == set(range(1, num_keys + 1))


def test_workload_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(offered_ops_per_s=0)
    with pytest.raises(ValueError):
        WorkloadConfig(offered_ops_per_s=1000, window_ps=0)
    with pytest.raises(ValueError):
        WorkloadConfig(offered_ops_per_s=1000, read_fraction=1.5)


# ---------------------------------------------------------------------------
# Open-loop runs
# ---------------------------------------------------------------------------

def _cluster_fixture(env, num_servers=2, num_clients=2, num_keys=32):
    cluster = build_star(env, num_hosts=num_servers + num_clients)
    service = ShardedKvService(cluster, cluster.hosts[:num_servers])
    populate(service, num_keys, 96)
    clients = [ShardedKvClient(cluster, service, node, seed=i)
               for i, node in enumerate(cluster.hosts[num_servers:])]
    return service, clients


def test_open_loop_accounting_balances():
    env = Simulator()
    _, clients = _cluster_fixture(env)
    config = WorkloadConfig(offered_ops_per_s=80_000, window_ps=1 * MS,
                            num_keys=32, read_fraction=0.8, seed=3)
    report = run_open_loop(env, clients, config)
    assert report.issued > 0
    # The run drains: every issued op completes, the in-window subset
    # is what throughput is computed from.
    assert report.completed == report.issued
    assert 0 < report.completed_in_window <= report.completed
    merged = report.merged
    assert merged.summary().count == report.completed
    assert sum(len(s) for s in report.per_client) == report.completed
    assert report.achieved_ops_per_s > 0
    pct = report.latency_percentiles_us()
    assert pct[0.50] <= pct[0.99]


def test_open_loop_is_deterministic():
    outcomes = []
    for _ in range(2):
        env = Simulator()
        _, clients = _cluster_fixture(env)
        config = WorkloadConfig(offered_ops_per_s=60_000,
                                window_ps=1 * MS, num_keys=32, seed=9)
        report = run_open_loop(env, clients, config)
        outcomes.append((report.issued, report.completed,
                         report.drain_ps,
                         report.latency_percentiles_us()))
    assert outcomes[0] == outcomes[1]


def test_open_loop_requires_clients():
    env = Simulator()
    config = WorkloadConfig(offered_ops_per_s=1000)
    with pytest.raises(ValueError):
        run_open_loop(env, [], config)


def test_write_mix_executes_puts():
    env = Simulator()
    service, clients = _cluster_fixture(env, num_keys=0)
    config = WorkloadConfig(offered_ops_per_s=50_000, window_ps=1 * MS,
                            num_keys=16, read_fraction=0.0, seed=2)
    report = run_open_loop(env, clients, config)
    assert report.completed == report.issued > 0
    # Pure-write workload materializes keys on the shards.
    assert sum(shard.size for shard in service.shards) > 0


def test_weak_scaling_throughput_increases():
    """The cluster-scaling experiment's core claim at test size:
    aggregate achieved throughput grows with the shard count."""
    achieved = []
    for shards in (1, 2):
        report = run_cluster_point(shards, offered_per_shard=50_000,
                                   window_ps=1 * MS, get_path="strom",
                                   num_keys=64, seed=4)
        achieved.append(report.achieved_ops_per_s)
    assert achieved[1] > achieved[0]


def test_cluster_point_pinned():
    """The sharded-KV operating point (2 shards + 2 clients, 120 kops/s
    offered per shard, 1 ms window, seed 1), clean over the StRoM
    traversal path and under 1 % Gilbert-Elliott bursty loss with
    replica failover, pinned to its exact simulated service metrics."""
    report = run_cluster_point(2, offered_per_shard=120_000,
                               window_ps=1 * MS, get_path="strom", seed=1)
    assert (report.issued, report.completed) == (226, 226)
    assert report.achieved_ops_per_s == 226_000.0
    pct = report.latency_percentiles_us()
    assert (pct[0.50], pct[0.99]) == (8.223167, 72.57840575)

    row = run_fault_point(0.01, crash=False, seed=1, num_shards=2,
                          offered_per_shard=120_000, window_ps=1 * MS)
    assert row == {
        "mean_loss": 0.01, "crash": 0, "offered_kops": 240.0,
        "goodput_kops": 217.0, "p50_us": 10.2869855,
        "p99_us": 384.53576125, "issued": 226, "failed": 0,
        "burst_drops": 30, "retransmits": 34, "recoveries": 3,
        "qp_errors": 0, "timeouts": 0, "failovers": 0,
        "faults_injected": 0,
    }

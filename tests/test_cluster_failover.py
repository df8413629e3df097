"""Client-side resilience: request timeouts, capped retries, replica
failover, and goodput through a shard crash/restart cycle."""

import json

import pytest

from repro.cluster import (
    KvUnavailable,
    RetryPolicy,
    ShardedKvClient,
    ShardedKvService,
    WorkloadConfig,
    build_star,
    populate,
    run_open_loop,
)
from repro.faults import FaultSchedule
from repro.obs import observe, registry_for
from repro.sim import MS, US, Simulator


def _star(env, num_shards=2, replicas=2, num_clients=2, seed=5,
          policy=RetryPolicy()):
    cluster = build_star(env, num_hosts=num_shards + num_clients,
                         seed=seed)
    servers = cluster.hosts[:num_shards]
    service = ShardedKvService(cluster, servers, replicas=replicas)
    populate(service, num_keys=64, value_bytes=128)
    clients = [ShardedKvClient(cluster, service, node, seed=seed + i,
                               retry_policy=policy)
               for i, node in enumerate(cluster.hosts[num_shards:])]
    return cluster, service, clients


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(request_timeout=0)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_cap=10, backoff_base=20)


def test_replication_places_values_on_backups():
    env = Simulator()
    _, service, _ = _star(env, num_shards=3, replicas=2)
    primary = service.insert(999, b"x" * 16)
    indices = service.replica_indices(999)
    assert indices[0] == primary
    assert len(set(indices)) == 2
    for index in indices:
        assert service.shards[index].lookup_local(999) is not None


def test_service_replication_validation():
    env = Simulator()
    cluster = build_star(env, num_hosts=3, seed=1)
    with pytest.raises(ValueError):
        ShardedKvService(cluster, cluster.hosts[:2], replicas=3)
    with pytest.raises(ValueError):
        ShardedKvService(cluster, cluster.hosts[:2], replicas=0)


def test_get_fails_over_to_backup_replica():
    """With the primary crashed, a GET lands on the backup and still
    returns the right bytes."""
    env = Simulator()
    _, service, clients = _star(env)
    key = 7
    primary = service.replica_indices(key)[0]
    service.crash_shard(primary)
    got = []

    def reader():
        value = yield from clients[0].get(key, path="strom",
                                          value_size=128)
        got.append(value)

    env.run_until_complete(env.process(reader()), limit=500 * MS)
    (result,) = got
    assert result.value == \
        service.shards[(primary + 1) % 2].lookup_local(key)
    snap = registry_for(env).snapshot()
    assert snap["h2.kv.failovers"] >= 1
    assert snap["kv.shard_crashes"] == 1


def test_all_replicas_down_raises_kv_unavailable():
    """No live replica: the retry budget runs out with KvUnavailable
    instead of a hang."""
    env = Simulator()
    policy = RetryPolicy(request_timeout=300 * US, max_attempts=2,
                         backoff_base=20 * US, backoff_cap=40 * US)
    _, service, clients = _star(env, policy=policy)
    service.crash_shard(0)
    service.crash_shard(1)
    outcome = []

    def reader():
        try:
            yield from clients[0].get(3, path="strom", value_size=128)
            outcome.append("ok")
        except KvUnavailable as exc:
            outcome.append(exc)

    env.run_until_complete(env.process(reader()), limit=500 * MS)
    (result,) = outcome
    assert isinstance(result, KvUnavailable)
    assert result.attempts == 2
    snap = registry_for(env).snapshot()
    assert snap["h2.kv.unavailable"] == 1


@pytest.mark.parametrize("get_path", ["strom", "reads", "tcp"])
def test_goodput_survives_crash_restart_cycle(get_path):
    """Acceptance: an open-loop workload rides through a shard crash +
    restart with zero hangs and nonzero goodput; the crash degrades
    goodput instead of wedging clients."""
    env = Simulator()
    _, service, clients = _star(env)
    schedule = FaultSchedule(env, seed=5)
    schedule.crash_shard(int(0.6 * MS), service, 0,
                         restart_after=int(0.8 * MS))
    schedule.start()
    config = WorkloadConfig(offered_ops_per_s=100_000.0,
                            window_ps=2 * MS, num_keys=64,
                            read_fraction=0.9, value_bytes=128,
                            get_path=get_path, seed=5)
    report = run_open_loop(env, clients, config)
    assert report.completed == report.issued  # zero hangs
    assert report.completed_in_window > 0
    assert report.achieved_ops_per_s > 0
    snap = registry_for(env).snapshot()
    assert snap["kv.shard_crashes"] == 1
    assert snap["kv.shard_restarts"] == 1
    # at least one client had to fail over or retry during the outage
    resilience_events = sum(
        snap.get(f"h{i}.kv.{kind}", 0)
        for i in (2, 3) for kind in ("failovers", "retries", "timeouts"))
    assert resilience_events > 0


def test_crash_restart_is_idempotent_and_counted():
    env = Simulator()
    _, service, _ = _star(env)
    service.crash_shard(0)
    service.crash_shard(0)  # no double-count
    assert not service.is_up(0)
    service.restart_shard(0)
    service.restart_shard(0)
    assert service.is_up(0)
    snap = registry_for(env).snapshot()
    assert snap["kv.shard_crashes"] == 1
    assert snap["kv.shard_restarts"] == 1


def test_injected_faults_appear_in_chrome_trace(tmp_path):
    """Acceptance: every injected fault shows up as an instant event in
    the Chrome trace export (source 'faults'), alongside the NIC's
    power_off/power_on instants."""
    with observe() as session:
        env = Simulator()
        _, service, clients = _star(env)
        schedule = FaultSchedule(env, seed=5)
        schedule.crash_shard(int(0.3 * MS), service, 0,
                             restart_after=int(0.4 * MS))
        schedule.start()
        config = WorkloadConfig(offered_ops_per_s=60_000.0,
                                window_ps=MS, num_keys=64,
                                read_fraction=1.0, value_bytes=128,
                                get_path="strom", seed=5)
        run_open_loop(env, clients, config)

    path = tmp_path / "trace.json"
    session.write_trace(str(path))
    document = json.loads(path.read_text())
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    fault_instants = [e for e in instants if e["cat"] == "faults"]
    assert {e["name"] for e in fault_instants} == \
        {"shard_crash", "shard_restart"}
    assert all("target" in e["args"] for e in fault_instants)
    nic_power = {e["name"] for e in instants if "nic" in e["cat"]}
    assert {"power_off", "power_on", "qp_error"} & nic_power >= \
        {"power_off", "power_on"}

"""Sharded KV service: placement, the three GET paths, and PUTs.

The acceptance scenario for the cluster subsystem lives here: a
4-server / 4-client sharded store on one switch where every key is
fetched over one-sided READs, the StRoM traversal kernel, and TCP RPC,
and all three return byte-identical values."""

import pytest

from repro.cluster import (
    GET_PATHS,
    HashRing,
    ShardedKvClient,
    ShardedKvService,
    build_star,
    value_for_key,
)
from repro.sim import MS, Simulator


def _run(env, gen, limit=10_000 * MS):
    return env.run_until_complete(env.process(gen), limit=limit)


# ---------------------------------------------------------------------------
# Hash ring
# ---------------------------------------------------------------------------

def test_hash_ring_deterministic_and_in_range():
    ring = HashRing(4)
    again = HashRing(4)
    for key in range(1, 500):
        shard = ring.shard_for(key)
        assert 0 <= shard < 4
        assert shard == again.shard_for(key)


def test_hash_ring_spreads_keys():
    ring = HashRing(4, vnodes=64)
    counts = [0] * 4
    for key in range(1, 2001):
        counts[ring.shard_for(key)] += 1
    # Virtual nodes keep the split within a loose band of fair share.
    assert min(counts) > 2000 // 4 // 3


def test_hash_ring_stability_when_growing():
    """Consistent hashing: going 3 -> 4 shards only moves keys onto the
    new shard; no key moves between surviving shards."""
    small, large = HashRing(3), HashRing(4)
    moved = 0
    for key in range(1, 2001):
        before, after = small.shard_for(key), large.shard_for(key)
        if before != after:
            assert after == 3
            moved += 1
    assert 0 < moved < 2000 // 2


def test_hash_ring_validation():
    with pytest.raises(ValueError):
        HashRing(0)
    with pytest.raises(ValueError):
        HashRing(2, vnodes=0)


# ---------------------------------------------------------------------------
# Service + client
# ---------------------------------------------------------------------------

def _service_fixture(env, num_servers=4, num_clients=4, num_keys=40,
                     value_bytes=96):
    cluster = build_star(env, num_hosts=num_servers + num_clients)
    service = ShardedKvService(cluster, cluster.hosts[:num_servers])
    for key in range(1, num_keys + 1):
        service.insert(key, value_for_key(key, value_bytes))
    clients = [ShardedKvClient(cluster, service, node, seed=i)
               for i, node in enumerate(cluster.hosts[num_servers:])]
    return cluster, service, clients


def test_acceptance_three_paths_byte_identical():
    """4 servers, 4 clients, one switch: every GET path returns the
    exact stored bytes for every key, from every client."""
    env = Simulator()
    _, service, clients = _service_fixture(env)

    def check():
        for key in range(1, 41):
            truth = service.lookup_local(key)
            assert truth == value_for_key(key, 96)
            for client in clients:
                for path in GET_PATHS:
                    result = yield from client.get(key, path=path,
                                                   value_size=96)
                    assert result.value == truth, (key, path,
                                                   client.node.name)

    _run(env, check(), limit=50_000 * MS)
    assert sum(shard.size for shard in service.shards) == 40


def test_get_latency_ordering():
    """strom < reads < tcp on chained keys: one round trip beats one per
    chain element beats a kernel-stack RPC (Figure 7's ordering)."""
    env = Simulator()
    _, service, clients = _service_fixture(env, num_keys=40)
    client = clients[0]
    latency = {}

    def probe():
        for path in GET_PATHS:
            worst = 0
            for key in range(1, 41):
                result = yield from client.get(key, path=path,
                                               value_size=96)
                worst = max(worst, result.latency_ps)
            latency[path] = worst

    _run(env, probe(), limit=50_000 * MS)
    assert latency["strom"] < latency["reads"] < latency["tcp"]


def test_get_missing_key_and_bad_path():
    env = Simulator()
    _, service, clients = _service_fixture(env, num_keys=4)
    client = clients[0]

    def check():
        result = yield from client.get(999, path="reads")
        assert result.value is None
        with pytest.raises(ValueError):
            yield from client.get(1, path="carrier-pigeon")

    _run(env, check())


def test_put_lands_on_owning_shard():
    env = Simulator()
    _, service, clients = _service_fixture(env, num_keys=0)
    client = clients[0]
    key, value = 777, b"\xBE\xEF" * 32

    def check():
        outcome = yield from client.put(key, value)
        assert outcome.shard == service.shard_index(key)
        assert outcome.latency_ps > 0
        # Now visible to every path from another client.
        result = yield from clients[1].get(key, path="strom",
                                           value_size=len(value))
        assert result.value == value

    _run(env, check())
    assert service.lookup_local(key) == value
    assert sum(shard.size for shard in service.shards) == 1


def test_concurrent_gets_share_connection_pool():
    """More in-flight GETs than pool slots: all complete, none corrupt
    (the pool serializes buffer reuse)."""
    env = Simulator()
    _, service, clients = _service_fixture(env, num_clients=1,
                                           num_keys=12)
    client = clients[0]
    results = {}

    def one(key):
        result = yield from client.get(key, path="reads")
        results[key] = result.value

    def fanout():
        procs = [env.process(one(key)) for key in range(1, 13)]
        yield env.all_of(procs)

    _run(env, fanout(), limit=50_000 * MS)
    for key in range(1, 13):
        assert results[key] == value_for_key(key, 96)


def test_service_validation():
    env = Simulator()
    cluster = build_star(env, num_hosts=2)
    with pytest.raises(ValueError):
        ShardedKvService(cluster, [])
    service = ShardedKvService(cluster, cluster.hosts[:1])
    with pytest.raises(ValueError):
        ShardedKvClient(cluster, service, cluster.hosts[1], slots=0)

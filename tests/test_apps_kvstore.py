"""Tests for the Pilaf-style key-value store application."""

import pytest

from repro.apps import KvClient, KvServer, pack_entry, unpack_entry
from repro.config import HOST_DEFAULT
from repro.host import build_fabric
from repro.host.tcp_rpc import TcpRpcChannel
from repro.sim import MS, Simulator


def make_store(num_slots=32):
    env = Simulator()
    fabric = build_fabric(env)
    store = KvServer(fabric.server, num_slots=num_slots)
    return env, fabric, store


def run_proc(env, gen, limit=1000 * MS):
    return env.run_until_complete(env.process(gen), limit=limit)


def test_entry_pack_unpack_roundtrip():
    blob = pack_entry(key=7, value_ptr=0x1000, next_ptr=0x2000,
                      value_len=64)
    assert len(blob) == 64
    assert unpack_entry(blob) == (7, 0x1000, 0x2000, 64)


def test_insert_and_local_lookup():
    _env, _fabric, store = make_store()
    store.insert(10, b"ten")
    store.insert(20, b"twenty")
    assert store.lookup_local(10) == b"ten"
    assert store.lookup_local(20) == b"twenty"
    assert store.lookup_local(99) is None
    assert store.size == 2


def test_insert_key_zero_rejected():
    _env, _fabric, store = make_store()
    with pytest.raises(ValueError):
        store.insert(0, b"nope")


def test_collision_chaining():
    """Many keys in few slots must chain and all stay findable."""
    _env, _fabric, store = make_store(num_slots=4)
    for key in range(1, 41):
        store.insert(key, f"v{key}".encode())
    for key in range(1, 41):
        assert store.lookup_local(key) == f"v{key}".encode()
    depths = [store.chain_length(k) for k in range(1, 41)]
    assert max(depths) >= 2  # chains actually formed
    assert store.slot_is_empty(0) in (True, False)  # smoke


def test_insert_existing_key_updates_in_place():
    """Re-inserting a key (head of its slot or deeper in the chain)
    updates that entry: every GET path sees the new value, the key is
    counted once, and the chain keeps its layout."""
    env, fabric, store = make_store(num_slots=2)
    store.deploy_traversal_kernel()
    for key in (1, 2, 3, 4):
        store.insert(key, bytes([key]) * 32)
    depths = {key: store.chain_length(key) for key in (1, 2, 3, 4)}
    head = next(k for k, depth in depths.items() if depth == 1)
    deep = max(depths, key=depths.get)
    assert depths[deep] >= 2
    for key in (head, deep):
        store.insert(key, bytes([key + 100]) * 32)
    assert store.size == 4
    assert {key: store.chain_length(key) for key in depths} == depths
    client = KvClient(fabric, store)

    def proc(key):
        by_reads = yield from client.get_via_reads(key)
        by_strom = yield from client.get_via_strom(key, 32)
        return by_reads.value, by_strom.value

    for key in (1, 2, 3, 4):
        want = bytes([key + 100 if key in (head, deep) else key]) * 32
        assert store.lookup_local(key) == want
        assert run_proc(env, proc(key)) == (want, want)


def test_chain_length_empty_slot():
    _env, _fabric, store = make_store()
    assert store.chain_length(12345) == 0
    assert store.slot_is_empty(12345)


def test_get_via_reads_round_trips_match_depth():
    env, fabric, store = make_store(num_slots=2)
    for key in (1, 2, 3, 4):
        store.insert(key, bytes([key]) * 32)
    client = KvClient(fabric, store)

    def proc(key):
        result = yield from client.get_via_reads(key)
        return result

    for key in (1, 2, 3, 4):
        depth = store.chain_length(key)
        result = run_proc(env, proc(key))
        assert result.value == bytes([key]) * 32
        # chain probes + 1 value read
        assert result.network_round_trips == depth + 1


def test_get_via_strom_single_round_trip():
    env, fabric, store = make_store(num_slots=2)
    store.deploy_traversal_kernel()
    for key in (1, 2, 3, 4, 5):
        store.insert(key, bytes([key]) * 64)
    client = KvClient(fabric, store)

    def proc(key):
        result = yield from client.get_via_strom(key, 64)
        return result

    for key in (1, 3, 5):
        result = run_proc(env, proc(key))
        assert result.value == bytes([key]) * 64
        assert result.network_round_trips == 1


def test_get_via_strom_missing_key():
    env, fabric, store = make_store()
    store.deploy_traversal_kernel()
    store.insert(1, b"x" * 64)
    client = KvClient(fabric, store)

    def proc():
        result = yield from client.get_via_strom(424242, 64)
        return result

    result = run_proc(env, proc())
    assert result.value is None


def test_get_via_tcp_requires_channel():
    env, fabric, store = make_store()
    client = KvClient(fabric, store)

    def proc():
        yield from client.get_via_tcp(1)

    with pytest.raises(RuntimeError):
        run_proc(env, proc())


def test_get_via_tcp_returns_value():
    env, fabric, store = make_store()
    store.insert(9, b"tcp-value")
    tcp = TcpRpcChannel(env, HOST_DEFAULT, seed=3)
    client = KvClient(fabric, store, tcp=tcp)

    def proc():
        result = yield from client.get_via_tcp(9)
        return result

    result = run_proc(env, proc())
    assert result.value == b"tcp-value"
    assert result.latency_ps > 30_000_000  # tens of microseconds


def test_strom_faster_than_reads_on_chains():
    """The deeper the chain, the bigger StRoM's advantage."""
    env, fabric, store = make_store(num_slots=1)
    store.deploy_traversal_kernel()
    for key in range(1, 9):
        store.insert(key, bytes([key]) * 64)
    client = KvClient(fabric, store)
    # New chain elements are inserted behind the head, so the second
    # inserted key keeps sliding toward the tail: it is the deepest.
    deep_key = 2
    depth = store.chain_length(deep_key)
    assert depth >= 2

    def proc():
        via_reads = yield from client.get_via_reads(deep_key)
        via_strom = yield from client.get_via_strom(deep_key, 64)
        return via_reads, via_strom

    via_reads, via_strom = run_proc(env, proc())
    assert via_reads.value == via_strom.value
    assert via_strom.latency_ps < via_reads.latency_ps


def test_value_region_exhaustion():
    env, fabric, _ = make_store()
    small = KvServer(fabric.server, num_slots=4, value_capacity=64)
    small.insert(1, b"x" * 60)
    with pytest.raises(MemoryError):
        small.insert(2, b"y" * 60)

"""Tests for the distributed radix join and the remote object store."""

import numpy as np
import pytest

from repro.apps import (
    DistributedRadixJoin,
    ObjectStoreClient,
    RemoteObjectStore,
    reference_join_count,
)
from repro.config import HOST_DEFAULT
from repro.host import build_fabric
from repro.host.cpu import CpuModel
from repro.kernels import seeded_failure_injector
from repro.sim import MS, Simulator


def run_proc(env, gen, limit=10_000 * MS):
    return env.run_until_complete(env.process(gen), limit=limit)


# ---------------------------------------------------------------------------
# DistributedRadixJoin
# ---------------------------------------------------------------------------

def make_join(partition_bits=3):
    env = Simulator()
    fabric = build_fabric(env)
    join = DistributedRadixJoin(fabric, partition_bits,
                                CpuModel(HOST_DEFAULT))
    return env, fabric, join


def test_join_exact_cardinality():
    env, _fabric, join = make_join()
    rng = np.random.default_rng(21)
    build = rng.integers(0, 2000, size=6000, dtype=np.uint64)
    probe = rng.integers(0, 2000, size=9000, dtype=np.uint64)

    def proc():
        result = yield from join.execute(build, probe)
        return result

    result = run_proc(env, proc())
    assert result.matches == reference_join_count(build, probe)
    assert result.build_tuples == 6000
    assert result.probe_tuples == 9000
    assert result.partitions == 8
    assert result.shuffle_seconds > 0
    assert result.local_partition_seconds > 0 and result.join_seconds > 0


def test_join_disjoint_relations():
    env, _fabric, join = make_join(partition_bits=2)
    build = np.arange(0, 1000, dtype=np.uint64) * np.uint64(2)      # even
    probe = np.arange(0, 1000, dtype=np.uint64) * np.uint64(2) + \
        np.uint64(1)                                                # odd

    def proc():
        result = yield from join.execute(build, probe)
        return result

    result = run_proc(env, proc())
    assert result.matches == 0


def test_join_with_duplicates_multiset_semantics():
    env, _fabric, join = make_join(partition_bits=1)
    build = np.array([5, 5, 7], dtype=np.uint64)
    probe = np.array([5, 7, 7, 9], dtype=np.uint64)

    def proc():
        result = yield from join.execute(build, probe)
        return result

    result = run_proc(env, proc())
    # 2 copies of 5 x 1 copy + 1 copy of 7 x 2 copies = 4
    assert result.matches == 4


def test_join_validation():
    env = Simulator()
    fabric = build_fabric(env)
    with pytest.raises(ValueError):
        DistributedRadixJoin(fabric, 11, CpuModel(HOST_DEFAULT))


def test_reference_join_count():
    build = np.array([1, 1, 2], dtype=np.uint64)
    probe = np.array([1, 2, 2], dtype=np.uint64)
    assert reference_join_count(build, probe) == 2 + 2


# ---------------------------------------------------------------------------
# RemoteObjectStore
# ---------------------------------------------------------------------------

def make_store(failure_injector=None):
    env = Simulator()
    fabric = build_fabric(env)
    store = RemoteObjectStore(fabric.server, max_objects=64,
                              failure_injector=failure_injector)
    client = ObjectStoreClient(fabric, store)
    return env, fabric, store, client


def test_put_get_roundtrip():
    env, _fabric, store, client = make_store()
    entry = store.put(3, b"remote object payload")
    assert entry.version == 1 and entry.valid

    def proc():
        data = yield from client.get(3)
        return data

    assert run_proc(env, proc()) == b"remote object payload"


def test_get_missing_object():
    env, _fabric, _store, client = make_store()

    def proc():
        data = yield from client.get(7)
        return data

    assert run_proc(env, proc()) is None


def test_put_bumps_version_and_updates_in_place():
    env, _fabric, store, client = make_store()
    first = store.put(1, b"version-one!")
    second = store.put(1, b"version-two.")
    assert second.version == first.version + 1
    assert second.vaddr == first.vaddr  # same size: updated in place

    def proc():
        data = yield from client.get(1, refresh_directory=True)
        return data

    assert run_proc(env, proc()) == b"version-two."


def test_stale_directory_cache_refresh():
    env, _fabric, store, client = make_store()
    store.put(2, b"a" * 100)

    def first_get():
        return (yield from client.get(2))

    assert run_proc(env, first_get()) == b"a" * 100
    # Replace with a *larger* object: new heap address + size.
    store.put(2, b"b" * 500)

    def refreshed_get():
        return (yield from client.get(2, refresh_directory=True))

    assert run_proc(env, refreshed_get()) == b"b" * 500


def test_delete_hides_object():
    env, _fabric, store, client = make_store()
    store.put(4, b"soon gone")
    store.delete(4)
    assert store.lookup(4) is None

    def proc():
        return (yield from client.get(4, refresh_directory=True))

    assert run_proc(env, proc()) is None


def test_corrupt_object_is_never_returned():
    env, _fabric, store, client = make_store()
    store.put(5, b"precious data")
    store.corrupt_for_testing(5)

    def proc():
        return (yield from client.get(5))

    assert run_proc(env, proc()) is None
    assert store.kernel.gave_up == 1


def test_torn_reads_recovered_by_kernel():
    env, _fabric, store, client = make_store(
        failure_injector=seeded_failure_injector(1.0, seed=9))
    store.put(6, b"torn but recovered")

    def proc():
        return (yield from client.get(6))

    assert run_proc(env, proc()) == b"torn but recovered"
    assert store.kernel.checks_failed >= 1  # the injected torn read
    assert store.kernel.checks_passed >= 1  # the local retry


def test_heap_exhaustion():
    env = Simulator()
    fabric = build_fabric(env)
    store = RemoteObjectStore(fabric.server, max_objects=4,
                              heap_bytes=256)
    store.put(0, b"x" * 100)
    with pytest.raises(MemoryError):
        store.put(1, b"y" * 200)


def test_directory_bounds():
    env, _fabric, store, _client = make_store()
    with pytest.raises(KeyError):
        store.put(64, b"out of range")

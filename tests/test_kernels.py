"""End-to-end tests of the five StRoM kernels over the two-node fabric."""

import struct

import numpy as np
import pytest

from repro.algos import ChecksummedObject, HyperLogLog, exact_cardinality
from repro.core import RPC_ERROR_NO_KERNEL, RpcOpcode, RpcPreamble, pack_params
from repro.host import build_fabric
from repro.kernels import (
    ConsistencyKernel,
    ConsistencyParams,
    GetKernel,
    GetParams,
    HllKernel,
    HllParams,
    INCONSISTENT_MARKER,
    NOT_FOUND_MARKER,
    PredicateOp,
    ShuffleKernel,
    ShuffleParams,
    TraversalKernel,
    TraversalParams,
    pack_descriptor,
    pack_ht_entry,
    seeded_failure_injector,
)
from repro.sim import MS, Simulator


def run_proc(env, gen, limit=50 * MS):
    return env.run_until_complete(env.process(gen), limit=limit)


def make_fabric():
    env = Simulator()
    return env, build_fabric(env)


# ---------------------------------------------------------------------------
# GET kernel (Listing 2)
# ---------------------------------------------------------------------------

def test_get_kernel_returns_value():
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    kernel = GetKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.GET, kernel)

    table = server.alloc(4096, "ht")
    values = server.alloc(4096, "values")
    response = client.alloc(4096, "resp")

    value = b"the-stored-value" * 4  # 64 B
    server.space.write(values.vaddr, value)
    entry = pack_ht_entry([(111, 0, 0),
                           (42, values.vaddr, len(value)),
                           (333, 0, 0)])
    server.space.write(table.vaddr, entry)

    params = GetParams(response_vaddr=response.vaddr,
                       ht_entry_vaddr=table.vaddr, key=42)

    def proc():
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.GET,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, len(value))

    run_proc(env, proc())
    assert client.space.read(response.vaddr, len(value)) == value
    assert kernel.invocations == 1


def test_get_kernel_bucket_priority():
    """Listing 4's mux prefers bucket 1, then 2, then 0."""
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    kernel = GetKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.GET, kernel)

    table = server.alloc(4096, "ht")
    values = server.alloc(4096, "values")
    response = client.alloc(4096, "resp")
    server.space.write(values.vaddr, b"A" * 32)
    server.space.write(values.vaddr + 64, b"B" * 32)
    # The key matches buckets 0 AND 1; bucket 1 must win.
    entry = pack_ht_entry([(7, values.vaddr, 32),
                           (7, values.vaddr + 64, 32)])
    server.space.write(table.vaddr, entry)

    def proc():
        params = GetParams(response_vaddr=response.vaddr,
                           ht_entry_vaddr=table.vaddr, key=7)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.GET,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, 32)

    run_proc(env, proc())
    assert client.space.read(response.vaddr, 32) == b"B" * 32


# ---------------------------------------------------------------------------
# Traversal kernel (Section 6.2)
# ---------------------------------------------------------------------------

def build_linked_list(server, keys, value_size=64):
    """Figure 6 layout: key @ pos 0, next ptr @ pos 2, value ptr @ pos 4."""
    elements = server.alloc(64 * (len(keys) + 1), "list")
    values = server.alloc(value_size * (len(keys) + 1), "values")
    addresses = [elements.vaddr + 64 * i for i in range(len(keys))]
    for i, key in enumerate(keys):
        value_addr = values.vaddr + value_size * i
        payload = bytes([i + 1]) * value_size
        server.space.write(value_addr, payload)
        next_ptr = addresses[i + 1] if i + 1 < len(keys) else 0
        element = (key.to_bytes(8, "little")
                   + next_ptr.to_bytes(8, "little")
                   + value_addr.to_bytes(8, "little"))
        server.space.write(addresses[i], element.ljust(64, b"\x00"))
    return addresses[0], values


def linked_list_params(response_vaddr, head, key, value_size=64):
    return TraversalParams(
        response_vaddr=response_vaddr, remote_address=head,
        value_size=value_size, key=key, key_mask=1,
        predicate_op=PredicateOp.EQUAL, value_ptr_position=4,
        is_relative_position=False, next_element_ptr_position=2,
        next_element_ptr_valid=True)


def test_traversal_linked_list_lookup():
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    kernel = TraversalKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.TRAVERSAL, kernel)
    keys = [10, 20, 30, 40, 50, 60, 70, 80]
    head, _ = build_linked_list(server, keys)
    response = client.alloc(4096, "resp")

    def proc():
        params = linked_list_params(response.vaddr, head, key=50)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.TRAVERSAL,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, 64)

    run_proc(env, proc())
    # key 50 is the 5th element -> payload byte 5
    assert client.space.read(response.vaddr, 64) == bytes([5]) * 64
    assert kernel.elements_visited == 5


def test_traversal_latency_grows_with_depth_sublinearly():
    """Each extra hop costs one PCIe round trip, not a network RTT."""
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    kernel = TraversalKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.TRAVERSAL, kernel)
    keys = list(range(1, 33))
    head, _ = build_linked_list(server, keys)
    response = client.alloc(4096, "resp")

    def lookup(key):
        start = env.now
        params = linked_list_params(response.vaddr, head, key=key)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.TRAVERSAL,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, 64)
        return env.now - start

    shallow = run_proc(env, lookup(1))
    deep = run_proc(env, lookup(32))
    per_hop = (deep - shallow) / 31
    # ~ PCIe read latency per hop (1.5 us), far below a 10 G network RTT.
    assert 1_000_000 < per_hop < 3_000_000  # 1-3 us in ps


def test_traversal_not_found_marker():
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    kernel = TraversalKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.TRAVERSAL, kernel)
    head, _ = build_linked_list(server, [1, 2, 3])
    response = client.alloc(4096, "resp")

    def proc():
        params = linked_list_params(response.vaddr, head, key=99)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.TRAVERSAL,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, 8)

    run_proc(env, proc())
    marker = int.from_bytes(client.space.read(response.vaddr, 8), "little")
    assert marker == NOT_FOUND_MARKER
    assert kernel.not_found == 1


def test_traversal_predicates():
    assert PredicateOp.EQUAL.evaluate(5, 5)
    assert PredicateOp.LESS_THAN.evaluate(3, 5)
    assert PredicateOp.GREATER_THAN.evaluate(9, 5)
    assert PredicateOp.NOT_EQUAL.evaluate(4, 5)
    assert not PredicateOp.EQUAL.evaluate(4, 5)


def test_traversal_params_roundtrip():
    params = linked_list_params(0xAAAA, 0xBBBB, key=123)
    assert TraversalParams.unpack(params.pack()) == params


def test_traversal_relative_value_pointer():
    """Hash-table style: value ptr sits right after the matched key."""
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    kernel = TraversalKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.TRAVERSAL, kernel)
    entry_region = server.alloc(4096, "entry")
    value_region = server.alloc(4096, "value")
    response = client.alloc(4096, "resp")
    server.space.write(value_region.vaddr, b"V" * 128)
    # Element: [key0 @pos0][vptr0 @pos2][key1 @pos4][vptr1 @pos6]
    element = ((111).to_bytes(8, "little")
               + (0).to_bytes(8, "little")
               + (222).to_bytes(8, "little")
               + value_region.vaddr.to_bytes(8, "little"))
    server.space.write(entry_region.vaddr, element.ljust(64, b"\x00"))

    def proc():
        params = TraversalParams(
            response_vaddr=response.vaddr,
            remote_address=entry_region.vaddr, value_size=128, key=222,
            key_mask=0b10001, predicate_op=PredicateOp.EQUAL,
            value_ptr_position=2, is_relative_position=True,
            next_element_ptr_position=0, next_element_ptr_valid=False)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.TRAVERSAL,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, 128)

    run_proc(env, proc())
    assert client.space.read(response.vaddr, 128) == b"V" * 128


# ---------------------------------------------------------------------------
# Consistency kernel (Section 6.3)
# ---------------------------------------------------------------------------

def consistency_setup(failure_rate=0.0, seed=0):
    env, fabric = make_fabric()
    server = fabric.server
    injector = seeded_failure_injector(failure_rate, seed) \
        if failure_rate else None
    kernel = ConsistencyKernel(env, server.nic.config,
                               failure_injector=injector)
    server.nic.deploy_kernel(RpcOpcode.CONSISTENCY, kernel)
    return env, fabric, kernel


def test_consistency_kernel_delivers_verified_object():
    env, fabric, kernel = consistency_setup()
    server, client = fabric.server, fabric.client
    obj_region = server.alloc(4096, "obj")
    response = client.alloc(4096, "resp")
    payload = b"important-object" * 8
    sealed = ChecksummedObject.seal(payload)
    server.space.write(obj_region.vaddr, sealed)

    def proc():
        params = ConsistencyParams(response_vaddr=response.vaddr,
                                   object_vaddr=obj_region.vaddr,
                                   object_size=len(sealed))
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.CONSISTENCY,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, len(sealed))

    run_proc(env, proc())
    got = client.space.read(response.vaddr, len(sealed))
    assert ChecksummedObject.verify(got)
    assert ChecksummedObject.payload(got) == payload
    assert kernel.checks_passed == 1
    assert kernel.checks_failed == 0


def test_consistency_kernel_retries_on_injected_failure():
    env, fabric, kernel = consistency_setup(failure_rate=1.0)
    server, client = fabric.server, fabric.client
    obj_region = server.alloc(4096, "obj")
    response = client.alloc(4096, "resp")
    sealed = ChecksummedObject.seal(b"x" * 120)
    server.space.write(obj_region.vaddr, sealed)

    def proc():
        params = ConsistencyParams(response_vaddr=response.vaddr,
                                   object_vaddr=obj_region.vaddr,
                                   object_size=len(sealed))
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.CONSISTENCY,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, len(sealed))

    run_proc(env, proc())
    assert kernel.checks_failed == 1    # first read torn
    assert kernel.checks_passed == 1    # retry succeeded locally
    assert ChecksummedObject.verify(
        client.space.read(response.vaddr, len(sealed)))


def test_consistency_kernel_gives_up_on_corrupt_object():
    env, fabric, kernel = consistency_setup()
    server, client = fabric.server, fabric.client
    obj_region = server.alloc(4096, "obj")
    response = client.alloc(4096, "resp")
    sealed = bytearray(ChecksummedObject.seal(b"y" * 56))
    sealed[0] ^= 0xFF  # permanently corrupt
    server.space.write(obj_region.vaddr, bytes(sealed))

    def proc():
        params = ConsistencyParams(response_vaddr=response.vaddr,
                                   object_vaddr=obj_region.vaddr,
                                   object_size=len(sealed), max_retries=3)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.CONSISTENCY,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, 8)

    run_proc(env, proc())
    marker = int.from_bytes(client.space.read(response.vaddr, 8), "little")
    assert marker == INCONSISTENT_MARKER
    assert kernel.gave_up == 1
    assert kernel.checks_failed == 4  # initial + 3 retries


# ---------------------------------------------------------------------------
# Shuffle kernel (Section 6.4)
# ---------------------------------------------------------------------------

def test_shuffle_kernel_partitions_stream():
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    kernel = ShuffleKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.SHUFFLE, kernel, sequential_dma=False)

    bits = 2
    num_partitions = 1 << bits
    tuples_per_partition = 600
    total_tuples = num_partitions * tuples_per_partition
    rng = np.random.default_rng(5)
    values = rng.integers(0, 2**63, size=total_tuples, dtype=np.uint64)

    partition_cap = tuples_per_partition * 8 * 2
    regions = [server.alloc(partition_cap, f"part{i}")
               for i in range(num_partitions)]
    table = server.alloc(4096, "descriptors")
    blob = b"".join(pack_descriptor(r.vaddr, partition_cap) for r in regions)
    server.space.write(table.vaddr, blob)

    data = client.alloc(total_tuples * 8, "data")
    client.space.write(data.vaddr, values.tobytes())
    response = client.alloc(4096, "resp")

    def proc():
        params = ShuffleParams(response_vaddr=response.vaddr,
                               descriptor_table_vaddr=table.vaddr,
                               partition_bits=bits,
                               total_bytes=total_tuples * 8)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.SHUFFLE,
                                   params.pack())
        yield from client.post_rpc_write(fabric.client_qpn, RpcOpcode.SHUFFLE,
                                         data.vaddr, total_tuples * 8)
        yield from client.wait_for_data(response.vaddr, 16)

    run_proc(env, proc(), limit=200 * MS)

    partitioned, overflowed = struct.unpack(
        "<QQ", client.space.read(response.vaddr, 16))
    assert partitioned == total_tuples
    assert overflowed == 0

    mask = np.uint64(num_partitions - 1)
    recovered = []
    for i, region in enumerate(regions):
        expected = values[(values & mask) == i]
        raw = server.space.read(region.vaddr, expected.size * 8)
        got = np.frombuffer(raw, dtype="<u8")
        # Partitioning must preserve arrival order within a partition.
        assert np.array_equal(got, expected)
        recovered.append(got)
    assert sum(r.size for r in recovered) == total_tuples


def test_shuffle_kernel_reports_overflow():
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    kernel = ShuffleKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.SHUFFLE, kernel, sequential_dma=False)

    total_tuples = 512
    values = np.arange(total_tuples, dtype=np.uint64)
    region = server.alloc(1024, "part0")  # only 128 tuples fit
    table = server.alloc(4096, "descriptors")
    server.space.write(table.vaddr, pack_descriptor(region.vaddr, 1024))
    data = client.alloc(total_tuples * 8, "data")
    client.space.write(data.vaddr, values.tobytes())
    response = client.alloc(4096, "resp")

    def proc():
        params = ShuffleParams(response_vaddr=response.vaddr,
                               descriptor_table_vaddr=table.vaddr,
                               partition_bits=0,
                               total_bytes=total_tuples * 8)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.SHUFFLE,
                                   params.pack())
        yield from client.post_rpc_write(fabric.client_qpn, RpcOpcode.SHUFFLE,
                                         data.vaddr, total_tuples * 8)
        yield from client.wait_for_data(response.vaddr, 16)

    run_proc(env, proc(), limit=200 * MS)
    partitioned, overflowed = struct.unpack(
        "<QQ", client.space.read(response.vaddr, 16))
    assert partitioned == total_tuples
    assert overflowed == total_tuples - 128


# ---------------------------------------------------------------------------
# HLL kernel (Section 7.2)
# ---------------------------------------------------------------------------

def test_hll_kernel_estimates_and_passes_data_through():
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    kernel = HllKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.HLL, kernel)

    total_tuples = 4000
    rng = np.random.default_rng(9)
    values = rng.integers(0, 5000, size=total_tuples, dtype=np.uint64)
    truth = exact_cardinality(values.tolist())

    data_src = client.alloc(total_tuples * 8, "src")
    client.space.write(data_src.vaddr, values.tobytes())
    data_dst = server.alloc(total_tuples * 8, "dst")
    registers = server.alloc(1 << 14, "registers")
    response = client.alloc(4096, "resp")

    def proc():
        params = HllParams(response_vaddr=response.vaddr,
                           data_vaddr=data_dst.vaddr,
                           registers_vaddr=registers.vaddr,
                           total_bytes=total_tuples * 8, precision=14)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.HLL,
                                   params.pack())
        yield from client.post_rpc_write(fabric.client_qpn, RpcOpcode.HLL,
                                         data_src.vaddr, total_tuples * 8)
        yield from client.wait_for_data(response.vaddr, 16)

    run_proc(env, proc(), limit=200 * MS)
    env.run()  # drain the posted register-file DMA write

    estimate, seen = struct.unpack("<QQ",
                                   client.space.read(response.vaddr, 16))
    assert seen == total_tuples
    assert abs(estimate - truth) / truth < 0.05
    # Pass-through data landed byte-identical in server memory.
    assert server.space.read(data_dst.vaddr, total_tuples * 8) \
        == values.tobytes()
    # Register file is in host memory and yields the same estimate.
    sketch = HyperLogLog.from_register_bytes(
        server.space.read(registers.vaddr, 1 << 14), precision=14)
    assert int(round(sketch.cardinality())) == estimate
    # The kernel sketches the whole session at once; the register file
    # it DMA'd is byte-equal to a one-shot sketch of the stream.
    oneshot = HyperLogLog(precision=14)
    oneshot.add_array(values)
    assert server.space.read(registers.vaddr, 1 << 14) \
        == oneshot.register_bytes()


# ---------------------------------------------------------------------------
# RPC dispatch edge cases (Section 5.1)
# ---------------------------------------------------------------------------

def test_unmatched_rpc_opcode_writes_error_code():
    env, fabric = make_fabric()
    client = fabric.client
    response = client.alloc(4096, "resp")

    def proc():
        params = pack_params(RpcPreamble(response_vaddr=response.vaddr))
        yield from client.post_rpc(fabric.client_qpn, 0x77, params)
        yield from client.wait_for_data(response.vaddr, 8)

    run_proc(env, proc())
    code = int.from_bytes(client.space.read(response.vaddr, 8), "little")
    assert code == RPC_ERROR_NO_KERNEL
    assert int(fabric.server.nic.registry.misses) == 1


def test_cpu_fallback_invoked_on_miss():
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    calls = []

    def fallback(qpn, opcode, params):
        calls.append((qpn, opcode))
        yield env.timeout(0)

    server.nic.registry.set_fallback(fallback)
    response = client.alloc(4096, "resp")

    def proc():
        params = pack_params(RpcPreamble(response_vaddr=response.vaddr))
        completion = yield from client.post_rpc(fabric.client_qpn, 0x88,
                                                params)
        yield completion

    run_proc(env, proc())
    env.run(until=env.now + MS)
    assert calls == [(fabric.server_qpn, 0x88)]
    assert int(fabric.server.nic.registry.fallbacks) == 1


def test_multi_kernel_deployment():
    """Several kernels on one NIC, matched by RPC op-code."""
    env, fabric = make_fabric()
    server, client = fabric.server, fabric.client
    get_kernel = GetKernel(env, server.nic.config)
    traversal_kernel = TraversalKernel(env, server.nic.config)
    server.nic.deploy_kernel(RpcOpcode.GET, get_kernel)
    server.nic.deploy_kernel(RpcOpcode.TRAVERSAL, traversal_kernel)
    assert server.nic.registry.deployed_opcodes == [
        RpcOpcode.GET, RpcOpcode.TRAVERSAL]

    head, _ = build_linked_list(server, [5, 6, 7])
    response = client.alloc(4096, "resp")

    def proc():
        params = linked_list_params(response.vaddr, head, key=6)
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.TRAVERSAL,
                                   params.pack())
        yield from client.wait_for_data(response.vaddr, 64)

    run_proc(env, proc())
    assert traversal_kernel.invocations == 1
    assert get_kernel.invocations == 0

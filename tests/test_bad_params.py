"""RPC_ERROR_BAD_PARAMS: malformed parameter blocks for every kernel
param type answer with an error completion instead of crashing the
kernel process, and the kernel keeps serving afterwards."""

import tracemalloc

import pytest

from repro.core import (
    RPC_ERROR_BAD_PARAMS,
    RpcOpcode,
    RpcPreamble,
    pack_params,
)
from repro.host import build_fabric
from repro.kernels import (
    ConsistencyKernel,
    ConsistencyParams,
    GetKernel,
    GetParams,
    HllKernel,
    HllParams,
    NOT_FOUND_MARKER,
    ShuffleKernel,
    ShuffleParams,
    TraversalKernel,
    TraversalParams,
)
from repro.kernels.aggregate import AggregateKernel, AggregateParams
from repro.kernels.filter import FilterKernel, FilterParams
from repro.sim import MS, Simulator


def run_proc(env, gen, limit=50 * MS):
    return env.run_until_complete(env.process(gen), limit=limit)


def deploy(opcode, kernel_cls):
    env = Simulator()
    fabric = build_fabric(env)
    kernel = kernel_cls(env, fabric.server.nic.config)
    fabric.server.nic.deploy_kernel(opcode, kernel)
    response = fabric.client.alloc(4096, "resp")
    return env, fabric, kernel, response


def invoke_raw(env, fabric, opcode, raw, response):
    """Post raw params and return the u64 landing at the response."""
    def proc():
        yield from fabric.client.post_rpc(fabric.client_qpn, opcode, raw)
        yield from fabric.client.wait_for_data(response.vaddr, 8)
    run_proc(env, proc())
    return int.from_bytes(
        fabric.client.space.read(response.vaddr, 8), "little")


def test_get_truncated_body_rejected():
    env, fabric, kernel, response = deploy(RpcOpcode.GET, GetKernel)
    # Preamble present, body 8 bytes short of GetParams._BODY.
    raw = pack_params(RpcPreamble(response.vaddr), b"\x00" * 8)
    head = invoke_raw(env, fabric, RpcOpcode.GET, raw, response)
    assert head == RPC_ERROR_BAD_PARAMS
    assert kernel.params_rejected == 1
    assert kernel.invocations == 1


def test_traversal_zero_length_element_rejected():
    env, fabric, kernel, response = deploy(
        RpcOpcode.TRAVERSAL, TraversalKernel)
    body = TraversalParams._BODY.pack(0x1000, 0, 1, 1, 0, 4, 2, 2)
    raw = pack_params(RpcPreamble(response.vaddr), body)  # value_size 0
    head = invoke_raw(env, fabric, RpcOpcode.TRAVERSAL, raw, response)
    assert head == RPC_ERROR_BAD_PARAMS
    assert kernel.params_rejected == 1


def test_traversal_invalid_predicate_rejected():
    env, fabric, kernel, response = deploy(
        RpcOpcode.TRAVERSAL, TraversalKernel)
    body = TraversalParams._BODY.pack(0x1000, 64, 1, 1, 9, 4, 2, 2)
    raw = pack_params(RpcPreamble(response.vaddr), body)  # predicate 9
    head = invoke_raw(env, fabric, RpcOpcode.TRAVERSAL, raw, response)
    assert head == RPC_ERROR_BAD_PARAMS


def test_traversal_value_position_beyond_element_rejected():
    """A relative value pointer that lands past the 64 B element is only
    detectable mid-serve (it depends on the matched key position); the
    ValueError becomes BAD_PARAMS instead of killing the kernel."""
    env, fabric, kernel, response = deploy(
        RpcOpcode.TRAVERSAL, TraversalKernel)
    server = fabric.server
    element_region = server.alloc(4096, "elem")
    # Key 7 at position 14; relative value offset 4 -> position 18 > 15.
    element = bytearray(64)
    element[56:64] = (7).to_bytes(8, "little")
    server.space.write(element_region.vaddr, bytes(element))
    from repro.kernels import PredicateOp
    params = TraversalParams(
        response_vaddr=response.vaddr,
        remote_address=element_region.vaddr, value_size=64, key=7,
        key_mask=1 << 14, predicate_op=PredicateOp.EQUAL,
        value_ptr_position=4, is_relative_position=True,
        next_element_ptr_position=0, next_element_ptr_valid=False)
    head = invoke_raw(env, fabric, RpcOpcode.TRAVERSAL, params.pack(),
                      response)
    assert head == RPC_ERROR_BAD_PARAMS
    assert kernel.params_rejected == 1

    # The kernel drained back to idle and still answers a sane lookup.
    sane = TraversalParams(
        response_vaddr=response.vaddr,
        remote_address=element_region.vaddr, value_size=64, key=999,
        key_mask=1, predicate_op=PredicateOp.EQUAL,
        value_ptr_position=4, is_relative_position=False,
        next_element_ptr_position=2, next_element_ptr_valid=False)
    head = invoke_raw(env, fabric, RpcOpcode.TRAVERSAL, sane.pack(),
                      response)
    assert head == NOT_FOUND_MARKER


def test_consistency_object_smaller_than_checksum_rejected():
    env, fabric, kernel, response = deploy(
        RpcOpcode.CONSISTENCY, ConsistencyKernel)
    body = ConsistencyParams._BODY.pack(0x1000, 8, 4)  # size == CRC64
    raw = pack_params(RpcPreamble(response.vaddr), body)
    head = invoke_raw(env, fabric, RpcOpcode.CONSISTENCY, raw, response)
    assert head == RPC_ERROR_BAD_PARAMS
    assert kernel.params_rejected == 1


def test_hll_precision_out_of_range_rejected():
    env, fabric, kernel, response = deploy(RpcOpcode.HLL, HllKernel)
    body = HllParams._BODY.pack(0x1000, 0x2000, 64, 3)  # precision 3
    raw = pack_params(RpcPreamble(response.vaddr), body)
    head = invoke_raw(env, fabric, RpcOpcode.HLL, raw, response)
    assert head == RPC_ERROR_BAD_PARAMS


def test_hll_unaligned_stream_rejected():
    env, fabric, kernel, response = deploy(RpcOpcode.HLL, HllKernel)
    body = HllParams._BODY.pack(0x1000, 0x2000, 31, 14)  # not 8 B mult.
    raw = pack_params(RpcPreamble(response.vaddr), body)
    head = invoke_raw(env, fabric, RpcOpcode.HLL, raw, response)
    assert head == RPC_ERROR_BAD_PARAMS
    assert kernel.params_rejected == 1


def test_hll_huge_declared_stream_buffers_only_what_arrives():
    """total_bytes comes off the wire: a session declaring 1 TiB but
    sending 64 KiB must hold memory for the 64 KiB, not the declared
    length."""
    env, fabric, kernel, response = deploy(RpcOpcode.HLL, HllKernel)
    client, server = fabric.client, fabric.server
    stream = 64 * 1024
    source = client.alloc(stream, "src")
    client.space.write(source.vaddr, bytes(range(256)) * (stream // 256))
    landing = server.alloc(stream, "landing")
    params = HllParams(response_vaddr=response.vaddr,
                       data_vaddr=landing.vaddr, registers_vaddr=0,
                       total_bytes=1 << 40, precision=14)

    def proc():
        yield from client.post_rpc(fabric.client_qpn, RpcOpcode.HLL,
                                   params.pack())
        yield from client.post_rpc_write(fabric.client_qpn, RpcOpcode.HLL,
                                         source.vaddr, stream)
    tracemalloc.start()
    try:
        run_proc(env, proc())
        env.run()  # the session waits for the rest of its "1 TiB"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert server.space.read(landing.vaddr, stream) \
        == bytes(range(256)) * (stream // 256)
    assert kernel.sessions == 0
    # The simulated fabric itself peaks near 3 MB here.
    assert peak < 8 * 1024 * 1024


def test_shuffle_partition_bits_rejected():
    env, fabric, kernel, response = deploy(
        RpcOpcode.SHUFFLE, ShuffleKernel)
    body = ShuffleParams._BODY.pack(0x1000, 64, 11)  # 11 bits > 10
    raw = pack_params(RpcPreamble(response.vaddr), body)
    head = invoke_raw(env, fabric, RpcOpcode.SHUFFLE, raw, response)
    assert head == RPC_ERROR_BAD_PARAMS


def test_filter_unknown_op_rejected():
    env, fabric, kernel, response = deploy(RpcOpcode.FILTER, FilterKernel)
    body = FilterParams._BODY.pack(0x1000, 64, 99, 5)  # op 99
    raw = pack_params(RpcPreamble(response.vaddr), body)
    head = invoke_raw(env, fabric, RpcOpcode.FILTER, raw, response)
    assert head == RPC_ERROR_BAD_PARAMS


def test_aggregate_zero_stream_rejected():
    env, fabric, kernel, response = deploy(
        RpcOpcode.AGGREGATE, AggregateKernel)
    body = AggregateParams._BODY.pack(0x1000, 0x2000, 0, 0)  # empty
    raw = pack_params(RpcPreamble(response.vaddr), body)
    head = invoke_raw(env, fabric, RpcOpcode.AGGREGATE, raw, response)
    assert head == RPC_ERROR_BAD_PARAMS


def test_truncated_preamble_dropped_without_reply():
    """Under 16 bytes there is no response address to answer to: the
    invocation is dropped and the kernel stays serviceable."""
    env, fabric, kernel, response = deploy(
        RpcOpcode.TRAVERSAL, TraversalKernel)

    def proc():
        yield from fabric.client.post_rpc(fabric.client_qpn,
                                          RpcOpcode.TRAVERSAL, b"\x00" * 8)
    run_proc(env, proc())
    env.run()
    assert kernel.params_rejected == 1
    assert fabric.client.space.read(response.vaddr, 8) == b"\x00" * 8

    # Still alive: a valid not-found lookup completes.
    element_region = fabric.server.alloc(4096, "elem")
    from repro.kernels import PredicateOp
    sane = TraversalParams(
        response_vaddr=response.vaddr,
        remote_address=element_region.vaddr, value_size=64, key=5,
        key_mask=1, predicate_op=PredicateOp.EQUAL,
        value_ptr_position=4, is_relative_position=False,
        next_element_ptr_position=2, next_element_ptr_valid=False)
    head = invoke_raw(env, fabric, RpcOpcode.TRAVERSAL, sane.pack(),
                      response)
    assert head == NOT_FOUND_MARKER
    assert kernel.invocations == 2

"""Application-level benches: YCSB-style KV lookups, the distributed
radix join, and the shuffle kernel under skew."""

import random

import numpy as np
from conftest import attach_rows

from repro.apps import (
    DistributedRadixJoin,
    KvClient,
    KvServer,
    reference_join_count,
)
from repro.cluster.workload import ZipfGenerator
from repro.config import HOST_DEFAULT
from repro.experiments.common import ExperimentResult
from repro.host import build_fabric
from repro.host.cpu import CpuModel
from repro.host.tcp_rpc import TcpRpcChannel
from repro.host.workloads import skewed_tuples, uniform_keys
from repro.sim import MS, LatencySample, Simulator


def test_kvstore_zipfian_gets(benchmark):
    """Read-only Zipfian workload over the three GET paths."""

    def run():
        env = Simulator()
        fabric = build_fabric(env)
        store = KvServer(fabric.server, num_slots=64)
        store.deploy_traversal_kernel()
        tcp = TcpRpcChannel(env, HOST_DEFAULT, seed=2)
        client = KvClient(fabric, store, tcp=tcp)
        value_bytes = 256
        num_keys = 192  # 3 keys/slot average -> real chains
        for key in range(1, num_keys + 1):
            store.insert(key, bytes([key % 251 or 1]) * value_bytes)

        zipf = ZipfGenerator(num_keys, 0.99, random.Random(5))
        ranks = [zipf.next() for _ in range(60)]
        samples = {"reads": LatencySample(), "strom": LatencySample(),
                   "tcp": LatencySample()}

        def workload():
            for rank in ranks:
                key = rank + 1
                result = yield from client.get_via_reads(key)
                samples["reads"].record(result.latency_ps)
                result = yield from client.get_via_strom(key, value_bytes)
                samples["strom"].record(result.latency_ps)
                result = yield from client.get_via_tcp(key)
                samples["tcp"].record(result.latency_ps)

        env.run_until_complete(env.process(workload()),
                               limit=60_000 * MS)
        result = ExperimentResult(
            experiment_id="app-kvstore",
            title="Zipfian GET latency over a chained KV store (us)",
            columns=["path", "mean_us", "p99_us"])
        for path, sample in samples.items():
            summary = sample.summary()
            result.add_row(path=path, mean_us=summary.mean_us,
                           p99_us=summary.p99_us)
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, result)
    rows = {r["path"]: r for r in result.rows}
    # StRoM resolves chains in one round trip: best mean and p99.
    assert rows["strom"]["mean_us"] < rows["reads"]["mean_us"]
    assert rows["strom"]["p99_us"] < rows["reads"]["p99_us"]
    assert rows["tcp"]["mean_us"] > rows["reads"]["mean_us"]


def test_distributed_join(benchmark):
    """End-to-end radix join: exact cardinality, StRoM-shuffled build."""

    def run():
        env = Simulator()
        fabric = build_fabric(env)
        join = DistributedRadixJoin(fabric, partition_bits=4,
                                    cpu=CpuModel(HOST_DEFAULT))
        build = uniform_keys(16_000, key_space=4000, seed=6)
        probe = uniform_keys(24_000, key_space=4000, seed=7)

        def proc():
            return (yield from join.execute(build, probe))

        result = env.run_until_complete(env.process(proc()),
                                        limit=60_000 * MS)
        return result, reference_join_count(build, probe)

    result, expected = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["matches"] = result.matches
    print(f"\njoin: {result.matches} matches, shuffle "
          f"{result.shuffle_seconds * 1e3:.2f} ms, join "
          f"{result.join_seconds * 1e3:.3f} ms")
    assert result.matches == expected
    # The network shuffle dominates the CPU phases at this scale.
    assert result.shuffle_seconds > result.join_seconds


def test_shuffle_under_skew(benchmark):
    """Skewed radix distributions stress the fixed per-partition
    regions: with capacity planned from the histogram nothing
    overflows; with uniform planning the hot partitions overflow and
    the kernel reports exactly how much."""
    import struct

    from repro.core.rpc import RpcOpcode
    from repro.host.workloads import partition_histogram
    from repro.kernels import ShuffleKernel, ShuffleParams, pack_descriptor

    def run(plan_for_skew):
        env = Simulator()
        fabric = build_fabric(env)
        kernel = ShuffleKernel(env, fabric.server.nic.config)
        fabric.server.nic.deploy_kernel(RpcOpcode.SHUFFLE, kernel,
                                        sequential_dma=False)
        bits = 3
        values = skewed_tuples(6000, bits, hot_fraction=0.25,
                               hot_share=0.85, seed=8)
        histogram = partition_histogram(values, bits)
        regions = []
        descriptors = []
        for i, count in enumerate(histogram):
            if plan_for_skew:
                capacity = (count + 16) * 8
            else:
                capacity = (len(values) // len(histogram) + 16) * 8
            region = fabric.server.alloc(max(capacity, 256), f"p{i}")
            regions.append(region)
            descriptors.append(pack_descriptor(region.vaddr, capacity))
        table = fabric.server.alloc(4096, "desc")
        fabric.server.space.write(table.vaddr, b"".join(descriptors))
        src = fabric.client.alloc(values.size * 8, "src")
        fabric.client.space.write(src.vaddr, values.tobytes())
        response = fabric.client.alloc(4096, "resp")

        def proc():
            params = ShuffleParams(response_vaddr=response.vaddr,
                                   descriptor_table_vaddr=table.vaddr,
                                   partition_bits=bits,
                                   total_bytes=values.size * 8)
            yield from fabric.client.post_rpc(
                fabric.client_qpn, RpcOpcode.SHUFFLE, params.pack())
            yield from fabric.client.post_rpc_write(
                fabric.client_qpn, RpcOpcode.SHUFFLE, src.vaddr,
                values.size * 8)
            yield from fabric.client.wait_for_data(response.vaddr, 16)

        env.run_until_complete(env.process(proc()), limit=60_000 * MS)
        partitioned, overflowed = struct.unpack(
            "<QQ", fabric.client.space.read(response.vaddr, 16))
        return partitioned, overflowed, max(histogram), len(values)

    planned = benchmark.pedantic(lambda: run(True), rounds=1, iterations=1)
    naive = run(False)
    print(f"\nskewed shuffle: hottest partition {planned[2]}/{planned[3]} "
          f"tuples; planned overflow {planned[1]}, naive overflow "
          f"{naive[1]}")
    assert planned[0] == planned[3] and planned[1] == 0
    assert naive[1] > 0  # uniform capacity planning loses tuples

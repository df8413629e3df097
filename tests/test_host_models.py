"""Tests for the host CPU cost model, TCP RPC baseline, and software
baseline flows."""

import numpy as np
import pytest

from repro.config import HOST_DEFAULT
from repro.host.baselines import CpuHllIngest, SoftwarePartitioner
from repro.host.cpu import CpuModel
from repro.host.tcp_rpc import TcpRpcChannel
from repro.sim import MS, US, Simulator, timebase


@pytest.fixture()
def cpu():
    return CpuModel(HOST_DEFAULT)


# ---------------------------------------------------------------------------
# CpuModel
# ---------------------------------------------------------------------------

def test_memory_access_is_80ns(cpu):
    assert cpu.memory_access() == 80_000  # 80 ns in ps


def test_crc64_time_linear(cpu):
    assert cpu.crc64_time(2000) == 2 * cpu.crc64_time(1000)
    assert cpu.crc64_time(0) == 0
    with pytest.raises(ValueError):
        cpu.crc64_time(-1)


def test_crc64_sw_overhead_calibration(cpu):
    """Figure 9: the SW check adds up to ~40% on a ~9 us 4 KB read."""
    overhead_us = timebase.to_micros(cpu.crc64_time(4096))
    assert 2.5 < overhead_us < 4.5


def test_partition_time(cpu):
    assert cpu.partition_time(0) == 0
    one_gib_tuples = (1 << 30) // 8
    seconds = timebase.to_seconds(cpu.partition_time(one_gib_tuples))
    # The Figure 11 partition pass on 1 GiB is a few hundred ms.
    assert 0.15 < seconds < 0.40


def test_hll_thread_scaling_matches_figure_13a(cpu):
    """Published: 4.64 / 9.28 / 18.40 / 24.40 Gbit/s for 1/2/4/8."""
    expected = {1: 4.64, 2: 9.28, 4: 18.40, 8: 24.40}
    for threads, target in expected.items():
        got = cpu.hll_throughput_gbps(threads, nic_ingest_gbps=25.0)
        assert got == pytest.approx(target, rel=0.01)


def test_hll_resident_data_is_faster(cpu):
    """'higher throughput for the HLL CPU version when the data is
    resident in memory ... still well below 100 Gbit/s'."""
    contended = cpu.hll_throughput_gbps(8, nic_ingest_gbps=25.0)
    resident = cpu.hll_throughput_gbps(8, nic_ingest_gbps=0.0)
    assert resident > contended
    assert resident < 40.0


def test_hll_time_inverse_of_throughput(cpu):
    t = cpu.hll_time(10 ** 9, threads=4, nic_ingest_gbps=25.0)
    gbps = cpu.hll_throughput_gbps(4, 25.0)
    assert timebase.to_seconds(t) == pytest.approx(8 / gbps, rel=0.01)


def test_hll_threads_validation(cpu):
    with pytest.raises(ValueError):
        cpu.hll_throughput_gbps(0)


def test_memcpy_time(cpu):
    # 1 MB copy: read + write at ~28 GB/s -> ~75 us
    us = timebase.to_micros(cpu.memcpy_time(1 << 20))
    assert 40 < us < 150


# ---------------------------------------------------------------------------
# TcpRpcChannel
# ---------------------------------------------------------------------------

def test_tcp_rpc_latency_flat_in_traversals():
    """Figure 7: TCP RPC latency barely varies with list length."""
    env = Simulator()
    channel = TcpRpcChannel(env, HOST_DEFAULT, seed=1)

    def call(hops):
        result = yield from channel.call(
            32, channel.linked_list_handler(hops, 64))
        return result.latency_ps

    short = env.run_until_complete(env.process(call(1)))
    long = env.run_until_complete(env.process(call(32)))
    # Both flat around the base RPC latency; the 31 extra DRAM hops are
    # ~2.5 us against a ~56 us invocation.
    assert abs(long - short) < 15 * US
    assert 30 * US < short < 90 * US


def test_tcp_rpc_pays_per_byte():
    """Figure 8: response sizes past 256 B cost per-byte stack time."""
    env = Simulator()
    channel = TcpRpcChannel(env, HOST_DEFAULT, seed=2)

    def call(size):
        # One bucket probe plus the value fetch.
        result = yield from channel.call(
            32, channel.linked_list_handler(2, size))
        return result.latency_ps

    small = env.run_until_complete(env.process(call(64)))
    big = env.run_until_complete(env.process(call(4096)))
    assert big > small + 5 * US


def test_tcp_rpc_validates_inputs():
    env = Simulator()
    channel = TcpRpcChannel(env, HOST_DEFAULT)

    def bad():
        yield from channel.call(-1, lambda: (0, 0))

    with pytest.raises(ValueError):
        env.run_until_complete(env.process(bad()))


# ---------------------------------------------------------------------------
# SoftwarePartitioner
# ---------------------------------------------------------------------------

def test_software_partitioner_correctness(cpu):
    partitioner = SoftwarePartitioner(cpu, partition_bits=3)
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2 ** 63, size=10_000, dtype=np.uint64)
    plan = partitioner.partition(values)
    assert len(plan.partitions) == 8
    assert sum(p.size for p in plan.partitions) == values.size
    mask = np.uint64(7)
    for i, part in enumerate(plan.partitions):
        expected = values[(values & mask) == i]
        assert np.array_equal(part, expected)  # order preserved
    assert plan.cpu_time_ps == cpu.partition_time(10_000)


def test_software_partitioner_validation(cpu):
    with pytest.raises(ValueError):
        SoftwarePartitioner(cpu, partition_bits=11)


# ---------------------------------------------------------------------------
# CpuHllIngest
# ---------------------------------------------------------------------------

def test_cpu_hll_ingest_estimate_accuracy(cpu):
    rng = np.random.default_rng(4)
    values = rng.integers(0, 30_000, size=100_000, dtype=np.uint64)
    truth = len(set(values.tolist()))
    ingest = CpuHllIngest(cpu, threads=4)
    estimate, cpu_time = ingest.process(values, nic_ingest_gbps=25.0)
    assert abs(estimate - truth) / truth < 0.05
    assert cpu_time > 0


def test_cpu_hll_ingest_threads_split_equivalently(cpu):
    values = np.arange(50_000, dtype=np.uint64)
    single = CpuHllIngest(cpu, threads=1)
    multi = CpuHllIngest(cpu, threads=8)
    est1, _ = single.process(values, 25.0)
    est8, _ = multi.process(values, 25.0)
    assert est1 == est8  # merging per-thread sketches is exact


def test_cpu_hll_ingest_validation(cpu):
    with pytest.raises(ValueError):
        CpuHllIngest(cpu, threads=0)

"""Figure 8: remote hash-table GET latency while varying the value size.

Pilaf-style layout: a region of fixed-size entries pointing into a value
region.  The best case is assumed (the first entry matches), so the READ
baseline needs exactly two round trips (entry + value), StRoM needs one
round trip (the traversal kernel does both PCIe accesses remotely), and
the TCP RPC needs one round trip but pays per-byte message-passing cost
that grows quickly beyond 256 B values.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import HOST_DEFAULT, NIC_10G
from ..apps.kvstore import KvClient, KvServer
from ..host import build_fabric
from ..host.tcp_rpc import TcpRpcChannel
from ..sim import MS, LatencySample, Simulator
from .common import ExperimentResult, run_proc

VALUE_SIZES = [64, 128, 256, 512, 1024, 2048, 4096]
SEED = 8


def hash_table_experiment(value_sizes: Optional[List[int]] = None,
                          iterations: int = 30) -> ExperimentResult:
    value_sizes = value_sizes or VALUE_SIZES
    result = ExperimentResult(
        experiment_id="fig8",
        title="Remote hash-table GET latency vs value size (median us)",
        columns=["value_B", "rdma_read_us", "strom_us", "tcp_rpc_us",
                 "read_rtts", "strom_rtts"],
        notes="READ = 2 round trips (entry + value); StRoM = 1 round trip "
              "saving ~one network RTT per lookup")
    for value_bytes in value_sizes:
        row = _measure_for_value_size(value_bytes, iterations)
        result.add_row(value_B=value_bytes, **row)
    return result


def _measure_for_value_size(value_bytes, iterations):
    env = Simulator()
    fabric = build_fabric(env, nic_config=NIC_10G,
                          host_config=HOST_DEFAULT, seed=SEED)
    server_store = KvServer(fabric.server, num_slots=1024,
                            value_capacity=max(4 << 20,
                                               value_bytes * 64))
    server_store.deploy_traversal_kernel()
    tcp = TcpRpcChannel(env, HOST_DEFAULT, seed=SEED)
    client_store = KvClient(fabric, server_store, tcp=tcp)

    # Insert collision-free keys (best case: one entry probe), as the
    # paper assumes "the hash table entry always matches the given key".
    keys = []
    used_slots = set()
    key = 1
    while len(keys) < 16:
        key += 1
        slot = server_store.slot_vaddr(key)
        if slot in used_slots or not server_store.slot_is_empty(key):
            continue
        used_slots.add(slot)
        server_store.insert(key, bytes([len(keys) + 1]) * value_bytes)
        keys.append(key)

    read_sample = LatencySample("read")
    strom_sample = LatencySample("strom")
    tcp_sample = LatencySample("tcp")
    round_trips = {"read": 0, "strom": 0}

    def driver():
        for i in range(iterations):
            key = keys[i % len(keys)]
            result = yield from client_store.get_via_reads(key)
            assert result.value is not None
            read_sample.record(result.latency_ps)
            round_trips["read"] = result.network_round_trips

            result = yield from client_store.get_via_strom(key, value_bytes)
            assert result.value is not None
            strom_sample.record(result.latency_ps)
            round_trips["strom"] = result.network_round_trips

            result = yield from client_store.get_via_tcp(key)
            assert result.value is not None
            tcp_sample.record(result.latency_ps)

    run_proc(env, driver(), limit=iterations * 100 * MS)
    return {
        "rdma_read_us": read_sample.summary().median_us,
        "strom_us": strom_sample.summary().median_us,
        "tcp_rpc_us": tcp_sample.summary().median_us,
        "read_rtts": round_trips["read"],
        "strom_rtts": round_trips["strom"],
    }

"""Kernel-fault sweep: service degradation under hostile/corrupted
kernel invocations, with protection domains and watchdog budgets on.

Not a paper figure — StRoM's evaluation assumes well-formed kernel
parameters and intact data structures — but the question the hardened
kernel plane (:mod:`repro.core.guard`) must answer: as the rate of
*hostile* traversal invocations rises (pointer cycles from corrupted
next pointers, wild out-of-PD pointers, malformed parameter blocks),
how do goodput and tail latency of the regular sharded-KV workload
degrade, and does the service stay fully available (zero failed client
requests) by quarantining the abused kernel and falling back to
one-sided READs?

Methodology: each operating point builds a 2-shard star (2 servers + 2
clients) with *hardened* kernels (per-shard protection domains, a
deadline/DMA/hop budget, quarantine after 3 consecutive aborts) and a
fixed open-loop load.  The fault schedule plants a self-cycling poison
element (``corrupt_pointer``) at 20 % of the window and wedges shard
1's kernel (``stall_kernel``) beyond its deadline mid-window; an
attacker process fires ``fault_level`` hostile RPCs at shard 0 spread
over the window.  Every run is seeded; with the same ``--seed`` the
sweep's JSON output is byte-identical across runs.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..cluster import (
    RetryPolicy,
    ShardedKvClient,
    ShardedKvService,
    WorkloadConfig,
    build_star,
    populate,
    run_open_loop,
)
from ..core.guard import InvocationBudget
from ..core.rpc import (
    RPC_ERROR_ABORTED,
    RPC_ERROR_PROTECTION,
    RPC_ERROR_TIMEOUT,
    RpcOpcode,
    RpcPreamble,
    pack_params,
)
from ..faults import FaultSchedule
from ..kernels.traversal import ELEMENT_BYTES, PredicateOp, TraversalParams
from ..obs.runtime import registry_for
from ..sim import MS, US, Simulator
from .common import ExperimentResult

#: Swept hostile-invocation counts per window.
DEFAULT_FAULT_LEVELS = (0, 2, 4, 8)

#: Per-invocation budget of the hardened deployment.  Generous enough
#: that legitimate GETs (a few hops, one value read) never trip it.
HARDENED_BUDGET = InvocationBudget(deadline_ps=400 * US,
                                   dma_byte_quota=1 << 20,
                                   hop_limit=64)


def _hostile_params(response_vaddr: int, remote: int) -> bytes:
    return TraversalParams(
        response_vaddr=response_vaddr, remote_address=remote,
        value_size=8, key=1, key_mask=1,
        predicate_op=PredicateOp.EQUAL, value_ptr_position=4,
        is_relative_position=False, next_element_ptr_position=2,
        next_element_ptr_valid=True).pack()


def run_kernel_fault_point(fault_level: int,
                           seed: int = 7,
                           offered_per_shard: float = 40_000.0,
                           window_ps: int = 2 * MS
                           ) -> Dict[str, object]:
    """One operating point; returns a flat JSON-serializable row."""
    num_shards = 2
    env = Simulator()
    cluster = build_star(env, num_hosts=2 * num_shards, seed=seed)
    servers = cluster.hosts[:num_shards]
    service = ShardedKvService(cluster, servers, replicas=2,
                               kernel_protection=True,
                               kernel_budget=HARDENED_BUDGET,
                               quarantine_threshold=3)
    populate(service, num_keys=128, value_bytes=128)
    clients = [ShardedKvClient(cluster, service, node, seed=seed + i,
                               retry_policy=RetryPolicy())
               for i, node in enumerate(cluster.hosts[num_shards:])]

    # Poison element inside shard 0's values region (PD-covered, so a
    # hostile traversal chases it); its next pointer is nulled until the
    # scheduled corruption turns it into a cycle.
    shard0 = service.shards[0]
    poison = shard0.values.vaddr + shard0.values.nbytes - ELEMENT_BYTES
    shard0.node.space.write(
        poison, (0xBAD).to_bytes(8, "little").ljust(ELEMENT_BYTES, b"\0"))
    wild = shard0.values.vaddr + shard0.values.nbytes + (1 << 24)

    schedule = FaultSchedule(env, seed=seed)
    # 20 % of the window: the poison element's next pointer is bent back
    # at itself — every hostile traversal from here on cycles.
    schedule.corrupt_pointer(int(0.2 * window_ps), shard0.node,
                             poison + 8, poison)
    if fault_level > 0:
        # Mid-window: wedge shard 1's kernel past its deadline; the
        # watchdog aborts the stuck invocation with RPC_ERROR_TIMEOUT
        # and clients fall back to READs on that shard too.
        schedule.stall_kernel(int(0.5 * window_ps), service.kernels[1],
                              duration=2 * HARDENED_BUDGET.deadline_ps)
    schedule.start()

    attacker_done = [0]

    def attacker():
        node = clients[0].node
        resp = node.alloc(64, "atk_resp")
        start = int(0.25 * window_ps)
        gap = int(0.6 * window_ps) // max(fault_level, 1)
        yield env.timeout(start)
        for burst_start in range(0, fault_level, 3):
            burst = range(burst_start, min(burst_start + 3, fault_level))
            # Alternate pointer-cycle and out-of-PD shots, posted
            # back-to-back *without* waiting for responses in between:
            # the quarantine latch needs *consecutive* aborts, and a
            # legitimate GET completing inside a response round trip
            # would reset the streak.
            connection = yield from clients[0]._lease(0)
            try:
                slots = []
                for shot in burst:
                    slot = resp.vaddr + 8 * (shot % 3)
                    node.space.write(slot, b"\x00" * 8)
                    slots.append(slot)
                    yield from connection.fabric.client.post_rpc(
                        connection.fabric.client_qpn, RpcOpcode.TRAVERSAL,
                        _hostile_params(slot, poison if shot % 2 == 0
                                        else wild))
                for slot in slots:
                    while node.space.read(slot, 8) == b"\x00" * 8:
                        yield env.timeout(2 * US)
            finally:
                clients[0]._release(0, connection)
            yield env.timeout(gap)
        # One malformed parameter block (truncated body): answered with
        # RPC_ERROR_BAD_PARAMS (or QUARANTINED) without kernel service.
        raw = pack_params(RpcPreamble(resp.vaddr), b"\x00" * 8)
        connection = yield from clients[0]._lease(0)
        try:
            yield from connection.fabric.client.post_rpc(
                connection.fabric.client_qpn, RpcOpcode.TRAVERSAL, raw)
            yield from connection.fabric.client.wait_for_data(
                resp.vaddr, 8)
        finally:
            clients[0]._release(0, connection)
        attacker_done[0] = 1

    if fault_level > 0:
        env.process(attacker())

    config = WorkloadConfig(
        offered_ops_per_s=offered_per_shard * num_shards,
        window_ps=window_ps, num_keys=128, read_fraction=0.95,
        value_bytes=128, get_path="strom", seed=seed)
    report = run_open_loop(env, clients, config)
    env.run()  # drain the attacker's trailing shots
    if report.completed != report.issued:
        raise RuntimeError(
            f"kernel-fault point did not drain: {report.completed} of "
            f"{report.issued} completed (hang)")
    if fault_level > 0 and not attacker_done[0]:
        raise RuntimeError("hostile-RPC driver wedged")

    guards = [k.guard for k in service.kernels]
    aborts_by = lambda code: sum(g.abort_counts.get(code, 0)
                                 for g in guards)
    pct = report.latency_percentiles_us()
    flat = registry_for(env).snapshot().as_flat_dict()
    kv_counter = lambda suffix: sum(
        v for k, v in flat.items() if k.endswith(f".kv.{suffix}"))
    return {
        "fault_level": fault_level,
        "offered_kops": config.offered_ops_per_s / 1e3,
        "goodput_kops": report.achieved_ops_per_s / 1e3,
        "p50_us": pct[0.50],
        "p99_us": pct[0.99],
        "issued": report.issued,
        "failed": report.failed,
        "aborts_protection": aborts_by(RPC_ERROR_PROTECTION),
        "aborts_cycle": aborts_by(RPC_ERROR_ABORTED),
        "aborts_timeout": aborts_by(RPC_ERROR_TIMEOUT),
        "params_rejected": sum(k.params_rejected
                               for k in service.kernels),
        "refused": sum(k.invocations_refused for k in service.kernels),
        "quarantined": sum(1 for g in guards if g.quarantined),
        "quarantined_answers": sum(
            int(shard.node.nic.registry.quarantined)
            for shard in service.shards),
        "strom_fallbacks": int(kv_counter("strom_fallbacks")),
        "faults_injected": int(schedule.injected),
    }


def kernel_fault_sweep_experiment(
        fault_levels: Sequence[int] = DEFAULT_FAULT_LEVELS,
        seed: int = 7,
        offered_per_shard: float = 40_000.0,
        window_ps: int = 2 * MS) -> ExperimentResult:
    """Degradation curves vs hostile kernel invocations per window."""
    result = ExperimentResult(
        experiment_id="kernel-fault-sweep",
        title="Sharded-KV service under hostile kernel invocations "
              "(protection domains + watchdog budgets on)",
        columns=["fault_level", "offered_kops", "goodput_kops", "p50_us",
                 "p99_us", "failed", "aborts_protection", "aborts_cycle",
                 "aborts_timeout", "params_rejected", "refused",
                 "quarantined", "quarantined_answers", "strom_fallbacks",
                 "faults_injected"],
        notes=(f"2 shards, primary/backup replication, seed {seed}; "
               "hardened kernels (per-shard PD, 400us deadline, 1 MiB "
               "DMA quota, 64-hop limit, quarantine after 3 consecutive "
               "aborts); hostile traversals cycle on a corrupted "
               "pointer, dereference out-of-PD addresses, or carry "
               "malformed params; shard 1's kernel is stalled past its "
               "deadline mid-window.  failed must stay 0: faults "
               "degrade latency, never availability."))
    for level in fault_levels:
        result.add_row(**run_kernel_fault_point(
            level, seed=seed, offered_per_shard=offered_per_shard,
            window_ps=window_ps))
    return result

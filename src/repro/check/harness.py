"""Randomized, seed-replayable conformance harness for the datapath.

One *run* derives its own RNG from ``(base seed, run index)``, composes
a random scenario from it — verb mix, message sizes, link faults,
congestion control on/off, replication factor, shard crashes — executes
it with every invariant monitor attached, and then checks the end state
against ground truth:

- **raw** runs drive RDMA READ/WRITE between two directly cabled hosts
  and compare the remote region byte-for-byte against a shadow model of
  every acknowledged WRITE (and each READ's returned bytes against the
  shadow at issue time);
- **kv** runs drive concurrent clients against the sharded KV service
  and check the client-observed histories against a sequential
  *write-once register* model: every PUT uses a fresh key, so a GET may
  legally return only ``None`` or that key's unique value, must return
  the value once its PUT completed before the GET started (fault-free
  runs), and the end state must contain exactly the acknowledged
  writes.  Crash runs relax presence to value-integrity (failover lands
  writes on the surviving replica; anti-entropy is not modelled).

Everything derives from the single seed and simulated time only — no
wall clock, no global RNG — so ``python -m repro conformance --seed N``
is byte-identical across invocations, and any failure prints a replay
command line reproducing exactly one run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Dict, List, Optional

from ..algos.hashing import fnv1a64
from ..runmode import active, override
from ..sim import SEC, SimulationError, Simulator
from .monitors import InvariantViolation, install_monitors

#: Sizes exercising every packetizer shape: sub-header, exactly one MTU,
#: first/last, first/middle/last, and large multi-packet messages.
_RAW_SIZES = (1, 17, 256, 1024, 1500, 2048, 4096, 9000, 16384)

#: Burst-equivalence sizes: straddle the fold threshold from both sides
#: and include messages long enough that an interferer lands mid-flight.
_BURST_SIZES = (256, 2048, 4096, 9000, 16384, 65536, 262144)

#: Wedge guard for one run; generous — conformance runs are tiny.
_RUN_LIMIT = 4 * SEC


class ConformanceError(AssertionError):
    """End-state ground truth diverged from the model (no protocol
    invariant fired, but the answer is wrong — the worse failure)."""

    def __init__(self, detail: str, seed: int, replay: str) -> None:
        self.detail = detail
        self.seed = seed
        self.replay = replay
        super().__init__(f"conformance failure (seed={seed}): {detail}\n"
                         f"  replay: {replay}")


def derive_run_seed(base_seed: int, index: int) -> int:
    """Per-run seed: decorrelated across both base seed and index."""
    return fnv1a64(f"conformance/{base_seed}/{index}".encode()) \
        & 0x7FFF_FFFF


def replay_command(base_seed: int, index: int) -> str:
    return (f"PYTHONPATH=src python -m repro conformance "
            f"--seed {base_seed} --runs 1 --first-run {index}")


# ---------------------------------------------------------------------------
# Raw READ/WRITE scenario (byte-exact memory compare)
# ---------------------------------------------------------------------------

def _run_raw(env: Simulator, rng: random.Random, run_seed: int,
             replay: str, checker) -> Dict[str, int]:
    from ..cluster.topology import build_pair
    from ..net.link import LinkFaults

    drop = rng.choice((0.0, 0.0, 0.002, 0.01))
    duplicate = rng.choice((0.0, 0.0, 0.01))
    faults = None
    if drop or duplicate:
        faults = LinkFaults(drop_probability=drop,
                            duplicate_probability=duplicate,
                            seed=run_seed)
    cluster = build_pair(env, faults=faults, seed=run_seed)
    client, server = cluster.hosts
    qpn = 1

    region_bytes = max(_RAW_SIZES) * 2
    local = client.alloc(region_bytes, "conf_local")
    remote = server.alloc(region_bytes, "conf_remote")

    # Ground truth: a shadow of the remote region, updated per ACKed op.
    seed_bytes = rng.randbytes(region_bytes)
    server.space.write(remote.vaddr, seed_bytes)
    shadow = bytearray(seed_bytes)

    num_ops = rng.randrange(8, 17)
    ops = []
    for _ in range(num_ops):
        size = rng.choice(_RAW_SIZES)
        offset = rng.randrange(0, region_bytes - size + 1)
        if rng.random() < 0.55:
            ops.append(("write", offset, size, rng.randbytes(size)))
        else:
            ops.append(("read", offset, size, None))

    stats = {"writes": 0, "reads": 0, "aborted": 0}
    failures: List[str] = []

    def driver():
        from ..roce.qp import QpError
        try:
            for kind, offset, size, data in ops:
                if kind == "write":
                    client.space.write(local.vaddr, data)
                    yield from client.write_sync(
                        qpn, local.vaddr, remote.vaddr + offset, size)
                    shadow[offset:offset + size] = data
                    stats["writes"] += 1
                else:
                    expected = bytes(shadow[offset:offset + size])
                    yield from client.read_sync(
                        qpn, local.vaddr, remote.vaddr + offset, size)
                    got = client.space.read(local.vaddr, size)
                    if got != expected:
                        diff = next(i for i in range(size)
                                    if got[i] != expected[i])
                        failures.append(
                            f"READ of {size}B at remote+{offset:#x} "
                            f"returned wrong bytes (first diff at "
                            f"+{diff})")
                    stats["reads"] += 1
        except QpError:
            # Legal under heavy loss: the retry budget ran out and the
            # QP errored.  A half-delivered WRITE may have mutated the
            # remote region, so the shadow compare no longer applies —
            # every check up to this point stands.
            stats["aborted"] = 1

    env.run_until_complete(env.process(driver()), limit=_RUN_LIMIT)
    env.run()  # drain in-flight retransmissions/ACKs

    if not stats["aborted"]:
        final = server.space.read(remote.vaddr, region_bytes)
        if final != bytes(shadow):
            diff = next(i for i in range(region_bytes)
                        if final[i] != shadow[i])
            failures.append(
                f"remote region diverged from the shadow model of all "
                f"ACKed WRITEs (first diff at +{diff:#x})")
    if failures:
        raise ConformanceError("; ".join(failures), run_seed, replay)
    checker.finish()
    return {"scenario": "raw", "ops": num_ops,
            "writes": stats["writes"], "reads": stats["reads"],
            "aborted": stats["aborted"],
            "faulty_link": int(faults is not None)}


# ---------------------------------------------------------------------------
# Burst fast-path equivalence scenario (dual run, forced on vs off)
# ---------------------------------------------------------------------------

def _run_burst(rng: random.Random, run_seed: int,
               replay: str) -> Dict[str, int]:
    """The same seeded verb mix executed twice — burst folding forced
    off, then on — on fresh simulators *without* monitors (an installed
    checker legitimately disables folding).  Completion timestamps, end
    memory, and every non-burst metric must be bit-identical, and the
    folding run must actually fold.  Half the mixes inject a reverse
    WRITE mid-flight so the unfold path is exercised too.  Both modes
    are selected with :func:`repro.runmode.override`, so the row does
    not depend on the environment."""
    from ..cluster.topology import build_pair
    from ..config import NIC_100G
    from ..obs.runtime import registry_for
    from ..sim.timebase import US

    region_bytes = max(_BURST_SIZES)
    num_ops = rng.randrange(4, 9)
    ops = [(rng.choice(("write", "write", "read")),
            rng.choice(_BURST_SIZES)) for _ in range(num_ops)]
    local_seed = rng.randbytes(region_bytes)
    remote_seed = rng.randbytes(region_bytes)
    back_data = rng.randbytes(2048)
    interfere_at = rng.randrange(2, 30) * US if rng.random() < 0.5 \
        else None

    def execute():
        env = Simulator()
        cluster = build_pair(env, nic_config=NIC_100G, seed=run_seed)
        client, server = cluster.hosts
        local = client.alloc(region_bytes, "burst_local")
        remote = server.alloc(region_bytes, "burst_remote")
        back = server.alloc(2048, "burst_back")
        echo = client.alloc(2048, "burst_echo")
        client.space.write(local.vaddr, local_seed)
        server.space.write(remote.vaddr, remote_seed)
        server.space.write(back.vaddr, back_data)
        times = []

        def driver():
            for verb, size in ops:
                if verb == "write":
                    yield from client.write_sync(
                        1, local.vaddr, remote.vaddr, size)
                else:
                    yield from client.read_sync(
                        1, local.vaddr, remote.vaddr, size)
                times.append(env.now)

        def interferer():
            yield env.timeout(interfere_at)
            yield from server.write_sync(1, back.vaddr, echo.vaddr, 2048)

        if interfere_at is not None:
            env.process(interferer())
        env.run_until_complete(env.process(driver()), limit=_RUN_LIMIT)
        env.run()
        flat = registry_for(env).snapshot().as_flat_dict()
        metrics = {k: v for k, v in flat.items() if ".burst." not in k}
        folds = sum(v for k, v in flat.items()
                    if k.endswith(".burst.folds"))
        unfolds = sum(v for k, v in flat.items()
                      if k.endswith(".burst.unfolds"))
        memory = (bytes(client.space.read(local.vaddr, region_bytes)),
                  bytes(server.space.read(remote.vaddr, region_bytes)),
                  bytes(client.space.read(echo.vaddr, 2048)))
        return times, memory, metrics, folds, unfolds, env.now

    with override(fold=False):
        times_off, mem_off, met_off, _, _, end_off = execute()
    with override(fold=True):
        times_on, mem_on, met_on, folds, unfolds, end_on = execute()

    failures: List[str] = []
    if times_off != times_on or end_off != end_on:
        failures.append(
            "completion timestamps diverged between per-packet and "
            "folded execution")
    if mem_off != mem_on:
        failures.append("end memory diverged between per-packet and "
                        "folded execution")
    if met_off != met_on:
        key = next(k for k in sorted(set(met_off) | set(met_on))
                   if met_off.get(k) != met_on.get(k))
        failures.append(
            f"metric {key} diverged between per-packet and folded "
            f"execution ({met_off.get(key)} vs {met_on.get(key)})")
    if folds == 0 and not active().check:
        # Under a global REPRO_CHECK=1 every simulator carries a checker
        # and the burst plane correctly refuses to fold; the dual run is
        # then per-packet vs per-packet, still a valid determinism check.
        failures.append("folding never engaged on a multi-packet mix")
    if failures:
        raise ConformanceError("; ".join(failures), run_seed, replay)
    return {"scenario": "burst", "ops": num_ops,
            "checks": 3 + len(times_on), "violations": 0,
            "folds": folds, "unfolds": unfolds,
            "interfered": int(interfere_at is not None),
            "end_ps": end_on}


# ---------------------------------------------------------------------------
# Sharded-KV scenario (write-once-register linearizability check)
# ---------------------------------------------------------------------------

def _kv_value(key: int, rng: random.Random) -> bytes:
    length = rng.randrange(8, 97)
    return (f"v{key}:".encode()
            + bytes((key * 31 + i) & 0xFF for i in range(length)))


def _run_kv(env: Simulator, rng: random.Random, run_seed: int,
            replay: str, checker) -> Dict[str, int]:
    from ..cluster.sharded_kv import (KvUnavailable, RetryPolicy,
                                      ShardedKvClient, ShardedKvService)
    from ..cluster.topology import build_star
    from ..faults.schedule import FaultSchedule
    from ..sim.timebase import US

    from ..core.guard import InvocationBudget

    num_shards = rng.randrange(1, 4)
    num_clients = rng.randrange(1, 3)
    replicas = rng.choice((1, 2)) if num_shards >= 2 else 1
    use_cc = rng.random() < 0.5
    crash = num_shards >= 2 and replicas == 2 and rng.random() < 0.4
    # Kernel-fault runs deploy *hardened* kernels (protection domains +
    # hop budget, aggressive quarantine) and aim hostile traversal RPCs
    # at shard 0 — a corrupted self-cycling pointer, an out-of-PD wild
    # pointer and a malformed parameter block — while the regular
    # workload keeps running.  The hop budget is generous, so legitimate
    # traffic never aborts and all value models still apply.
    kernel_faults = rng.random() < 0.35

    cluster = build_star(env, num_hosts=num_shards + num_clients,
                         seed=run_seed, name=f"conf{run_seed & 0xFFFF}")
    if use_cc:
        cluster.enable_congestion_control()
    servers = cluster.hosts[:num_shards]
    service = ShardedKvService(
        cluster, servers, replicas=replicas,
        kernel_protection=kernel_faults,
        kernel_budget=InvocationBudget(hop_limit=64)
        if kernel_faults else None,
        quarantine_threshold=2)
    policy = RetryPolicy() if (crash or rng.random() < 0.3) else None
    clients = [
        ShardedKvClient(cluster, service,
                        cluster.hosts[num_shards + i],
                        seed=run_seed ^ (i * 0x9E37),
                        retry_policy=policy)
        for i in range(num_clients)
    ]

    schedule = None
    if crash:
        schedule = FaultSchedule(env, seed=run_seed)
        victim = rng.randrange(num_shards)
        at = rng.randrange(200, 1200) * US
        schedule.crash_shard(at, service, victim,
                             restart_after=rng.randrange(400, 1500) * US)
        schedule.start()

    # Shared observed history.  Keys are write-once: every PUT gets a
    # fresh key, so the sequential model is a write-once register.
    committed: Dict[int, Dict[str, object]] = {}  # key -> {value, end}
    gets: List[Dict[str, object]] = []
    stats = {"puts": 0, "gets": 0, "unavailable": 0}
    next_key = [1]
    done = [0]

    def worker(client, wrng: random.Random, ops: int):
        for _ in range(ops):
            roll = wrng.random()
            if roll < 0.45 or not committed:
                key = next_key[0]
                next_key[0] += 1
                value = _kv_value(key, wrng)
                try:
                    yield from client.put(key, value)
                except KvUnavailable:
                    stats["unavailable"] += 1
                else:
                    committed[key] = {"value": value, "end": env.now}
                    stats["puts"] += 1
            else:
                if roll < 0.9:
                    key = wrng.choice(sorted(committed))
                else:
                    key = 1_000_000 + wrng.randrange(1000)  # never PUT
                path = wrng.choice(("reads", "strom", "tcp"))
                # The strom path returns the whole response buffer, so
                # the caller names the value size — known for committed
                # keys (as a real client would know its schema).
                record = committed.get(key)
                size = len(record["value"]) if record is not None else 128
                start = env.now
                try:
                    result = yield from client.get(key, path=path,
                                                   value_size=size)
                except KvUnavailable:
                    stats["unavailable"] += 1
                else:
                    gets.append({"key": key, "start": start,
                                 "value": result.value})
                    stats["gets"] += 1
        done[0] += 1

    hostile = {"done": 0, "bad": []}

    def attacker():
        from ..core.rpc import (RPC_ERROR_ABORTED, RPC_ERROR_BAD_PARAMS,
                                RPC_ERROR_PROTECTION,
                                RPC_ERROR_QUARANTINED, RPC_ERROR_TIMEOUT,
                                RpcOpcode, RpcPreamble, pack_params)
        from ..kernels.traversal import (ELEMENT_BYTES, PredicateOp,
                                         TraversalParams)
        shard = service.shards[0]
        node = clients[0].node
        resp = node.alloc(64, "conf_atk")
        # Corrupted pointer: a self-cycling element planted inside the
        # shard's values region (PD-covered, so the kernel chases it).
        poison = shard.values.vaddr + shard.values.nbytes - ELEMENT_BYTES
        element = ((0xBAD).to_bytes(8, "little")
                   + poison.to_bytes(8, "little"))
        shard.node.space.write(poison,
                               element.ljust(ELEMENT_BYTES, b"\x00"))
        wild = shard.values.vaddr + shard.values.nbytes + (1 << 24)

        def params_for(remote):
            return TraversalParams(
                response_vaddr=resp.vaddr, remote_address=remote,
                value_size=8, key=1, key_mask=1,
                predicate_op=PredicateOp.EQUAL, value_ptr_position=4,
                is_relative_position=False, next_element_ptr_position=2,
                next_element_ptr_valid=True).pack()

        shots = (
            ("cycle", params_for(poison),
             (RPC_ERROR_ABORTED, RPC_ERROR_TIMEOUT,
              RPC_ERROR_QUARANTINED)),
            ("wild-pointer", params_for(wild),
             (RPC_ERROR_PROTECTION, RPC_ERROR_QUARANTINED)),
            ("malformed", pack_params(RpcPreamble(resp.vaddr),
                                      b"\x00" * 8),
             (RPC_ERROR_BAD_PARAMS, RPC_ERROR_QUARANTINED)),
        )
        connection = yield from clients[0]._lease(0)
        try:
            for label, raw, accepted in shots:
                yield from connection.fabric.client.post_rpc(
                    connection.fabric.client_qpn, RpcOpcode.TRAVERSAL,
                    raw)
                yield from connection.fabric.client.wait_for_data(
                    resp.vaddr, 8)
                code = int.from_bytes(node.space.read(resp.vaddr, 8),
                                      "little")
                if code not in accepted:
                    hostile["bad"].append(
                        f"hostile {label} RPC answered {code:#x} "
                        f"instead of an abort error")
        finally:
            clients[0]._release(0, connection)
        hostile["done"] = 1

    workers = []
    for i, client in enumerate(clients):
        wrng = random.Random(run_seed ^ (0x51ED * (i + 1)))
        workers.append(env.process(
            worker(client, wrng, ops=wrng.randrange(8, 21))))
    if kernel_faults:
        env.process(attacker())

    env.run(until=_RUN_LIMIT)
    if done[0] != len(workers):
        raise ConformanceError(
            f"only {done[0]}/{len(workers)} client workers finished "
            f"within the run limit", run_seed, replay)
    if kernel_faults and not hostile["done"]:
        raise ConformanceError(
            "the hostile-RPC driver never finished (kernel abort path "
            "wedged)", run_seed, replay)

    failures: List[str] = list(hostile["bad"])
    kernel_aborts = sum(k.guard.aborts for k in service.kernels
                        if k.guard is not None)
    if kernel_faults and kernel_aborts < 2:
        failures.append(
            f"hostile RPCs produced only {kernel_aborts} kernel aborts "
            f"(cycle + wild pointer must both abort)")
    # 1. Value integrity (always): a GET returns None or the key's
    #    unique write-once value — never a torn or foreign value.
    for op in gets:
        value = op["value"]
        if value is None:
            continue
        record = committed.get(op["key"])
        if record is None or value != record["value"]:
            failures.append(
                f"GET(key={op['key']}) returned a value that was never "
                f"written to that key")
    # 2. Recency (fault-free runs): a PUT that completed before the GET
    #    started must be visible.  Crash runs legally serve stale/None
    #    (failover wrote the surviving replica; no anti-entropy).
    if not crash:
        for op in gets:
            record = committed.get(op["key"])
            if record is not None and op["value"] is None \
                    and record["end"] <= op["start"]:
                failures.append(
                    f"GET(key={op['key']}) started after its PUT "
                    f"completed but returned None")
        # 3. End state equals exactly the acknowledged writes.
        for key, record in committed.items():
            if service.lookup_local(key) != record["value"]:
                failures.append(
                    f"end state: key {key} missing or wrong on its "
                    f"primary shard after an acknowledged PUT")
    else:
        for key, record in committed.items():
            stored = service.lookup_local(key)
            if stored is not None and stored != record["value"]:
                failures.append(
                    f"end state: key {key} holds bytes that were never "
                    f"written")
    if failures:
        raise ConformanceError("; ".join(failures[:5]), run_seed, replay)
    checker.finish()
    return {"scenario": "kv", "ops": stats["puts"] + stats["gets"],
            "puts": stats["puts"], "gets": stats["gets"],
            "unavailable": stats["unavailable"],
            "shards": num_shards, "clients": num_clients,
            "replicas": replicas, "cc": int(use_cc), "crash": int(crash),
            "kernel_faults": int(kernel_faults),
            "kernel_aborts": kernel_aborts,
            "quarantined": sum(1 for k in service.kernels
                               if k.guard is not None
                               and k.guard.quarantined),
            "strom_fallbacks": sum(int(c.strom_fallbacks)
                                   for c in clients)}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_one(base_seed: int, index: int) -> Dict[str, int]:
    """Execute conformance run ``index`` of ``base_seed``; returns a
    deterministic row (ints and short strings only — no wall clock)."""
    run_seed = derive_run_seed(base_seed, index)
    replay = replay_command(base_seed, index)
    rng = random.Random(run_seed)
    roll = rng.random()
    if roll < 0.15:
        # Burst-equivalence runs drive their own pair of simulators
        # (folding must engage, so no monitors on these).
        with override(validate=True):
            row = _run_burst(rng, run_seed, replay)
        row.update(run=index, seed=run_seed)
        return row
    env = Simulator()
    checker = install_monitors(env, seed=run_seed, replay=replay)
    try:
        with override(validate=True):
            # Preserve the original 40/60 raw/kv split over the rest.
            if roll < 0.49:
                row = _run_raw(env, rng, run_seed, replay, checker)
            else:
                row = _run_kv(env, rng, run_seed, replay, checker)
    except SimulationError as wrapped:
        # A violation raised inside a simulation process surfaces as an
        # unhandled-failure SimulationError; unwrap so callers always
        # see the violation itself (seed + replay line intact).
        cause = wrapped.__cause__
        if isinstance(cause, InvariantViolation):
            raise cause from None
        raise
    row.update(run=index, seed=run_seed, checks=checker.assertions.value,
               violations=checker.violations.value, end_ps=env.now)
    if row["checks"] == 0:
        raise ConformanceError(
            "monitors never fired — hook wiring is broken",
            run_seed, replay)
    return row


def run_conformance(base_seed: int, runs: int,
                    first_run: int = 0) -> List[Dict[str, int]]:
    """Run ``runs`` consecutive conformance runs; raises
    :class:`InvariantViolation` / :class:`ConformanceError` on the
    first failure."""
    return [run_one(base_seed, index)
            for index in range(first_run, first_run + runs)]


def _format_row(row: Dict[str, int]) -> str:
    head = (f"run={row['run']} seed={row['seed']} "
            f"scenario={row['scenario']} ops={row['ops']} "
            f"checks={row['checks']}")
    extras = " ".join(f"{k}={row[k]}" for k in sorted(row)
                      if k not in ("run", "seed", "scenario", "ops",
                                   "checks", "violations"))
    return f"{head} {extras} ok"


def conformance_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro conformance",
        description="Randomized conformance runs under all invariant "
                    "monitors; byte-identical output per seed.")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed (default 7)")
    parser.add_argument("--runs", type=int, default=25,
                        help="number of runs (default 25)")
    parser.add_argument("--first-run", type=int, default=0,
                        help="index of the first run (replay one run "
                             "with --runs 1 --first-run N)")
    parser.add_argument("--json", metavar="FILE", dest="json_out",
                        help="also write the rows as deterministic JSON")
    parser.add_argument("--artifact", metavar="FILE",
                        default="conformance-failure.json",
                        help="where to record the failing seed/replay "
                             "on error (default conformance-failure.json)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")

    rows: List[Dict[str, int]] = []
    try:
        for index in range(args.first_run, args.first_run + args.runs):
            row = run_one(args.seed, index)
            rows.append(row)
            print(_format_row(row))
    except (InvariantViolation, ConformanceError) as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        record = {
            "base_seed": args.seed,
            "failed_run": args.first_run + len(rows),
            "run_seed": getattr(failure, "seed", None),
            "replay": getattr(failure, "replay", None),
            "error": str(failure),
        }
        with open(args.artifact, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"failing seed recorded in {args.artifact}",
              file=sys.stderr)
        return 1
    total_checks = sum(row["checks"] for row in rows)
    print(f"conformance: {len(rows)} runs, {total_checks} checks, "
          f"0 violations (seed {args.seed})")
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(rows, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(conformance_main())

"""A sharded key-value service over N StRoM servers.

Keys are placed on shards by consistent hashing (a hash ring with
virtual nodes, so adding a shard moves ~1/N of the keyspace instead of
reshuffling everything).  Each shard is one Pilaf-style
:class:`~repro.apps.kvstore.KvServer` on its own host with the traversal
kernel deployed, and every client resolves GETs against the owning shard
with any of the paper's three paths:

- ``"reads"``  — one-sided RDMA READ chain (Pilaf),
- ``"strom"``  — one traversal-kernel round trip,
- ``"tcp"``    — rpcgen-style RPC on the server CPU (one RPC thread per
  server: concurrent calls from any client serialize on that core).

PUTs go through the server CPU over TCP RPC, as Pilaf does — only GETs
are one-sided.

Connection model: each client keeps a small pool of *connections* per
shard (own response buffers, shared queue pair), so a client can keep
several GETs in flight to the same shard — bounded, like real
per-connection buffer rings.  When every slot is busy the next operation
queues at the client, which is exactly the behaviour an open-loop load
generator needs to expose tail latency.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..algos.hashing import fnv1a64, murmur64
from ..apps.kvstore import GetResult, KvClient, KvServer
from ..host.node import Fabric, HostNode
from ..host.tcp_rpc import TcpRpcChannel
from ..net.link import effective_fault_seed
from ..obs.runtime import registry_for
from ..roce.qp import QpError
from ..sim import Resource, Simulator
from ..sim.timebase import US
from .topology import Cluster

GET_PATHS = ("reads", "strom", "tcp")

#: Kernel/socket-stack CPU burned by one RPC invocation on the server
#: core, on top of the handler's data-structure work (syscalls, TCP
#: segmentation, wakeups).  Caps a single-core RPC server at ~125 kops/s,
#: in line with the TCP baselines the paper compares against.
TCP_HANDLER_CPU = 8 * US


class HashRing:
    """Consistent hashing: shards own arcs of a 64-bit ring."""

    def __init__(self, num_shards: int, vnodes: int = 64) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        self.num_shards = num_shards
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for shard in range(num_shards):
            for replica in range(vnodes):
                token = fnv1a64(f"shard{shard}/vn{replica}".encode())
                points.append((token, shard))
        points.sort()
        self._tokens = [token for token, _ in points]
        self._owners = [shard for _, shard in points]

    def shard_for(self, key: int) -> int:
        """The shard owning ``key`` (first point clockwise of its hash)."""
        point = murmur64(key)
        index = bisect_right(self._tokens, point)
        if index == len(self._tokens):
            index = 0
        return self._owners[index]


@dataclass
class PutResult:
    """Outcome of one PUT (server-side insert over TCP RPC)."""

    latency_ps: int
    shard: int


class KvUnavailable(Exception):
    """Every attempt (including replica failover) failed for one op."""

    def __init__(self, key: int, attempts: int):
        super().__init__(
            f"key {key} unavailable after {attempts} attempts")
        self.key = key
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side resilience knobs (opt-in: without a policy the client
    keeps the original wait-forever behaviour and event ordering).

    One *operation* makes up to :attr:`max_attempts` attempts; each
    attempt races the request against :attr:`request_timeout`, and
    between attempts the client backs off exponentially with jitter.
    Attempts route to the first healthy replica of the key (primary
    first), so a crashed primary fails over instead of hanging.
    """

    #: Deadline for one attempt (lease + request + response).
    request_timeout: int = 800 * US
    max_attempts: int = 3
    #: First backoff delay; doubles per attempt up to :attr:`backoff_cap`.
    backoff_base: int = 50 * US
    backoff_cap: int = 800 * US
    #: Uniform jitter (0..jitter) added to each backoff delay.
    jitter: int = 10 * US

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError("request timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("backoff must be positive and cap >= base")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def backoff_delay(self, attempt: int, rng: random.Random) -> int:
        """Delay before attempt number ``attempt`` (1-based retries)."""
        delay = min(self.backoff_base << (attempt - 1), self.backoff_cap)
        if self.jitter:
            delay += rng.randrange(self.jitter + 1)
        return delay


class ShardedKvService:
    """Server side: S KvServer shards with traversal kernels deployed."""

    def __init__(self, cluster: Cluster, servers: List[HostNode],
                 num_slots: int = 256,
                 value_capacity: int = 4 * 1024 * 1024,
                 chain_capacity: int = 4096,
                 vnodes: int = 64,
                 replicas: int = 1,
                 kernel_protection: bool = False,
                 kernel_budget=None,
                 quarantine_threshold: int = 3) -> None:
        if not servers:
            raise ValueError("need at least one server host")
        if not 1 <= replicas <= len(servers):
            raise ValueError("replicas must be within [1, num_servers]")
        self.cluster = cluster
        self.env: Simulator = cluster.env
        self.shards = [KvServer(node, num_slots=num_slots,
                                value_capacity=value_capacity,
                                chain_capacity=chain_capacity)
                       for node in servers]
        #: Hardened deployment: confine each traversal kernel's DMA to
        #: its shard's KV regions and bound invocations by the budget
        #: (an :class:`~repro.core.guard.InvocationBudget`).  Off by
        #: default — unhardened kernels carry no guard and schedule
        #: bit-identically to earlier builds.
        self.kernels = [
            shard.deploy_traversal_kernel(
                protection=shard.protection_domain()
                if kernel_protection else None,
                budget=kernel_budget,
                quarantine_threshold=quarantine_threshold)
            for shard in self.shards]
        self.ring = HashRing(len(self.shards), vnodes=vnodes)
        #: One RPC-handler core per server (TCP calls serialize on it).
        self.server_cores = [Resource(self.env, 1) for _ in self.shards]
        #: Replication factor: each key also lives on the ``replicas - 1``
        #: shards following its primary on the ring (primary/backup).
        self.replicas = replicas
        #: Liveness per shard (False while crashed).
        self.shard_up = [True] * len(self.shards)
        metrics = registry_for(self.env)
        self.shard_crashes = metrics.counter("kv.shard_crashes")
        self.shard_restarts = metrics.counter("kv.shard_restarts")

    def shard_index(self, key: int) -> int:
        return self.ring.shard_for(key)

    def shard_for(self, key: int) -> KvServer:
        return self.shards[self.shard_index(key)]

    def replica_indices(self, key: int) -> List[int]:
        """Shards holding ``key``, preference order: primary, then the
        ring successors serving as backups."""
        primary = self.shard_index(key)
        return [(primary + i) % len(self.shards)
                for i in range(self.replicas)]

    # ------------------------------------------------------------------
    # Liveness (whole-node crash/restart fault injection)
    # ------------------------------------------------------------------
    def is_up(self, shard_index: int) -> bool:
        return self.shard_up[shard_index]

    def crash_shard(self, shard_index: int) -> None:
        """Crash one shard server: its NIC drops every frame in either
        direction until :meth:`restart_shard` (warm restart: memory and
        QP state survive, mirroring the NIC's power model)."""
        if not self.shard_up[shard_index]:
            return
        self.shard_up[shard_index] = False
        self.shards[shard_index].node.nic.power_off()
        self.shard_crashes.add()

    def restart_shard(self, shard_index: int) -> None:
        if self.shard_up[shard_index]:
            return
        self.shard_up[shard_index] = True
        self.shards[shard_index].node.nic.power_on()
        self.shard_restarts.add()

    def insert(self, key: int, value: bytes) -> int:
        """Host-side insert into the owning shard and its backups
        (population / ground truth); returns the primary shard index."""
        indices = self.replica_indices(key)
        for index in indices:
            self.shards[index].insert(key, value)
        return indices[0]

    def lookup_local(self, key: int) -> Optional[bytes]:
        return self.shard_for(key).lookup_local(key)


class ShardedKvClient:
    """Client side: per-shard connection pools over one cluster host."""

    def __init__(self, cluster: Cluster, service: ShardedKvService,
                 node: HostNode, slots: int = 4, seed: int = 0,
                 default_value_bytes: int = 128,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if slots < 1:
            raise ValueError("need at least one connection slot")
        self.cluster = cluster
        self.service = service
        self.node = node
        self.env: Simulator = cluster.env
        self.default_value_bytes = default_value_bytes
        #: None keeps the original wait-forever client (exact legacy
        #: event ordering); a policy enables timeouts/retries/failover.
        self.retry_policy = retry_policy
        self._seed = seed
        self._retry_rng = random.Random(
            effective_fault_seed(seed) ^ 0x5E7B)
        self._free: List[deque] = []
        self._slots: List[Resource] = []
        #: Connections built per shard (salts reconnection TCP seeds).
        self._conn_seq: List[int] = []
        for index, shard in enumerate(service.shards):
            qpn_local, qpn_remote = cluster.connect(node, shard.node)
            view = Fabric(env=self.env, client=node, server=shard.node,
                          cable=cluster.access_cables[node.name],
                          client_qpn=qpn_local, server_qpn=qpn_remote)
            tcp = TcpRpcChannel(self.env, node.host_config,
                                seed=seed ^ (0x7C17 * (index + 1)),
                                server_cpu=service.server_cores[index])
            self._free.append(deque(
                KvClient(view, shard, tcp=tcp) for _ in range(slots)))
            self._slots.append(Resource(self.env, slots))
            self._conn_seq.append(slots)
        metrics = registry_for(self.env)
        prefix = f"{node.name}.kv"
        self.timeouts = metrics.counter(f"{prefix}.timeouts")
        self.retries = metrics.counter(f"{prefix}.retries")
        self.failovers = metrics.counter(f"{prefix}.failovers")
        self.unavailable = metrics.counter(f"{prefix}.unavailable")
        self.retired = metrics.counter(f"{prefix}.conns_retired")
        self.reconnects = metrics.counter(f"{prefix}.reconnects")
        #: strom GETs served by the READs path instead, because the
        #: shard's traversal kernel answered with an RPC error (it is
        #: aborting or quarantined).
        self.strom_fallbacks = metrics.counter(f"{prefix}.strom_fallbacks")
        #: Per-shard strom health: set False on the first RPC error
        #: completion so later GETs skip the doomed round trip.
        self._strom_ok = [True] * len(service.shards)

    # ------------------------------------------------------------------
    # Connection leasing
    # ------------------------------------------------------------------
    def _lease(self, shard_index: int):
        yield self._slots[shard_index].acquire()
        if not self._free[shard_index]:
            # The pool ran dry because connections were retired after
            # timeouts/QP errors: bring up a fresh one (new queue pair,
            # clean PSN state) — lazy reconnection.
            self.reconnects.add()
            return self._make_connection(shard_index)
        return self._free[shard_index].popleft()

    def _release(self, shard_index: int, connection: KvClient) -> None:
        self._free[shard_index].append(connection)
        self._slots[shard_index].release()

    def _retire(self, shard_index: int, connection: KvClient) -> None:
        """Drop a connection from circulation (dead QP or a request that
        timed out with responses possibly still in flight: its buffers
        must never be reused) and free its slot."""
        self.retired.add()
        self._slots[shard_index].release()

    def _make_connection(self, shard_index: int) -> KvClient:
        shard = self.service.shards[shard_index]
        qpn_local, qpn_remote = self.cluster.connect(self.node, shard.node)
        view = Fabric(env=self.env, client=self.node, server=shard.node,
                      cable=self.cluster.access_cables[self.node.name],
                      client_qpn=qpn_local, server_qpn=qpn_remote)
        self._conn_seq[shard_index] += 1
        tcp = TcpRpcChannel(
            self.env, self.node.host_config,
            seed=self._seed ^ (0x7C17 * (shard_index + 1))
            ^ (self._conn_seq[shard_index] << 16),
            server_cpu=self.service.server_cores[shard_index])
        return KvClient(view, shard, tcp=tcp)

    # ------------------------------------------------------------------
    # Operations (process helpers: use with ``yield from``)
    # ------------------------------------------------------------------
    def get(self, key: int, path: str = "strom",
            value_size: Optional[int] = None):
        """Resolve one GET against the owning shard; returns GetResult.

        With a :class:`RetryPolicy`, each attempt races a request
        timeout, retries back off exponentially, and attempts route to
        the first *healthy* replica — raising :class:`KvUnavailable`
        only once the whole budget is spent."""
        if path not in GET_PATHS:
            raise ValueError(f"unknown GET path {path!r}; "
                             f"choose from {GET_PATHS}")
        if self.retry_policy is not None:
            result = yield from self._resilient_op(
                key, lambda conn, target: self._get_on(conn, target, key,
                                                       path, value_size))
            return result
        shard_index = self.service.shard_index(key)
        connection = yield from self._lease(shard_index)
        try:
            if path == "reads":
                result = yield from connection.get_via_reads(key)
            elif path == "strom":
                result = yield from self._strom_get(
                    connection, shard_index, key, value_size)
            else:
                result = yield from self._get_via_tcp(connection, key)
        finally:
            self._release(shard_index, connection)
        return result

    def _strom_get(self, connection: KvClient, target: int, key: int,
                   value_size: Optional[int]):
        """One strom GET with READ-path fallback.

        An RPC error completion (the shard's kernel aborted the
        invocation or is quarantined) downgrades this GET — and every
        later strom GET to the same shard — to the one-sided READs
        path, so hardened-kernel faults degrade latency, never
        availability."""
        if self._strom_ok[target]:
            size = value_size if value_size is not None \
                else self.default_value_bytes
            result = yield from connection.get_via_strom(key, size)
            if result.rpc_error is None:
                return result
            self._strom_ok[target] = False
        self.strom_fallbacks.add()
        result = yield from connection.get_via_reads(key)
        return result

    def _get_on(self, connection: KvClient, target: int, key: int,
                path: str, value_size: Optional[int]):
        """One GET attempt over one leased connection (resilient path)."""
        if path == "reads":
            result = yield from connection.get_via_reads(key)
        elif path == "strom":
            result = yield from self._strom_get(connection, target, key,
                                                value_size)
        else:
            result = yield from self._get_via_tcp(connection, key)
            if not self.service.is_up(target):
                # The server crashed mid-call: a real TCP connection
                # would have reset instead of answering.
                raise QpError(0, "server crashed during RPC")
        return result

    def _get_via_tcp(self, connection: KvClient, key: int):
        """TCP GET with the per-call kernel/socket CPU charged on the
        shared server core (KvClient's handler models only the
        data-structure walk)."""
        env = self.env
        start = env.now
        shard = connection.server
        hops = shard.chain_length(key)
        value = shard.lookup_local(key)
        response_bytes = len(value) if value is not None else 8

        def work():
            base_work = connection.tcp.linked_list_handler(
                hops, response_bytes)
            data_bytes, cpu_ps = base_work()
            return data_bytes, cpu_ps + TCP_HANDLER_CPU

        yield from connection.tcp.call(request_bytes=32, server_work=work)
        return GetResult(value=value, latency_ps=env.now - start,
                         network_round_trips=1)

    def put(self, key: int, value: bytes):
        """PUT through the server CPU (Pilaf: writes are not one-sided).
        The insert executes on the shard when the RPC handler runs.

        Resilient mode fails a PUT over to the key's backup replica when
        the primary is down (the write lands on the surviving replica
        only; anti-entropy repair after restart is not modelled)."""
        if self.retry_policy is not None:
            result = yield from self._resilient_op(
                key, lambda conn, target: self._put_on(conn, target, key,
                                                       value))
            return result
        shard_index = self.service.shard_index(key)
        connection = yield from self._lease(shard_index)
        try:
            result = yield from self._put_on(connection, shard_index,
                                             key, value)
        finally:
            self._release(shard_index, connection)
        return result

    def _put_on(self, connection: KvClient, target: int, key: int,
                value: bytes):
        """One PUT attempt over one leased connection."""
        shard = self.service.shards[target]
        env = self.env
        start = env.now

        def work():
            shard.insert(key, value)
            cpu = 2 * connection.tcp.cpu.memory_access() \
                + connection.tcp.cpu.memcpy_time(len(value)) \
                + TCP_HANDLER_CPU
            return 8, cpu

        yield from connection.tcp.call(
            request_bytes=32 + len(value), server_work=work)
        if self.retry_policy is not None and not self.service.is_up(target):
            raise QpError(0, "server crashed during RPC")
        return PutResult(latency_ps=env.now - start, shard=target)

    # ------------------------------------------------------------------
    # Resilience: timeouts, retries with backoff, replica failover
    # ------------------------------------------------------------------
    def _resilient_op(self, key: int, op):
        """Run ``op(connection, target)`` under the retry policy.

        Routing: each attempt targets the first replica of ``key`` the
        client believes is up (health is service-level state — the moral
        equivalent of a cluster membership view).  A timed-out or failed
        attempt retires its connection, backs off, and retries —
        possibly on a backup replica (*failover*).
        """
        policy = self.retry_policy
        order = self.service.replica_indices(key)
        primary = order[0]
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                self.retries.add()
                yield self.env.timeout(
                    policy.backoff_delay(attempt, self._retry_rng))
            target = next(
                (s for s in order if self.service.is_up(s)), None)
            if target is None:
                continue  # every replica down: back off and re-check
            if target != primary:
                self.failovers.add()
            ok, result = yield from self._attempt(
                target, lambda conn: op(conn, target),
                policy.request_timeout)
            if ok:
                return result
        self.unavailable.add()
        raise KvUnavailable(key, policy.max_attempts)

    def _attempt(self, shard_index: int, op, timeout_ps: int):
        """One deadline-bounded attempt; returns ``(ok, result)``.

        The request runs in its own process signalling ``done``; the
        caller races that against the deadline instead of interrupting
        the request (mid-flight interrupts could leak DMA/MMIO
        resources).  On timeout the connection is retired — its slot is
        reclaimed immediately, and a request wedged against a crashed
        server is simply abandoned (its late responses land on buffers
        that are never reused)."""
        env = self.env
        done = env.event()
        state = {"leased": False, "abandoned": False}

        def runner():
            connection = yield from self._lease(shard_index)
            state["leased"] = True
            if state["abandoned"]:
                # Timed out while waiting for a slot: the connection was
                # never used, so it goes straight back to the pool.
                self._release(shard_index, connection)
                return
            try:
                result = yield from op(connection)
            except QpError:
                # Transport gave up (QP error state): dead connection.
                if not state["abandoned"]:
                    self._retire(shard_index, connection)
                    if not done.triggered:
                        done.succeed((False, None))
                return
            if state["abandoned"]:
                return  # slot already reclaimed at timeout
            self._release(shard_index, connection)
            if not done.triggered:
                done.succeed((True, result))

        env.process(runner())
        expiry = env.timeout(timeout_ps)
        yield env.any_of([done, expiry])
        if done.triggered:
            return done.value
        # Deadline passed: abandon the attempt.
        self.timeouts.add()
        state["abandoned"] = True
        if state["leased"]:
            self._retire(shard_index, None)
        return (False, None)

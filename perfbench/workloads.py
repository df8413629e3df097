"""The four benchmark workloads.

Each workload generates every input from its seed (keys, values, payload
bytes, arrival times, list layouts, HLL streams) and drives the simulator
only through public calls: ``ShardedKvClient.get/put``,
``HostNode.write/read/post_rpc/post_rpc_write``,
``Cluster.enable_congestion_control`` and the kernel/parameter classes.
None of them calls the ``repro.experiments`` helpers, which generate
their own inputs.

A workload is split in two:

- the :class:`Workload` object owns the generated inputs and builds a
  fresh simulated system from them (:meth:`Workload.build`); the build is
  what ``setup_s`` times;
- the :class:`Instance` it returns holds one built system and, once
  :meth:`Instance.start` is called, posts operations until the
  ``run.Driver`` says stop, reporting every completed operation to it
  together with its simulated latency, a digest of its result and
  whether the output check passed.

Output checks live here, next to the inputs they check.
"""

from __future__ import annotations

import random
import struct
import zlib
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from repro.algos.crc import ChecksummedObject
from repro.algos.hyperloglog import exact_cardinality
from repro.cluster.sharded_kv import (KvUnavailable, ShardedKvClient,
                                      ShardedKvService)
from repro.cluster.topology import build_star
from repro.config import HOST_DEFAULT, NIC_10G, NIC_100G
from repro.core.rpc import RpcOpcode
from repro.host import build_fabric
from repro.host.baselines import read_with_sw_check
from repro.host.cpu import CpuModel
from repro.kernels.consistency import (INCONSISTENT_MARKER,
                                       ConsistencyKernel, ConsistencyParams)
from repro.kernels.hll import COMPLETION_RECORD, HllKernel, HllParams
from repro.kernels.traversal import (PredicateOp, TraversalKernel,
                                     TraversalParams)
from repro.obs.runtime import registry_for
from repro.sim import Simulator
from repro.sim.timebase import SEC, US


def _flat_sum(flat, suffix):
    return sum(v for k, v in flat.items()
               if k.endswith(suffix) and isinstance(v, (int, float)))


class Instance:
    """One built system.  Subclasses implement :meth:`start`."""

    def __init__(self, env, hosts, switches=()):
        self.env = env
        self.hosts = hosts
        self.switches = switches
        self.registry = registry_for(env)

    def qp_errors(self):
        """QP errors: a failure the per-operation checks need not see."""
        return sum(int(host.nic.qp_errors) for host in self.hosts)

    def start(self, driver):
        raise NotImplementedError

    def counters(self):
        """Program counters, read from the program's own snapshots."""
        flat = self.registry.snapshot().as_flat_dict()
        return {
            "events": self.env.events_created,
            "folds": int(_flat_sum(flat, ".burst.folds")),
            "folded_packets": int(_flat_sum(flat, ".burst.folded_packets")),
            "unfolds": int(_flat_sum(flat, ".burst.unfolds")),
            "packets_tx": int(_flat_sum(flat, ".pkts_tx")),
            "retransmits": sum(int(host.nic.retransmitted)
                               for host in self.hosts),
            "tail_drops": int(_flat_sum(flat, ".tail_drops")),
            "rate_cuts": int(_flat_sum(flat, ".rate_cuts")),
            "frames_delivered": int(_flat_sum(flat, ".delivered")),
            "dma_bytes": int(_flat_sum(flat, ".bytes_read")
                             + _flat_sum(flat, ".bytes_written")),
            "qp_errors": self.qp_errors(),
        }


class Workload:
    """Generated inputs plus a builder for the system that consumes them.

    Class attributes fixed per workload:

    - ``ops_per_round``: K, the completed operations one timed round
      spans (about 130 ms of host time here, so a 20 s run has about
      150 rounds);
    - ``reference_ops``: how many leading operations have their simulated
      latency and result recorded for the default seed.
    """

    name = ""
    ops_per_round = 1
    reference_ops = 200
    #: Program environment switches this workload turns on.
    switches = {}
    reports_gbps = False

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def build(self):
        raise NotImplementedError

    def sim_outputs(self, prefix, end_ps):
        """Simulated outputs over the reference prefix: ``prefix`` is the
        list of ``(op_id, latency_ps, digest, ok, sim_bytes)`` in
        completion order, ``end_ps`` the simulated time of its last
        completion.  Goodput is in Gbit/s for workloads that move bulk
        data, else in thousands of operations per simulated second."""
        latencies = [rec[1] for rec in prefix]
        seconds = end_ps / SEC
        outputs = {"sim_p50_us": round(percentile(latencies, 0.50) / US, 4),
                   "sim_p99_us": round(percentile(latencies, 0.99) / US, 4)}
        if self.reports_gbps:
            moved = sum(rec[4] for rec in prefix)
            outputs["sim_gbps"] = round(moved * 8 / seconds / 1e9, 4)
        else:
            outputs["sim_kops"] = round(len(prefix) / seconds / 1e3, 4)
        return outputs


def percentile(values, q):
    """The ``q`` quantile of ``values`` (nearest rank, no interpolation)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _lay_out(host, blobs, stride, base=None):
    """Write ``blobs`` back to back, ``stride`` bytes apart, into one
    region (a fresh one unless ``base`` is given); returns their
    addresses."""
    if base is None:
        base = host.alloc(stride * len(blobs)).vaddr
    addresses = [base + i * stride for i in range(len(blobs))]
    for vaddr, data in zip(addresses, blobs):
        host.space.write(vaddr, data)
    return addresses


# ---------------------------------------------------------------------------
# kv_get: sharded KV service, open-loop Zipf GETs plus PUTs
# ---------------------------------------------------------------------------

class KvGet(Workload):
    """2 shards + 2 clients on one 10 G switch; Zipf(0.99) keys; 128 B
    values; 95 % GETs, each through the traversal kernel or the one-sided
    READ chain with equal chance, 5 % PUTs over TCP RPC; open-loop
    Poisson arrivals."""

    name = "kv_get"
    ops_per_round = 192
    reference_ops = 400

    KEYS = 16384
    VALUE_BYTES = 128
    ZIPF_S = 0.99
    PUT_SHARE = 0.05
    #: Offered load in simulated operations per second, over both
    #: clients (below saturation: switch queues stay near empty).
    OFFERED_PER_S = 100_000
    #: Share of GETs that read a key written by an earlier PUT.
    REREAD_SHARE = 0.1
    #: A re-read targets a PUT at least this many operations old.
    REREAD_MIN_AGE = 32
    SLOTS = 4
    NUM_SLOTS = 8192
    CHAIN_CAPACITY = 16384
    VALUE_CAPACITY = 8 * 1024 * 1024
    #: PUTs insert fresh keys from this base up, disjoint from the
    #: initial keys.
    PUT_KEY_BASE = 1 << 61

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.keys = rng.sample(range(1, self.PUT_KEY_BASE), self.KEYS)
        self.values = {key: rng.randbytes(self.VALUE_BYTES)
                       for key in self.keys}
        weights = [1.0 / rank ** self.ZIPF_S
                   for rank in range(1, self.KEYS + 1)]
        self.zipf_cdf = list(accumulate(weights))

    def build(self):
        env = Simulator()
        cluster = build_star(env, 4, nic_config=NIC_10G, seed=self.seed,
                             names=["s0", "s1", "c0", "c1"])
        servers, clients = cluster.hosts[:2], cluster.hosts[2:]
        service = ShardedKvService(
            cluster, servers, num_slots=self.NUM_SLOTS,
            value_capacity=self.VALUE_CAPACITY,
            chain_capacity=self.CHAIN_CAPACITY)
        for key in self.keys:
            service.insert(key, self.values[key])
        kv_clients = [ShardedKvClient(cluster, service, node,
                                      slots=self.SLOTS, seed=self.seed + i,
                                      default_value_bytes=self.VALUE_BYTES)
                      for i, node in enumerate(clients)]
        return KvInstance(self, env, cluster, kv_clients)


class KvInstance(Instance):

    def __init__(self, workload, env, cluster, clients):
        super().__init__(env, cluster.hosts, cluster.switches)
        self.w = workload
        self.clients = clients
        #: PUT key -> value; membership of ``put_done`` marks completion.
        self.put_value = {}
        self.put_done = set()
        self.put_order = []

    def _next_op(self, rng, op_id):
        w = self.w
        if rng.random() < w.PUT_SHARE:
            key = w.PUT_KEY_BASE + (rng.getrandbits(32) << 24) \
                + len(self.put_order)
            value = struct.pack("<QQ", key, op_id) \
                + rng.randbytes(w.VALUE_BYTES - 16)
            self.put_order.append(key)
            self.put_value[key] = value
            return "put", key, value
        path = "strom" if rng.random() < 0.5 else "reads"
        old_puts = len(self.put_order) - w.REREAD_MIN_AGE
        if old_puts > 0 and rng.random() < w.REREAD_SHARE:
            key = self.put_order[rng.randrange(old_puts)]
        else:
            rank = bisect_left(w.zipf_cdf, rng.random() * w.zipf_cdf[-1])
            key = w.keys[min(rank, w.KEYS - 1)]
        return path, key, None

    def start(self, driver):
        env = self.env
        rng = random.Random(self.w.seed ^ 0x0A11)
        rate = self.w.OFFERED_PER_S

        def arrivals():
            op_id = 0
            while driver.more():
                yield env.timeout(int(rng.expovariate(rate) * SEC))
                kind, key, value = self._next_op(rng, op_id)
                client = self.clients[rng.randrange(len(self.clients))]
                env.process(self._op(driver, client, op_id, kind, key,
                                     value))
                op_id += 1

        env.process(arrivals())

    def _op(self, driver, client, op_id, kind, key, value):
        env = self.env
        issued = env.now
        try:
            if kind == "put":
                yield from client.put(key, value)
                self.put_done.add(key)
                driver.complete(op_id, env.now - issued, 0, True)
                return
            committed = key in self.put_done
            result = yield from client.get(key, path=kind)
        except KvUnavailable:
            driver.complete(op_id, env.now - issued, 0, False)
            return
        got = result.value
        if key in self.put_value:
            expected = self.put_value[key]
            # A GET racing the key's PUT may see either side of it.
            ok = got == expected or (not committed and got is None)
        else:
            ok = got == self.w.values[key]
        digest = zlib.crc32(got) if got is not None else 1
        driver.complete(op_id, env.now - issued, digest, ok)


# ---------------------------------------------------------------------------
# bulk_256k: 256 KiB WRITE/READ through the switch at 100 G, fold on
# ---------------------------------------------------------------------------

class Bulk256k(Workload):
    """2 hosts at 100 G through one switch; one op outstanding;
    alternating 256 KiB WRITE and READ, burst fold enabled through
    ``REPRO_BURST=1``."""

    name = "bulk_256k"
    ops_per_round = 20
    reference_ops = 120
    reports_gbps = True
    switches = {"REPRO_BURST": "1"}

    SIZE = 256 * 1024
    PATTERNS = 8

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.write_src = [rng.randbytes(self.SIZE)
                          for _ in range(self.PATTERNS)]
        self.read_src = [rng.randbytes(self.SIZE)
                         for _ in range(self.PATTERNS)]

    def build(self):
        env = Simulator()
        cluster = build_star(env, 2, nic_config=NIC_100G, seed=self.seed)
        a, b = cluster.hosts
        qpn, _ = cluster.connect(a, b)
        write_src = _lay_out(a, self.write_src, self.SIZE)
        read_src = _lay_out(b, self.read_src, self.SIZE)
        write_dst = b.alloc(self.SIZE, "wdst").vaddr
        read_dst = a.alloc(self.SIZE, "rdst").vaddr
        return BulkInstance(self, env, cluster, qpn, write_src, read_src,
                            write_dst, read_dst)


class BulkInstance(Instance):

    def __init__(self, workload, env, cluster, qpn, write_src, read_src,
                 write_dst, read_dst):
        super().__init__(env, cluster.hosts, cluster.switches)
        self.w = workload
        self.qpn = qpn
        self.write_src = write_src
        self.read_src = read_src
        self.write_dst = write_dst
        self.read_dst = read_dst

    def start(self, driver):
        self.env.process(self._loop(driver))

    def _loop(self, driver):
        env = self.env
        w = self.w
        a, b = self.hosts
        size = w.SIZE
        rng = random.Random(w.seed ^ 0xB01C)
        last = -1
        op_id = 0
        while driver.more():
            # Never repeat the previous pattern, so a transfer that did
            # not happen cannot pass the check on stale bytes.
            pattern = rng.randrange(w.PATTERNS - 1)
            if pattern >= last:
                pattern += 1
            last = pattern
            issued = env.now
            if op_id % 2 == 0:
                yield from a.write_sync(self.qpn, self.write_src[pattern],
                                        self.write_dst, size)
                ok = b.space.read(self.write_dst, size) \
                    == w.write_src[pattern]
            else:
                yield from a.read_sync(self.qpn, self.read_dst,
                                       self.read_src[pattern], size)
                ok = a.space.read(self.read_dst, size) \
                    == w.read_src[pattern]
            driver.complete(op_id, env.now - issued, pattern, ok, size)
            op_id += 1


# ---------------------------------------------------------------------------
# incast_cc: 8:1 fan-in through one switch port with ECN + DCQCN
# ---------------------------------------------------------------------------

class IncastCc(Workload):
    """8 senders to 1 receiver through one 10 G switch port; 16 KiB
    WRITEs, 4 in flight per sender; ECN + DCQCN on."""

    name = "incast_cc"
    ops_per_round = 64
    reference_ops = 400
    reports_gbps = True

    SENDERS = 8
    SIZE = 16 * 1024
    WINDOW = 4
    #: Destination slots per sender; twice as many source variants, so a
    #: slot's consecutive uses always carry different bytes.
    SLOTS = 8
    #: Each sender starts after a seeded offset in [0, START_SPREAD).
    START_SPREAD = 2 * US

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        self.sources = [[rng.randbytes(self.SIZE)
                         for _ in range(2 * self.SLOTS)]
                        for _ in range(self.SENDERS)]
        self.offsets = [rng.randrange(self.START_SPREAD)
                        for _ in range(self.SENDERS)]

    def build(self):
        env = Simulator()
        cluster = build_star(env, self.SENDERS + 1, nic_config=NIC_10G,
                             seed=self.seed)
        receiver, senders = cluster.hosts[0], cluster.hosts[1:]
        flows = []
        for index, host in enumerate(senders):
            qpn, _ = cluster.connect(host, receiver)
            # One region per buffer set: every allocation pins whole
            # 2 MiB pages.
            src = _lay_out(host, self.sources[index], self.SIZE)
            base = receiver.alloc(self.SLOTS * self.SIZE).vaddr
            dst = [base + i * self.SIZE for i in range(self.SLOTS)]
            flows.append((host, qpn, src, dst))
        cluster.enable_congestion_control()
        return IncastInstance(self, env, cluster, receiver, flows)


class IncastInstance(Instance):

    def __init__(self, workload, env, cluster, receiver, flows):
        super().__init__(env, cluster.hosts, cluster.switches)
        self.w = workload
        self.receiver = receiver
        self.flows = flows

    def start(self, driver):
        for index, flow in enumerate(self.flows):
            self.env.process(self._sender(driver, index, *flow))

    def _sender(self, driver, index, host, qpn, src, dst):
        env = self.env
        w = self.w
        space = self.receiver.space
        yield env.timeout(w.offsets[index])
        outstanding = []
        message = 0

        def reap():
            op_id, slot, variant, posted, completion = outstanding.pop(0)
            ok = not isinstance(completion.value, Exception) and \
                space.read(dst[slot], w.SIZE) == w.sources[index][variant]
            driver.complete(op_id, env.now - posted, variant, ok, w.SIZE)

        while driver.more():
            slot = message % w.SLOTS
            variant = message % (2 * w.SLOTS)
            completion = yield from host.write(qpn, src[variant], dst[slot],
                                               w.SIZE)
            outstanding.append((message * w.SENDERS + index, slot, variant,
                                env.now, completion))
            message += 1
            if len(outstanding) >= w.WINDOW:
                yield outstanding[0][4]
                reap()
        while outstanding:
            yield outstanding[0][4]
            reap()


# ---------------------------------------------------------------------------
# offload_kernels: CRC64 kernel, READ+SW, traversal kernel, HLL kernel
# ---------------------------------------------------------------------------

class OffloadKernels(Workload):
    """The paper's two-host testbed at 10 G, no switch, one op
    outstanding, cycling through four ops: a 4 KiB consistency-checked
    read via the CRC64 kernel, the same read via READ+SW, a 32-element
    linked-list traversal via the traversal kernel and a 64 KiB stream
    through the HLL kernel."""

    name = "offload_kernels"
    ops_per_round = 32
    reference_ops = 200

    OBJECT_BYTES = 4096
    OBJECTS = 8
    LIST_LENGTH = 32
    LIST_VALUE_BYTES = 64
    STREAM_BYTES = 64 * 1024
    STREAMS = 4
    HLL_PRECISION = 14

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        payload = self.OBJECT_BYTES - ChecksummedObject.CHECKSUM_BYTES
        self.objects = [ChecksummedObject.seal(rng.randbytes(payload))
                        for _ in range(self.OBJECTS)]
        self.list_keys = rng.sample(range(1, 1 << 62), self.LIST_LENGTH)
        self.list_values = [rng.randbytes(self.LIST_VALUE_BYTES)
                            for _ in range(self.LIST_LENGTH)]
        tuples = self.STREAM_BYTES // 8
        np_rng = np.random.default_rng(seed)
        self.streams = []
        for _ in range(self.STREAMS):
            distinct = int(np_rng.integers(tuples // 8, tuples))
            values = np_rng.integers(0, distinct, size=tuples,
                                     dtype=np.uint64)
            values = values * np.uint64(0x9E3779B97F4A7C15)
            self.streams.append((values.tobytes(),
                                 exact_cardinality(values.tolist())))

    def build(self):
        env = Simulator()
        fabric = build_fabric(env, nic_config=NIC_10G, seed=self.seed)
        client, server = fabric.client, fabric.server
        nic = server.nic
        nic.deploy_kernel(RpcOpcode.CONSISTENCY,
                          ConsistencyKernel(env, nic.config))
        nic.deploy_kernel(RpcOpcode.TRAVERSAL,
                          TraversalKernel(env, nic.config))
        nic.deploy_kernel(RpcOpcode.HLL, HllKernel(env, nic.config))
        # Buffers share regions: every allocation pins whole 2 MiB pages.
        objects = _lay_out(server, self.objects, self.OBJECT_BYTES)
        head = self._build_list(server)
        streams = _lay_out(client, [data for data, _ in self.streams],
                           self.STREAM_BYTES)
        base = client.alloc(3 * self.OBJECT_BYTES, "responses").vaddr
        landing = server.alloc(self.STREAM_BYTES
                               + (1 << self.HLL_PRECISION), "hll").vaddr
        buffers = {
            "object": base,
            "value": base + self.OBJECT_BYTES,
            "record": base + 2 * self.OBJECT_BYTES,
            "landing": landing,
            "registers": landing + self.STREAM_BYTES,
        }
        return OffloadInstance(self, env, fabric, objects, head, streams,
                               buffers)

    def _build_list(self, server):
        """Element layout of the traversal kernel: key at position 0,
        next pointer at position 2, value pointer at position 4."""
        n = self.LIST_LENGTH
        elements = server.alloc(64 * n + self.LIST_VALUE_BYTES * n,
                                "list").vaddr
        values = _lay_out(server, self.list_values, self.LIST_VALUE_BYTES,
                          base=elements + 64 * n)
        for i, key in enumerate(self.list_keys):
            next_ptr = elements + 64 * (i + 1) if i + 1 < n else 0
            element = struct.pack("<QQQ", key, next_ptr, values[i])
            server.space.write(elements + 64 * i,
                               element.ljust(64, b"\x00"))
        return elements


class OffloadInstance(Instance):

    def __init__(self, workload, env, fabric, objects, head, streams,
                 buffers):
        super().__init__(env, [fabric.client, fabric.server])
        self.w = workload
        self.fabric = fabric
        self.objects = objects
        self.head = head
        self.streams = streams
        self.buf = buffers
        self.cpu = CpuModel(HOST_DEFAULT)

    def start(self, driver):
        self.env.process(self._loop(driver))

    def _loop(self, driver):
        env = self.env
        rng = random.Random(self.w.seed ^ 0x0FF1)
        ops = (self._crc_kernel, self._read_sw, self._traverse, self._hll)
        op_id = 0
        while driver.more():
            issued = env.now
            digest, ok, moved = yield from ops[op_id % 4](rng)
            driver.complete(op_id, env.now - issued, digest, ok, moved)
            op_id += 1

    def _crc_kernel(self, rng):
        w = self.w
        client = self.fabric.client
        index = rng.randrange(w.OBJECTS)
        out = self.buf["object"]
        client.space.write(out, bytes(w.OBJECT_BYTES))
        params = ConsistencyParams(response_vaddr=out,
                                   object_vaddr=self.objects[index],
                                   object_size=w.OBJECT_BYTES)
        yield from client.post_rpc(self.fabric.client_qpn,
                                   RpcOpcode.CONSISTENCY, params.pack())
        # The object lands in several packets: wait for its last bytes.
        yield from client.wait_for_data(out + w.OBJECT_BYTES - 8, 8)
        data = client.space.read(out, w.OBJECT_BYTES)
        ok = data == w.objects[index] and \
            int.from_bytes(data[:8], "little") != INCONSISTENT_MARKER
        return index, ok, w.OBJECT_BYTES

    def _read_sw(self, rng):
        w = self.w
        index = rng.randrange(w.OBJECTS)
        data, attempts = yield from read_with_sw_check(
            self.fabric, self.buf["object"], self.objects[index],
            w.OBJECT_BYTES, self.cpu)
        return index, data == w.objects[index] and attempts == 1, \
            w.OBJECT_BYTES

    def _traverse(self, rng):
        w = self.w
        client = self.fabric.client
        position = rng.randrange(w.LIST_LENGTH)
        out = self.buf["value"]
        client.space.write(out, bytes(w.LIST_VALUE_BYTES))
        params = TraversalParams(
            response_vaddr=out, remote_address=self.head,
            value_size=w.LIST_VALUE_BYTES, key=w.list_keys[position],
            key_mask=1, predicate_op=PredicateOp.EQUAL,
            value_ptr_position=4, is_relative_position=False,
            next_element_ptr_position=2, next_element_ptr_valid=True)
        yield from client.post_rpc(self.fabric.client_qpn,
                                   RpcOpcode.TRAVERSAL, params.pack())
        yield from client.wait_for_data(out, 8)
        ok = client.space.read(out, w.LIST_VALUE_BYTES) \
            == w.list_values[position]
        return position, ok, w.LIST_VALUE_BYTES

    def _hll(self, rng):
        w = self.w
        client = self.fabric.client
        index = rng.randrange(w.STREAMS)
        record = self.buf["record"]
        client.space.write(record, bytes(COMPLETION_RECORD.size))
        params = HllParams(response_vaddr=record,
                           data_vaddr=self.buf["landing"],
                           registers_vaddr=self.buf["registers"],
                           total_bytes=w.STREAM_BYTES,
                           precision=w.HLL_PRECISION)
        qpn = self.fabric.client_qpn
        yield from client.post_rpc(qpn, RpcOpcode.HLL, params.pack())
        yield from client.post_rpc_write(qpn, RpcOpcode.HLL,
                                         self.streams[index],
                                         w.STREAM_BYTES)
        yield from client.wait_for_data(record, COMPLETION_RECORD.size)
        estimate, seen = COMPLETION_RECORD.unpack(
            client.space.read(record, COMPLETION_RECORD.size))
        exact = w.streams[index][1]
        sigma = 1.04 / (1 << (w.HLL_PRECISION // 2)) * exact
        ok = seen == w.STREAM_BYTES // 8 and abs(estimate - exact) <= 3 * sigma
        return estimate, ok, w.STREAM_BYTES


WORKLOADS = {cls.name: cls
             for cls in (KvGet, Bulk256k, IncastCc, OffloadKernels)}


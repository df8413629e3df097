"""A Pilaf-style remote key-value store (Sections 6.2/6.3).

Server-side layout mirrors Pilaf: one memory region of fixed-size (64 B)
hash-table entries and a second region holding the values.  Entries are
laid out to be traversal-kernel compatible (keys 8 B, fields 4 B aligned):

====  =====================  ========================================
pos   field                  traversal parameter
====  =====================  ========================================
0     key (8 B)              key_mask = 1
2     value pointer (8 B)    value_ptr_position = 2 (absolute)
4     next pointer (8 B)     next_element_ptr_position = 4 (chaining)
6     value length (4 B)     (client-known in the fixed-size benches)
====  =====================  ========================================

Clients resolve GETs three ways, matching the paper's comparison:
one-sided RDMA READs (entry read, chain follows, value read — each a
network round trip), the StRoM traversal kernel (single round trip), or
a TCP RPC executed by the server CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..algos.hashing import fnv1a64_int
from ..core.guard import InvocationBudget, ProtectionDomain
from ..core.rpc import RpcOpcode, is_rpc_error
from ..host.node import Fabric, HostNode
from ..host.tcp_rpc import TcpRpcChannel
from ..kernels.traversal import (
    NOT_FOUND_MARKER,
    PredicateOp,
    TraversalKernel,
    TraversalParams,
)

ENTRY_BYTES = 64
_KEY_POS = 0          # byte offset 0
_VALUE_PTR_POS = 2    # byte offset 8
_NEXT_PTR_POS = 4     # byte offset 16
_VALUE_LEN_OFF = 24   # byte offset of the 4 B length field


def pack_entry(key: int, value_ptr: int, next_ptr: int,
               value_len: int) -> bytes:
    blob = (key.to_bytes(8, "little")
            + value_ptr.to_bytes(8, "little")
            + next_ptr.to_bytes(8, "little")
            + value_len.to_bytes(4, "little"))
    return blob.ljust(ENTRY_BYTES, b"\x00")


def unpack_entry(data: bytes):
    key = int.from_bytes(data[0:8], "little")
    value_ptr = int.from_bytes(data[8:16], "little")
    next_ptr = int.from_bytes(data[16:24], "little")
    value_len = int.from_bytes(data[24:28], "little")
    return key, value_ptr, next_ptr, value_len


#: Sentinel key marking an empty hash slot.
EMPTY_KEY = 0


class KvServer:
    """Server-side store: owns the entry and value regions."""

    def __init__(self, node: HostNode, num_slots: int = 1024,
                 value_capacity: int = 4 * 1024 * 1024,
                 chain_capacity: int = 4096) -> None:
        if num_slots < 1:
            raise ValueError("need at least one slot")
        self.node = node
        self.num_slots = num_slots
        self.entries = node.alloc(num_slots * ENTRY_BYTES, "kv.entries")
        self.chain = node.alloc(chain_capacity * ENTRY_BYTES, "kv.chain")
        self.values = node.alloc(value_capacity, "kv.values")
        self._next_chain_slot = 0
        self._value_cursor = 0
        self.size = 0

    def slot_vaddr(self, key: int) -> int:
        slot = fnv1a64_int(key) % self.num_slots
        return self.entries.vaddr + slot * ENTRY_BYTES

    def _store_value(self, value: bytes) -> int:
        if self._value_cursor + len(value) > self.values.nbytes:
            raise MemoryError("value region exhausted")
        vaddr = self.values.vaddr + self._value_cursor
        self.node.space.write(vaddr, value)
        self._value_cursor += len(value)
        return vaddr

    def insert(self, key: int, value: bytes) -> None:
        """Insert or update (host-side, as Pilaf does: writes go through
        the server CPU; only GETs are one-sided)."""
        if key == EMPTY_KEY:
            raise ValueError("key 0 is reserved as the empty marker")
        space = self.node.space
        slot_addr = self.slot_vaddr(key)
        entry = space.read(slot_addr, ENTRY_BYTES)
        head_key, head_ptr, next_ptr, head_len = unpack_entry(entry)
        # An existing key is repointed in place, so the chain (and every
        # reader's walk) keeps exactly one match.
        address, entry_key, entry_next = slot_addr, head_key, next_ptr
        for _ in range(4096):
            if entry_key == key:
                space.write(address, pack_entry(
                    key, self._store_value(value), entry_next, len(value)))
                return
            address = entry_next
            if address == 0:
                break
            entry_key, _, entry_next, _ = unpack_entry(
                space.read(address, ENTRY_BYTES))
        value_ptr = self._store_value(value)
        if head_key == EMPTY_KEY:
            space.write(slot_addr,
                        pack_entry(key, value_ptr, 0, len(value)))
        else:
            # Chain: new element inserted directly behind the head.
            if self._next_chain_slot * ENTRY_BYTES >= self.chain.nbytes:
                raise MemoryError("chain region exhausted")
            chain_addr = self.chain.vaddr \
                + self._next_chain_slot * ENTRY_BYTES
            self._next_chain_slot += 1
            space.write(chain_addr,
                        pack_entry(key, value_ptr, next_ptr, len(value)))
            space.write(slot_addr,
                        pack_entry(head_key, head_ptr, chain_addr,
                                   head_len))
        self.size += 1

    def lookup_local(self, key: int) -> Optional[bytes]:
        """Host-side lookup (ground truth for tests, and the work the
        TCP RPC handler performs)."""
        space = self.node.space
        address = self.slot_vaddr(key)
        hops = 0
        while address != 0 and hops < 4096:
            entry_key, value_ptr, next_ptr, value_len = unpack_entry(
                space.read(address, ENTRY_BYTES))
            if entry_key == key:
                return space.read(value_ptr, value_len)
            address = next_ptr
            hops += 1
        return None

    def slot_is_empty(self, key: int) -> bool:
        """Whether the key's hash slot has never been filled."""
        entry = self.node.space.read(self.slot_vaddr(key), ENTRY_BYTES)
        return unpack_entry(entry)[0] == EMPTY_KEY

    def chain_length(self, key: int) -> int:
        """Elements probed to find ``key`` (collision depth); 0 when the
        slot is empty."""
        space = self.node.space
        address = self.slot_vaddr(key)
        hops = 0
        while address != 0 and hops < 4096:
            entry_key, _, next_ptr, _ = unpack_entry(
                space.read(address, ENTRY_BYTES))
            if entry_key == EMPTY_KEY:
                return hops
            hops += 1
            if entry_key == key:
                return hops
            address = next_ptr
        return hops

    def protection_domain(self) -> ProtectionDomain:
        """The regions a GET-serving kernel may read: entries, chain
        and values (one-sided GETs never DMA-write host memory)."""
        pd = ProtectionDomain()
        pd.allow_region(self.entries)
        pd.allow_region(self.chain)
        pd.allow_region(self.values)
        return pd

    def deploy_traversal_kernel(
            self,
            protection: Optional[ProtectionDomain] = None,
            budget: Optional[InvocationBudget] = None,
            quarantine_threshold: int = 3) -> TraversalKernel:
        kernel = TraversalKernel(self.node.env, self.node.nic.config)
        self.node.nic.deploy_kernel(
            RpcOpcode.TRAVERSAL, kernel, protection=protection,
            budget=budget, quarantine_threshold=quarantine_threshold)
        return kernel


@dataclass
class GetResult:
    value: Optional[bytes]
    latency_ps: int
    network_round_trips: int
    #: RPC error completion found in the response buffer (e.g. the
    #: target kernel aborted or is quarantined), else None.
    rpc_error: Optional[int] = None


class KvClient:
    """Client-side GET strategies over one fabric."""

    def __init__(self, fabric: Fabric, server: KvServer,
                 tcp: Optional[TcpRpcChannel] = None) -> None:
        self.fabric = fabric
        self.server = server
        self.tcp = tcp
        node = fabric.client
        self._entry_buf = node.alloc(ENTRY_BYTES * 16, "kv.entry_buf")
        self._value_buf = node.alloc(64 * 1024, "kv.value_buf")

    # ------------------------------------------------------------------
    def get_via_reads(self, key: int):
        """One-sided GET: READ the entry, follow the chain with further
        READs, then READ the value — one round trip per step (Pilaf)."""
        env = self.fabric.env
        client = self.fabric.client
        start = env.now
        round_trips = 0
        address = self.server.slot_vaddr(key)
        value: Optional[bytes] = None
        while address != 0:
            yield from client.read_sync(self.fabric.client_qpn,
                                        self._entry_buf.vaddr, address,
                                        ENTRY_BYTES)
            round_trips += 1
            entry_key, value_ptr, next_ptr, value_len = unpack_entry(
                client.space.read(self._entry_buf.vaddr, ENTRY_BYTES))
            if entry_key == key:
                yield from client.read_sync(self.fabric.client_qpn,
                                            self._value_buf.vaddr,
                                            value_ptr, value_len)
                round_trips += 1
                value = client.space.read(self._value_buf.vaddr, value_len)
                break
            address = next_ptr
        return GetResult(value=value, latency_ps=env.now - start,
                         network_round_trips=round_trips)

    # ------------------------------------------------------------------
    def get_via_strom(self, key: int, value_size: int):
        """Single-round-trip GET through the traversal kernel."""
        env = self.fabric.env
        client = self.fabric.client
        start = env.now
        params = TraversalParams(
            response_vaddr=self._value_buf.vaddr,
            remote_address=self.server.slot_vaddr(key),
            value_size=value_size, key=key, key_mask=1,
            predicate_op=PredicateOp.EQUAL,
            value_ptr_position=_VALUE_PTR_POS, is_relative_position=False,
            next_element_ptr_position=_NEXT_PTR_POS,
            next_element_ptr_valid=True)
        yield from client.post_rpc(self.fabric.client_qpn,
                                   RpcOpcode.TRAVERSAL, params.pack())
        yield from client.wait_for_data(self._value_buf.vaddr,
                                        min(value_size, 8))
        data = client.space.read(self._value_buf.vaddr, value_size)
        head = int.from_bytes(data[:8], "little")
        if is_rpc_error(head):
            # The kernel aborted (protection/watchdog/quarantine/bad
            # params) and wrote an error completion instead of a value.
            return GetResult(value=None, latency_ps=env.now - start,
                             network_round_trips=1, rpc_error=head)
        not_found = head == NOT_FOUND_MARKER
        return GetResult(value=None if not_found else data,
                         latency_ps=env.now - start,
                         network_round_trips=1)

    # ------------------------------------------------------------------
    def get_via_tcp(self, key: int):
        """rpcgen-style RPC: the server CPU walks the chain (Figure 7)."""
        if self.tcp is None:
            raise RuntimeError("no TCP channel configured")
        env = self.fabric.env
        start = env.now
        hops = self.server.chain_length(key)
        value = self.server.lookup_local(key)
        response_bytes = len(value) if value is not None else 8
        result = yield from self.tcp.call(
            request_bytes=32,
            server_work=self.tcp.linked_list_handler(hops, response_bytes))
        return GetResult(value=value, latency_ps=env.now - start,
                         network_round_trips=1)

"""The shuffling kernel: on-NIC data partitioning (Section 6.4).

Incoming RDMA streams are treated as 8 B values and partitioned on the
fly with a radix hash (N least-significant bits).  The kernel keeps
on-chip buffers for up to 1024 partitions, 16 values (128 B) each — the
buffering needed to sustain line rate over PCIe — and writes full buffers
to per-partition regions in host memory.  It is parameterized through an
RDMA RPC carrying a histogram (size and location of every partition).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.kernel import StromKernel
from ..core.rpc import PREAMBLE_SIZE, RpcPreamble, pack_params

TUPLE_BYTES = 8
#: On-chip buffering: up to 1024 partitions x 16 values (Section 6.4).
MAX_PARTITIONS = 1024
BUFFER_VALUES = 16
BUFFER_BYTES = BUFFER_VALUES * TUPLE_BYTES

#: Partition descriptor in host memory: base address + capacity (bytes).
_DESCRIPTOR = struct.Struct("<QQ")
DESCRIPTOR_BYTES = _DESCRIPTOR.size


@dataclass(frozen=True)
class ShuffleParams:
    """Histogram RPC parameters (Section 6.4)."""

    response_vaddr: int       # completion record target (16 B)
    descriptor_table_vaddr: int  # host table of per-partition descriptors
    partition_bits: int       # radix width N -> 2**N partitions
    total_bytes: int          # stream length; flush triggers at the end

    _BODY = struct.Struct("<QQB")

    def __post_init__(self) -> None:
        if not 0 <= self.partition_bits <= 10:
            raise ValueError("at most 1024 partitions (10 bits)")
        if self.total_bytes <= 0 or self.total_bytes % TUPLE_BYTES:
            raise ValueError("stream must be a positive multiple of 8 B")

    @property
    def num_partitions(self) -> int:
        return 1 << self.partition_bits

    def pack(self) -> bytes:
        body = self._BODY.pack(self.descriptor_table_vaddr,
                               self.total_bytes, self.partition_bits)
        return pack_params(RpcPreamble(self.response_vaddr), body)

    @classmethod
    def unpack(cls, params: bytes) -> "ShuffleParams":
        preamble = RpcPreamble.unpack(params)
        table, total, bits = cls._BODY.unpack_from(params, PREAMBLE_SIZE)
        return cls(response_vaddr=preamble.response_vaddr,
                   descriptor_table_vaddr=table, partition_bits=bits,
                   total_bytes=total)


def pack_descriptor(base_vaddr: int, capacity_bytes: int) -> bytes:
    return _DESCRIPTOR.pack(base_vaddr, capacity_bytes)


@dataclass
class _Partition:
    base_vaddr: int
    capacity: int
    cursor: int = 0           # bytes written to host memory so far
    buffer: List[int] = None  # on-chip 16-value buffer

    def __post_init__(self) -> None:
        if self.buffer is None:
            self.buffer = []


COMPLETION_RECORD = struct.Struct("<QQ")  # tuples partitioned, overflowed


class ShuffleKernel(StromKernel):
    """Bump-in-the-wire radix partitioner."""

    name = "shuffle"

    PIPELINE_CYCLES = 8

    def __init__(self, env, config) -> None:
        super().__init__(env, config)
        self.tuples_partitioned = 0
        self.tuples_overflowed = 0
        self.buffer_flushes = 0

    def parse_params(self, raw: bytes) -> ShuffleParams:
        return ShuffleParams.unpack(raw)

    def serve(self, invocation, params: ShuffleParams):
        yield from self._shuffle_session(invocation.qpn, params)

    def _shuffle_session(self, qpn: int, params: ShuffleParams):
        # Load the histogram: per-partition base address and capacity.
        table_bytes = yield from self.dma_read(
            params.descriptor_table_vaddr,
            params.num_partitions * DESCRIPTOR_BYTES)
        partitions = []
        for i in range(params.num_partitions):
            base, capacity = _DESCRIPTOR.unpack_from(
                table_bytes, i * DESCRIPTOR_BYTES)
            partitions.append(_Partition(base_vaddr=base, capacity=capacity))
        yield self.charge_cycles(self.PIPELINE_CYCLES)

        session_tuples = 0
        session_overflow = 0
        received = 0
        remainder = b""
        mask = params.num_partitions - 1
        while received < params.total_bytes:
            _qpn, payload, _tail = yield from self.receive_payload()
            received += len(payload)
            data = remainder + payload
            usable = len(data) - len(data) % TUPLE_BYTES
            remainder = data[usable:]
            values = np.frombuffer(data[:usable], dtype="<u8")
            # One value per cycle through the radix-hash stage (II=1).
            yield self.charge_streaming(usable)
            targets = (values & np.uint64(mask)).astype(np.int64)
            for value, target in zip(values.tolist(), targets.tolist()):
                partition = partitions[target]
                partition.buffer.append(value)
                session_tuples += 1
                if len(partition.buffer) >= BUFFER_VALUES:
                    session_overflow += yield from self._flush(partition)

        for partition in partitions:
            if partition.buffer:
                session_overflow += yield from self._flush(partition)

        self.tuples_partitioned += session_tuples
        self.tuples_overflowed += session_overflow
        record = COMPLETION_RECORD.pack(session_tuples, session_overflow)
        yield from self.send_to_network(qpn, params.response_vaddr, record)

    def _flush(self, partition: _Partition):
        """Write one on-chip buffer to the partition's host region.
        Returns the number of values dropped for lack of capacity."""
        blob = b"".join(v.to_bytes(8, "little") for v in partition.buffer)
        partition.buffer.clear()
        room = partition.capacity - partition.cursor
        writable = min(len(blob), max(room, 0))
        overflow_values = (len(blob) - writable) // TUPLE_BYTES
        if writable > 0:
            yield from self.dma_write(partition.base_vaddr + partition.cursor,
                                      blob[:writable])
            partition.cursor += writable
            self.buffer_flushes += 1
        return overflow_values

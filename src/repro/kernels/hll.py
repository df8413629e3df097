"""The HyperLogLog kernel: cardinality estimation on RDMA streams
(Section 7.2).

The kernel consumes the payload of incoming RDMA RPC WRITE streams as 8 B
tuples, updating an on-chip HLL sketch at line rate (II=1, 100 Gbit/s).
Statistics are gathered "as a by-product of data reception": the data
itself is also written through to host memory, so a plain transfer turns
into transfer + cardinality estimate at no throughput cost (Figure 13b).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..algos.hyperloglog import HyperLogLog
from ..core.kernel import StromKernel
from ..core.rpc import PREAMBLE_SIZE, RpcPreamble, pack_params

TUPLE_BYTES = 8

#: Completion record: estimated cardinality (u64, rounded) + tuples seen.
COMPLETION_RECORD = struct.Struct("<QQ")


@dataclass(frozen=True)
class HllParams:
    """Session parameters for the HLL kernel."""

    response_vaddr: int      # completion record target (16 B)
    data_vaddr: int          # where the pass-through data lands in memory
    registers_vaddr: int     # where the final register file is written
    total_bytes: int         # stream length
    precision: int = 14

    _BODY = struct.Struct("<QQQB")

    def __post_init__(self) -> None:
        if self.total_bytes <= 0 or self.total_bytes % TUPLE_BYTES:
            raise ValueError("stream must be a positive multiple of 8 B")
        if not 4 <= self.precision <= 16:
            raise ValueError("precision must be within [4, 16]")

    def pack(self) -> bytes:
        body = self._BODY.pack(self.data_vaddr, self.registers_vaddr,
                               self.total_bytes, self.precision)
        return pack_params(RpcPreamble(self.response_vaddr), body)

    @classmethod
    def unpack(cls, params: bytes) -> "HllParams":
        preamble = RpcPreamble.unpack(params)
        data_vaddr, registers_vaddr, total, precision = \
            cls._BODY.unpack_from(params, PREAMBLE_SIZE)
        return cls(response_vaddr=preamble.response_vaddr,
                   data_vaddr=data_vaddr, registers_vaddr=registers_vaddr,
                   total_bytes=total, precision=precision)


class HllKernel(StromKernel):
    """Streaming cardinality estimation as a bump in the wire."""

    name = "hll"

    PIPELINE_CYCLES = 10

    def __init__(self, env, config) -> None:
        super().__init__(env, config)
        self.tuples_seen = 0
        self.sessions = 0

    def parse_params(self, raw: bytes) -> HllParams:
        return HllParams.unpack(raw)

    def serve(self, invocation, params: HllParams):
        yield from self._session(invocation.qpn, params)

    def _session(self, qpn: int, params: HllParams):
        yield self.charge_cycles(self.PIPELINE_CYCLES)
        received = 0
        # The usable 8 B tuples of every packet, sketched in one update
        # at session end: register max is order-free, so the registers
        # match a per-packet update.  Sized by what arrived, never by the
        # wire-supplied total_bytes.
        tuples = bytearray()
        while received < params.total_bytes:
            _qpn, payload, _tail = yield from self.receive_payload()
            offset = received
            received += len(payload)
            tuples += payload[:len(payload) - len(payload) % TUPLE_BYTES]
            # II=1: the sketch update streams at the data-path rate, so
            # this per-packet charge is what guarantees "no overhead" at
            # line rate.
            yield self.charge_streaming(len(payload))
            # Pass-through: the data still lands in host memory, exactly
            # like a plain RDMA WRITE would.
            yield from self.dma_write(params.data_vaddr + offset, payload)

        values = np.frombuffer(tuples, dtype="<u8")
        session_tuples = values.size
        sketch = HyperLogLog(precision=params.precision)
        sketch.add_array(values)
        self.tuples_seen += session_tuples
        self.sessions += 1
        registers = sketch.register_bytes()
        yield from self.dma_write(params.registers_vaddr, registers)
        estimate = int(round(sketch.cardinality()))
        record = COMPLETION_RECORD.pack(estimate, session_tuples)
        yield from self.send_to_network(qpn, params.response_vaddr, record)

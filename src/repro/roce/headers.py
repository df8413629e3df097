"""Infiniband transport headers: BTH, RETH, AETH, plus the ICRC.

These are the headers the StRoM RX/TX pipelines parse and generate
(Figure 2).  Byte layouts follow the Infiniband specification so the
serialized packets are plausible RoCE v2 datagrams; the ICRC is computed
for real (CRC32 over the transport portion) and validated on receive.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from .opcodes import Opcode

PSN_MASK = 0xFFFFFF
QPN_MASK = 0xFFFFFF
MSN_MASK = 0xFFFFFF

# Precompiled pack formats: header (de)serialization runs once per
# simulated packet, so skipping the format-string parse matters.
_BTH = struct.Struct("!BBHII")
_RETH = struct.Struct("!QII")
_AETH = struct.Struct("!I")


# The headers are slotted: one of each is built per simulated packet,
# and a slotted instance is cheaper to build and to read.
@dataclass(slots=True)
class Bth:
    """12-byte Base Transport Header."""

    opcode: Opcode
    dest_qp: int
    psn: int
    ack_request: bool = False
    partition_key: int = 0xFFFF

    SIZE = 12

    def __post_init__(self) -> None:
        self.dest_qp &= QPN_MASK
        self.psn &= PSN_MASK

    def to_bytes(self) -> bytes:
        flags = 0x40  # migration state, pad 0, version 0
        return _BTH.pack(
            int(self.opcode),
            flags,
            self.partition_key,
            self.dest_qp,  # upper byte reserved
            ((1 << 31) if self.ack_request else 0) | self.psn,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bth":
        if len(data) < cls.SIZE:
            raise ValueError("truncated BTH")
        opcode, _flags, pkey, dqp_word, psn_word = _BTH.unpack(data[:12])
        return cls(opcode=Opcode(opcode),
                   dest_qp=dqp_word & QPN_MASK,
                   psn=psn_word & PSN_MASK,
                   ack_request=bool(psn_word >> 31),
                   partition_key=pkey)


@dataclass(slots=True)
class Reth:
    """16-byte RDMA Extended Transport Header.

    For StRoM RPC op-codes the 64-bit virtual-address field is *re-used*
    to carry the RPC op-code used for kernel matching on the remote NIC
    (Section 5.1); the length field keeps its meaning.
    """

    vaddr: int
    rkey: int
    dma_length: int

    SIZE = 16

    def to_bytes(self) -> bytes:
        return _RETH.pack(self.vaddr & 0xFFFFFFFFFFFFFFFF,
                          self.rkey & 0xFFFFFFFF,
                          self.dma_length & 0xFFFFFFFF)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Reth":
        if len(data) < cls.SIZE:
            raise ValueError("truncated RETH")
        vaddr, rkey, dma_length = _RETH.unpack(data[:16])
        return cls(vaddr=vaddr, rkey=rkey, dma_length=dma_length)


#: AETH syndrome values (upper 3 bits of the syndrome byte select the type).
AETH_ACK = 0x00
AETH_RNR_NAK = 0x20
AETH_NAK_PSN_SEQ_ERROR = 0x60


@dataclass(slots=True)
class Aeth:
    """4-byte ACK Extended Transport Header."""

    syndrome: int
    msn: int

    SIZE = 4

    def to_bytes(self) -> bytes:
        return _AETH.pack(((self.syndrome & 0xFF) << 24)
                          | (self.msn & MSN_MASK))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Aeth":
        if len(data) < cls.SIZE:
            raise ValueError("truncated AETH")
        word = _AETH.unpack(data[:4])[0]
        return cls(syndrome=word >> 24, msn=word & MSN_MASK)

    @property
    def is_ack(self) -> bool:
        return (self.syndrome & 0xE0) == AETH_ACK

    @property
    def is_nak(self) -> bool:
        return (self.syndrome & 0xE0) == AETH_NAK_PSN_SEQ_ERROR


def icrc32(transport_bytes: bytes) -> int:
    """Invariant CRC over the transport portion of the packet.

    Real RoCE v2 masks some mutable fields before CRC'ing; the stack model
    computes CRC32 over BTH + extension headers + payload, which preserves
    the property that matters: corruption is detected end to end.
    """
    return zlib.crc32(transport_bytes) & 0xFFFFFFFF

"""The RoCE v2 packet: IP/UDP encapsulated IB packet with ICRC.

One :class:`RocePacket` is the unit that travels over the simulated cable
and through the RX/TX pipelines.  Packets serialize to real bytes
(IP + UDP + BTH [+ RETH|AETH] + payload + ICRC) and parse back, so header
bugs show up as test failures rather than silent model drift.

Headers are always real bytes; the *payload* may be a
:class:`~repro.core.payload.PayloadRef` — views over the source memory
that every forwarding hop (TX pipeline, cable, switch, RX pipeline)
passes along untouched.  Materialization happens only at true
consumption points: :meth:`RocePacket.to_bytes` (ICRC over the wire
image) and the receiving DMA/kernel boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Union

from .. import config
from ..core.payload import PayloadRef, as_bytes
from ..net.headers import Ipv4Header, UdpHeader
from .headers import Aeth, Bth, Reth, icrc32
from .opcodes import (AETH_OPCODES, RETH_OPCODES, Opcode, carries_aeth,
                      carries_reth)


@lru_cache(maxsize=4096)
def _ip_udp_prefix(src_ip: int, dst_ip: int, transport_len: int,
                   ecn: int = 0) -> bytes:
    """Serialized IP+UDP encapsulation prefix.  Immutable for a given
    (flow, packet size, ECN codepoint), so every MIDDLE packet of a
    large message — and every same-sized message of a flow — reuses one
    byte string.  The ECN codepoint is part of the key: a CE-marked
    packet and its unmarked twin must never share a cache entry."""
    udp = UdpHeader(src_port=config.ROCE_UDP_PORT,
                    dst_port=config.ROCE_UDP_PORT,
                    length=UdpHeader.SIZE + transport_len)
    ip = Ipv4Header(src_ip=src_ip, dst_ip=dst_ip,
                    total_length=Ipv4Header.SIZE + udp.length,
                    ecn=ecn)
    return ip.to_bytes() + udp.to_bytes()


_IP_UDP_BYTES = Ipv4Header.SIZE + UdpHeader.SIZE
_BTH_ICRC_BYTES = Bth.SIZE + config.ICRC_BYTES
#: Packets come in a few sizes: their framing is a cached lookup.
_wire_bytes = lru_cache(maxsize=4096)(config.wire_bytes_for_frame)
# Aliases: an Enum class-attribute read costs several global loads.
_ACKNOWLEDGE = Opcode.ACKNOWLEDGE
_CNP = Opcode.CNP


@dataclass(slots=True)
class RocePacket:
    """A single RoCE v2 datagram (the L3 view; Ethernet framing is added
    by the link model as pure byte accounting)."""

    src_ip: int
    dst_ip: int
    bth: Bth
    reth: Optional[Reth] = None
    aeth: Optional[Aeth] = None
    payload: Union[bytes, PayloadRef] = b""
    #: Set by the link model when injected corruption breaks the ICRC.
    corrupted: bool = False
    #: Congestion Experienced: set (on a *copy* of the packet — switch
    #: queues alias retransmit buffers) by ECN marking at switch egress;
    #: travels in the two ECN bits of the IPv4 ToS byte.
    ecn_ce: bool = False
    # Sizes are read on every pipeline stage a packet crosses, and
    # headers and payload never change after construction, so they are
    # computed once here (``dataclasses.replace`` recomputes them) and
    # play no part in equality or repr.
    #: BTH + extension headers + payload + ICRC.
    transport_bytes: int = field(init=False, compare=False, repr=False)
    #: IP datagram size.
    l3_bytes: int = field(init=False, compare=False, repr=False)
    #: Bytes on the Ethernet wire incl. framing, preamble and IFG.
    wire_bytes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        size = _BTH_ICRC_BYTES + len(self.payload)
        opcode = self.bth.opcode
        if self.reth is not None:
            size += Reth.SIZE
        elif opcode in RETH_OPCODES:
            raise ValueError(f"{opcode.name} requires a RETH")
        if self.aeth is not None:
            size += Aeth.SIZE
        elif opcode in AETH_OPCODES:
            raise ValueError(f"{opcode.name} requires an AETH")
        self.transport_bytes = size
        self.l3_bytes = size = _IP_UDP_BYTES + size
        self.wire_bytes = _wire_bytes(size)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the IP datagram bytes (valid ICRC appended)."""
        transport = self.bth.to_bytes()
        if self.reth is not None:
            transport += self.reth.to_bytes()
        if self.aeth is not None:
            transport += self.aeth.to_bytes()
        transport += as_bytes(self.payload)  # materialization point
        crc = icrc32(transport)
        if self.corrupted:
            crc ^= 0xFFFFFFFF
        transport += crc.to_bytes(4, "big")
        # The ICRC covers only the transport section (IB spec: the IP
        # header's mutable fields are masked), so CE marking in flight
        # changes exactly the ToS byte and the IPv4 header checksum.
        ecn = 0b11 if self.ecn_ce else 0
        return _ip_udp_prefix(self.src_ip, self.dst_ip,
                              len(transport), ecn) + transport

    @classmethod
    def from_bytes(cls, data: bytes) -> "RocePacket":
        """Parse an IP datagram; raises ValueError on malformed input or
        checksum/ICRC mismatch (the Packet Dropper path in hardware)."""
        ip = Ipv4Header.from_bytes(data)
        if ip.protocol != 17:
            raise ValueError("not a UDP datagram")
        offset = Ipv4Header.SIZE
        udp = UdpHeader.from_bytes(data[offset:])
        if udp.dst_port != config.ROCE_UDP_PORT:
            raise ValueError(f"not RoCE v2 (UDP port {udp.dst_port})")
        offset += UdpHeader.SIZE
        transport = data[offset:offset + udp.length - UdpHeader.SIZE]
        if len(transport) < Bth.SIZE + config.ICRC_BYTES:
            raise ValueError("truncated transport section")

        body, crc_bytes = transport[:-4], transport[-4:]
        if icrc32(body) != int.from_bytes(crc_bytes, "big"):
            raise ValueError("ICRC mismatch")

        bth = Bth.from_bytes(body)
        cursor = Bth.SIZE
        reth = aeth = None
        if carries_reth(bth.opcode):
            reth = Reth.from_bytes(body[cursor:])
            cursor += Reth.SIZE
        if carries_aeth(bth.opcode):
            aeth = Aeth.from_bytes(body[cursor:])
            cursor += Aeth.SIZE
        return cls(src_ip=ip.src_ip, dst_ip=ip.dst_ip, bth=bth,
                   reth=reth, aeth=aeth, payload=body[cursor:],
                   ecn_ce=ip.ecn == 0b11)

    def __repr__(self) -> str:
        return (f"<RocePacket {self.bth.opcode.name} qp={self.bth.dest_qp} "
                f"psn={self.bth.psn} payload={len(self.payload)}B>")


def make_ack(src_ip: int, dst_ip: int, dest_qp: int, psn: int,
             msn: int, syndrome: int = 0) -> RocePacket:
    """Convenience constructor for ACK/NAK packets (one per acknowledged
    message: arguments are positional, in field order, for speed)."""
    return RocePacket(src_ip, dst_ip, Bth(_ACKNOWLEDGE, dest_qp, psn), None,
                      Aeth(syndrome, msn))


def make_cnp(src_ip: int, dst_ip: int, dest_qp: int) -> RocePacket:
    """Convenience constructor for Congestion Notification Packets.

    BTH only, PSN 0: a CNP identifies the congested flow by the
    destination QP alone and sits entirely outside the PSN window —
    receiving one must never disturb requester or responder PSN state.
    """
    return RocePacket(src_ip, dst_ip, Bth(_CNP, dest_qp, 0))

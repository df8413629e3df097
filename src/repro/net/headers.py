"""Ethernet / IPv4 / UDP headers with real byte-level serialization.

The RoCE v2 encapsulation (Section 2.1) puts Infiniband packets inside
IP/UDP, so the stack's RX pipeline parses these exact headers.  We
serialize for real — tests round-trip every header and validate the IPv4
checksum the same way the Process IP module does.

Serialization is on the per-packet hot path, so the pack formats are
precompiled :class:`struct.Struct` objects and the (tiny, highly
repetitive) IPv4/UDP header byte strings of a flow are memoized with
``lru_cache`` — a flow's packets differ only in their transport section.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

_U16 = struct.Struct("!H")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_IPV4_WORDS = struct.Struct("!10H")
_UDP = struct.Struct("!HHHH")


def ipv4_checksum(header_bytes: bytes) -> int:
    """RFC 791 ones-complement checksum over the IPv4 header."""
    if len(header_bytes) == 20:
        total = sum(_IPV4_WORDS.unpack(header_bytes))
    else:
        if len(header_bytes) % 2:
            header_bytes += b"\x00"
        total = sum((header_bytes[i] << 8) | header_bytes[i + 1]
                    for i in range(0, len(header_bytes), 2))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def ip_str(ip: int) -> str:
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ip(dotted: str) -> int:
    parts = [int(p) for p in dotted.split(".")]
    if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
        raise ValueError(f"bad IPv4 address: {dotted!r}")
    return (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]


@dataclass
class EthernetHeader:
    """14-byte Ethernet II header."""

    dst_mac: bytes
    src_mac: bytes
    ethertype: int = 0x0800  # IPv4

    SIZE = 14

    def to_bytes(self) -> bytes:
        if len(self.dst_mac) != 6 or len(self.src_mac) != 6:
            raise ValueError("MAC addresses must be 6 bytes")
        return self.dst_mac + self.src_mac + _U16.pack(self.ethertype)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.SIZE:
            raise ValueError("truncated Ethernet header")
        return cls(dst_mac=data[0:6], src_mac=data[6:12],
                   ethertype=_U16.unpack(data[12:14])[0])


@dataclass
class Ipv4Header:
    """20-byte IPv4 header (no options)."""

    src_ip: int
    dst_ip: int
    total_length: int = 20
    protocol: int = 17  # UDP
    ttl: int = 64
    identification: int = 0
    dscp: int = 26  # paper uses PFC/converged traffic class; any DSCP works
    #: ECN codepoint (RFC 3168), the low two bits of the ToS byte.
    #: 0b00 Not-ECT (the historical default), 0b10 ECT(0), 0b11 CE.
    ecn: int = 0

    SIZE = 20

    def to_bytes(self) -> bytes:
        return _ipv4_header_bytes(self.src_ip, self.dst_ip,
                                  self.total_length, self.protocol,
                                  self.ttl, self.identification, self.dscp,
                                  self.ecn)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv4Header":
        if len(data) < cls.SIZE:
            raise ValueError("truncated IPv4 header")
        (version_ihl, dscp_ecn, total_length, identification, _flags,
         ttl, protocol, checksum, src, dst) = _IPV4.unpack(data[:20])
        if version_ihl != ((4 << 4) | 5):
            raise ValueError("unsupported IPv4 version/IHL")
        if ipv4_checksum(data[:20]) != 0:
            raise ValueError("IPv4 header checksum mismatch")
        return cls(src_ip=int.from_bytes(src, "big"),
                   dst_ip=int.from_bytes(dst, "big"),
                   total_length=total_length,
                   protocol=protocol,
                   ttl=ttl,
                   identification=identification,
                   dscp=dscp_ecn >> 2,
                   ecn=dscp_ecn & 0x3)


@lru_cache(maxsize=4096)
def _ipv4_header_bytes(src_ip: int, dst_ip: int, total_length: int,
                       protocol: int, ttl: int, identification: int,
                       dscp: int, ecn: int = 0) -> bytes:
    """Serialized IPv4 header, checksum included.  Memoized: all packets
    of a flow with the same size share one header byte string.  The ECN
    codepoint is part of the key so CE-marked and unmarked packets of
    one flow resolve to distinct (correct) cached byte strings."""
    header = _IPV4.pack(
        (4 << 4) | 5,                 # version + IHL
        (dscp << 2) | ecn,
        total_length,
        identification,
        0x4000,                       # don't fragment
        ttl,
        protocol,
        0,                            # checksum placeholder
        src_ip.to_bytes(4, "big"),
        dst_ip.to_bytes(4, "big"),
    )
    checksum = ipv4_checksum(header)
    return header[:10] + _U16.pack(checksum) + header[12:]


@dataclass
class UdpHeader:
    """8-byte UDP header (checksum optional per RFC 768; RoCE sets 0)."""

    src_port: int
    dst_port: int
    length: int = 8

    SIZE = 8

    def to_bytes(self) -> bytes:
        return _udp_header_bytes(self.src_port, self.dst_port, self.length)

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpHeader":
        if len(data) < cls.SIZE:
            raise ValueError("truncated UDP header")
        src_port, dst_port, length, _checksum = _UDP.unpack(data[:8])
        return cls(src_port=src_port, dst_port=dst_port, length=length)


@lru_cache(maxsize=4096)
def _udp_header_bytes(src_port: int, dst_port: int, length: int) -> bytes:
    return _UDP.pack(src_port, dst_port, length, 0)

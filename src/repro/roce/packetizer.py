"""MTU segmentation of RDMA messages into packet sequences.

A message larger than what fits in one MTU-sized frame is split into
FIRST / MIDDLE* / LAST packets; a single-packet message uses the ONLY
op-code.  The RETH (address + length) travels only in the first packet —
which is why the MSN Table must remember the DMA cursor (Section 4.1).
"""

from __future__ import annotations

from typing import List, NamedTuple

from .. import config
from .opcodes import Opcode


class Segment(NamedTuple):
    """One packet's worth of a message (a named tuple: a 256 KiB
    message builds 181 of them per post, so construction cost counts)."""

    opcode: Opcode
    offset: int          # byte offset of this segment's payload
    length: int          # payload bytes in this packet
    carries_reth: bool


_WRITE_SET = (Opcode.WRITE_FIRST, Opcode.WRITE_MIDDLE,
              Opcode.WRITE_LAST, Opcode.WRITE_ONLY)
_READ_RESP_SET = (Opcode.READ_RESPONSE_FIRST, Opcode.READ_RESPONSE_MIDDLE,
                  Opcode.READ_RESPONSE_LAST, Opcode.READ_RESPONSE_ONLY)
_RPC_WRITE_SET = (Opcode.RPC_WRITE_FIRST, Opcode.RPC_WRITE_MIDDLE,
                  Opcode.RPC_WRITE_LAST, Opcode.RPC_WRITE_ONLY)


def _segment(length: int, first_capacity: int, rest_capacity: int,
             opcode_set, reth: bool = True) -> List[Segment]:
    first_op, middle_op, last_op, only_op = opcode_set
    if length <= first_capacity:
        return [Segment(only_op, 0, length, reth)]
    segments = [Segment(first_op, 0, first_capacity, reth)]
    last = length - rest_capacity
    segments.extend(Segment(middle_op, offset, rest_capacity, False)
                    for offset in range(first_capacity, last,
                                        rest_capacity))
    offset = segments[-1].offset + segments[-1].length
    segments.append(Segment(last_op, offset, length - offset, False))
    return segments


def segment_write(length: int) -> List[Segment]:
    """Segments for an RDMA WRITE of ``length`` payload bytes."""
    if length < 0:
        raise ValueError("negative length")
    if length == 0:
        # Zero-length writes are legal (used as doorbells); one ONLY packet.
        return [Segment(opcode=Opcode.WRITE_ONLY, offset=0, length=0,
                        carries_reth=True)]
    return _segment(length, config.MAX_PAYLOAD_WITH_RETH,
                    config.MAX_PAYLOAD_NO_RETH, _WRITE_SET)


def segment_read_response(length: int) -> List[Segment]:
    """Segments for the response stream of an RDMA READ."""
    if length <= 0:
        raise ValueError("read responses carry at least one byte")
    # Response packets never carry a RETH; FIRST/LAST/ONLY carry an AETH.
    return _segment(length, config.MAX_PAYLOAD_NO_RETH,
                    config.MAX_PAYLOAD_NO_RETH, _READ_RESP_SET, reth=False)


def segment_rpc_write(length: int) -> List[Segment]:
    """Segments for an RDMA RPC WRITE (payload forwarded to a kernel)."""
    if length <= 0:
        raise ValueError("RPC WRITE needs payload")
    return _segment(length, config.MAX_PAYLOAD_WITH_RETH,
                    config.MAX_PAYLOAD_NO_RETH, _RPC_WRITE_SET)


def l3_bytes_for_segments(segments: List[Segment],
                          response: bool = False) -> List[int]:
    """Per-segment L3 frame sizes (IPv4 + UDP + BTH [+RETH] [+AETH] +
    payload + ICRC) without materializing packets — the burst fast path
    sizes a whole message analytically from its segment list.  Must stay
    bit-identical to :attr:`repro.roce.packet.RocePacket.l3_bytes`;
    ``REPRO_VALIDATE=1`` asserts exactly that."""
    from .opcodes import carries_aeth
    base = (config.IPV4_HEADER_BYTES + config.UDP_HEADER_BYTES
            + config.BTH_BYTES + config.ICRC_BYTES)
    sizes = []
    for seg in segments:
        size = base + seg.length
        if seg.carries_reth:
            size += config.RETH_BYTES
        if response and carries_aeth(seg.opcode):
            size += config.AETH_BYTES
        sizes.append(size)
    return sizes


def read_response_packet_count(length: int) -> int:
    """Number of packets the responder will send for a READ of ``length``
    bytes — the requester must reserve this many PSNs up front, which is
    exactly why READ semantics require the length a priori (Section 5.1).
    Equal to ``len(segment_read_response(length))``: every response
    packet holds a full MTU payload except the last."""
    if length <= 0:
        raise ValueError("read responses carry at least one byte")
    return -(-length // config.MAX_PAYLOAD_NO_RETH)

"""MTU segmentation of RDMA messages into packet sequences.

A message larger than what fits in one MTU-sized frame is split into
FIRST / MIDDLE* / LAST packets; a single-packet message uses the ONLY
op-code.  The RETH (address + length) travels only in the first packet —
which is why the MSN Table must remember the DMA cursor (Section 4.1).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator, List, NamedTuple

from .. import config
from .opcodes import Opcode


class Segment(NamedTuple):
    """One packet's worth of a message."""

    opcode: Opcode
    offset: int          # byte offset of this segment's payload
    length: int          # payload bytes in this packet
    carries_reth: bool


class Segments(Sequence):
    """A message's segments in closed form: one ONLY segment, or a FIRST
    of ``first`` bytes, equal MIDDLEs of ``rest`` bytes and a LAST
    holding the remainder.  Length, offsets and payload sizes are
    arithmetic; a :class:`Segment` is built only when indexed or
    iterated, so a 256 KiB message costs no per-packet objects until
    something needs packet ``i``."""

    __slots__ = ("_ops", "_n", "_first", "_rest", "_last", "_reth")

    def __init__(self, length: int, first_capacity: int,
                 rest_capacity: int, opcode_set, reth: bool) -> None:
        self._ops = opcode_set
        self._reth = reth
        self._rest = rest_capacity
        if length <= first_capacity:
            self._n = 1
            self._first = self._last = length
        else:
            self._n = 2 + (length - first_capacity - 1) // rest_capacity
            self._first = first_capacity
            self._last = length - self.offset(self._n - 1)

    def __len__(self) -> int:
        return self._n

    def offset(self, i: int) -> int:
        """Payload offset of segment ``i`` (0 <= i < len)."""
        return self._first + (i - 1) * self._rest if i else 0

    def lengths(self) -> List[int]:
        """Every segment's payload length, in order."""
        n = self._n
        if n == 1:
            return [self._first]
        return [self._first] + [self._rest] * (n - 2) + [self._last]

    def _make(self, i: int) -> Segment:
        first_op, middle_op, last_op, only_op = self._ops
        n = self._n
        if n == 1:
            return Segment(only_op, 0, self._first, self._reth)
        if i == 0:
            return Segment(first_op, 0, self._first, self._reth)
        if i == n - 1:
            return Segment(last_op, self.offset(i), self._last, False)
        return Segment(middle_op, self.offset(i), self._rest, False)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._make(i) for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("segment index out of range")
        return self._make(index)

    def __iter__(self) -> Iterator[Segment]:
        return map(self._make, range(self._n))


_WRITE_SET = (Opcode.WRITE_FIRST, Opcode.WRITE_MIDDLE,
              Opcode.WRITE_LAST, Opcode.WRITE_ONLY)
_READ_RESP_SET = (Opcode.READ_RESPONSE_FIRST, Opcode.READ_RESPONSE_MIDDLE,
                  Opcode.READ_RESPONSE_LAST, Opcode.READ_RESPONSE_ONLY)
_RPC_WRITE_SET = (Opcode.RPC_WRITE_FIRST, Opcode.RPC_WRITE_MIDDLE,
                  Opcode.RPC_WRITE_LAST, Opcode.RPC_WRITE_ONLY)


def segment_write(length: int) -> Segments:
    """Segments for an RDMA WRITE of ``length`` payload bytes.
    Zero-length writes are legal (used as doorbells): one ONLY packet."""
    if length < 0:
        raise ValueError("negative length")
    return Segments(length, config.MAX_PAYLOAD_WITH_RETH,
                    config.MAX_PAYLOAD_NO_RETH, _WRITE_SET, reth=True)


def segment_read_response(length: int) -> Segments:
    """Segments for the response stream of an RDMA READ."""
    if length <= 0:
        raise ValueError("read responses carry at least one byte")
    # Response packets never carry a RETH; FIRST/LAST/ONLY carry an AETH.
    return Segments(length, config.MAX_PAYLOAD_NO_RETH,
                    config.MAX_PAYLOAD_NO_RETH, _READ_RESP_SET, reth=False)


def segment_rpc_write(length: int) -> Segments:
    """Segments for an RDMA RPC WRITE (payload forwarded to a kernel)."""
    if length <= 0:
        raise ValueError("RPC WRITE needs payload")
    return Segments(length, config.MAX_PAYLOAD_WITH_RETH,
                    config.MAX_PAYLOAD_NO_RETH, _RPC_WRITE_SET, reth=True)


def l3_bytes_for_segments(segments: Segments,
                          response: bool = False) -> List[int]:
    """Per-segment L3 frame sizes (IPv4 + UDP + BTH [+RETH] [+AETH] +
    payload + ICRC) without materializing packets — the burst fast path
    sizes a whole message analytically, in closed form: first, middle ×
    (n-2), last.  Must stay bit-identical to
    :attr:`repro.roce.packet.RocePacket.l3_bytes`; ``REPRO_VALIDATE=1``
    asserts exactly that."""
    from .opcodes import carries_aeth
    base = (config.IPV4_HEADER_BYTES + config.UDP_HEADER_BYTES
            + config.BTH_BYTES + config.ICRC_BYTES)

    def size(opcode, length, reth):
        if reth:
            length += config.RETH_BYTES
        if response and carries_aeth(opcode):
            length += config.AETH_BYTES
        return base + length

    first_op, middle_op, last_op, only_op = segments._ops
    n = len(segments)
    if n == 1:
        return [size(only_op, segments._first, segments._reth)]
    return ([size(first_op, segments._first, segments._reth)]
            + [size(middle_op, segments._rest, False)] * (n - 2)
            + [size(last_op, segments._last, False)])


def read_response_packet_count(length: int) -> int:
    """Number of packets the responder will send for a READ of ``length``
    bytes — the requester must reserve this many PSNs up front, which is
    exactly why READ semantics require the length a priori (Section 5.1).
    Equal to ``len(segment_read_response(length))``: every response
    packet holds a full MTU payload except the last."""
    if length <= 0:
        raise ValueError("read responses carry at least one byte")
    return -(-length // config.MAX_PAYLOAD_NO_RETH)

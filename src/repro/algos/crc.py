"""CRC64 (ECMA-182) — the consistency kernel's checksum (Section 6.3).

The paper stores a CRC64 checksum in each data object (Pilaf-style) and
verifies it either in software on the requester ("READ+SW") or on the
remote NIC ("StRoM").  CRC64 is inherently sequential per byte (paper
footnote 8: no SIMD, no CRC64 CPU instruction), which is why the software
baseline pays up to 40 % overhead while the FPGA pipeline does it at line
rate.

Those costs are simulated (``crc64_ns_per_byte`` for READ+SW, pipeline
cycles for the kernel), so how fast the host computes the value is free.
CRC is linear over GF(2): a block's CRC is the XOR, over its bytes, of
the CRC of that byte alone at its position.  Inputs of at least
:data:`BLOCK` bytes take one numpy gather + XOR-reduce from a position
table over all blocks at once, then chain the blocks with 8 lookups
each; shorter inputs use the byte-at-a-time 256-entry table.
:func:`crc64_bitwise` is the bit-at-a-time reference for the tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List

import numpy as np

#: CRC-64/ECMA-182 polynomial.
CRC64_POLY = 0x42F0E1EBA9EA3693
_MASK64 = (1 << 64) - 1

#: Bytes per position-table block (table: BLOCK x 256 x 8 B = 512 KiB).
BLOCK = 256


def _build_table(poly: int) -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ poly) & _MASK64
            else:
                crc = (crc << 1) & _MASK64
        table.append(crc)
    return table


_TABLE = _build_table(CRC64_POLY)


@lru_cache(maxsize=None)
def _position_table():
    """Entry ``256 * i + c``: CRC of byte ``c`` followed by ``BLOCK - 1 -
    i`` zero bytes; also rows 0-7 as lists.  Built on first use."""
    table = np.array(_TABLE, dtype=np.uint64)
    rows = np.empty((BLOCK, 256), dtype=np.uint64)
    rows[-1] = table
    for i in range(BLOCK - 2, -1, -1):  # one more zero byte per row
        rows[i] = (rows[i + 1] << np.uint64(8)) \
            ^ table[rows[i + 1] >> np.uint64(56)]
    return rows.reshape(-1), rows[:8].tolist()


def crc64(data: bytes, initial: int = 0) -> int:
    """CRC-64/ECMA-182 of ``data`` (any bytes-like object)."""
    crc = initial & _MASK64
    n = len(data)
    if n < BLOCK:
        for byte in data:
            crc = (_TABLE[((crc >> 56) ^ byte) & 0xFF] ^ (crc << 8)) \
                & _MASK64
        return crc
    positions, (r0, r1, r2, r3, r4, r5, r6, r7) = _position_table()
    # Leading zeros leave a zero-initial CRC unchanged, so pad the front
    # to whole blocks; the initial value is XORed into the first 8 bytes.
    blocks = -(-n // BLOCK)
    buf = np.zeros(blocks * BLOCK, dtype=np.uint8)
    start = blocks * BLOCK - n
    buf[start:] = np.frombuffer(data, dtype=np.uint8)
    buf[start:start + 8] ^= np.frombuffer(crc.to_bytes(8, "big"),
                                          dtype=np.uint8)
    index = buf.reshape(blocks, BLOCK).astype(np.intp)
    index += np.arange(0, BLOCK * 256, 256, dtype=np.intp)
    crc = 0
    for value in np.bitwise_xor.reduce(positions[index], axis=1).tolist():
        # The running CRC shifted through one block of zeros (its bytes
        # at the block's head), plus the block's own contribution.
        crc = (value ^ r0[crc >> 56] ^ r1[(crc >> 48) & 0xFF]
               ^ r2[(crc >> 40) & 0xFF] ^ r3[(crc >> 32) & 0xFF]
               ^ r4[(crc >> 24) & 0xFF] ^ r5[(crc >> 16) & 0xFF]
               ^ r6[(crc >> 8) & 0xFF] ^ r7[crc & 0xFF])
    return crc


def crc64_bitwise(data: bytes, initial: int = 0) -> int:
    """Bit-at-a-time reference implementation (slow; for validation)."""
    crc = initial & _MASK64
    for byte in data:
        crc ^= byte << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ CRC64_POLY) & _MASK64
            else:
                crc = (crc << 1) & _MASK64
    return crc


def crc64_incremental(chunks: Iterable[bytes]) -> int:
    """CRC64 over a stream of chunks — how the NIC pipeline consumes a
    DMA data stream word by word."""
    crc = 0
    for chunk in chunks:
        crc = crc64(chunk, crc)
    return crc


class ChecksummedObject:
    """Layout helper for objects carrying a trailing CRC64 (Pilaf-style).

    An object of total size ``n`` holds ``n - 8`` payload bytes followed
    by the 8-byte little-endian CRC64 of that payload.
    """

    CHECKSUM_BYTES = 8

    @classmethod
    def seal(cls, payload: bytes) -> bytes:
        """Append the checksum to ``payload``."""
        return payload + crc64(payload).to_bytes(8, "little")

    @classmethod
    def verify(cls, data: bytes) -> bool:
        """True if the trailing checksum matches the payload."""
        if len(data) < cls.CHECKSUM_BYTES:
            return False
        payload, stored = data[:-8], data[-8:]
        return crc64(payload) == int.from_bytes(stored, "little")

    @classmethod
    def payload(cls, data: bytes) -> bytes:
        """The payload without its checksum (assumes verified)."""
        if len(data) < cls.CHECKSUM_BYTES:
            raise ValueError("object smaller than its checksum")
        return data[:-8]

    @classmethod
    def sealed_size(cls, payload_bytes: int) -> int:
        return payload_bytes + cls.CHECKSUM_BYTES

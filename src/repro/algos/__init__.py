"""Pure algorithms: CRC64, HyperLogLog, and the shared hash functions."""

from .crc import (
    CRC64_POLY,
    ChecksummedObject,
    crc64,
    crc64_bitwise,
)
from .hashing import (
    fnv1a64,
    fnv1a64_int,
    murmur64,
    murmur64_array,
    radix_hash,
    radix_hash_array,
)
from .hyperloglog import HyperLogLog, exact_cardinality

__all__ = [
    "CRC64_POLY",
    "ChecksummedObject",
    "HyperLogLog",
    "crc64",
    "crc64_bitwise",
    "exact_cardinality",
    "fnv1a64",
    "fnv1a64_int",
    "murmur64",
    "murmur64_array",
    "radix_hash",
    "radix_hash_array",
]

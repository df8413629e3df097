"""HyperLogLog cardinality estimation (Section 7.2).

Full Flajolet et al. estimator with the standard small-range (linear
counting) and large-range corrections, plus numpy bulk updates so the
100 G experiments can push gigabytes of tuples through the sketch.

Both the StRoM HLL kernel and the CPU baseline share this implementation:
the paper's point is *where* the computation runs (NIC at line rate vs.
memory-bound CPU threads), not a different algorithm.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .hashing import murmur64, murmur64_array


def _alpha(m: int) -> float:
    """Bias-correction constant for ``m`` registers."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog:
    """HLL sketch with ``2**precision`` one-byte registers.

    ``precision`` between 4 and 16; the paper-scale deployments use 14
    (16 KiB of registers — comfortably on-chip BRAM for the FPGA kernel).
    """

    def __init__(self, precision: int = 14) -> None:
        if not 4 <= precision <= 16:
            raise ValueError("precision must be within [4, 16]")
        self.precision = precision
        self.num_registers = 1 << precision
        self.registers = np.zeros(self.num_registers, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, value: int) -> None:
        """Add one 64-bit item."""
        h = murmur64(value)
        index = h >> (64 - self.precision)
        remainder = h & ((1 << (64 - self.precision)) - 1)
        rank = (64 - self.precision) - remainder.bit_length() + 1
        if rank > self.registers[index]:
            self.registers[index] = rank

    def add_array(self, values: np.ndarray) -> None:
        """Bulk-add a uint64 array (vectorized).

        Same registers as :meth:`add` per item: the rank comes from the
        bit length of the remainder's two 32-bit halves, each exact as a
        float64 ``frexp`` exponent (0 for a zero half)."""
        if values.size == 0:
            return
        h = murmur64_array(values)
        width = 64 - self.precision
        index = (h >> np.uint64(width)).astype(np.intp)
        remainder = h & np.uint64((1 << width) - 1)
        _, high = np.frexp((remainder >> np.uint64(32)).astype(np.float64))
        _, low = np.frexp(
            (remainder & np.uint64(0xFFFFFFFF)).astype(np.float64))
        bit_length = np.where(high > 0, high + 32, low)
        rank = (width + 1 - bit_length).astype(np.uint8)
        np.maximum.at(self.registers, index, rank)

    def merge(self, other: "HyperLogLog") -> None:
        """Union with another sketch of identical precision."""
        if other.precision != self.precision:
            raise ValueError("precision mismatch")
        np.maximum(self.registers, other.registers, out=self.registers)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def cardinality(self) -> float:
        """The bias-corrected cardinality estimate."""
        m = self.num_registers
        registers = self.registers.astype(np.float64)
        estimate = _alpha(m) * m * m / np.sum(np.exp2(-registers))
        if estimate <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                return m * math.log(m / zeros)  # linear counting
            return float(estimate)
        two_to_32 = 2.0 ** 32
        if estimate > two_to_32 / 30.0:
            return -two_to_32 * math.log(1.0 - estimate / two_to_32)
        return float(estimate)

    @property
    def standard_error(self) -> float:
        """The theoretical relative error: 1.04 / sqrt(m)."""
        return 1.04 / math.sqrt(self.num_registers)

    def register_bytes(self) -> bytes:
        """Serialized registers (what the kernel DMA-writes to host
        memory so software can read the final estimate)."""
        return self.registers.tobytes()

    @classmethod
    def from_register_bytes(cls, data: bytes,
                            precision: int = 14) -> "HyperLogLog":
        hll = cls(precision)
        if len(data) != hll.num_registers:
            raise ValueError("register blob size mismatch")
        hll.registers = np.frombuffer(data, dtype=np.uint8).copy()
        return hll


def exact_cardinality(values: Iterable[int]) -> int:
    """Ground truth for tests and examples."""
    return len(set(values))

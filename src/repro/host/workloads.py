"""Workload generators for the benchmarks and applications.

Key and tuple distributions commonly used to evaluate KV stores and
shuffles: uniform keys and skewed radix-partition tuples (the Zipfian
key generator is :class:`repro.cluster.workload.ZipfGenerator`).  All
generators are deterministic under a seed so simulated experiments are
reproducible.
"""

from __future__ import annotations

from typing import List

import numpy as np


def uniform_keys(count: int, key_space: int, seed: int = 0) -> np.ndarray:
    """Uniform uint64 keys over ``[0, key_space)``."""
    if count < 0 or key_space < 1:
        raise ValueError("invalid workload parameters")
    rng = np.random.default_rng(seed)
    return rng.integers(0, key_space, size=count, dtype=np.uint64)


def skewed_tuples(count: int, partition_bits: int, hot_fraction: float,
                  hot_share: float, seed: int = 0) -> np.ndarray:
    """Shuffle-workload tuples whose radix partitions are skewed:
    ``hot_share`` of the tuples land in the ``hot_fraction`` hottest
    partitions (stresses the shuffle kernel's fixed on-chip buffers and
    per-partition capacity planning)."""
    if not 0.0 < hot_fraction < 1.0 or not 0.0 <= hot_share <= 1.0:
        raise ValueError("fractions must be within (0, 1)")
    num_partitions = 1 << partition_bits
    hot_count = max(1, int(num_partitions * hot_fraction))
    rng = np.random.default_rng(seed)
    hot = rng.random(count) < hot_share
    partitions = np.where(
        hot,
        rng.integers(0, hot_count, size=count),
        rng.integers(hot_count, num_partitions, size=count))
    high_bits = rng.integers(0, 1 << 50, size=count, dtype=np.uint64)
    return (high_bits << np.uint64(partition_bits)) \
        | partitions.astype(np.uint64)


def partition_histogram(values: np.ndarray,
                        partition_bits: int) -> List[int]:
    """Tuples per radix partition (capacity planning for the shuffle)."""
    mask = np.uint64((1 << partition_bits) - 1)
    counts = np.bincount((values & mask).astype(np.int64),
                         minlength=1 << partition_bits)
    return counts.tolist()

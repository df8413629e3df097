"""The StRoM kernels shipped with the paper.

- :class:`GetKernel` — the Listing 2 example (fixed two-step KV GET).
- :class:`TraversalKernel` — generic pointer chasing (Section 6.2).
- :class:`ConsistencyKernel` — CRC64-verified reads (Section 6.3).
- :class:`ShuffleKernel` — on-NIC radix partitioning (Section 6.4).
- :class:`HllKernel` — streaming cardinality estimation (Section 7.2).
"""

from .consistency import (
    INCONSISTENT_MARKER,
    ConsistencyKernel,
    ConsistencyParams,
    seeded_failure_injector,
)
from .get import (
    BUCKETS_PER_ENTRY,
    GetKernel,
    GetParams,
    HT_ENTRY_BYTES,
    pack_ht_entry,
    unpack_ht_entry,
)
from .hll import HllKernel, HllParams
from .shuffle import (
    BUFFER_VALUES,
    MAX_PARTITIONS,
    ShuffleKernel,
    ShuffleParams,
    pack_descriptor,
)
from .traversal import (
    ELEMENT_BYTES,
    NOT_FOUND_MARKER,
    PredicateOp,
    TraversalKernel,
    TraversalParams,
)

__all__ = [
    "BUCKETS_PER_ENTRY",
    "BUFFER_VALUES",
    "ConsistencyKernel",
    "ConsistencyParams",
    "ELEMENT_BYTES",
    "GetKernel",
    "GetParams",
    "HT_ENTRY_BYTES",
    "HllKernel",
    "HllParams",
    "INCONSISTENT_MARKER",
    "MAX_PARTITIONS",
    "NOT_FOUND_MARKER",
    "PredicateOp",
    "ShuffleKernel",
    "ShuffleParams",
    "TraversalKernel",
    "TraversalParams",
    "pack_descriptor",
    "pack_ht_entry",
    "seeded_failure_injector",
    "unpack_ht_entry",
]

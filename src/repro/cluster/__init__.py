"""Scale-out StRoM: switched fabrics, sharded KV, open-loop load.

The paper's testbed is two hosts on one cable (Section 6.1).  This
package grows that into a cluster:

- :mod:`~repro.cluster.switch` — a store-and-forward Ethernet switch
  with MAC learning, flooding, and bounded per-port egress queues
  (tail-drop) drained at line rate;
- :mod:`~repro.cluster.topology` — builders for two-host pairs
  (``build_fabric``'s backend) and single-switch stars, with per-link
  fault-seed derivation;
- :mod:`~repro.cluster.sharded_kv` — a consistent-hashing sharded KV
  service whose GETs run over any of the paper's three paths (one-sided
  READs, the StRoM traversal kernel, TCP RPC);
- :mod:`~repro.cluster.workload` — an open-loop Poisson/Zipf load
  generator measuring offered-vs-achieved throughput and latency tails.
"""

from .sharded_kv import (
    GET_PATHS,
    TCP_HANDLER_CPU,
    HashRing,
    KvUnavailable,
    PutResult,
    RetryPolicy,
    ShardedKvClient,
    ShardedKvService,
)
from .switch import SWITCH_DEFAULT, Switch, SwitchConfig, SwitchPort
from .topology import (
    BASE_IP,
    Cluster,
    build_pair,
    build_star,
)
from .workload import (
    DEFAULT_PERCENTILES,
    WorkloadConfig,
    WorkloadReport,
    ZipfGenerator,
    key_for_rank,
    populate,
    run_open_loop,
    value_for_key,
)

__all__ = [
    "BASE_IP",
    "Cluster",
    "DEFAULT_PERCENTILES",
    "GET_PATHS",
    "HashRing",
    "KvUnavailable",
    "PutResult",
    "RetryPolicy",
    "SWITCH_DEFAULT",
    "ShardedKvClient",
    "ShardedKvService",
    "Switch",
    "SwitchConfig",
    "SwitchPort",
    "TCP_HANDLER_CPU",
    "WorkloadConfig",
    "WorkloadReport",
    "ZipfGenerator",
    "build_pair",
    "build_star",
    "key_for_rank",
    "populate",
    "run_open_loop",
    "value_for_key",
]

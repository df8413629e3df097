"""Host software: nodes, driver verbs, CPU cost model, and baselines."""

from . import baselines, cpu, tcp_rpc, workloads
from .node import Fabric, HostNode, build_fabric

__all__ = [
    "Fabric",
    "HostNode",
    "baselines",
    "build_fabric",
    "cpu",
    "tcp_rpc",
    "workloads",
]

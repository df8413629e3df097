"""TCP-based RPC baseline (rpcgen, Section 6.2).

The paper generates RPC stubs with the rpcgen compiler and invokes them
over TCP: the *remote CPU* executes the operation (list traversal, hash
lookup).  Latency is dominated by the kernel network stack and socket
wake-ups; it barely varies with the length of the traversed structure
(Figure 7) but suffers from per-byte message-passing cost once responses
exceed ~256 B (Figure 8).

This model charges: half the base RPC latency per direction, per-byte TCP
stack cost on the payload actually shipped, scheduling jitter, plus the
real CPU-side work (traversal at one DRAM access per element).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..config import HostConfig
from ..obs.runtime import registry_for
from ..sim import Resource, Simulator
from ..sim.timebase import NS
from .cpu import CpuModel


@dataclass
class TcpRpcResult:
    """Outcome of one simulated RPC."""

    latency_ps: int
    response_bytes: int
    server_cpu_ps: int


class TcpRpcChannel:
    """A client/server TCP RPC channel between two hosts.

    ``server_work(request) -> (response_bytes, cpu_time_ps)`` runs the
    remote handler's cost model; the channel adds invocation overhead.
    """

    def __init__(self, env: Simulator, config: HostConfig,
                 seed: int = 0,
                 server_cpu: Optional[Resource] = None,
                 name: str = "tcp_rpc") -> None:
        self.env = env
        self.config = config
        self.cpu = CpuModel(config)
        self._rng = random.Random(seed)
        self.name = name
        self.calls = registry_for(env).counter(f"{name}.calls")
        #: Optional shared server core: when set, the handler's CPU time
        #: serializes against every other channel holding the same
        #: Resource (one RPC thread per server, as rpcgen deploys it).
        #: Channels without it keep the original infinitely-parallel
        #: server, which the two-node experiments rely on.
        self.server_cpu = server_cpu

    def _one_way(self, payload_bytes: int) -> int:
        base = self.config.tcp_rpc_base_latency // 2
        per_byte = int(payload_bytes * self.config.tcp_ns_per_byte * NS)
        jitter = self._rng.randrange(self.config.tcp_jitter + 1)
        return base + per_byte + jitter

    def call(self, request_bytes: int,
             server_work: Callable[[], "tuple[int, int]"]):
        """Process helper: one round trip.  ``server_work()`` returns
        ``(response_bytes, server_cpu_ps)``.  Returns TcpRpcResult."""
        if request_bytes < 0:
            raise ValueError("negative request size")
        start = self.env.now
        yield self.env.timeout(self._one_way(request_bytes))
        if self.server_cpu is not None:
            yield self.server_cpu.acquire()
        try:
            response_bytes, cpu_ps = server_work()
            if response_bytes < 0 or cpu_ps < 0:
                raise ValueError(
                    "server work must return non-negative values")
            yield self.env.timeout(cpu_ps)
        finally:
            if self.server_cpu is not None:
                self.server_cpu.release()
        yield self.env.timeout(self._one_way(response_bytes))
        self.calls.add()
        return TcpRpcResult(latency_ps=self.env.now - start,
                            response_bytes=response_bytes,
                            server_cpu_ps=cpu_ps)

    # ------------------------------------------------------------------
    # Canned server handlers for the paper's baselines
    # ------------------------------------------------------------------
    def linked_list_handler(self, traversals: int, value_bytes: int):
        """RPC handler traversing ``traversals`` list elements in DRAM
        then returning the value: Figure 7's 'TCP-based RPC' line."""
        def work():
            cpu = traversals * self.cpu.memory_access() \
                + self.cpu.memcpy_time(value_bytes)
            return value_bytes, cpu
        return work


"""A host machine with a StRoM NIC: memory, driver, and the verbs API.

The driver mirrors Section 4.3/5.3: it pins huge pages, loads the TLB,
exposes a command interface (one memory-mapped AVX2 store per command),
and offers the application-level calls ``write``, ``read``, ``post_rpc``
(Listing 5's ``postRpc``) and ``post_rpc_write`` (``postRpcWrite``).
Completion is observed either through work-completion events (ACK/data
arrival) or by polling on memory, as the paper's ping-pong benchmarks do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..config import HOST_DEFAULT, NIC_10G, HostConfig, NicConfig
from ..memory import AddressSpace, PhysicalMemory, Region
from ..net.link import Cable, LinkFaults  # Cable: Fabric field annotation
from ..nic.dma import MmioPath
from ..nic.nic import NicCommand, StromNic
from ..roce.qp import QpError
from ..sim import Event, Simulator


def _check_completion(value):
    """Work completions carry the completion time, or a :class:`QpError`
    when the QP transitioned to the error state: raise the latter so
    synchronous verbs surface transport failure to the caller."""
    if isinstance(value, QpError):
        raise value
    return value


class HostNode:
    """One machine: CPU model + pinned memory + StRoM NIC."""

    def __init__(self, env: Simulator, name: str, ip: int,
                 nic_config: NicConfig = NIC_10G,
                 host_config: HostConfig = HOST_DEFAULT,
                 memory_bytes: int = 1024 * 1024 * 1024,
                 seed: int = 0) -> None:
        self.env = env
        self.name = name
        self.host_config = host_config
        self.memory = PhysicalMemory(page_bytes=nic_config.page_bytes,
                                     size_bytes=memory_bytes)
        self.space = AddressSpace(self.memory)
        self.nic = StromNic(env, nic_config, self.memory, ip=ip,
                            name=f"{name}.nic")
        self.mmio = MmioPath(
            env,
            issue_cost=host_config.mmio_command_cost,
            crossing_latency=nic_config.pcie_write_latency,
            deliver=self.nic.submit,
            jitter_seed=seed,
            name=f"{name}.mmio")
        self._rng = random.Random(seed ^ 0x5EED)

    # ------------------------------------------------------------------
    # Memory management (driver: pin + TLB load, Section 4.2/4.3)
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, name: str = "buf") -> Region:
        """Allocate a pinned buffer and install its pages in the NIC TLB."""
        region = self.space.allocate(nbytes, name)
        page = self.space.page_bytes
        first_vpn = region.vaddr // page
        last_vpn = (region.vaddr + region.nbytes - 1) // page
        table = self.space.mapped_pages
        for vpn in range(first_vpn, last_vpn + 1):
            self.nic.tlb.populate(vpn, table[vpn])
        return region

    # ------------------------------------------------------------------
    # Verbs (process helpers: use with ``yield from`` inside a process)
    # ------------------------------------------------------------------
    def write(self, qpn: int, laddr: int, raddr: int, length: int,
              signalled: bool = True):
        """RDMA WRITE ``length`` bytes from local ``laddr`` to remote
        ``raddr``.  Returns the work-completion event (fires on ACK)."""
        completion = Event(self.env) if signalled else None
        command = NicCommand(kind="write", qpn=qpn, laddr=laddr,
                             raddr=raddr, length=length,
                             completion=completion)
        yield from self.mmio.post(command)
        return completion

    def write_sync(self, qpn: int, laddr: int, raddr: int, length: int):
        """WRITE and wait for the ACK."""
        completion = yield from self.write(qpn, laddr, raddr, length)
        yield completion
        return _check_completion(completion.value)

    def read(self, qpn: int, laddr: int, raddr: int, length: int):
        """RDMA READ ``length`` bytes from remote ``raddr`` into local
        ``laddr``.  Returns the completion event (fires when data is in
        local memory)."""
        completion = Event(self.env)
        command = NicCommand(kind="read", qpn=qpn, laddr=laddr,
                             raddr=raddr, length=length,
                             completion=completion)
        yield from self.mmio.post(command)
        return completion

    def read_sync(self, qpn: int, laddr: int, raddr: int, length: int):
        """READ and wait for the data to land in local memory."""
        completion = yield from self.read(qpn, laddr, raddr, length)
        yield completion
        return _check_completion(completion.value)

    def post_rpc(self, qpn: int, rpc_opcode: int, params: bytes):
        """Listing 5's ``postRpc``: invoke a kernel on the remote NIC.
        Returns the completion event (fires on transport-level ACK; the
        kernel's response lands in memory and is observed by polling)."""
        completion = Event(self.env)
        command = NicCommand(kind="rpc", qpn=qpn, rpc_op=rpc_opcode,
                             params=params, completion=completion)
        yield from self.mmio.post(command)
        return completion

    def post_rpc_write(self, qpn: int, rpc_opcode: int, laddr: int,
                       length: int):
        """Listing 5's ``postRpcWrite``: stream a local buffer to a remote
        kernel as RPC payload."""
        completion = Event(self.env)
        command = NicCommand(kind="rpc_write", qpn=qpn, rpc_op=rpc_opcode,
                             laddr=laddr, length=length,
                             completion=completion)
        yield from self.mmio.post(command)
        return completion

    def post_local_rpc(self, rpc_opcode: int, params: bytes,
                       output_qpn: int = 0):
        """Local StRoM invocation (Sections 3.5/5.2): run a kernel on the
        *local* NIC.  ``output_qpn=0`` sends kernel output to local
        memory; a connected QPN turns the kernel into a send-side
        processor."""
        completion = Event(self.env)
        command = NicCommand(kind="local_rpc", qpn=output_qpn,
                             rpc_op=rpc_opcode, params=params,
                             completion=completion)
        yield from self.mmio.post(command)
        return completion

    def post_local_rpc_write(self, rpc_opcode: int, laddr: int,
                             length: int, output_qpn: int = 0):
        """Stream a local buffer through a local kernel (send kernel)."""
        completion = Event(self.env)
        command = NicCommand(kind="local_rpc_write", qpn=output_qpn,
                             rpc_op=rpc_opcode, laddr=laddr,
                             length=length, completion=completion)
        yield from self.mmio.post(command)
        return completion

    # ------------------------------------------------------------------
    # Polling (the ping-pong completion mechanism of Section 6.1)
    # ------------------------------------------------------------------
    def wait_for_data(self, vaddr: int, length: int):
        """Poll on ``[vaddr, vaddr+length)`` until a NIC DMA write lands
        there.  Models the polling loop's detection jitter: uniform poll
        phase plus one DRAM access."""
        arrival = yield self.nic.dma.watch(vaddr, length)
        jitter = self._rng.randrange(self.host_config.poll_interval + 1)
        yield self.env.timeout(jitter + self.host_config.dram_latency)
        return arrival

    def cpu_delay(self, duration: int):
        """Charge host CPU time (cost-model hook for baselines)."""
        return self.env.timeout(duration)

    # ------------------------------------------------------------------
    # Controller register reads (Section 4.3 status/metrics)
    # ------------------------------------------------------------------
    def read_nic_register(self, offset: int):
        """MMIO read of one NIC register (non-posted: a PCIe round
        trip)."""
        yield self.env.timeout(self.nic.config.pcie_read_latency)
        return self.nic.controller.read_register(offset)

    def read_nic_stats(self):
        """Dump the whole register file (one burst read)."""
        yield self.env.timeout(self.nic.config.pcie_read_latency)
        return self.nic.controller.snapshot()


@dataclass
class Fabric:
    """Two directly connected hosts (the paper's testbed topology)."""

    env: Simulator
    client: HostNode
    server: HostNode
    cable: Cable
    client_qpn: int
    server_qpn: int


def build_fabric(env: Simulator,
                 nic_config: NicConfig = NIC_10G,
                 host_config: HostConfig = HOST_DEFAULT,
                 memory_bytes: int = 1024 * 1024 * 1024,
                 faults: Optional[LinkFaults] = None,
                 seed: int = 1) -> Fabric:
    """Stand up the standard two-node testbed: client <-> server over one
    cable, one queue pair, TLBs loaded on demand by ``alloc``.

    Thin wrapper over :func:`repro.cluster.topology.build_pair` — the
    generalized builder that also wires switched star and multi-rack
    clusters (see :mod:`repro.cluster`).
    """
    from ..cluster.topology import build_pair
    cluster = build_pair(env, nic_config=nic_config,
                         host_config=host_config,
                         memory_bytes=memory_bytes, faults=faults,
                         seed=seed)
    client, server = cluster.hosts
    return Fabric(env=env, client=client, server=server,
                  cable=cluster.access_cables[client.name],
                  client_qpn=1, server_qpn=1)

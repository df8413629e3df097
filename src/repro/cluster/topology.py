"""Cluster topology builders: wire HostNodes into fabrics of any size.

Two shapes are provided:

- :func:`build_pair` — the paper's two-host direct cable (Section 6.1),
  byte- and picosecond-identical to the original ``build_fabric``, which
  is now a thin wrapper over this builder;
- :func:`build_star` — N hosts hanging off one store-and-forward switch
  (one rack).

Fault injection: every link derives its RNG seed from its own name
(:meth:`repro.net.link.LinkFaults.for_link`), so adding a host — and
therefore a link — to a topology never perturbs an existing link's drop
schedule.  The single-cable :func:`build_pair` keeps the caller's seed
untouched for backwards compatibility with the two-node tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import HOST_DEFAULT, NIC_10G, HostConfig, NicConfig
from ..host.node import HostNode
from ..net.link import Cable, LinkFaults
from ..sim import Simulator
from .switch import SWITCH_DEFAULT, Switch, SwitchConfig

#: First host IP: 10.0.0.1, matching the original two-node fabric.
BASE_IP = 0x0A000001


@dataclass
class Cluster:
    """A wired set of hosts, switches, and cables plus QP bookkeeping."""

    env: Simulator
    hosts: List[HostNode]
    switches: List[Switch] = field(default_factory=list)
    cables: Dict[str, Cable] = field(default_factory=dict)
    #: Host name -> the cable connecting it to the fabric.
    access_cables: Dict[str, Cable] = field(default_factory=dict)

    def connect(self, a: HostNode, b: HostNode) -> Tuple[int, int]:
        """Bring up a queue pair between two hosts; returns
        ``(qpn_on_a, qpn_on_b)``.  QPNs are allocated per NIC starting at
        1 (0 is the reserved local-delivery QPN)."""
        qpn_a = len(a.nic.qps) + 1
        qpn_b = len(b.nic.qps) + 1
        a.nic.create_queue_pair(qpn_a, qpn_b, b.nic.ip)
        b.nic.create_queue_pair(qpn_b, qpn_a, a.nic.ip)
        return qpn_a, qpn_b

    def enable_congestion_control(self, config=None) -> None:
        """Turn on DCQCN end to end: ECN marking on every switch plus
        CNP generation, rate control, and pacing on every NIC.  Without
        this call seeded runs are bit-identical to the
        pre-congestion-control simulator."""
        from ..cc.plane import CcConfig
        if config is None:
            config = CcConfig()
        for switch in self.switches:
            switch.enable_ecn(config.ecn)
        for host in self.hosts:
            host.nic.enable_congestion_control(config)


def _make_hosts(env: Simulator, count: int, nic_config: NicConfig,
                host_config: HostConfig, memory_bytes: int, seed: int,
                names: Optional[List[str]] = None) -> List[HostNode]:
    if count < 1:
        raise ValueError("need at least one host")
    if names is not None and len(names) != count:
        raise ValueError("one name per host required")
    hosts = []
    for i in range(count):
        name = names[i] if names is not None else f"h{i}"
        hosts.append(HostNode(env, name, ip=BASE_IP + i,
                              nic_config=nic_config,
                              host_config=host_config,
                              memory_bytes=memory_bytes, seed=seed + i))
    return hosts


# ---------------------------------------------------------------------------
# Two hosts, one cable (the paper's testbed; used by build_fabric)
# ---------------------------------------------------------------------------

def build_pair(env: Simulator,
               nic_config: NicConfig = NIC_10G,
               host_config: HostConfig = HOST_DEFAULT,
               memory_bytes: int = 1024 * 1024 * 1024,
               faults: Optional[LinkFaults] = None,
               seed: int = 1) -> Cluster:
    """Two directly connected hosts — no switch, one queue pair each way.

    The caller's ``faults`` seed is used verbatim (no per-link
    derivation): with a single cable there is nothing to decorrelate,
    and the original two-node experiments depend on the exact schedule.
    """
    hosts = _make_hosts(env, 2, nic_config, host_config, memory_bytes,
                        seed, names=["client", "server"])
    cable = Cable(env, bits_per_second=nic_config.line_rate_bps,
                  propagation=nic_config.wire_propagation,
                  faults=faults)
    hosts[0].nic.attach(cable, "a")
    hosts[1].nic.attach(cable, "b")
    cluster = Cluster(env=env, hosts=hosts,
                      cables={cable.name: cable},
                      access_cables={hosts[0].name: cable,
                                     hosts[1].name: cable})
    cluster.connect(hosts[0], hosts[1])
    return cluster


# ---------------------------------------------------------------------------
# Star: N hosts on one switch
# ---------------------------------------------------------------------------

def _wire_host_to_switch(cluster: Cluster, host: HostNode, switch: Switch,
                         nic_config: NicConfig,
                         faults: Optional[LinkFaults],
                         link_name: str) -> None:
    link_faults = faults.for_link(link_name) if faults is not None else None
    cable = Cable(cluster.env, bits_per_second=nic_config.line_rate_bps,
                  propagation=nic_config.wire_propagation,
                  faults=link_faults, name=link_name)
    host.nic.attach(cable, "a")
    port = switch.attach(cable, "b")
    switch.announce(host.nic.ip, port)
    cluster.cables[link_name] = cable
    cluster.access_cables[host.name] = cable


def build_star(env: Simulator, num_hosts: int,
               nic_config: NicConfig = NIC_10G,
               host_config: HostConfig = HOST_DEFAULT,
               faults: Optional[LinkFaults] = None,
               seed: int = 1,
               switch_config: SwitchConfig = SWITCH_DEFAULT,
               names: Optional[List[str]] = None,
               name: str = "star") -> Cluster:
    """``num_hosts`` hosts hanging off one store-and-forward switch."""
    hosts = _make_hosts(env, num_hosts, nic_config, host_config,
                        1024 * 1024 * 1024, seed, names=names)
    switch = Switch(env, switch_config, name=f"{name}.sw0")
    cluster = Cluster(env=env, hosts=hosts, switches=[switch])
    for host in hosts:
        _wire_host_to_switch(cluster, host, switch, nic_config, faults,
                             link_name=f"{name}.link.{host.name}")
    return cluster

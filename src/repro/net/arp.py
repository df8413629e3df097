"""Address Resolution Protocol handling (Section 4.1).

"For a seamless integration into the network infrastructure, we use an
open source module to handle the Address Resolution Protocol."  The
behavioural equivalent: a per-NIC ARP cache that resolves destination
IPs to MAC addresses before queue pairs are brought up.  Unresolved
addresses cost one request/reply exchange on the wire; entries age out
and are refreshed by gratuitous announcements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from ..sim import Simulator, timebase
from ..sim.timebase import MS, US


@lru_cache(maxsize=4096)
def mac_for_ip(ip: int) -> bytes:
    """Deterministic locally administered MAC for a simulated IP
    (cached: a switch asks twice per frame)."""
    return bytes([0x02, 0x00]) + ip.to_bytes(4, "big")


@dataclass
class ArpEntry:
    mac: bytes
    learned_at: int


class ArpCache:
    """One NIC's ARP state machine (request/reply costs modelled)."""

    #: One request + one reply across a direct cable plus peer turnaround.
    RESOLUTION_COST = 80 * US
    #: Entries become stale after this long (Linux default-ish).
    DEFAULT_TTL = 30_000 * MS

    def __init__(self, env: Simulator, local_ip: int,
                 ttl: int = DEFAULT_TTL) -> None:
        if ttl <= 0:
            raise ValueError("TTL must be positive")
        self.env = env
        self.local_ip = local_ip
        self.local_mac = mac_for_ip(local_ip)
        self.ttl = ttl
        self._entries: Dict[int, ArpEntry] = {}
        self.requests_sent = 0
        self.replies_learned = 0

    # ------------------------------------------------------------------
    def lookup(self, ip: int) -> Optional[bytes]:
        """Cached MAC for ``ip``, or None if unknown/stale."""
        entry = self._entries.get(ip)
        if entry is None:
            return None
        if self.env.now - entry.learned_at > self.ttl:
            del self._entries[ip]
            return None
        return entry.mac

    def learn(self, ip: int, mac: bytes) -> None:
        """Install/update an entry (reply or gratuitous announcement)."""
        if len(mac) != 6:
            raise ValueError("MAC must be 6 bytes")
        self._entries[ip] = ArpEntry(mac=mac, learned_at=self.env.now)
        self.replies_learned += 1

    def announce_to(self, peer: "ArpCache") -> None:
        """Gratuitous ARP: push our mapping to a directly attached peer."""
        peer.learn(self.local_ip, self.local_mac)

    def resolve(self, ip: int):
        """Process helper: resolve ``ip``, paying the request/reply cost
        on a miss.  In the simulated point-to-point topology the peer
        always answers (there is no one else on the wire)."""
        cached = self.lookup(ip)
        if cached is not None:
            return cached
        self.requests_sent += 1
        yield self.env.timeout(self.RESOLUTION_COST)
        mac = mac_for_ip(ip)
        self.learn(ip, mac)
        return mac

    def __len__(self) -> int:
        return len(self._entries)

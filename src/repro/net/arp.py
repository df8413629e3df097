"""Address resolution (Section 4.1).

"For a seamless integration into the network infrastructure, we use an
open source module to handle the Address Resolution Protocol."  The
simulated fabric's IP -> MAC mapping is deterministic: every NIC and
switch resolves an address through :func:`mac_for_ip`.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=4096)
def mac_for_ip(ip: int) -> bytes:
    """Deterministic locally administered MAC for a simulated IP
    (cached: a switch asks twice per frame)."""
    return bytes([0x02, 0x00]) + ip.to_bytes(4, "big")

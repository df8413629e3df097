"""Network substrate: Ethernet/IPv4/UDP headers and the cable model."""

from .headers import (
    EthernetHeader,
    Ipv4Header,
    UdpHeader,
    ip_str,
    ipv4_checksum,
    parse_ip,
)
from .link import (
    Cable,
    GilbertElliott,
    LinkFaults,
    link_seed,
)

__all__ = [
    "Cable",
    "GilbertElliott",
    "link_seed",
    "EthernetHeader",
    "Ipv4Header",
    "LinkFaults",
    "UdpHeader",
    "ip_str",
    "ipv4_checksum",
    "parse_ip",
]

"""Host memory substrate: physical DRAM image and huge-page address
spaces."""

from .address_space import AddressSpace, Region
from .physical import PhysicalMemory

__all__ = [
    "AddressSpace",
    "PhysicalMemory",
    "Region",
]

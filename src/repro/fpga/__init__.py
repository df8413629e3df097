"""FPGA device catalogue and analytic resource model (§6.1, Table 3)."""

from .device import DEVICES, FpgaDevice, XC7VX690T, XCVU9P
from .resources import (
    KERNEL_FOOTPRINTS,
    KernelFootprint,
    ResourceUsage,
    can_deploy,
    estimate_nic_resources,
)

__all__ = [
    "DEVICES",
    "FpgaDevice",
    "KERNEL_FOOTPRINTS",
    "KernelFootprint",
    "ResourceUsage",
    "XC7VX690T",
    "XCVU9P",
    "can_deploy",
    "estimate_nic_resources",
]

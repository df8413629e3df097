"""FPGA device catalogue: the two parts the paper deploys on.

- Xilinx Virtex-7 XC7VX690T on the Alpha Data ADM-PCIE-7V3 (10 G build,
  Section 6.1), PCIe Gen3 x8.
- Xilinx UltraScale+ XCVU9P on the VCU118 (100 G build, Section 7),
  PCIe Gen3 x16, 100 G CMAC.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FpgaDevice:
    """Available resources of one device."""

    name: str
    family: str          # '7series' | 'ultrascale+'
    luts: int            # logic lookup tables
    flip_flops: int      # registers
    bram_36kb: int       # 36 Kb block RAMs
    #: Highest clock the RoCE stack closes timing at on this device.
    max_roce_clock_hz: float

#: Virtex-7 XC7VX690T (ADM-PCIE-7V3): "a low-end Xilinx Virtex 7" (§3.5).
XC7VX690T = FpgaDevice(
    name="XC7VX690T",
    family="7series",
    luts=433_200,
    flip_flops=866_400,
    bram_36kb=1_470,
    max_roce_clock_hz=156.25e6,
)

#: UltraScale+ XCVU9P (VCU118): the 100 G platform of Section 7.
XCVU9P = FpgaDevice(
    name="XCVU9P",
    family="ultrascale+",
    luts=1_182_240,
    flip_flops=2_364_480,
    bram_36kb=2_160,
    max_roce_clock_hz=322e6,
)

DEVICES = {device.name: device for device in (XC7VX690T, XCVU9P)}

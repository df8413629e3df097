"""Analytic resource model for StRoM builds.

Reproduces the published utilization numbers:

- Section 6.1 (Virtex-7, 10 G): the NIC (RoCE stack + DMA + TLB + 10 G
  Ethernet) uses 24 % of the logic; 500 QPs occupy 9 % of the on-chip
  memory; scaling to 16,000 QPs adds < 1 % logic but grows memory to
  20 % (the state structures scale linearly with the QP count).
- Table 3 (VCU118): 10 G = 92 K LUT / 181 BRAM / 115 K FF; 100 G = 122 K
  LUT / 402 BRAM / 214 K FF (on-chip memory and registers double when the
  data path is widened 8x and re-registered for 322 MHz, logic grows by
  only ~32 %).

Model: per-family base footprint + slopes for the data-path width and
the QP count.  Data structures (State/MSN tables, Multi-Queue, TLB) live
in BRAM and scale with QPs; widening the data path from 8 B to 64 B
re-registers every pipeline stage (FF-heavy) and widens the FIFOs
(BRAM-heavy) while most control logic is untouched (LUT-light) — exactly
the scaling argument of Section 7.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import NicConfig
from .device import FpgaDevice

#: Slopes shared by both families (same RTL, same scaling behaviour).
_LUT_PER_WIDTH_STEP = 4_290        # per 8 B of extra data-path width
_FF_PER_WIDTH_STEP = 14_140
_BRAM_PER_WIDTH_STEP = 31.6
_LUT_PER_QP = 0.2                  # "within 1 %" going 500 -> 16,000 QPs
_FF_PER_QP = 0.35
_BRAM_PER_QP = 0.0105              # 9 % -> 20 % of a VX690T's BRAM

#: Per-family base footprints at 8 B data path, 500 QPs.
_FAMILY_BASE = {
    # Older fabric + 10 G MAC: Section 6.1's 24 % / 9 % on the VX690T.
    "7series": {"luts": 103_900, "flip_flops": 154_000, "bram": 132.0},
    # Table 3's 10 G row on the VCU118.
    "ultrascale+": {"luts": 91_900, "flip_flops": 114_900, "bram": 181.0},
}

_BASE_QPS = 500
_BASE_WIDTH_BYTES = 8


@dataclass(frozen=True)
class ResourceUsage:
    """Estimated footprint of one build."""

    luts: int
    flip_flops: int
    bram_36kb: int
    device: FpgaDevice

    @property
    def lut_fraction(self) -> float:
        return self.luts / self.device.luts

    @property
    def ff_fraction(self) -> float:
        return self.flip_flops / self.device.flip_flops

    @property
    def bram_fraction(self) -> float:
        return self.bram_36kb / self.device.bram_36kb

def estimate_nic_resources(config: NicConfig,
                           device: FpgaDevice) -> ResourceUsage:
    """Footprint of the NIC infrastructure (RoCE stack + DMA + TLB + MAC)
    for ``config`` on ``device`` — before any kernels are added."""
    base = _FAMILY_BASE.get(device.family)
    if base is None:
        raise ValueError(f"unknown device family {device.family!r}")
    width_steps = config.datapath_bytes / _BASE_WIDTH_BYTES - 1
    if width_steps < 0:
        raise ValueError("data path narrower than 8 B is not supported")
    qp_delta = config.num_queue_pairs - _BASE_QPS

    luts = base["luts"] + _LUT_PER_WIDTH_STEP * width_steps \
        + _LUT_PER_QP * qp_delta
    ffs = base["flip_flops"] + _FF_PER_WIDTH_STEP * width_steps \
        + _FF_PER_QP * qp_delta
    bram = base["bram"] + _BRAM_PER_WIDTH_STEP * width_steps \
        + _BRAM_PER_QP * qp_delta
    return ResourceUsage(luts=int(round(luts)),
                         flip_flops=int(round(ffs)),
                         bram_36kb=int(round(bram)),
                         device=device)


@dataclass(frozen=True)
class KernelFootprint:
    """Resource estimate for one HLS kernel (headroom accounting)."""

    name: str
    luts: int
    flip_flops: int
    bram_36kb: int


#: Rough kernel footprints (HLS, 64 B data path) used by the headroom
#: checks: all four published kernels fit the VCU9P many times over.
KERNEL_FOOTPRINTS = {
    "get": KernelFootprint("get", luts=6_000, flip_flops=9_000, bram_36kb=8),
    "traversal": KernelFootprint("traversal", luts=9_500, flip_flops=14_000,
                                 bram_36kb=10),
    "consistency": KernelFootprint("consistency", luts=7_000,
                                   flip_flops=11_000, bram_36kb=6),
    "shuffle": KernelFootprint("shuffle", luts=14_000, flip_flops=20_000,
                               bram_36kb=40),  # 1024 x 128 B buffers
    "hll": KernelFootprint("hll", luts=11_000, flip_flops=16_000,
                           bram_36kb=16),  # 2^14 registers + pipeline
}


def can_deploy(config: NicConfig, device: FpgaDevice,
               kernel_names) -> bool:
    """Condition 1 of Section 3.4: the NIC plus the requested kernels
    must fit the device."""
    usage = estimate_nic_resources(config, device)
    luts, ffs, bram = usage.luts, usage.flip_flops, usage.bram_36kb
    for name in kernel_names:
        footprint = KERNEL_FOOTPRINTS.get(name)
        if footprint is None:
            raise KeyError(f"unknown kernel {name!r}")
        luts += footprint.luts
        ffs += footprint.flip_flops
        bram += footprint.bram_36kb
    return (luts <= device.luts and ffs <= device.flip_flops
            and bram <= device.bram_36kb)

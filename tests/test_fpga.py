"""Tests for the FPGA resource model against the published numbers."""

import pytest

from repro.config import NIC_10G, NIC_100G, scaled_config
from repro.fpga import (
    KERNEL_FOOTPRINTS,
    XC7VX690T,
    XCVU9P,
    can_deploy,
    estimate_nic_resources,
)


def test_table3_10g_row():
    """Table 3: 10 G on VCU118 = 92K LUT (7.8%), 181 BRAM (8.4%),
    115K FF (4.8%)."""
    usage = estimate_nic_resources(NIC_10G, XCVU9P)
    assert usage.luts == pytest.approx(92_000, rel=0.01)
    assert usage.bram_36kb == pytest.approx(181, abs=2)
    assert usage.flip_flops == pytest.approx(115_000, rel=0.01)
    assert usage.lut_fraction == pytest.approx(0.078, abs=0.002)
    assert usage.bram_fraction == pytest.approx(0.084, abs=0.002)
    assert usage.ff_fraction == pytest.approx(0.048, abs=0.002)


def test_table3_100g_row():
    """Table 3: 100 G = 122K LUT (10.3%), 402 BRAM (18.6%), 214K FF
    (9.1%)."""
    usage = estimate_nic_resources(NIC_100G, XCVU9P)
    assert usage.luts == pytest.approx(122_000, rel=0.01)
    assert usage.bram_36kb == pytest.approx(402, abs=4)
    assert usage.flip_flops == pytest.approx(214_000, rel=0.01)
    assert usage.lut_fraction == pytest.approx(0.103, abs=0.003)
    assert usage.bram_fraction == pytest.approx(0.186, abs=0.004)
    assert usage.ff_fraction == pytest.approx(0.091, abs=0.003)


def test_table3_scaling_claims():
    """Section 7.1: memory and registers roughly double 10G -> 100G,
    logic grows by ~32%."""
    low = estimate_nic_resources(NIC_10G, XCVU9P)
    high = estimate_nic_resources(NIC_100G, XCVU9P)
    assert 1.25 < high.luts / low.luts < 1.40
    assert 1.8 < high.flip_flops / low.flip_flops < 2.1
    assert 1.9 < high.bram_36kb / low.bram_36kb < 2.4


def test_virtex7_logic_fraction():
    """Section 6.1: the 10 G NIC uses 24% of the VX690T's logic."""
    usage = estimate_nic_resources(NIC_10G, XC7VX690T)
    assert usage.lut_fraction == pytest.approx(0.24, abs=0.005)


def test_virtex7_bram_scaling_with_qps():
    """Section 6.1: 9% BRAM at 500 QPs, ~20% at 16,000 QPs; logic stays
    within 1%."""
    base = estimate_nic_resources(NIC_10G, XC7VX690T)
    big = estimate_nic_resources(
        scaled_config(NIC_10G, num_queue_pairs=16_000), XC7VX690T)
    assert base.bram_fraction == pytest.approx(0.09, abs=0.005)
    assert big.bram_fraction == pytest.approx(0.20, abs=0.01)
    logic_growth = (big.luts - base.luts) / XC7VX690T.luts
    assert 0 < logic_growth < 0.01


def test_headroom_for_kernels():
    """Section 3.4: 'the NIC functionality only occupies a minor amount
    of the total available resources' — all four kernels plus the GET
    example must fit simultaneously."""
    assert can_deploy(NIC_100G, XCVU9P, KERNEL_FOOTPRINTS.keys())
    usage = estimate_nic_resources(NIC_100G, XCVU9P)
    assert usage.lut_fraction < 0.2


def test_can_deploy_unknown_kernel():
    with pytest.raises(KeyError):
        can_deploy(NIC_10G, XCVU9P, ["nonexistent"])


def test_unknown_family_rejected():
    from dataclasses import replace
    weird = replace(XCVU9P, family="stratix")
    with pytest.raises(ValueError):
        estimate_nic_resources(NIC_10G, weird)


def test_narrow_datapath_rejected():
    from repro.config import scaled_config
    cfg = scaled_config(NIC_10G, datapath_bytes=4)
    with pytest.raises(ValueError):
        estimate_nic_resources(cfg, XCVU9P)

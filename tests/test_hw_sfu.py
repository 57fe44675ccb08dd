"""Tests for the special function unit (divide / sqrt / reciprocal) options."""

import math

import pytest

from repro.hw.fpu import Precision
from repro.hw.sfu import GoldschmidtDivider, SFUPlacement, SpecialFunctionUnit, SpecialOp


def test_goldschmidt_iteration_counts():
    sp = GoldschmidtDivider(precision=Precision.SINGLE, seed_bits=13)
    dp = GoldschmidtDivider(precision=Precision.DOUBLE, seed_bits=13)
    assert sp.iterations == 1   # 13 -> 26 >= 24
    assert dp.iterations == 3   # 13 -> 26 -> 52 -> 104 >= 53


def test_goldschmidt_latency_grows_with_precision():
    sp = GoldschmidtDivider(precision=Precision.SINGLE)
    dp = GoldschmidtDivider(precision=Precision.DOUBLE)
    assert dp.latency_cycles(SpecialOp.RECIPROCAL) > sp.latency_cycles(SpecialOp.RECIPROCAL)


def test_sqrt_flavours_cost_more_than_reciprocal():
    div = GoldschmidtDivider(precision=Precision.DOUBLE)
    assert div.latency_cycles(SpecialOp.INV_SQRT) > div.latency_cycles(SpecialOp.RECIPROCAL)
    assert div.mac_operations(SpecialOp.SQRT) > div.mac_operations(SpecialOp.DIVIDE)


def test_goldschmidt_rejects_tiny_seed():
    with pytest.raises(ValueError):
        GoldschmidtDivider(seed_bits=2)


@pytest.mark.parametrize("placement", list(SFUPlacement))
def test_latency_positive_for_all_placements(placement):
    sfu = SpecialFunctionUnit(placement=placement)
    for op in SpecialOp:
        assert sfu.latency_cycles(op) > 0


def test_software_placement_is_slowest_and_free_in_area():
    sw = SpecialFunctionUnit(placement=SFUPlacement.SOFTWARE)
    iso = SpecialFunctionUnit(placement=SFUPlacement.ISOLATED)
    diag = SpecialFunctionUnit(placement=SFUPlacement.DIAGONAL)
    assert sw.area_mm2 == 0.0
    assert iso.area_mm2 > 0.0
    assert diag.area_mm2 > 0.0
    assert sw.latency_cycles(SpecialOp.RECIPROCAL) > iso.latency_cycles(SpecialOp.RECIPROCAL)


def test_software_placement_occupies_the_pe_mac():
    assert SpecialFunctionUnit(placement=SFUPlacement.SOFTWARE).occupies_pe_mac()
    assert not SpecialFunctionUnit(placement=SFUPlacement.ISOLATED).occupies_pe_mac()
    assert not SpecialFunctionUnit(placement=SFUPlacement.DIAGONAL).occupies_pe_mac()


def test_diagonal_area_scales_with_core_dimension():
    small = SpecialFunctionUnit(placement=SFUPlacement.DIAGONAL, nr=4)
    big = SpecialFunctionUnit(placement=SFUPlacement.DIAGONAL, nr=8)
    assert big.area_mm2 == pytest.approx(2.0 * small.area_mm2)


def test_energy_per_op_positive_and_finite():
    for placement in SFUPlacement:
        sfu = SpecialFunctionUnit(placement=placement)
        e = sfu.energy_per_op_j(SpecialOp.INV_SQRT)
        assert 0.0 < e < 1e-6


def test_isolated_unit_idle_power_nonzero_software_zero():
    assert SpecialFunctionUnit(placement=SFUPlacement.ISOLATED).idle_power_w > 0.0
    assert SpecialFunctionUnit(placement=SFUPlacement.SOFTWARE).idle_power_w == 0.0

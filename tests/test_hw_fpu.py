"""Tests for the FMAC unit model."""

import dataclasses
import math

import pytest

from repro.hw.fpu import FMACUnit, Precision


def test_precision_byte_widths():
    assert Precision.SINGLE.bytes == 4
    assert Precision.DOUBLE.bytes == 8
    assert Precision.SINGLE.bits == 32
    assert Precision.DOUBLE.bits == 64


def test_double_precision_is_bigger_and_hungrier_than_single():
    sp = FMACUnit(precision=Precision.SINGLE, frequency_ghz=1.0)
    dp = FMACUnit(precision=Precision.DOUBLE, frequency_ghz=1.0)
    assert dp.area_mm2 > sp.area_mm2
    assert dp.dynamic_power_w > sp.dynamic_power_w


def test_reference_point_matches_paper_constants():
    """At ~1 GHz the paper quotes SP ~8-10 mW / 0.01 mm^2, DP ~40-50 mW / 0.04 mm^2."""
    sp = FMACUnit(precision=Precision.SINGLE, frequency_ghz=1.0)
    dp = FMACUnit(precision=Precision.DOUBLE, frequency_ghz=1.0)
    assert 0.008 <= sp.area_mm2 <= 0.012
    assert 0.035 <= dp.area_mm2 <= 0.045
    assert 6e-3 <= sp.dynamic_power_w <= 12e-3
    assert 25e-3 <= dp.dynamic_power_w <= 55e-3


def test_power_grows_superlinearly_with_frequency():
    low = FMACUnit(frequency_ghz=0.5)
    high = FMACUnit(frequency_ghz=2.0)
    ratio = high.dynamic_power_w / low.dynamic_power_w
    assert ratio > 4.0  # f ratio is 4, voltage scaling adds more


def test_delayed_normalization_saves_power():
    with_dn = FMACUnit(delayed_normalization=True)
    without = FMACUnit(delayed_normalization=False)
    assert with_dn.dynamic_power_w < without.dynamic_power_w


def test_extensions_add_small_overheads():
    base = FMACUnit()
    extended = dataclasses.replace(base, has_comparator=True, extended_exponent=True)
    assert extended.area_mm2 > base.area_mm2
    assert extended.dynamic_power_w > base.dynamic_power_w
    # The overheads are small (a few percent), not a redesign.
    assert extended.area_mm2 < 1.10 * base.area_mm2
    assert extended.dynamic_power_w < 1.10 * base.dynamic_power_w


def test_energy_per_mac_consistent_with_power():
    unit = FMACUnit(frequency_ghz=1.0)
    assert unit.energy_per_mac_j == pytest.approx(unit.dynamic_power_w / 1e9)


def test_idle_power_is_leakage_fraction_of_dynamic():
    unit = FMACUnit()
    assert unit.idle_power_w == pytest.approx(unit.dynamic_power_w * unit.node.leakage_fraction)


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        FMACUnit(pipeline_stages=0)
    with pytest.raises(ValueError):
        FMACUnit(frequency_ghz=-1.0)


@pytest.mark.parametrize("frequency", [math.nan, math.inf, 0.0, -1.0])
def test_frequency_must_be_positive_and_finite(frequency):
    with pytest.raises(ValueError, match=f"got {frequency}"):
        FMACUnit(frequency_ghz=frequency)


def test_efficiency_improves_at_lower_frequency():
    """The GFLOPS/W of the bare unit improves as frequency (and voltage) drop."""
    slow = FMACUnit(frequency_ghz=0.33)
    fast = FMACUnit(frequency_ghz=1.81)
    # One MAC is two flops per cycle.
    assert (2.0 * slow.frequency_ghz / slow.dynamic_power_w
            > 2.0 * fast.frequency_ghz / fast.dynamic_power_w)
    assert (2.0 * fast.frequency_ghz / fast.area_mm2
            > 2.0 * slow.frequency_ghz / slow.area_mm2)

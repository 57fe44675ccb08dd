"""Tests for technology nodes and scaling rules."""

import math

import pytest

from repro.hw.technology import (OperatingPoint, TECH_45NM, TECH_65NM, TECH_90NM,
                                 TechnologyNode, scale_area, scale_power)


def test_known_nodes_have_expected_features():
    assert TECH_45NM.feature_nm == 45.0
    assert TECH_65NM.feature_nm == 65.0
    assert TECH_90NM.feature_nm == 90.0
    assert 0.2 <= TECH_45NM.leakage_fraction <= 0.35


def test_scale_factor_between_nodes():
    assert TECH_90NM.scale_factor_to(TECH_45NM) == pytest.approx(2.0)
    assert TECH_45NM.scale_factor_to(TECH_90NM) == pytest.approx(0.5)


def test_area_scaling_is_quadratic_in_feature_ratio():
    area_90 = 4.0
    area_45 = scale_area(area_90, TECH_90NM, TECH_45NM)
    assert area_45 == pytest.approx(1.0)


def test_area_scaling_round_trip():
    a = 1.234
    back = scale_area(scale_area(a, TECH_65NM, TECH_45NM), TECH_45NM, TECH_65NM)
    assert back == pytest.approx(a)


def test_power_scaling_shrinks_when_moving_to_smaller_node():
    p65 = 10.0
    p45 = scale_power(p65, TECH_65NM, TECH_45NM)
    assert p45 < p65


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        scale_area(-1.0, TECH_65NM, TECH_45NM)
    with pytest.raises(ValueError):
        scale_power(-1.0, TECH_65NM, TECH_45NM)


def test_operating_point_voltage_interpolation():
    low = OperatingPoint.at_frequency(0.2)
    mid = OperatingPoint.at_frequency(1.0)
    high = OperatingPoint.at_frequency(2.1)
    assert low.vdd < mid.vdd < high.vdd
    assert low.vdd == pytest.approx(0.65, abs=1e-6)
    assert high.vdd == pytest.approx(1.1, abs=1e-6)


def test_operating_point_clamps_voltage_outside_sweep():
    very_high = OperatingPoint.at_frequency(5.0)
    assert very_high.frequency_ghz == 5.0
    assert very_high.vdd == pytest.approx(1.1, abs=1e-6)


def test_operating_point_requires_positive_frequency():
    with pytest.raises(ValueError):
        OperatingPoint.at_frequency(0.0)


def test_dynamic_power_scale_grows_with_frequency_and_voltage():
    ref = OperatingPoint(frequency_ghz=1.0, vdd=0.8)
    faster = OperatingPoint(frequency_ghz=2.0, vdd=1.0)
    scale = faster.dynamic_power_scale(ref)
    assert scale == pytest.approx(2.0 * (1.0 / 0.8) ** 2)

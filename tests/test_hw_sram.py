"""Tests for the CACTI-like SRAM model."""

import pytest

from repro.hw.sram import SRAMConfig, SRAMModel, pe_store_a, pe_store_b


def test_calibration_point_16kb_dual_ported():
    """The 16 KB dual-ported PE store should land near the quoted CACTI point."""
    model = SRAMModel(SRAMConfig(capacity_bytes=16 * 1024, ports=2, word_bytes=8))
    assert 0.10 <= model.area_mm2 <= 0.16
    # ~13.5 mW per port at 2.5 GHz => ~5.4 pJ per access.
    assert 4.0e-12 <= model.energy_per_access_j <= 7.0e-12
    power = model.dynamic_power_w(2.5, accesses_per_cycle=1.0)
    assert 0.010 <= power <= 0.017


def test_area_grows_with_capacity():
    small = SRAMModel(SRAMConfig(4 * 1024, ports=1))
    big = SRAMModel(SRAMConfig(32 * 1024, ports=1))
    assert big.area_mm2 > small.area_mm2
    # Sub-linear to linear growth: 8x capacity should cost less than 10x area.
    assert big.area_mm2 < 10 * small.area_mm2


def test_ports_increase_area_and_not_access_energy():
    single = SRAMModel(SRAMConfig(16 * 1024, ports=1))
    dual = SRAMModel(SRAMConfig(16 * 1024, ports=2))
    assert dual.area_mm2 > single.area_mm2
    assert dual.energy_per_access_j == pytest.approx(single.energy_per_access_j)


def test_banking_reduces_access_energy_and_adds_bandwidth():
    mono = SRAMModel(SRAMConfig(16 * 1024, ports=1, banks=1))
    banked = SRAMModel(SRAMConfig(16 * 1024, ports=1, banks=4))
    assert banked.energy_per_access_j < mono.energy_per_access_j
    assert banked.peak_bandwidth_bytes_per_cycle() == 4 * mono.peak_bandwidth_bytes_per_cycle()


def test_high_performance_corner_is_leakier():
    lp = SRAMModel(SRAMConfig(64 * 1024, ports=1))
    hp = SRAMModel(SRAMConfig(64 * 1024, ports=1, high_performance=True))
    assert hp.leakage_power_w > lp.leakage_power_w
    assert hp.max_frequency_ghz() > lp.max_frequency_ghz()


def test_low_power_leakage_is_negligible_relative_to_dynamic():
    model = SRAMModel(SRAMConfig(16 * 1024, ports=2))
    dynamic = model.dynamic_power_w(1.0, 1.0)
    assert model.leakage_power_w < 0.1 * dynamic


def test_access_rate_validation():
    model = SRAMModel(SRAMConfig(16 * 1024, ports=1))
    with pytest.raises(ValueError):
        model.dynamic_power_w(1.0, accesses_per_cycle=2.0)
    with pytest.raises(ValueError):
        model.dynamic_power_w(-1.0, accesses_per_cycle=0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        SRAMConfig(capacity_bytes=0)
    with pytest.raises(ValueError):
        SRAMConfig(capacity_bytes=1024, ports=7)
    with pytest.raises(ValueError):
        SRAMConfig(capacity_bytes=1024, banks=0)
    with pytest.raises(ValueError):
        SRAMConfig(capacity_bytes=1024, word_bytes=0)


def test_pe_store_helpers_have_expected_port_counts():
    a = pe_store_a(16 * 1024)
    b = pe_store_b(2 * 1024)
    assert a.config.ports == 1
    assert b.config.ports == 2
    assert a.config.word_bytes == 8


def test_small_arrays_reach_high_frequency():
    small = SRAMModel(SRAMConfig(8 * 1024, ports=1))
    assert small.max_frequency_ghz() >= 2.5

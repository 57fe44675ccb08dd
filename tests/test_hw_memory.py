"""Tests for the on-chip memory (SRAM / NUCA) and off-chip interface models."""

import pytest

from repro.hw.memory import NUCACache, OffChipInterface, OnChipMemory


def test_onchip_memory_bandwidth_scales_with_banks():
    few = OnChipMemory(capacity_bytes=4 * 2 ** 20, banks=4)
    many = OnChipMemory(capacity_bytes=4 * 2 ** 20, banks=16)
    assert many.peak_bandwidth_bytes_per_cycle == 4 * few.peak_bandwidth_bytes_per_cycle


def test_onchip_memory_area_grows_with_capacity():
    small = OnChipMemory(capacity_bytes=1 * 2 ** 20, banks=8)
    big = OnChipMemory(capacity_bytes=8 * 2 ** 20, banks=8)
    assert big.area_mm2 > small.area_mm2


def test_onchip_dynamic_power_scales_with_access_rate():
    mem = OnChipMemory(capacity_bytes=4 * 2 ** 20, banks=8)
    assert mem.dynamic_power_w(8.0) == pytest.approx(8.0 * mem.dynamic_power_w(1.0))


def test_nuca_costs_more_than_plain_sram():
    """The NUCA organisation pays for tags, lookup and fast banks."""
    capacity = 2 * 2 ** 20
    sram = OnChipMemory(capacity_bytes=capacity, banks=8)
    nuca = NUCACache(capacity_bytes=capacity, banks=8,
                     required_bandwidth_bytes_per_cycle=64.0)
    assert nuca.area_mm2 > sram.area_mm2
    assert nuca.energy_per_access_j() > sram.energy_per_access_j()


def test_small_fast_nuca_is_less_area_efficient_than_large_slow_one():
    """A small cache forced to high bandwidth costs more area per MB."""
    small = NUCACache(capacity_bytes=2 ** 20, banks=8,
                      required_bandwidth_bytes_per_cycle=64.0)
    large = NUCACache(capacity_bytes=8 * 2 ** 20, banks=8,
                      required_bandwidth_bytes_per_cycle=16.0)
    small_per_mb = small.area_mm2 / 1.0
    large_per_mb = large.area_mm2 / 8.0
    assert small_per_mb > large_per_mb


def test_offchip_interface_conversions():
    iface = OffChipInterface(bandwidth_gbytes_per_sec=32.0)
    assert iface.bytes_per_cycle(1.0) == pytest.approx(32.0)
    assert iface.bytes_per_cycle(2.0) == pytest.approx(16.0)
    assert iface.transfer_energy_j(1e9) == pytest.approx(1e9 * 60e-12)


def test_offchip_interface_validation():
    with pytest.raises(ValueError):
        OffChipInterface(bandwidth_gbytes_per_sec=0.0)
    iface = OffChipInterface(bandwidth_gbytes_per_sec=10.0)
    with pytest.raises(ValueError):
        iface.bytes_per_cycle(0.0)
    with pytest.raises(ValueError):
        iface.transfer_energy_j(-5.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_offchip_interface_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match=f"bandwidth .*finite.*got {value}"):
        OffChipInterface(bandwidth_gbytes_per_sec=value)
    with pytest.raises(ValueError, match=f"energy per byte .*finite.*got {value}"):
        OffChipInterface(bandwidth_gbytes_per_sec=10.0, energy_per_byte_j=value)


def test_onchip_memory_validation():
    with pytest.raises(ValueError):
        OnChipMemory(capacity_bytes=0)
    with pytest.raises(ValueError):
        OnChipMemory(capacity_bytes=1024, banks=0)
    mem = OnChipMemory(capacity_bytes=2 ** 20)
    with pytest.raises(ValueError):
        mem.dynamic_power_w(-1.0)


def test_nuca_validation():
    with pytest.raises(ValueError):
        NUCACache(capacity_bytes=0)
    with pytest.raises(ValueError):
        NUCACache(capacity_bytes=1024, associativity=0)

"""Tests for the broadcast-bus wire model."""

import pytest

from repro.arch.lap_design import build_pe
from repro.hw.bus import BroadcastBus, WireClass, BUS_AREA_PER_PE_MM2
from repro.hw.fpu import Precision


def test_default_4pe_bus_needs_no_repeaters():
    bus = BroadcastBus(span_pes=4, pe_pitch_mm=0.4)
    assert not bus.needs_repeaters


def test_long_bus_needs_repeaters():
    bus = BroadcastBus(span_pes=16, pe_pitch_mm=0.4, latency_overhead=0.0)
    assert bus.needs_repeaters


def test_wire_model_frequency_targets():
    """4- and 8-PE buses should reach > 2.2 GHz; a 16-PE bus > 1.4 GHz."""
    assert BroadcastBus(span_pes=4).max_frequency_ghz > 2.2
    assert BroadcastBus(span_pes=8).max_frequency_ghz > 1.6
    assert BroadcastBus(span_pes=16).max_frequency_ghz > 1.2


def test_energy_grows_with_width_and_length():
    narrow = BroadcastBus(width_bits=32, span_pes=4)
    wide = BroadcastBus(width_bits=64, span_pes=4)
    long = BroadcastBus(width_bits=64, span_pes=8)
    assert wide.energy_per_broadcast_j > narrow.energy_per_broadcast_j
    assert long.energy_per_broadcast_j > wide.energy_per_broadcast_j


def test_latency_overhead_wire_saves_energy():
    fast = BroadcastBus(latency_overhead=0.0)
    relaxed = BroadcastBus(latency_overhead=0.30)
    assert relaxed.energy_per_broadcast_j < fast.energy_per_broadcast_j
    assert relaxed.max_frequency_ghz < fast.max_frequency_ghz


def test_bus_power_is_small_compared_to_a_double_precision_mac():
    """The paper argues bus power is negligible at the core level."""
    bus = BroadcastBus(width_bits=64, span_pes=4)
    power = bus.dynamic_power_w(1.0, broadcasts_per_cycle=1.0)
    assert power < 5e-3  # well under one DP MAC (~40 mW)


def test_bus_area_fraction_of_pe_budget():
    """The row+column wiring charged to each PE is a small slice of its area."""
    pe = build_pe(precision=Precision.DOUBLE, frequency_ghz=1.0)
    bare = pe.fmac.area_mm2 + pe.store_a.area_mm2 + pe.store_b.area_mm2
    assert pe.area_mm2 == pytest.approx(bare + BUS_AREA_PER_PE_MM2)
    assert 0.0 < BUS_AREA_PER_PE_MM2 < 0.2 * pe.area_mm2


def test_validation_of_parameters():
    with pytest.raises(ValueError):
        BroadcastBus(width_bits=0)
    with pytest.raises(ValueError):
        BroadcastBus(span_pes=0)
    with pytest.raises(ValueError):
        BroadcastBus(latency_overhead=2.0)
    with pytest.raises(ValueError):
        BroadcastBus().dynamic_power_w(1.0, broadcasts_per_cycle=-1.0)


def test_wire_classes_order_by_energy():
    local = BroadcastBus(wire_class=WireClass.FAST_LOCAL)
    semi = BroadcastBus(wire_class=WireClass.SEMI_GLOBAL)
    glob = BroadcastBus(wire_class=WireClass.GLOBAL)
    assert local.energy_per_broadcast_j < semi.energy_per_broadcast_j < glob.energy_per_broadcast_j

"""Tests for the PE and broadcast-bus building blocks of the per-PE LAC oracle.

The product simulator keeps no PE or bus objects (its state is the arrays of
``repro.lac.core.LinearAlgebraCore``); these pin the oracle's literal model
that ``tests/test_lac_oracle.py`` compares the product against.
"""

import pytest

from lac_oracle import ProcessingElement, RowColumnBuses
from repro.lac.pe import PEConfig
from repro.lac.stats import AccessCounters


@pytest.fixture
def pe():
    return ProcessingElement(0, 0, PEConfig(store_a_words=32, store_b_words=16,
                                            register_file_words=4, accumulators=2))


def test_store_a_read_write_and_counting(pe):
    pe.write_store_a(3, 1.5)
    assert pe.read_store_a(3) == 1.5
    assert pe.counters.store_a_writes == 1
    assert pe.counters.store_a_reads == 1


def test_store_b_read_write_and_counting(pe):
    pe.write_store_b(5, -2.0)
    assert pe.read_store_b(5) == -2.0
    assert pe.counters.store_b_writes == 1
    assert pe.counters.store_b_reads == 1


def test_register_file_round_trip(pe):
    pe.write_register(2, 7.0)
    assert pe.read_register(2) == 7.0
    assert pe.counters.register_writes == 1
    assert pe.counters.register_reads == 1


def test_out_of_range_addresses_raise(pe):
    with pytest.raises(IndexError):
        pe.read_store_a(32)
    with pytest.raises(IndexError):
        pe.write_store_b(16, 0.0)
    with pytest.raises(IndexError):
        pe.read_register(4)
    with pytest.raises(IndexError):
        pe.get_accumulator(2)


def test_mac_accumulates_in_place(pe):
    pe.set_accumulator(1.0)
    pe.mac(2.0, 3.0)
    pe.mac(1.0, 4.0)
    assert pe.get_accumulator() == pytest.approx(11.0)
    assert pe.counters.mac_ops == 2


def test_multiply_and_multiply_add_count_as_mac_ops(pe):
    assert pe.multiply(3.0, 4.0) == 12.0
    assert pe.multiply_add(2.0, 5.0, 1.0) == 11.0
    assert pe.counters.mac_ops == 2


def test_multiple_accumulators_are_independent(pe):
    pe.set_accumulator(1.0, index=0)
    pe.set_accumulator(10.0, index=1)
    pe.mac(1.0, 1.0, index=0)
    assert pe.get_accumulator(0) == 2.0
    assert pe.get_accumulator(1) == 10.0


def test_pe_config_validation():
    with pytest.raises(ValueError):
        PEConfig(store_a_words=0)
    with pytest.raises(ValueError):
        PEConfig(register_file_words=0)
    with pytest.raises(ValueError):
        PEConfig(accumulators=0)
    with pytest.raises(ValueError):
        PEConfig(mac_pipeline_stages=0)


def test_shared_counters_accumulate_across_pes():
    counters = AccessCounters()
    pe_a = ProcessingElement(0, 0, PEConfig(), counters)
    pe_b = ProcessingElement(0, 1, PEConfig(), counters)
    pe_a.mac(1.0, 1.0)
    pe_b.mac(1.0, 1.0)
    assert counters.mac_ops == 2


# ------------------------------------------------------------------- buses
def test_row_and_column_broadcast_round_trip():
    buses = RowColumnBuses(4)
    buses.drive_row(1, 3.5)
    buses.drive_column(2, -1.0)
    assert buses.read_row(1) == 3.5
    assert buses.read_column(2) == -1.0
    assert buses.counters.row_broadcasts == 1
    assert buses.counters.column_broadcasts == 1


def test_bus_contention_detected():
    buses = RowColumnBuses(4)
    buses.drive_row(0, 1.0)
    with pytest.raises(RuntimeError):
        buses.drive_row(0, 2.0)


def test_reading_idle_bus_is_an_error():
    buses = RowColumnBuses(4)
    with pytest.raises(RuntimeError):
        buses.read_row(0)
    with pytest.raises(RuntimeError):
        buses.read_column(3)


def test_clear_releases_all_buses():
    buses = RowColumnBuses(2)
    buses.broadcast_row_vector([1.0, 2.0])
    buses.broadcast_column_vector([3.0, 4.0])
    buses.clear()
    assert not buses.row_is_driven(0)
    assert not buses.column_is_driven(1)
    buses.drive_row(0, 9.0)  # no contention after clear
    assert buses.read_row(0) == 9.0


def test_vector_broadcast_length_checked():
    buses = RowColumnBuses(4)
    with pytest.raises(ValueError):
        buses.broadcast_row_vector([1.0, 2.0])


def test_bus_index_bounds():
    buses = RowColumnBuses(4)
    with pytest.raises(IndexError):
        buses.drive_row(4, 0.0)
    with pytest.raises(IndexError):
        buses.read_column(-1)

"""Tests for the LAC access counters."""

import pytest

from lac_oracle import (bus_broadcasts, local_store_accesses, merge_counters,
                        reset_counters)
from repro.lac.stats import AccessCounters


def test_counters_merge_and_copy():
    a = AccessCounters(cycles=10, mac_ops=160)
    b = AccessCounters(cycles=5, mac_ops=80, row_broadcasts=5)
    c = a.copy()
    merge_counters(a, b)
    assert a.cycles == 15 and a.mac_ops == 240 and a.row_broadcasts == 5
    assert c.cycles == 10  # copy unaffected


def test_counters_reset():
    c = AccessCounters(cycles=3, sfu_ops=2)
    reset_counters(c)
    assert c.cycles == 0 and c.sfu_ops == 0


def test_counters_derived_quantities():
    c = AccessCounters(cycles=10, mac_ops=160, store_a_reads=4, store_b_reads=6,
                       row_broadcasts=3, column_broadcasts=7,
                       external_loads=8, external_stores=2)
    assert c.flops == 320
    assert local_store_accesses(c) == 10
    assert bus_broadcasts(c) == 10
    assert c.external_words == 10
    assert c.utilization(16) == pytest.approx(1.0)


def test_counters_utilization_clamped_and_zero_safe():
    assert AccessCounters().utilization(16) == 0.0
    c = AccessCounters(cycles=1, mac_ops=100)
    assert c.utilization(16) == 1.0


def test_activity_factors_bounded():
    c = AccessCounters(cycles=100, mac_ops=1600, store_a_reads=400, store_b_reads=1600,
                       row_broadcasts=100, column_broadcasts=100, sfu_ops=2,
                       external_loads=64, external_stores=64)
    factors = c.activity_factors(16)
    for name, value in factors.items():
        assert 0.0 <= value <= 1.0, name
    assert factors["mac"] == pytest.approx(1.0)


def test_summary_mentions_cycles():
    assert "cycles" in AccessCounters(cycles=7).summary()

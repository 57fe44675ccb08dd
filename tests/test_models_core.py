"""Tests for the core-level analytical GEMM model (Chapter 3)."""

import pytest

from repro.models.core_model import CoreGEMMModel


@pytest.fixture
def model():
    return CoreGEMMModel(nr=4)


def test_peak_compute_cycles(model):
    res = model.cycles(mc=64, kc=64, n=512, bandwidth_elements_per_cycle=1e9)
    assert res.peak_cycles == pytest.approx(64 * 64 * 512 / 16)
    assert res.utilization == pytest.approx(1.0)


def test_utilization_decreases_with_lower_bandwidth(model):
    high = model.cycles(mc=64, kc=64, n=512, bandwidth_elements_per_cycle=4.0).utilization
    low = model.cycles(mc=64, kc=64, n=512, bandwidth_elements_per_cycle=0.25).utilization
    assert high > low
    assert 0.0 < low < 1.0


def test_utilization_increases_with_local_store(model):
    """Bigger blockings (more local store) tolerate less bandwidth (Fig. 3.4)."""
    small = model.cycles(mc=32, kc=32, n=512, bandwidth_elements_per_cycle=0.5).utilization
    large = model.cycles(mc=256, kc=256, n=512, bandwidth_elements_per_cycle=0.5).utilization
    assert large > small


def test_local_store_formula(model):
    """Aggregate: mc*kc + 2*kc*nr^2 (partial) or 2*mc*kc + 2*kc*nr^2 (full)."""
    partial = model.local_store_elements_per_pe(mc=64, kc=64, full_overlap=False)
    full = model.local_store_elements_per_pe(mc=64, kc=64, full_overlap=True)
    assert partial == pytest.approx((64 * 64 + 2 * 64 * 16) / 16)
    assert full == pytest.approx((2 * 64 * 64 + 2 * 64 * 16) / 16)
    assert model.local_store_bytes_per_pe(64, 64) == pytest.approx(partial * 8)


def test_required_bandwidth_for_peak_formula(model):
    """(2/kc + 1/mc) * nr^2, plus nr^2/n with full overlap."""
    assert model.required_bandwidth_for_peak(mc=128, kc=128, full_overlap=False) == \
        pytest.approx((2.0 / 128 + 1.0 / 128) * 16)
    assert model.required_bandwidth_for_peak(mc=128, kc=128, n=512, full_overlap=True) == \
        pytest.approx((2.0 / 128 + 1.0 / 128) * 16 + 16.0 / 512)


def test_doubling_nr_quadruples_performance_and_doubles_bandwidth():
    """Fig. 3.5 insight: at fixed local store, nr=8 needs ~2x the bandwidth of nr=4."""
    m4 = CoreGEMMModel(nr=4)
    m8 = CoreGEMMModel(nr=8)
    bw4 = m4.required_bandwidth_for_peak(mc=128, kc=128, full_overlap=False)
    bw8 = m8.required_bandwidth_for_peak(mc=128, kc=128, full_overlap=False)
    assert bw8 == pytest.approx(4.0 * bw4)  # per the nr^2 factor
    assert m8.peak_gflops(1.0) == pytest.approx(4.0 * m4.peak_gflops(1.0))


def test_full_overlap_needs_no_separate_a_load_time(model):
    partial = model.cycles(mc=256, kc=256, n=512, bandwidth_elements_per_cycle=2.0,
                           full_overlap=False)
    full = model.cycles(mc=256, kc=256, n=512, bandwidth_elements_per_cycle=2.0,
                        full_overlap=True)
    assert full.total_cycles <= partial.total_cycles
    assert full.local_store_elements_per_pe > partial.local_store_elements_per_pe


def test_paper_design_point_reaches_high_utilization(model):
    """At ~20 KB/PE local store and 4 B/cycle the core should be near peak."""
    kc = model.smallest_kc_for_peak(bandwidth_elements_per_cycle=4.0 / 8.0, n=512)
    assert kc is not None
    store_kb = model.local_store_bytes_per_pe(kc, kc, full_overlap=True) / 1024.0
    assert store_kb <= 40.0
    util = model.cycles(mc=256, kc=256, n=512, bandwidth_elements_per_cycle=0.5).utilization
    assert util > 0.9


def test_sweep_and_peak_tables(model):
    table = model.peak_bandwidth_vs_local_store(kc_values=[32, 64, 128])
    assert len(table) == 3
    # Bandwidth needed for peak decreases as the local store grows.
    assert table[0]["bandwidth_bytes_per_cycle"] > table[-1]["bandwidth_bytes_per_cycle"]


def test_smallest_kc_for_peak_none_when_bandwidth_too_low(model):
    assert model.smallest_kc_for_peak(bandwidth_elements_per_cycle=1e-6, n=512,
                                      kc_limit=512) is None


def test_input_validation(model):
    with pytest.raises(ValueError):
        CoreGEMMModel(nr=1)
    with pytest.raises(ValueError):
        CoreGEMMModel(element_bytes=2)
    with pytest.raises(ValueError):
        model.cycles(mc=0, kc=64, n=512, bandwidth_elements_per_cycle=1.0)
    with pytest.raises(ValueError):
        model.cycles(mc=64, kc=64, n=0, bandwidth_elements_per_cycle=1.0)
    with pytest.raises(ValueError):
        model.cycles(mc=64, kc=64, n=512, bandwidth_elements_per_cycle=0.0)
    with pytest.raises(ValueError):
        model.peak_gflops(0.0)
    with pytest.raises(ValueError):
        model.smallest_kc_for_peak(0.0)

"""Tests for the chip-level analytical model (Chapter 4) and validation (Sec. 4.3)."""

import pytest

from repro.models.chip_model import ChipGEMMModel
from repro.models.validation import (predict_clearspeed_csx_utilization,
                                     predict_fermi_c2050_utilization)


@pytest.fixture
def model():
    return ChipGEMMModel(num_cores=8, nr=4)


def test_hierarchy_requirements_table_has_all_layers(model):
    rows = model.hierarchy_requirements(mc=256, kc=256, n=2048)
    levels = {(r.level, r.overlap) for r in rows}
    assert ("core", "partial") in levels
    assert ("chip", "full") in levels
    assert ("off-chip", "partial") in levels
    assert len(rows) == 8
    for r in rows:
        assert r.bandwidth_words_per_cycle >= 0.0
        assert r.memory_words >= 0.0


def test_chip_memory_formula(model):
    """n^2 + S*mc*kc + 2*kc*n words (partial overlap)."""
    words = model.onchip_memory_words(mc=256, kc=256, n=2048)
    assert words == pytest.approx(2048 ** 2 + 8 * 256 * 256 + 2 * 256 * 2048)


def test_onchip_bandwidth_formula(model):
    """(2S/kc + S/mc) * nr^2 words/cycle."""
    bw = model.onchip_bandwidth_words_per_cycle(mc=20, kc=20)
    assert bw == pytest.approx((2 * 8 / 20 + 8 / 20) * 16)


def test_offchip_bandwidth_formula(model):
    assert model.offchip_bandwidth_words_per_cycle(n=2048) == pytest.approx(2 * 8 * 16 / 2048)
    assert model.offchip_bandwidth_words_per_cycle(n=2048, full_overlap=True) == \
        pytest.approx(4 * 8 * 16 / 2048)


def test_onchip_cycles_reach_full_utilization_with_ample_bandwidth(model):
    res = model.cycles_onchip(mc=256, kc=256, n=2048, onchip_bandwidth_words_per_cycle=1e6)
    assert res.utilization == pytest.approx(1.0)


def test_onchip_utilization_drops_with_starved_bandwidth(model):
    """With small blocks (little reuse) a starved on-chip bus caps utilisation."""
    rich = model.cycles_onchip(32, 32, 2048, 64.0)
    poor = model.cycles_onchip(32, 32, 2048, 1.0)
    assert rich.utilization > poor.utilization
    assert poor.utilization < 0.5


def test_bigger_onchip_memory_reduces_bandwidth_demand(model):
    """Fig. 4.2: bandwidth demand grows as the on-chip memory shrinks."""
    small_block = model.onchip_bandwidth_words_per_cycle(mc=32, kc=32)
    large_block = model.onchip_bandwidth_words_per_cycle(mc=256, kc=256)
    assert small_block > large_block


def test_more_cores_need_more_bandwidth_for_same_utilization():
    """Fig. 4.3: linear core scaling at fixed bandwidth does not scale performance."""
    n = 1024
    four = ChipGEMMModel(num_cores=4, nr=4).cycles_onchip(128, 128, n, 8.0)
    sixteen = ChipGEMMModel(num_cores=16, nr=4).cycles_onchip(128, 128, n, 8.0)
    assert sixteen.utilization < four.utilization


def test_offchip_model_matches_formula(model):
    res = model.cycles_offchip(n=1024, offchip_bandwidth_words_per_cycle=2.0)
    expected_total = 2 * 1024 ** 2 / 2.0 + max(2 * 1024 ** 2 / 2.0, 1024 ** 3 / (8 * 16))
    assert res.total_cycles == pytest.approx(expected_total)
    assert 0.0 < res.utilization <= 1.0


def test_larger_problems_amortize_offchip_traffic(model):
    small = model.cycles_offchip(n=256, offchip_bandwidth_words_per_cycle=2.0)
    large = model.cycles_offchip(n=2048, offchip_bandwidth_words_per_cycle=2.0)
    assert large.utilization > small.utilization


def test_blocked_offchip_bandwidth_grows_as_memory_shrinks(model):
    """Fig. 4.5: halving the resident block raises the external bandwidth demand."""
    full = model.offchip_bandwidth_blocked(n=2048, ns=2048)
    half = model.offchip_bandwidth_blocked(n=2048, ns=1024)
    quarter = model.offchip_bandwidth_blocked(n=2048, ns=512)
    assert full < half < quarter


def test_blocked_offchip_bandwidth_validation(model):
    with pytest.raises(ValueError):
        model.offchip_bandwidth_blocked(n=1024, ns=2048)
    with pytest.raises(ValueError):
        model.offchip_bandwidth_blocked(n=1024, ns=256, k_subblocks=100)


def test_gflops_scaling_with_frequency(model):
    res = model.cycles_offchip(n=1024, offchip_bandwidth_words_per_cycle=4.0)
    assert res.gflops(2.0) == pytest.approx(2.0 * res.gflops(1.0))


def test_sweeps_produce_rows(model):
    # kc = 128 with 8 cores needs 1024 rows of C, so it is skipped for n = 512.
    rows = model.sweep_onchip_memory_vs_bandwidth(n_values=[512, 1024], kc_values=[64, 128])
    assert len(rows) == 3


def test_validation_predictions_match_published_utilizations():
    """Sec. 4.3: ~74% predicted for Fermi (70% published), ~83% for CSX (78%)."""
    fermi = predict_fermi_c2050_utilization()
    assert fermi.limiting_resource == "on-chip bandwidth"
    assert 0.70 <= fermi.predicted_utilization <= 0.80
    assert fermi.prediction_error < 0.10

    csx = predict_clearspeed_csx_utilization()
    assert csx.limiting_resource == "off-chip bandwidth"
    assert 0.75 <= csx.predicted_utilization <= 0.90
    assert csx.prediction_error < 0.10


def test_fermi_onchip_demand_near_paper_value():
    """The paper computes ~310 GB/s of on-chip bandwidth demand for Fermi."""
    fermi = predict_fermi_c2050_utilization()
    assert 280.0 <= fermi.required_bandwidth_gb_s <= 340.0


def test_csx_offchip_demand_near_paper_value():
    """The paper computes ~4.7 GB/s of off-chip demand for the CSX at 250 MHz."""
    csx = predict_clearspeed_csx_utilization()
    assert 4.0 <= csx.required_bandwidth_gb_s <= 5.5


def test_model_validation_inputs(model):
    with pytest.raises(ValueError):
        ChipGEMMModel(num_cores=0)
    with pytest.raises(ValueError):
        model.cycles_onchip(0, 256, 2048, 8.0)
    with pytest.raises(ValueError):
        model.cycles_onchip(256, 256, 2048, 0.0)
    with pytest.raises(ValueError):
        model.cycles_offchip(0, 1.0)
    with pytest.raises(ValueError):
        model.cycles_offchip(1024, 0.0)

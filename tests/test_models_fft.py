"""Tests for the FFT analytical model (Appendix B)."""

import math

import pytest

from repro.models.fft_model import (FFTCoreModel, FFTProblem, FFTVariant,
                                    FMA_OPS_PER_RADIX4_BUTTERFLY)


@pytest.fixture
def model():
    return FFTCoreModel(nr=4, mac_pipeline_stages=8)


def test_problem_validation():
    with pytest.raises(ValueError):
        FFTProblem(points=3)
    with pytest.raises(ValueError):
        FFTProblem(points=48)
    problem = FFTProblem(points=64)
    assert problem.stages_radix4 == 3
    assert problem.total_flops == pytest.approx(5 * 64 * 6)


def test_core_fft_cycles_scale_with_problem_size(model):
    small = model.core_fft_cycles(64)
    large = model.core_fft_cycles(256)
    assert large > small
    # 256 points has 4 stages of 64 butterflies vs 3 stages of 16: > 4x work.
    assert large > 3.0 * small


def test_butterfly_count_per_stage(model):
    assert model.butterflies_per_stage(64) == 16
    with pytest.raises(ValueError):
        model.butterflies_per_stage(10)


def test_local_store_doubles_with_overlap(model):
    no = model.local_store_words_per_pe(64, overlap=False)
    yes = model.local_store_words_per_pe(64, overlap=True)
    assert yes > no


def test_required_bandwidth_below_column_bus_ceiling_for_64(model):
    """The paper notes 4 doubles/cycle is the ceiling; a 64-point block fits under it."""
    bw = model.required_bandwidth_words_per_cycle(64, overlap=True)
    assert bw <= model.max_external_bandwidth_words_per_cycle()


def test_small_blocks_demand_more_relative_bandwidth(model):
    small = model.required_bandwidth_words_per_cycle(16, overlap=True)
    large = model.required_bandwidth_words_per_cycle(1024, overlap=True)
    assert small > large


def test_large_fft_requirements_1d_vs_2d(model):
    one_d = model.large_fft_requirements(FFTProblem(65536, FFTVariant.ONE_D), 64)
    two_d = model.large_fft_requirements(FFTProblem(65536, FFTVariant.TWO_D), 64)
    assert one_d["passes"] == two_d["passes"] == 2
    assert one_d["core_ffts"] == 2 * 65536 // 64
    assert one_d["compute_cycles"] > 0
    assert one_d["io_words"] == two_d["io_words"]


def test_average_communication_load_positive_and_bounded(model):
    load = model.average_communication_load(FFTProblem(65536), 64)
    assert 0.0 < load <= 2 * model.max_external_bandwidth_words_per_cycle()


def test_gflops_increases_with_frequency_and_overlap(model):
    problem = FFTProblem(65536)
    slow = model.gflops(problem, 0.5)
    fast = model.gflops(problem, 1.0)
    assert fast == pytest.approx(2.0 * slow)
    overlapped = model.gflops(problem, 1.0, overlap=True)
    serial = model.gflops(problem, 1.0, overlap=False)
    assert overlapped > serial


def test_table_b1_contains_all_variants(model):
    rows = model.table_b1_requirements([64, 128])
    assert len(rows) == 8  # 2 sizes x 2 variants x overlap yes/no
    variants = {r["variant"] for r in rows}
    assert variants == {"1d", "2d"}
    overlapped = [r for r in rows if r["overlap"]]
    non_overlapped = [r for r in rows if not r["overlap"]]
    # Overlap costs local store but removes serialised I/O cycles.
    assert all(o["local_store_words_per_pe"] > n["local_store_words_per_pe"]
               for o, n in zip(overlapped, non_overlapped))


def test_model_validation(model):
    with pytest.raises(ValueError):
        FFTCoreModel(nr=1)
    with pytest.raises(ValueError):
        model.local_store_words_per_pe(0)
    with pytest.raises(ValueError):
        model.large_fft_requirements(FFTProblem(4096), block_points=2)
    with pytest.raises(ValueError):
        model.gflops(FFTProblem(4096), 0.0)

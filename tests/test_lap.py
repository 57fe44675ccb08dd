"""Tests for the chip-level LAP: scheduler, off-chip traffic and the chip object."""

import numpy as np
import pytest

from repro.arch.breakdowns import lap_breakdown
from repro.hw.fpu import Precision
from repro.hw.memory import OffChipInterface
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.offchip import OffChipTrafficModel
from repro.lap.policies import GEMMScheduler


# -------------------------------------------------------------- scheduler
def test_panel_assignment_covers_all_rows_disjointly():
    sched = GEMMScheduler(num_cores=4, nr=4)
    assignments = sched.assign_panels(n=64, mc=8)
    covered = []
    for a in assignments:
        covered.extend(range(a.row_start, a.row_end))
    assert sorted(covered) == list(range(64))
    assert len(covered) == len(set(covered))


def test_panel_assignment_round_robin_over_cores():
    sched = GEMMScheduler(num_cores=3, nr=4)
    assignments = sched.assign_panels(n=48, mc=4)
    assert [a.core_index for a in assignments[:6]] == [0, 1, 2, 0, 1, 2]


def test_load_balance_perfect_when_panels_divide_evenly():
    sched = GEMMScheduler(num_cores=4, nr=4)
    assignments = sched.assign_panels(n=64, mc=4)
    assert sched.load_balance(assignments) == pytest.approx(1.0)


def test_load_balance_reported_when_uneven():
    sched = GEMMScheduler(num_cores=3, nr=4)
    assignments = sched.assign_panels(n=16, mc=4)  # 4 panels over 3 cores
    assert sched.load_balance(assignments) == pytest.approx(0.5)


def test_scheduler_validation():
    with pytest.raises(ValueError):
        GEMMScheduler(num_cores=0)
    sched = GEMMScheduler(num_cores=2, nr=4)
    with pytest.raises(ValueError):
        sched.assign_panels(n=30, mc=4)
    with pytest.raises(ValueError):
        sched.assign_panels(n=32, mc=6)


# --------------------------------------------------------- off-chip model
def test_offchip_traffic_and_intensity():
    model = OffChipTrafficModel(num_cores=8, nr=4)
    summary = model.traffic(n=1024)
    assert summary.total_bytes == pytest.approx(4 * 1024 * 1024 * 8.0)
    assert summary.arithmetic_intensity == pytest.approx(2 * 1024 ** 3 / summary.total_bytes)


def test_offchip_refetch_when_c_does_not_fit():
    model = OffChipTrafficModel(num_cores=8, nr=4)
    resident = model.traffic(n=1024, onchip_fraction_of_c=1.0)
    quarter = model.traffic(n=1024, onchip_fraction_of_c=0.25)
    assert quarter.a_bytes == pytest.approx(4.0 * resident.a_bytes)
    assert quarter.c_write_bytes == resident.c_write_bytes


def test_roofline_takes_minimum_of_bounds():
    model = OffChipTrafficModel(num_cores=8, nr=4)
    iface_slow = OffChipInterface(bandwidth_gbytes_per_sec=1.0)
    iface_fast = OffChipInterface(bandwidth_gbytes_per_sec=1000.0)
    compute = model.compute_bound_gflops(1.0)
    assert model.roofline_gflops(1024, iface_fast, 1.0) == pytest.approx(compute)
    assert model.roofline_gflops(1024, iface_slow, 1.0) < compute


def test_offchip_model_validation():
    with pytest.raises(ValueError):
        OffChipTrafficModel(num_cores=0)
    model = OffChipTrafficModel(num_cores=4)
    with pytest.raises(ValueError):
        model.traffic(n=0)
    with pytest.raises(ValueError):
        model.traffic(n=64, onchip_fraction_of_c=0.0)
    with pytest.raises(ValueError):
        model.compute_bound_gflops(0.0)


# ----------------------------------------------------------------- chip
def test_lap_config_validation():
    with pytest.raises(ValueError):
        LAPConfig(num_cores=0)
    with pytest.raises(ValueError):
        LAPConfig(frequency_ghz=0.0)
    with pytest.raises(ValueError):
        LAPConfig(onchip_memory_mbytes=0.0)
    cfg = LAPConfig(precision=Precision.SINGLE)
    assert cfg.element_bytes == 4


@pytest.mark.parametrize("frequency", [float("nan"), float("inf")])
def test_lap_config_rejects_non_finite_frequency(frequency):
    with pytest.raises(ValueError, match=f"finite number of GHz, got {frequency}"):
        LAPConfig(frequency_ghz=frequency)


def test_lap_peak_gflops_and_geometry():
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=8, nr=4, frequency_ghz=1.0))
    assert lap.num_pes == 128
    assert lap.peak_gflops() == pytest.approx(256.0)
    assert "LAP" in lap.describe()


def test_lap_run_gemm_functional_correctness():
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4, onchip_memory_mbytes=1.0))
    rng = np.random.default_rng(1)
    m = k = n = 16
    a, b, c = rng.random((m, k)), rng.random((k, n)), rng.random((m, n))
    result = lap.run_gemm(c, a, b)
    np.testing.assert_allclose(result["c"], c + a @ b, rtol=1e-12)
    assert result["chip_cycles"] > 0
    assert 0.0 < result["utilization"] <= 1.0
    assert len(result["per_core_cycles"]) == 2
    assert all(cycles > 0 for cycles in result["per_core_cycles"])


def test_lap_run_gemm_validates_shapes():
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4))
    with pytest.raises(ValueError):
        lap.run_gemm(np.zeros((8, 8)), np.zeros((8, 6)), np.zeros((6, 8)))
    with pytest.raises(ValueError):
        lap.run_gemm(np.zeros((9, 8)), np.zeros((9, 8)), np.zeros((8, 8)))


def test_lap_model_gemm_behaviour():
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=8, nr=4, offchip_bandwidth_gb_s=32.0))
    small = lap.model_gemm(256)
    large = lap.model_gemm(2048)
    assert large.utilization >= small.utilization
    assert large.gflops(1.0) <= lap.peak_gflops()


def test_lap_area_is_positive():
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=8, nr=4))
    assert lap.area_mm2() > 0.0


def test_lap_double_precision_efficiency_in_paper_ballpark():
    """Chapter 4 claims roughly 15-25+ DP GFLOPS/W at the chip level."""
    for target_gflops in (20.0, 100.0, 470.0, 940.0):
        breakdown = lap_breakdown(target_gflops, Precision.DOUBLE)
        assert 10.0 <= breakdown.gflops_per_watt <= 60.0

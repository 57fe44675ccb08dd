"""Tests for the chip-level LAP: static load balance, off-chip traffic and the chip object."""

import numpy as np
import pytest

from repro.arch.breakdowns import lap_breakdown
from repro.arch.lap_design import build_lap
from repro.engine.runners import get_runner
from repro.hw.fpu import Precision
from repro.hw.memory import OffChipInterface
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.offchip import OffChipTrafficModel
from repro.lap.runtime import LAPRuntime
from repro.models.chip_model import ChipGEMMModel


# ------------------------------------------------------ static load balance
def round_robin_balance(panels, cores):
    """Lightest over busiest core's panel count when ``panels`` row panels
    of C are dealt round robin to ``cores`` cores (Figure 4.1)."""
    counts = [0] * cores
    for panel in range(panels):
        counts[panel % cores] += 1
    return min(counts) / max(counts)


def static_load_balance(panels, cores):
    """A GEMM row's ``static_load_balance`` for ``panels`` panels (n // tile)
    on ``cores`` cores."""
    row = get_runner("lap_runtime")({
        "algorithm": "gemm", "n": 8 * panels, "tile": 8, "num_cores": cores,
        "timing": "memoized", "verify": False})
    return row["static_load_balance"]


def test_static_load_balance_is_the_round_robin_count():
    """The closed form the ``lap_runtime`` runner reports, ``(P // S) /
    ceil(P / S)``, equals the round-robin deal of P panels over S cores bit
    for bit; the two tests below pin the runner's rows to it."""
    for panels in range(1, 41):
        for cores in range(1, 17):
            assert ((panels // cores) / -(-panels // cores)
                    == round_robin_balance(panels, cores))


def test_load_balance_perfect_when_panels_divide_evenly():
    assert static_load_balance(8, 4) == round_robin_balance(8, 4) == 1.0


def test_load_balance_reported_when_uneven():
    assert static_load_balance(4, 3) == round_robin_balance(4, 3) == 0.5
    # Fewer panels than cores leaves a core without a panel.
    assert static_load_balance(2, 4) == round_robin_balance(2, 4) == 0.0


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


@pytest.mark.parametrize("field", ["pe_store_a_kbytes", "pe_store_b_kbytes",
                                   "onchip_memory_mbytes"])
@pytest.mark.parametrize("size", [float("nan"), float("inf"), 0.0])
def test_lap_config_rejects_unusable_sizes_by_name(field, size):
    with pytest.raises(ValueError, match=f"{field} must be a positive finite "
                                         f"number of [KM]B, got {size}"):
        LAPConfig(**{field: size})


def test_lap_config_names_the_core_count():
    with pytest.raises(ValueError, match="num_cores must be at least 1, got 0"):
        LAPConfig(num_cores=0)


def test_lap_peak_gflops_and_geometry():
    config = LAPConfig(num_cores=8, nr=4, frequency_ghz=1.0)
    lap = LinearAlgebraProcessor(config)
    assert len(lap.cores) == 8
    assert all(core.config.nr == 4 for core in lap.cores)
    assert sum(core.num_pes for core in lap.cores) == 128
    design = build_lap(num_cores=8, nr=4, frequency_ghz=1.0)
    assert design.num_pes == 128
    assert design.peak_gflops == pytest.approx(256.0)


def test_lap_run_gemm_functional_correctness():
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4, onchip_memory_mbytes=1.0))
    stats = LAPRuntime(lap, tile=8).run_blocked_gemm(16, np.random.default_rng(1))
    assert stats["residual"] < 1e-12
    busy = stats["per_core_busy_cycles"]
    assert len(busy) == 2 and all(cycles > 0 for cycles in busy)
    utilization = stats["total_flops"] / 2.0 / (stats["makespan_cycles"] * 2 * 16)
    assert 0.0 < utilization <= 1.0


def test_lap_run_gemm_validates_shapes():
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4))
    with pytest.raises(ValueError):
        LAPRuntime(lap, tile=6)
    with pytest.raises(ValueError):
        LAPRuntime(lap, tile=8).run_blocked_gemm(12, np.random.default_rng(0))


def test_lap_model_gemm_behaviour():
    config = LAPConfig(num_cores=8, nr=4, offchip_bandwidth_gb_s=32.0)
    model = ChipGEMMModel(num_cores=config.num_cores, nr=config.nr,
                          element_bytes=config.element_bytes)
    words_per_cycle = (config.offchip().bytes_per_cycle(config.frequency_ghz)
                       / config.element_bytes)
    small = model.cycles_offchip(256, words_per_cycle, mc=128, kc=128)
    large = model.cycles_offchip(2048, words_per_cycle, mc=256, kc=256)
    assert large.utilization >= small.utilization
    peak = build_lap(num_cores=8, nr=4, frequency_ghz=config.frequency_ghz).peak_gflops
    assert large.gflops(config.frequency_ghz) <= peak


def test_lap_area_is_positive():
    """The chip has one area: cores, their SFUs and the on-chip memory."""
    lap = build_lap(num_cores=8, nr=4)
    assert lap.area_mm2 > 0.0
    core = lap.core
    assert core.area_mm2 == pytest.approx(16 * core.pe.area_mm2 + core.sfu.area_mm2)
    assert lap.area_mm2 == pytest.approx(8 * core.area_mm2 + lap.onchip_memory.area_mm2)


def test_lap_double_precision_efficiency_in_paper_ballpark():
    """Chapter 4 claims roughly 15-25+ DP GFLOPS/W at the chip level."""
    for target_gflops in (20.0, 100.0, 470.0, 940.0):
        breakdown = lap_breakdown(target_gflops, Precision.DOUBLE)
        assert 10.0 <= breakdown.gflops_per_watt <= 60.0

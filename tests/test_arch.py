"""Tests for the architecture database, design points, breakdowns and hybrid PEs."""

import pytest

from repro.arch.breakdowns import (cpu_penryn_breakdown, efficiency_comparison,
                                   gpu_fermi_breakdown, gpu_tesla_breakdown, lap_breakdown)
from repro.arch.database import (ArchitectureSpec, chip_level_specs, core_level_specs,
                                 design_choice_comparison)
from repro.arch.hybrid import (PEDesignVariant, build_variant, fft_alternatives_comparison,
                               hybrid_design_comparison)
from repro.arch.lap_design import (build_lac, build_lap, build_pe,
                                   find_sweet_spot_frequency, pe_frequency_sweep)
from repro.hw.fpu import Precision
from repro.hw.sfu import SFUPlacement


# --------------------------------------------------------------- database
def lookup(name: str) -> ArchitectureSpec:
    """Find one architecture by name across both scopes."""
    for spec in core_level_specs() + chip_level_specs():
        if spec.name == name:
            return spec
    raise KeyError(f"unknown architecture '{name}'")


def test_database_contains_lap_and_competitors():
    core = core_level_specs()
    chips = chip_level_specs()
    assert any(s.is_lap for s in core)
    assert any(not s.is_lap for s in core)
    assert any(s.is_lap for s in chips)
    assert len(core) >= 10 and len(chips) >= 12


def test_precision_filter_and_lookup():
    dp = chip_level_specs("double")
    assert all(s.precision == "double" for s in dp)
    spec = lookup("Intel Penryn")
    assert spec.scope == "chip"
    with pytest.raises(KeyError):
        lookup("Nonexistent 9000")


def test_lac_beats_gpu_cores_by_an_order_of_magnitude_in_gflops_per_watt():
    """Core-level headline claim of Chapter 3."""
    lac_sp = lookup("LAC (SP)")
    gtx280_sm = lookup("Nvidia GTX280 SM")
    gtx480_sm = lookup("Nvidia GTX480 SM")
    assert lac_sp.gflops_per_watt > 10.0 * gtx280_sm.gflops_per_watt
    assert lac_sp.gflops_per_watt > 10.0 * gtx480_sm.gflops_per_watt


def test_lac_dp_efficiency_vs_cpu_core_is_tens_of_times_better():
    lac_dp = lookup("LAC (DP)")
    cpu = lookup("Intel Core")
    assert lac_dp.gflops_per_watt / cpu.gflops_per_watt > 30.0


def test_chip_level_lap_advantage_over_best_competitor():
    """Chip-level: LAP (DP) should beat every conventional chip; ClearSpeed is
    the closest competitor, still outperformed."""
    for precision, margin in (("double", 1.0), ("single", 3.0)):
        specs = chip_level_specs(precision)
        lap = next(s for s in specs if s.is_lap)
        best_other = max(s.gflops_per_watt for s in specs if not s.is_lap)
        assert lap.gflops_per_watt / best_other > margin
    # Against CPUs/GPUs specifically the margin is an order of magnitude.
    lap_dp = lookup("LAP (DP)")
    assert lap_dp.gflops_per_watt > 7.0 * lookup("Nvidia GTX480 (DP)").gflops_per_watt
    assert lap_dp.gflops_per_watt > 20.0 * lookup("Intel Penryn").gflops_per_watt


def test_inverse_energy_delay_ranking():
    lap = lookup("LAP (DP)")
    others = [s for s in chip_level_specs("double") if not s.is_lap]
    assert all(lap.inverse_energy_delay > s.inverse_energy_delay for s in others)


def test_design_choice_comparison_covers_key_aspects():
    rows = design_choice_comparison()
    aspects = {r["aspect"] for r in rows}
    assert "Instruction pipeline" in aspects
    assert "Register file" in aspects
    assert all({"cpu", "gpu", "lap"} <= set(r.keys()) for r in rows)


# ------------------------------------------------------------ lap design
def test_pe_design_point_area_dominated_by_local_store():
    pe = build_pe(Precision.DOUBLE, 1.0, local_store_kbytes=18.0)
    assert pe.store_a.area_mm2 > 0.5 * pe.area_mm2


def test_pe_frequency_sweep_monotone_power():
    points = pe_frequency_sweep(Precision.DOUBLE, [0.33, 0.95, 1.81])
    powers = [p.total_power_w for p in points]
    assert powers == sorted(powers)


def test_pe_table_row_has_expected_columns():
    row = build_pe(Precision.SINGLE, 1.0).as_table_row()
    for key in ("precision", "frequency_ghz", "area_mm2", "pe_mw", "gflops_per_w"):
        assert key in row
    assert row["precision"] == "SP"


def test_sweet_spot_frequency_near_one_ghz():
    """The dissertation identifies ~1 GHz as the PE design sweet spot."""
    sweet = find_sweet_spot_frequency(Precision.DOUBLE)
    assert 0.5 <= sweet <= 1.6


def test_lac_design_point_efficiency_in_paper_range():
    """A 4x4 DP LAC around 1 GHz should land in the tens of GFLOPS/W."""
    lac = build_lac(nr=4, precision=Precision.DOUBLE, frequency_ghz=1.0)
    eff = lac.efficiency(utilization=0.95)
    assert 20.0 <= eff.gflops_per_watt <= 70.0
    assert eff.gflops_per_mm2 > 5.0


def test_single_precision_core_efficiency_higher_than_double():
    sp = build_lac(nr=4, precision=Precision.SINGLE, frequency_ghz=1.0).efficiency()
    dp = build_lac(nr=4, precision=Precision.DOUBLE, frequency_ghz=1.0).efficiency()
    assert sp.gflops_per_watt > 1.5 * dp.gflops_per_watt


@pytest.mark.parametrize("kwargs,message", [
    ({"local_store_kbytes": float("inf")}, "local_store_kbytes .* got inf"),
    ({"local_store_kbytes": float("nan")}, "local_store_kbytes .* got nan"),
    ({"store_b_kbytes": 0.0}, "store_b_kbytes .* got 0.0"),
])
def test_build_pe_rejects_unusable_store_sizes(kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_pe(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    ({"num_cores": 0}, "num_cores must be at least 1, got 0"),
    ({"onchip_memory_mbytes": float("inf")}, "onchip_memory_mbytes .* got inf"),
    ({"onchip_memory_mbytes": float("nan")}, "onchip_memory_mbytes .* got nan"),
    ({"local_store_kbytes": float("inf")}, "local_store_kbytes .* got inf"),
])
def test_build_lap_rejects_unusable_sizes(kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_lap(**kwargs)


def test_lap_design_point_aggregates_cores_and_memory():
    lap = build_lap(num_cores=8, nr=4, onchip_memory_mbytes=4.0)
    assert lap.num_pes == 128
    assert lap.area_mm2 > 8 * lap.core.area_mm2
    eff = lap.efficiency(utilization=0.9)
    assert eff.gflops == pytest.approx(0.9 * lap.peak_gflops)


def test_builders_validate_inputs():
    with pytest.raises(ValueError):
        build_pe(local_store_kbytes=0.0)
    with pytest.raises(ValueError):
        build_lap(onchip_memory_mbytes=0.0)


# ------------------------------------------------------------ breakdowns
def _overhead_share(breakdown):
    """Share of dynamic power burnt in components that do no GEMM arithmetic."""
    overhead = sum(c.dynamic_power_w for c in breakdown.components if not c.essential)
    return overhead / breakdown.dynamic_power_w


def test_gpu_breakdowns_are_overhead_dominated():
    """Most GPU power goes to structures that do no GEMM arithmetic."""
    for breakdown in (gpu_tesla_breakdown(), gpu_fermi_breakdown()):
        assert _overhead_share(breakdown) > 0.4


def test_cpu_breakdown_out_of_order_overhead_about_forty_percent():
    cpu = cpu_penryn_breakdown()
    by_comp = cpu.by_component()
    ooo_frontend = by_comp["Out-of-Order Engine"] + by_comp["Frontend (Fetch/Decode)"]
    assert 0.30 <= ooo_frontend / cpu.dynamic_power_w <= 0.50


def test_lap_breakdown_has_no_overhead_components():
    lap = lap_breakdown(470.0, Precision.DOUBLE)
    assert _overhead_share(lap) == pytest.approx(0.0)
    assert lap.gflops_per_watt > 10.0


def test_equal_throughput_comparison_shows_order_of_magnitude_advantage():
    """Fig. 4.16: the LAP achieves ~10x or better GFLOPS/W at equal throughput."""
    rows = efficiency_comparison()
    assert len(rows) == 4
    for row in rows:
        assert row["advantage"] > 8.0, row["reference"]


def test_lap_breakdown_sizes_core_count_to_target():
    lap = lap_breakdown(940.0, Precision.SINGLE, frequency_ghz=1.4, utilization=0.9)
    assert "LAP-" in lap.label
    assert lap.gflops == pytest.approx(940.0, rel=0.15)
    with pytest.raises(ValueError):
        lap_breakdown(0.0)


# ----------------------------------------------------------------- hybrid
def test_hybrid_variant_capabilities():
    lac = build_variant(PEDesignVariant.DEDICATED_LAC)
    fft = build_variant(PEDesignVariant.DEDICATED_FFT)
    hybrid = build_variant(PEDesignVariant.HYBRID)
    assert lac.supports_gemm and not lac.supports_fft
    assert fft.supports_fft and not fft.supports_gemm
    assert hybrid.supports_gemm and hybrid.supports_fft


def test_hybrid_pays_modest_efficiency_loss():
    """The hybrid runs both workloads with a small (<15%) loss vs dedicated designs."""
    rows = {r["variant"]: r for r in hybrid_design_comparison()}
    lac_gemm_eff = rows["lac"]["gemm_gflops_per_w"]
    hybrid_gemm_eff = rows["hybrid"]["gemm_gflops_per_w"]
    assert hybrid_gemm_eff > 0.80 * lac_gemm_eff
    assert rows["hybrid"]["fft_gflops_per_w"] > 0.0
    assert rows["fft"]["gemm_gflops_per_w"] == 0.0


def test_hybrid_area_larger_than_either_dedicated_design():
    rows = {r["variant"]: r for r in hybrid_design_comparison()}
    assert rows["hybrid"]["area_mm2"] >= rows["fft"]["area_mm2"]
    assert rows["hybrid"]["area_mm2"] >= 0.9 * rows["lac"]["area_mm2"]


def test_fft_alternatives_lac_designs_beat_general_purpose_platforms():
    """Chapter 6: the FFT-capable LAC is an order of magnitude better than CPUs/GPUs."""
    rows = {r["design"]: r["gflops_per_w"] for r in fft_alternatives_comparison()}
    assert rows["LAC-fft"] > 10.0 * rows["General-purpose CPU (45nm)"]
    assert rows["LAC-hybrid"] > 3.0 * rows["GPU SM (45nm)"]


def test_hybrid_power_workload_validation():
    design = build_variant(PEDesignVariant.HYBRID)
    assert design.power_w("idle") < design.power_w("gemm")
    with pytest.raises(ValueError):
        design.power_w("raytracing")

"""Registry mapping every evaluated table / figure to its generator.

Each entry records the experiment id (what ``repro experiments`` and the
goldens under ``tests/goldens/`` are keyed by), the kind (table, figure or
validation), where in the dissertation it comes from, a one-line
description, and the callable that regenerates the data.  The golden suite
iterates over this registry, so a new experiment fails it until its golden
is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments import figures, tables
from repro.models.validation import (predict_clearspeed_csx_utilization,
                                     predict_fermi_c2050_utilization)


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment (a table or a figure data series)."""

    exp_id: str
    kind: str                  #: "table", "figure" or "validation"
    source: str                #: chapter / section of the dissertation
    description: str
    generator: Callable[[], object]

    def run(self) -> object:
        """Execute the generator and return its data."""
        return self.generator()


def _validation_summary() -> List[Dict]:
    fermi = predict_fermi_c2050_utilization()
    csx = predict_clearspeed_csx_utilization()
    return [
        {
            "architecture": p.architecture,
            "limiting_resource": p.limiting_resource,
            "predicted_utilization_pct": 100.0 * p.predicted_utilization,
            "published_utilization_pct": 100.0 * p.published_utilization,
            "prediction_error_pct": 100.0 * p.prediction_error,
        }
        for p in (fermi, csx)
    ]


REGISTRY: Dict[str, Experiment] = {}


def _register(exp_id: str, kind: str, source: str, description: str,
              generator: Callable[[], object]) -> None:
    if exp_id in REGISTRY:
        raise ValueError(f"duplicate experiment id '{exp_id}'")
    REGISTRY[exp_id] = Experiment(exp_id=exp_id, kind=kind, source=source,
                                  description=description, generator=generator)


# ---------------------------------------------------------------- Chapter 3
_register("table_3_1", "table", "Sec. 3.6",
          "PE area/power/efficiency across frequencies (SP & DP, 16 KB store)",
          tables.table_3_1_pe_design_points)
_register("fig_3_4", "figure", "Sec. 3.5",
          "Core GEMM utilisation vs local store size and on-chip bandwidth",
          figures.fig_3_4_core_utilization_vs_local_store)
_register("fig_3_5", "figure", "Sec. 3.5",
          "Bandwidth needed for peak vs local store size",
          figures.fig_3_5_peak_bandwidth_vs_local_store)
_register("fig_3_6", "figure", "Sec. 3.6",
          "PE efficiency metrics vs frequency (sweet spot ~1 GHz)",
          figures.fig_3_6_pe_efficiency_vs_frequency)
_register("table_3_2", "table", "Sec. 3.6",
          "Core-level comparison of architectures running GEMM",
          tables.table_3_2_core_comparison)

# ---------------------------------------------------------------- Chapter 4
_register("table_4_1", "table", "Sec. 4.2",
          "Memory size / bandwidth requirements of the hierarchy layers",
          tables.table_4_1_hierarchy_requirements)
_register("fig_4_2", "figure", "Sec. 4.2.1",
          "On-chip bandwidth vs on-chip memory size",
          figures.fig_4_2_onchip_bw_vs_memory)
_register("fig_4_3", "figure", "Sec. 4.2.2",
          "LAP performance vs number of cores, bandwidth and memory",
          figures.fig_4_3_performance_vs_cores_and_bw)
_register("fig_4_5", "figure", "Sec. 4.2.3",
          "Off-chip bandwidth vs on-chip memory size",
          figures.fig_4_5_offchip_bw_vs_onchip_memory)
_register("fig_4_6", "figure", "Sec. 4.2.3",
          "LAP performance vs off-chip bandwidth and on-chip memory",
          figures.fig_4_6_performance_vs_offchip_bw)
_register("validation_4_3", "validation", "Sec. 4.3",
          "Utilisation prediction for Fermi C2050 and ClearSpeed CSX",
          _validation_summary)
_register("fig_4_7_4_8", "figure", "Sec. 4.4",
          "PE area and power efficiency vs local store size",
          figures.fig_4_7_4_8_pe_area_power_vs_local_store)
_register("fig_4_9_4_10", "figure", "Sec. 4.4",
          "Area / power of a 128-MAC system vs on-chip SRAM size",
          lambda: figures.fig_4_9_to_4_12_system_area_power_vs_onchip_memory(use_nuca=False))
_register("fig_4_11_4_12", "figure", "Sec. 4.4",
          "Area / power of a 128-MAC system vs on-chip NUCA cache size",
          lambda: figures.fig_4_9_to_4_12_system_area_power_vs_onchip_memory(use_nuca=True))
_register("fig_4_13_4_15", "figure", "Sec. 4.5",
          "Normalised power breakdowns: GTX280 / GTX480 / Penryn vs LAP",
          figures.fig_4_13_to_4_15_power_breakdowns)
_register("fig_4_16", "figure", "Sec. 4.5",
          "GFLOPS/W comparison at equal throughput",
          figures.fig_4_16_efficiency_comparison)
_register("table_4_2", "table", "Sec. 4.5",
          "Chip-level comparison of systems running GEMM",
          tables.table_4_2_chip_comparison)
_register("table_4_3", "table", "Sec. 4.5",
          "Qualitative design-choice comparison (CPU / GPU / LAP)",
          tables.table_4_3_design_choices)

# ---------------------------------------------------------------- Chapter 5
_register("fig_5_8_5_9", "figure", "Sec. 5.4",
          "SYRK and TRSM utilisation vs local store and bandwidth",
          figures.fig_5_8_5_9_syrk_trsm_utilization)
_register("fig_5_10", "figure", "Sec. 5.4",
          "Utilisation of representative level-3 BLAS operations",
          figures.fig_5_10_blas_utilization_comparison)
_register("table_5_1", "table", "Sec. 5.4",
          "LAC efficiency for level-3 BLAS algorithms at 1.1 GHz",
          tables.table_5_1_blas_efficiency)

# ------------------------------------------------- Chapter 6 / Appendix A
_register("fig_6_5", "figure", "Sec. 6.1.5",
          "LAC area breakdown with different divide/square-root extensions",
          figures.fig_6_5_lac_area_breakdown)
_register("fig_6_6_6_7", "figure", "Sec. 6.1.5 / App. A.4",
          "Power efficiency of vector-norm and LU kernels vs extensions",
          figures.fig_6_6_6_7_factorization_efficiency)
_register("table_a_2", "table", "App. A.4",
          "Cycle counts and dynamic energy for factorization kernels",
          tables.table_a_2_factorization_costs)

# ------------------------------------------------- Chapter 6.2 / Appendix B
_register("table_6_2", "table", "Sec. 6.2.3",
          "Cache-contained DP FFT: hybrid core vs alternatives",
          tables.table_6_2_fft_comparison)
_register("fig_6_9", "figure", "Sec. 6.2.3",
          "Efficiency of FFT / hybrid designs normalised to the original LAC",
          figures.fig_6_9_hybrid_efficiency_normalized)
_register("table_b_1", "table", "App. B.2.3",
          "FFT core requirements (overlap / non-overlap, 1D / 2D)",
          tables.table_b_1_fft_requirements)
_register("fig_b_5_b_7", "figure", "App. B.3.1",
          "FFT bandwidth / local store / average communication load",
          figures.fig_b_5_to_b_7_fft_requirements)
_register("table_b_2", "table", "App. B.3.3",
          "PE SRAM options: area, energy and achievable frequency",
          tables.table_b_2_pe_sram_options)
_register("table_b_3", "table", "App. B.4",
          "Dedicated LAC / dedicated FFT / hybrid PE designs",
          tables.table_b_3_pe_designs)

# ---------------------------------------------------------- runtime sweeps
_register("runtime_policies", "figure", "Ch. 5 programming env.",
          "LAP-runtime makespan/efficiency vs scheduling policy x cores x size",
          figures.runtime_policy_comparison)
_register("runtime_memory", "figure", "Sec. 4.2.3 data movement",
          "Off-chip traffic / stalls / energy vs on-chip capacity x policy",
          figures.runtime_memory_capacity_sweep)
_register("runtime_energy_pareto", "figure", "Sec. 4.4 energy trade-offs",
          "Energy/runtime Pareto over capacity x bandwidth x policy x overlap",
          figures.runtime_energy_pareto)


# ------------------------------------------------------- methodology extras
def _scaled_provenance() -> List[Dict]:
    from repro.arch.scaling import scaled_comparison_rows
    return scaled_comparison_rows()


_register("scaling_provenance", "table", "Sec. 1.3 / 4.5 methodology",
          "Published measurements and their 45 nm-scaled equivalents",
          _scaled_provenance)


def get_experiment(exp_id: str) -> Experiment:
    """Look up one experiment by id."""
    try:
        return REGISTRY[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment '{exp_id}'; known ids: {sorted(REGISTRY)}") from None


def run_experiment(exp_id: str) -> object:
    """Run one experiment and return its data."""
    return get_experiment(exp_id).run()

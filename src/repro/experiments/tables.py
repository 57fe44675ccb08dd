"""Generators for the numbered tables of the evaluation chapters.

Every function returns a list of dictionaries (one per table row), so the
CLI, the text report and the tests can all consume the same data without
any plotting dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.arch.database import chip_level_specs, core_level_specs, design_choice_comparison
from repro.arch.hybrid import fft_alternatives_comparison, hybrid_design_comparison
from repro.arch.lap_design import build_lac, build_pe, pe_frequency_sweep
from repro.hw.fpu import Precision
from repro.hw.sfu import SFUPlacement
from repro.hw.sram import SRAMConfig, SRAMModel
from repro.models.blas_model import BlasCoreModel, Level3Operation
from repro.models.chip_model import ChipGEMMModel
from repro.models.fact_model import (FactorizationKernel, FactorizationKernelModel,
                                     MACExtension)
from repro.models.fft_model import FFTCoreModel


# --------------------------------------------------------------- Table 3.1
def table_3_1_pe_design_points(local_store_kbytes: float = 16.0) -> List[Dict]:
    """PE area/power/efficiency across frequencies, single and double precision."""
    rows: List[Dict] = []
    sp_freqs = [2.08, 1.32, 0.98, 0.50]
    dp_freqs = [1.81, 0.95, 0.33, 0.20]
    for precision, freqs in ((Precision.SINGLE, sp_freqs), (Precision.DOUBLE, dp_freqs)):
        for pe in pe_frequency_sweep(precision, freqs, local_store_kbytes):
            rows.append(pe.as_table_row())
    return rows


# --------------------------------------------------------------- Table 3.2
def table_3_2_core_comparison() -> List[Dict]:
    """Core-level comparison of architectures running GEMM (45 nm scaled)."""
    rows = []
    for spec in core_level_specs():
        rows.append({
            "architecture": spec.name,
            "precision": spec.precision,
            "w_per_mm2": spec.watts_per_mm2,
            "gflops_per_mm2": spec.gflops_per_mm2,
            "gflops_per_w": spec.gflops_per_watt,
            "utilization_pct": 100.0 * spec.utilization,
            "is_lap": spec.is_lap,
        })
    return rows


# --------------------------------------------------------------- Table 4.1
def table_4_1_hierarchy_requirements(num_cores: int = 8, nr: int = 4,
                                     mc: int = 256, kc: int = 256,
                                     n: int = 2048) -> List[Dict]:
    """Bandwidth and memory requirements of the memory-hierarchy layers."""
    model = ChipGEMMModel(num_cores=num_cores, nr=nr)
    rows = []
    for req in model.hierarchy_requirements(mc, kc, n):
        rows.append({
            "level": req.level,
            "overlap": req.overlap,
            "memory_words": req.memory_words,
            "memory_kbytes": req.memory_bytes() / 1024.0,
            "bandwidth_words_per_cycle": req.bandwidth_words_per_cycle,
            "bandwidth_bytes_per_cycle": req.bandwidth_bytes_per_cycle(),
        })
    return rows


# --------------------------------------------------------------- Table 4.2
def table_4_2_chip_comparison() -> List[Dict]:
    """Chip-level comparison of systems running GEMM (45 nm scaled)."""
    rows = []
    for spec in chip_level_specs():
        rows.append({
            "architecture": spec.name,
            "precision": spec.precision,
            "gflops": spec.gflops,
            "w_per_mm2": spec.watts_per_mm2,
            "gflops_per_mm2": spec.gflops_per_mm2,
            "gflops_per_w": spec.gflops_per_watt,
            "gflops2_per_w": spec.inverse_energy_delay,
            "utilization_pct": 100.0 * spec.utilization,
            "is_lap": spec.is_lap,
        })
    return rows


# --------------------------------------------------------------- Table 4.3
def table_4_3_design_choices() -> List[Dict]:
    """Qualitative design-choice comparison of CPUs, GPUs and the LAP."""
    return design_choice_comparison()


# --------------------------------------------------------------- Table 5.1
def table_5_1_blas_efficiency(frequency_ghz: float = 1.1,
                              local_store_kbytes: float = 20.0) -> List[Dict]:
    """LAC efficiency for level-3 BLAS algorithms at 1.1 GHz.

    Combines the analytical utilisation of each operation (at the design
    point of Chapter 5: ~20 KB/PE, 4 B/cycle, nr in {4, 8}) with the power
    and area of the core design point to produce W/mm^2, GFLOPS/mm^2 and
    GFLOPS/W columns.
    """
    rows: List[Dict] = []
    for nr in (4, 8):
        blas = BlasCoreModel(nr=nr)
        lac = build_lac(nr=nr, precision=Precision.DOUBLE, frequency_ghz=frequency_ghz,
                        local_store_kbytes=local_store_kbytes)
        bw = 4.0 if nr == 4 else 8.0  # bytes/cycle -> here elements: 8B elements
        bw_elements = bw / 8.0 * 8.0  # keep in elements/cycle for the model
        for op in (Level3Operation.GEMM, Level3Operation.TRSM,
                   Level3Operation.SYRK, Level3Operation.SYR2K):
            util = blas.utilization(op, mc=256, kc=256, n=512,
                                    bandwidth_elements_per_cycle=bw_elements).utilization
            eff = lac.efficiency(utilization=max(util, 1e-3))
            rows.append({
                "operation": op.value,
                "nr": nr,
                "utilization_pct": 100.0 * util,
                "w_per_mm2": eff.watts_per_mm2,
                "gflops_per_mm2": eff.gflops_per_mm2,
                "gflops_per_w": eff.gflops_per_watt,
            })
    return rows


# --------------------------------------------------------------- Table 6.2
def table_6_2_fft_comparison() -> List[Dict]:
    """Cache-contained double-precision FFT: hybrid core vs alternatives."""
    return fft_alternatives_comparison()


# --------------------------------------------------------------- Table A.2
def table_a_2_factorization_costs(sizes: Sequence[int] = (64, 128, 256)) -> List[Dict]:
    """Cycle counts and dynamic energy for the factorization inner kernels.

    Rows sweep the three divide/square-root options (columns of the paper's
    table) and the MAC-extension options (row groups) for Cholesky, LU and
    the vector norm at several panel heights.
    """
    model = FactorizationKernelModel(nr=4)
    rows: List[Dict] = []
    kernel_extensions = {
        FactorizationKernel.CHOLESKY: [MACExtension.NONE],
        FactorizationKernel.LU: [MACExtension.NONE, MACExtension.COMPARATOR],
        FactorizationKernel.VECTOR_NORM: [MACExtension.NONE, MACExtension.EXPONENT],
    }
    for kernel, extensions in kernel_extensions.items():
        for k in sizes:
            k_eff = max(k, model.nr)
            for placement in SFUPlacement:
                for ext in extensions:
                    res = model.evaluate(kernel, k_eff, placement, ext)
                    rows.append({
                        "kernel": kernel.value,
                        "k": k_eff,
                        "sfu": placement.value,
                        "mac_extension": ext.value,
                        "cycles": res.cycles,
                        "dynamic_energy_nj": res.dynamic_energy_j * 1e9,
                        "gflops_per_w": res.gflops_per_watt(model.frequency_ghz),
                    })
    return rows


# --------------------------------------------------------------- Table B.1
def table_b_1_fft_requirements(n_values: Sequence[int] = (64, 128, 256)) -> List[Dict]:
    """Core requirements for overlapped / non-overlapped 1D and 2D FFTs."""
    model = FFTCoreModel(nr=4)
    return model.table_b1_requirements(n_values)


# --------------------------------------------------------------- Table B.2
def table_b_2_pe_sram_options() -> List[Dict]:
    """PE SRAM options: area, per-access energy and achievable frequency."""
    options = [
        ("16KB single-ported", SRAMConfig(16 * 1024, ports=1, word_bytes=8)),
        ("16KB dual-ported", SRAMConfig(16 * 1024, ports=2, word_bytes=8)),
        ("8KB single-ported", SRAMConfig(8 * 1024, ports=1, word_bytes=8)),
        ("8KB dual-ported", SRAMConfig(8 * 1024, ports=2, word_bytes=8)),
        ("4KB single-ported", SRAMConfig(4 * 1024, ports=1, word_bytes=8)),
        ("2 x 8KB single-ported", SRAMConfig(16 * 1024, ports=1, word_bytes=8, banks=2)),
    ]
    rows = []
    for label, cfg in options:
        model = SRAMModel(cfg)
        rows.append({
            "option": label,
            "capacity_kbytes": cfg.capacity_kbytes,
            "ports": cfg.ports,
            "banks": cfg.banks,
            "area_mm2": model.area_mm2,
            "energy_per_access_pj": model.energy_per_access_j * 1e12,
            "max_frequency_ghz": model.max_frequency_ghz(),
            "peak_bw_bytes_per_cycle": model.peak_bandwidth_bytes_per_cycle(),
        })
    return rows


# --------------------------------------------------------------- Table B.3
def table_b_3_pe_designs() -> List[Dict]:
    """Dedicated LAC, dedicated FFT and hybrid PE designs compared."""
    return hybrid_design_comparison()

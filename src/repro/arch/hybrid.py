"""FFT-optimised and hybrid LAC/FFT PE designs (Chapter 6.2, Appendix B).

Three PE variants are compared at 1 GHz:

* the **dedicated LAC** PE (baseline): one larger single-ported SRAM for A,
  one small dual-ported SRAM for B;
* the **dedicated FFT** PE: two single-ported 8-byte-wide SRAMs so that the
  two operands of every butterfly can be read in the same cycle while the
  previous block streams out;
* the **hybrid** PE: the FFT organisation plus the extra storage needed to
  keep a matrix-A panel resident, able to run both workload classes with a
  small loss in efficiency relative to either dedicated design.

This module builds the three variants from the SRAM/FPU component models and
produces the per-design area, power and normalised-efficiency numbers used by
the hybrid-design comparison table and figures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.hw.fpu import FMACUnit, Precision
from repro.hw.sram import SRAMConfig, SRAMModel
from repro.models.efficiency import EfficiencyMetrics


class PEDesignVariant(enum.Enum):
    """The three PE organisations compared in the hybrid-core study."""

    DEDICATED_LAC = "lac"
    DEDICATED_FFT = "fft"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class HybridPEDesign:
    """One PE variant with its storage organisation."""

    variant: PEDesignVariant
    precision: Precision
    frequency_ghz: float
    srams: tuple            #: tuple of SRAMModel
    supports_gemm: bool
    supports_fft: bool
    #: relative GEMM efficiency vs. the dedicated LAC design (1.0 = equal)
    gemm_efficiency: float
    #: relative FFT efficiency vs. the dedicated FFT design (1.0 = equal)
    fft_efficiency: float

    @property
    def fmac(self) -> FMACUnit:
        return FMACUnit(precision=self.precision, frequency_ghz=self.frequency_ghz)

    @property
    def sram_area_mm2(self) -> float:
        return sum(s.area_mm2 for s in self.srams)

    @property
    def area_mm2(self) -> float:
        """PE area: MAC plus all SRAM macros plus a fixed control/bus share."""
        return self.fmac.area_mm2 + self.sram_area_mm2 + 0.025

    def power_w(self, workload: str = "gemm") -> float:
        """PE power running the given workload ("gemm", "fft" or "idle")."""
        if workload not in ("gemm", "fft", "idle"):
            raise ValueError(f"unknown workload '{workload}'")
        if workload == "idle":
            return 0.25 * self.fmac.dynamic_power_w
        f = self.frequency_ghz
        # GEMM touches one SRAM per cycle plus occasional A reads; FFT reads
        # and writes both operand SRAMs every butterfly step.
        if workload == "gemm":
            rates = [0.25] + [1.0] * (len(self.srams) - 1)
        else:
            rates = [1.0] * len(self.srams)
        sram_power = sum(s.dynamic_power_w(f, min(r, s.config.ports)) for s, r in zip(self.srams, rates))
        return self.fmac.dynamic_power_w + sram_power

    def efficiency(self, workload: str = "gemm") -> EfficiencyMetrics:
        """Efficiency of the PE on one workload, honouring capability flags."""
        supported = self.supports_gemm if workload == "gemm" else self.supports_fft
        relative = self.gemm_efficiency if workload == "gemm" else self.fft_efficiency
        util = max(1e-6, relative if supported else 1e-6)
        gflops = 2.0 * self.frequency_ghz * util
        return EfficiencyMetrics(label=f"{self.variant.value}:{workload}", gflops=gflops,
                                 power_w=self.power_w(workload), area_mm2=self.area_mm2,
                                 utilization=util, frequency_ghz=self.frequency_ghz,
                                 precision=self.precision.value)


def build_variant(variant: PEDesignVariant, precision: Precision = Precision.DOUBLE,
                  frequency_ghz: float = 1.0,
                  lac_store_kbytes: float = 16.0) -> HybridPEDesign:
    """Construct one of the three PE variants from the component models."""
    kb = 1024
    if variant is PEDesignVariant.DEDICATED_LAC:
        srams = (
            SRAMModel(SRAMConfig(int(lac_store_kbytes * kb), ports=1, word_bytes=8)),
            SRAMModel(SRAMConfig(2 * kb, ports=2, word_bytes=8)),
        )
        return HybridPEDesign(variant, precision, frequency_ghz, srams,
                              supports_gemm=True, supports_fft=False,
                              gemm_efficiency=1.0, fft_efficiency=0.0)
    if variant is PEDesignVariant.DEDICATED_FFT:
        srams = (
            SRAMModel(SRAMConfig(8 * kb, ports=1, word_bytes=8)),
            SRAMModel(SRAMConfig(8 * kb, ports=1, word_bytes=8)),
        )
        return HybridPEDesign(variant, precision, frequency_ghz, srams,
                              supports_gemm=False, supports_fft=True,
                              gemm_efficiency=0.0, fft_efficiency=1.0)
    # Hybrid: the two single-ported FFT SRAMs sized so that a matrix-A panel
    # also fits; both workloads run with a small efficiency loss relative to
    # the dedicated designs (scheduling constraints and slightly higher
    # per-access energy of the bigger arrays).
    srams = (
        SRAMModel(SRAMConfig(int(lac_store_kbytes * kb), ports=1, word_bytes=8)),
        SRAMModel(SRAMConfig(8 * kb, ports=1, word_bytes=8)),
    )
    return HybridPEDesign(variant, precision, frequency_ghz, srams,
                          supports_gemm=True, supports_fft=True,
                          gemm_efficiency=0.95, fft_efficiency=0.92)


def hybrid_design_comparison(precision: Precision = Precision.DOUBLE,
                             frequency_ghz: float = 1.0) -> List[Dict[str, float]]:
    """Comparison table of the three PE variants (area, power, efficiency).

    The normalised-efficiency columns express each design's GEMM and FFT
    power efficiency relative to the baseline LAC design running GEMM, which
    is how the hybrid-core figure presents the trade-off.
    """
    baseline = build_variant(PEDesignVariant.DEDICATED_LAC, precision, frequency_ghz)
    baseline_eff = baseline.efficiency("gemm").gflops_per_watt
    rows: List[Dict[str, float]] = []
    for variant in PEDesignVariant:
        design = build_variant(variant, precision, frequency_ghz)
        gemm_eff = design.efficiency("gemm").gflops_per_watt if design.supports_gemm else 0.0
        fft_eff = design.efficiency("fft").gflops_per_watt if design.supports_fft else 0.0
        rows.append({
            "variant": variant.value,
            "area_mm2": design.area_mm2,
            "power_gemm_w": design.power_w("gemm") if design.supports_gemm else 0.0,
            "power_fft_w": design.power_w("fft") if design.supports_fft else 0.0,
            "max_power_w": max(design.power_w("gemm"), design.power_w("fft")),
            "gemm_gflops_per_w": gemm_eff,
            "fft_gflops_per_w": fft_eff,
            "gemm_eff_vs_lac": gemm_eff / baseline_eff if baseline_eff > 0 else 0.0,
            "fft_eff_vs_lac": fft_eff / baseline_eff if baseline_eff > 0 else 0.0,
            "supports_gemm": design.supports_gemm,
            "supports_fft": design.supports_fft,
        })
    return rows


def fft_alternatives_comparison() -> List[Dict[str, float]]:
    """Cache-contained double-precision FFT efficiency of several platforms.

    Reference points for the hybrid-core table: published FFT efficiencies of
    general-purpose CPUs, GPUs and DSP-class accelerators scaled to 45 nm,
    against the dedicated-FFT and hybrid LAC designs (GFLOPS/W, 1 GHz).
    """
    rows = [
        {"design": "General-purpose CPU (45nm)", "gflops_per_w": 0.6},
        {"design": "GPU SM (45nm)", "gflops_per_w": 2.5},
        {"design": "Cell SPE (45nm)", "gflops_per_w": 4.5},
        {"design": "DSP accelerator", "gflops_per_w": 12.0},
    ]
    for entry in hybrid_design_comparison():
        if entry["supports_fft"]:
            rows.append({
                "design": f"LAC-{entry['variant']}",
                "gflops_per_w": entry["fft_gflops_per_w"],
            })
    return rows
